import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tautring import (
    Correspondence,
    ModelParams,
    ParseError,
    RationalMatrix,
    TautClass,
    TautMonomial,
    basis_count,
    class_codim,
    enumerate_basis,
    expand_diagonal_times_h,
    h_class,
    monomial_codim,
    multiply,
    o_class,
    parse_class,
    pullback,
    tau_class,
    unit_class,
)
from tautring import algebra
from tautring.algebra import (ResourceLimitError, _check_cap, _dropped_key, _local_degrees, _block_monomials,
                              _mul_monomials, _sum)
import oracles
from strategies import monomials

P28_3 = ModelParams(2, 8, 3)
P48_3 = ModelParams(4, 8, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(3, 8, 2)  # odd n
    with pytest.raises(ValueError):
        ModelParams(0, 8, 2)
    with pytest.raises(ValueError):
        ModelParams(2, 0, 2)
    with pytest.raises(ValueError):
        ModelParams(2, 8, 0)
    assert ModelParams(2, 8, 3).delta == Fraction(2)
    assert ModelParams(2, 8, 3, delta=Fraction(7, 2)).delta == Fraction(7, 2)


def test_params_reject_float_delta():
    with pytest.raises(ValueError, match="float"):
        ModelParams(n=2, d=8, b=3, delta=0.1)
    with pytest.raises(ValueError, match="float"):
        ModelParams(n=2, d=8, b=3, delta=0.5)  # exact in binary, still refused
    with pytest.raises(ValueError, match="True is a bool"):
        ModelParams(2, 8, 3, True)  # not the loop value 1
    assert ModelParams(2, 8, 3, delta=1).delta == Fraction(1)
    assert ModelParams(2, 8, 3, delta="1/2").delta == Fraction(1, 2)
    assert ModelParams(2, 8, 3, delta=Fraction(1, 2)).delta == Fraction(1, 2)


@pytest.mark.parametrize("delta", ["1e100000000", "1.5", " 1/2", "1_000", "1/-2", "x", ""])
def test_params_read_a_string_delta_only_as_p_or_p_over_q(delta):
    # Fraction would read 1e100000000 by building 10**100000000 in full
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        ModelParams(2, 8, 3, delta)
    assert ModelParams(2, 8, 3, "-7/3").delta == Fraction(-7, 3)
    assert ModelParams(2, 8, 3, "+4").delta == 4


@pytest.mark.parametrize("build, kind", [
    (lambda: TautClass(1, {TautMonomial(1, opoints=(1,)): 0.1}), "float"),
    (lambda: TautClass.from_monomial(TautMonomial(1), 0.1), "float"),
    (lambda: unit_class(1).scale(0.5), "float"),
    (lambda: TautClass(1, {TautMonomial(1, opoints=(1,)): True}), "bool"),
    (lambda: TautClass.from_monomial(TautMonomial(1), True), "bool"),
    (lambda: unit_class(1).scale(False), "bool"),
], ids=["TautClass", "from_monomial", "scale", "TautClass-bool", "from_monomial-bool", "scale-bool"])
def test_class_coefficients_refuse_floats(build, kind):
    # 0.1 would enter as 3602879701896397/36028797018963968, and True as 1
    with pytest.raises(ValueError, match=f"is a {kind};"):
        build()


def test_make_and_replace_validate():
    # namedtuple builds these through tuple.__new__ unless routed through __new__
    with pytest.raises(ValueError, match="float"):
        ModelParams(n=2, d=8, b=3)._replace(delta=0.1)
    with pytest.raises(ValueError, match="even"):
        ModelParams._make((3, 8, 2, None))
    assert ModelParams(2, 8, 3)._replace(b=5) == ModelParams(2, 8, 5, delta=2)
    with pytest.raises(ValueError, match="distinct"):
        TautMonomial._make((2, ((1, 1),), (), ()))
    with pytest.raises(ValueError, match="out of range"):
        TautMonomial(2)._replace(opoints=(3,))
    assert TautMonomial._make((3, ((3, 1),), (), (2,))) == TautMonomial(3, ((1, 3),), (), (2,))


def test_monomial_validation():
    with pytest.raises(ValueError):
        TautMonomial(2, pairs=((1, 1),))
    with pytest.raises(ValueError):
        TautMonomial(2, pairs=((1, 3),))
    with pytest.raises(ValueError):
        TautMonomial(3, pairs=((1, 2),), opoints=(1,))
    with pytest.raises(ValueError):
        TautMonomial(2, hpows=((1, 0),))


@pytest.mark.parametrize("build", [
    lambda: TautMonomial(2, pairs=((1, 1.5),)),
    lambda: TautMonomial(2, pairs=((True, 2),)),
    lambda: TautMonomial(2, hpows=((1, 1.5),)),
    lambda: TautMonomial(2, hpows=((1, True),)),
    lambda: TautMonomial(2, hpows=((1.0, 1),)),
    lambda: TautMonomial(2, opoints=(True,)),
    lambda: TautMonomial(2, opoints=(2.0,)),
    lambda: TautMonomial(2.0),
    lambda: TautMonomial(True),
    lambda: TautMonomial(2)._replace(opoints=(Fraction(1),)),
    lambda: TautMonomial(2, opoints=(1, "2")),
    lambda: TautMonomial(2, pairs=((1, "2"),)),
], ids=["pair-float", "pair-bool", "exponent-float", "exponent-bool", "h-factor-float",
        "o-bool", "o-float", "m-float", "m-bool", "replace-fraction", "o-str", "pair-str"])
def test_monomial_refuses_non_integers(build):
    with pytest.raises(ValueError, match="integer"):
        build()


@pytest.mark.parametrize("args", [
    (True, 8, 3), (2.0, 8, 3), (2, True, 3), (2, 8.0, 3), (2, 8, True), (2, 8, 3.0),
], ids=["n-bool", "n-float", "d-bool", "d-float", "b-bool", "b-float"])
def test_params_refuse_non_integers(args):
    with pytest.raises(ValueError, match="integer"):
        ModelParams(*args)


@pytest.mark.parametrize("build, match", [
    (lambda: TautClass("1", {}), "factor count"),
    (lambda: TautClass(1.0), "factor count"),
    (lambda: TautClass(True), "factor count"),
    (lambda: TautClass(-1), "factor count"),
    (lambda: TautClass(1, {"x": 1}), "not a TautMonomial"),
    (lambda: TautClass(1, {(1, (), (), ()): 1}), "not a TautMonomial"),
], ids=["m-str", "m-float", "m-bool", "m-negative", "key-str", "key-tuple"])
def test_class_refuses_what_is_not_a_factor_count_or_a_monomial(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_codim_examples():
    assert monomial_codim(TautMonomial(3), P48_3) == 0
    assert monomial_codim(TautMonomial(2, pairs=((1, 2),)), P48_3) == 4
    assert monomial_codim(TautMonomial(3, hpows=((1, 2),), opoints=(3,)), P48_3) == 6


def test_codim_rejects_out_of_normal_form_exponent():
    with pytest.raises(ValueError):
        monomial_codim(TautMonomial(1, hpows=((1, 2),)), P28_3)


def test_relation_h_times_o_dies():
    product = multiply(h_class(P28_3, 1, 1), o_class(1, 1), P28_3)
    assert product.is_zero


def test_relation_tau_squared_gives_loop_value():
    tau = tau_class(2, 1, 2)
    expected = multiply(o_class(2, 1), o_class(2, 2), P28_3).scale(2)  # b - 1 = 2
    assert multiply(tau, tau, P28_3) == expected


def test_relation_tau_contraction():
    product = multiply(tau_class(3, 1, 2), tau_class(3, 1, 3), P28_3)
    expected = multiply(tau_class(3, 2, 3), o_class(3, 1), P28_3)
    assert product == expected
    assert expected == TautClass.from_monomial(TautMonomial(3, pairs=((2, 3),), opoints=(1,)))


def test_relation_h_power_caps_to_point_class():
    h = h_class(P28_3, 1, 1)
    assert multiply(h, h, P28_3) == o_class(1, 1).scale(8)
    assert multiply(multiply(h, h, P28_3), h, P28_3).is_zero


@pytest.mark.parametrize("i, exp", [(1, 2.0), (1, 3.0), (1, 0.0), (1, "1"), (5, 0), (5, 3), (1, True), (1, False)])
def test_h_class_refuses_a_non_int_exponent_and_a_factor_out_of_range(i, exp):
    # 2.0 was 8*o1, 3.0 zero and 0.0 the unit; factor 5 of 2 passed at exponents 0 and 3
    with pytest.raises(ValueError):
        h_class(P28_3, 2, i, exp)
    with pytest.raises(ValueError, match="h exponent must be >= 0"):
        h_class(P28_3, 2, 1, -1)


def test_relation_tau_kills_local_classes():
    tau = tau_class(2, 1, 2)
    assert multiply(tau, h_class(P28_3, 2, 1), P28_3).is_zero
    assert multiply(tau, o_class(2, 1), P28_3).is_zero
    assert multiply(tau, o_class(2, 2), P28_3).is_zero


def test_triple_tau_consistency():
    # both association orders must contract the triangle to delta * o1 o2 o3
    t12, t13, t23 = tau_class(3, 1, 2), tau_class(3, 1, 3), tau_class(3, 2, 3)
    expected = TautClass.from_monomial(TautMonomial(3, opoints=(1, 2, 3)), P28_3.delta)
    left = multiply(multiply(t12, t13, P28_3), t23, P28_3)
    right = multiply(t12, multiply(t13, t23, P28_3), P28_3)
    assert left == expected
    assert right == expected


def test_factor_count_mismatch():
    with pytest.raises(ValueError):
        multiply(unit_class(2), unit_class(3), P28_3)


def test_sum_of_no_classes_is_the_zero_class():
    assert _sum((), 3) == TautClass.zero(3)


def test_sum_drops_terms_that_cancel():
    h1, h2 = h_class(P28_3, 2, 1), h_class(P28_3, 2, 2)
    total = _sum((h1.scale(2), h2, h1.scale(-2), o_class(2, 1), h2.scale(-1)), 2)
    assert total == o_class(2, 1)


def test_sum_refuses_a_class_on_other_factors_as_add_does():
    with pytest.raises(ValueError) as added:
        unit_class(2) + unit_class(3)
    with pytest.raises(ValueError) as summed:
        _sum((unit_class(2), unit_class(3)), 2)
    assert str(summed.value) == str(added.value) == "factor count mismatch: 2 != 3"


def _brute_basis(params, m, codim):
    """Independent enumeration: powerset of disjoint pairs, then local states."""
    all_pairs = list(itertools.combinations(range(1, m + 1), 2))
    found = set()
    states = list(range(params.n)) + ["o"]
    for count in range(m // 2 + 1):
        for pairset in itertools.combinations(all_pairs, count):
            used = [f for p in pairset for f in p]
            if len(set(used)) != len(used):
                continue
            free = [f for f in range(1, m + 1) if f not in used]
            for assign in itertools.product(states, repeat=len(free)):
                total = params.n * len(pairset) + sum(
                    params.n if s == "o" else s for s in assign
                )
                if total != codim:
                    continue
                hpows = tuple((f, s) for f, s in zip(free, assign) if s != "o" and s >= 1)
                opoints = tuple(f for f, s in zip(free, assign) if s == "o")
                found.add(TautMonomial(m, pairset, hpows, opoints))
    return found


def test_enumerate_basis_examples():
    p = ModelParams(2, 8, 2)
    assert [x.canonical_str() for x in enumerate_basis(p, 1, 1)] == ["h1"]
    basis = enumerate_basis(p, 2, 2)
    assert [x.canonical_str() for x in basis] == ["h1*h2", "o1", "o2", "t(1,2)"]
    assert enumerate_basis(p, 1, 3) == []


@pytest.mark.parametrize("n,m,codim", [(2, 2, 2), (2, 3, 3), (2, 4, 4), (4, 2, 5), (4, 3, 8)])
def test_enumerate_basis_matches_brute_force(n, m, codim):
    params = ModelParams(n, 8, 3)
    basis = enumerate_basis(params, m, codim)
    assert len(basis) == len(set(basis))
    assert set(basis) == _brute_basis(params, m, codim)
    assert basis == sorted(basis, key=TautMonomial.canonical_str)
    for mono in basis:
        assert monomial_codim(mono, params) == codim


@pytest.mark.parametrize("n,m", [(n, m) for n in (2, 4) for m in range(1, 8)])
def test_enumerate_basis_matches_the_all_matchings_oracle(n, m):
    params = ModelParams(n, 8, 3)
    for codim in range(m * n + 2):
        assert enumerate_basis(params, m, codim) == oracles.basis_by_all_matchings(params, m, codim)


@pytest.mark.parametrize("n", [2, 4])
def test_local_degrees_and_block_monomials_round_trip_every_basis_monomial(n):
    params = ModelParams(n, 8, 3)
    for m in range(1, 6):
        for codim in range(m * n + 1):
            for mono in enumerate_basis(params, m, codim):
                local = sorted(_local_degrees(mono, n).items())
                free, degrees = [f for f, _ in local], [e for _, e in local]
                assert _block_monomials(m, [mono.pairs], free, degrees, n) == [mono] == [TautMonomial(*mono)]


def test_canonical_str_matches_the_tagged_locals_oracle_on_a_two_digit_basis():
    basis = enumerate_basis(P28_3, 12, 4)
    assert len(basis) == 6336
    assert [x.canonical_str() for x in basis] == [oracles.canonical_str_by_tagged_locals(x) for x in basis]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_str_matches_the_tagged_locals_oracle_on_two_digit_factors(data):
    mono = data.draw(monomials(data.draw(st.integers(min_value=10, max_value=14)), 4))
    assert mono.canonical_str() == str(mono) == oracles.canonical_str_by_tagged_locals(mono)


def test_repr_lists_terms_by_monomial_text():
    h1h2, h1h10 = TautMonomial(10, hpows=((1, 1), (2, 1))), TautMonomial(10, hpows=((1, 1), (10, 1)))
    assert repr(TautClass(10, {h1h2: 1, h1h10: 2})) == "TautClass(10: 2*h1*h10 + 1*h1*h2)"
    x = TautClass(12, {TautMonomial(12, ((3, 11),), ((10, 3),), (2,)): Fraction(-1, 2)})
    assert repr(x) == "TautClass(12: -1/2*t(3,11)*o2*h10^3)"
    assert repr(TautClass(3)) == "TautClass(3: 0)"


def test_enumerate_basis_preconditions():
    with pytest.raises(ValueError):
        enumerate_basis(P28_3, 0, 1)
    with pytest.raises(ValueError):
        enumerate_basis(P28_3, 2, -1)


@pytest.mark.parametrize("m,codim", [(True, 1), (2.0, 2), ("2", 2), (2, True), (2, 2.0), (2, None)])
@pytest.mark.parametrize("count", [enumerate_basis, basis_count])
def test_basis_refuses_a_factor_count_or_codimension_that_is_not_an_int(count, m, codim):
    # a bool is an int to Python, but not a factor count: basis_count(P, True, 1) was 1
    with pytest.raises(ValueError, match="must be an integer"):
        count(P28_3, m, codim)


@pytest.mark.parametrize("terms", [[1], [(TautMonomial(1), 1)], 5, "o1"])
def test_class_refuses_terms_that_are_not_a_mapping(terms):
    with pytest.raises(ValueError, match="must be a mapping"):
        TautClass(1, terms)


PRODUCT_PROFILES = [ModelParams(n, 8, 3, delta) for n in (2, 4) for delta in (None, 0, Fraction(1, 2))]


@pytest.mark.parametrize("params", PRODUCT_PROFILES, ids=lambda p: f"n{p.n}delta{p.delta}")
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_walk_product_matches_the_two_walk_oracle(params, data):
    m = data.draw(st.integers(min_value=1, max_value=12))
    a, b = data.draw(monomials(m, params.n)), data.draw(monomials(m, params.n))
    result = _mul_monomials(a, b, params)
    assert result == oracles.mul_monomials_two_walks(a, b, params)
    if result is not None:  # built without validation, yet as the constructor builds it
        assert result[1] == TautMonomial(*result[1])


def test_one_walk_product_sorts_pairs_that_a_set_yields_out_of_order():
    # the walk starts from the path ends in set order, and {4, 5, 7, 8} yields 8 first
    a, b = TautMonomial(8, ((4, 7), (5, 8))), TautMonomial(8, opoints=(2, 3))
    assert _mul_monomials(a, b, P28_3) == (1, TautMonomial(8, ((4, 7), (5, 8)), (), (2, 3)))


@pytest.mark.parametrize("params", PRODUCT_PROFILES, ids=lambda p: f"n{p.n}delta{p.delta}")
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_basis_monomials_are_as_the_constructor_builds_them(params, data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    codim = data.draw(st.integers(min_value=0, max_value=m * params.n))
    for mono in enumerate_basis(params, m, codim):
        assert mono == TautMonomial(*mono)


PROFILES = [ModelParams(n, 8, b) for n in (2, 4) for b in (2, 3, 22)]


@pytest.mark.parametrize("params", PROFILES, ids=lambda p: f"n{p.n}b{p.b}")
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_commutative_and_associative(params, data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    x = TautClass.from_monomial(data.draw(monomials(m, params.n)))
    y = TautClass.from_monomial(data.draw(monomials(m, params.n)))
    z = TautClass.from_monomial(data.draw(monomials(m, params.n)))
    assert multiply(x, y, params) == multiply(y, x, params)
    left = multiply(multiply(x, y, params), z, params)
    right = multiply(x, multiply(y, z, params), params)
    assert left == right


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_unit_law_and_grading(data):
    params = data.draw(st.sampled_from(PROFILES))
    m = data.draw(st.integers(min_value=1, max_value=4))
    mono_x = data.draw(monomials(m, params.n))
    mono_y = data.draw(monomials(m, params.n))
    x = TautClass.from_monomial(mono_x)
    assert multiply(unit_class(m), x, params) == x
    product = multiply(x, TautClass.from_monomial(mono_y), params)
    if not product.is_zero:
        expected = monomial_codim(mono_x, params) + monomial_codim(mono_y, params)
        assert class_codim(product, params) == expected


def test_normal_form_idempotence_on_random_monomials():
    rng = Random(20240907)
    from strategies import random_monomial

    for _ in range(200):
        params = PROFILES[rng.randrange(len(PROFILES))]
        mono = random_monomial(rng, rng.randint(1, 4), params.n)
        cls = TautClass.from_monomial(mono)
        assert multiply(cls, unit_class(mono.m), params) == cls


def test_multiply_forms_each_term_product_once_and_relabels_none(monkeypatch):
    # multiply is push_products along no factor: one group, so every x term
    # meets every y term once, and the identity relabelling is skipped
    rng = Random(34)
    x, y = (TautClass(4, {mono: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                          for mono in rng.sample(enumerate_basis(P28_3, 4, codim), 12)}) for codim in (3, 4))
    products = []  # the sum of the term products, formed here one by one
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if (product := _mul_monomials(ma, mb, P28_3)) is not None:
                products.append(TautClass.from_monomial(product[1], product[0] * ca * cb))
    expected = _sum(products, 4)
    calls = {"_mul_monomials": 0, "_moved": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(algebra, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(algebra, name, counted)
    assert multiply(x, y, P28_3) == expected and not expected.is_zero
    assert calls == {"_mul_monomials": len(x.terms) * len(y.terms), "_moved": 0}


def test_multiply_refuses_a_class_on_other_factors():
    with pytest.raises(ValueError, match=r"^factor count mismatch: 2 != 3$"):
        multiply(unit_class(2), unit_class(3), P28_3)


def test_the_block_key_over_no_dropped_factor_is_empty():
    mono = TautMonomial(4, pairs=((1, 3),), hpows=((2, 1),), opoints=(4,))
    assert _dropped_key(mono, (), 2) == () == _dropped_key(mono, (), 2, complement=True)
    assert _dropped_key(mono, (1, 2, 3, 4), 2) == (-1, 1, -1, 2)


@given(n=st.sampled_from((2, 4, 6)), m=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_basis_count_is_symmetric_under_the_dual_codimension(n, m):
    # local degrees e <-> n - e match the monomials of codim c and m*n - c,
    # which is why the scan caps a cell by its basis size alone
    params = ModelParams(n, 8, 3)
    for codim in range(m * n + 1):
        assert basis_count(params, m, codim) == basis_count(params, m, m * n - codim)


def test_cap_check_builds_the_partial_rows_only_when_it_refuses():
    rows = [1, 2]
    assert _check_cap(5, 5, "unused", rows) is None
    with pytest.raises(ResourceLimitError, match="^over$") as err:
        _check_cap(6, 5, "over", rows)
    assert err.value.partial == (1, 2)
    with pytest.raises(ResourceLimitError) as err:
        _check_cap(6, 5, "over")
    assert err.value.partial is None


_X2 = TautClass.from_monomial(TautMonomial(2, pairs=((1, 2),)))


# Validation branches that no other test reaches: each call and its outcome,
# a value, or the (exception, message) it raises.
@pytest.mark.parametrize("call, outcome", [
    pytest.param(lambda: parse_class("h1^0", P28_3),
                 (ParseError, "h exponent must be >= 1 (at position 0)"), id="h-exponent-0"),
    pytest.param(lambda: RationalMatrix([]).cols, 0, id="matrix-no-rows"),
    pytest.param(lambda: RationalMatrix([[1]], cols=2),
                 (ValueError, "explicit cols does not match row width"), id="matrix-cols"),
    pytest.param(lambda: repr(RationalMatrix([[1, 2]])), "RationalMatrix(1x2)", id="matrix-repr"),
    pytest.param(lambda: RationalMatrix([[1]]).__eq__([[1]]), NotImplemented, id="matrix-eq-list"),
    pytest.param(lambda: Correspondence(_X2, 0, 0),
                 (ValueError, "source and target blocks must cover at least one factor"),
                 id="correspondence-empty"),
    pytest.param(lambda: pullback(_X2, 3, (1,)),
                 (ValueError, "embedding must list a target for each of 2 factors"),
                 id="pullback-short-embedding"),
    pytest.param(lambda: TautClass(2, {TautMonomial(3): 1}),
                 (ValueError, "monomial on 3 factors in a class on 2"), id="class-factor-count"),
    pytest.param(lambda: expand_diagonal_times_h(P28_3, 3),
                 (ValueError, "factor must be 1 or 2"), id="lemma-factor"),
    pytest.param(lambda: _X2.__add__(1), NotImplemented, id="class-add-int"),
    pytest.param(lambda: _X2.__sub__(1), NotImplemented, id="class-sub-int"),
    pytest.param(lambda: _X2.__eq__("t(1,2)"), NotImplemented, id="class-eq-str"),
])
def test_validation_branches_answer_as_documented(call, outcome):
    if isinstance(outcome, tuple):
        kind, text = outcome
        with pytest.raises(kind) as raised:
            call()
        assert str(raised.value) == text
    else:
        assert call() == outcome
