from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tautring import (
    ModelParams,
    RationalMatrix,
    TautClass,
    TautMonomial,
    diagonal_class,
    enumerate_basis,
    gram,
    h_class,
    integrate,
    is_zero_in_cohomology,
    kimura_element,
    multiply,
    o_class,
    pair,
    pullback,
    push_products,
    pushforward,
    solve_linear,
    tau_class,
    unit_class,
)
from strategies import classes
from tautring import calculus
from tautring.algebra import _gram_blocks
import oracles

P = ModelParams(2, 8, 3)
P2 = ModelParams(2, 8, 2)


def test_integrate_point_class_is_normalized():
    assert integrate(o_class(1, 1), P) == 1


def test_integrate_top_h_power():
    h = h_class(P, 1, 1)
    assert integrate(multiply(h, h, P), P) == 8
    assert integrate(h, P) == 0


def test_integrate_ignores_lower_terms():
    mixed = o_class(1, 1) + unit_class(1).scale(5)
    assert integrate(mixed, P) == 1


def test_pullback_examples():
    tau = tau_class(2, 1, 2)
    assert pullback(tau, 3, (1, 2)) == tau_class(3, 1, 2)
    assert pullback(h_class(P, 1, 1), 3, (3,)) == h_class(P, 3, 3)
    ob = multiply(o_class(2, 1), h_class(P, 2, 2), P)
    expected = multiply(o_class(3, 1), h_class(P, 3, 3), P)
    assert pullback(ob, 3, (1, 3)) == expected


def test_pullback_requires_injective_embedding():
    with pytest.raises(ValueError):
        pullback(tau_class(2, 1, 2), 3, (1, 1))
    with pytest.raises(ValueError):
        pullback(tau_class(2, 1, 2), 3, (1, 4))


@pytest.mark.parametrize("target", [1.5, True], ids=["float", "bool"])
def test_pullback_refuses_a_target_that_is_not_an_int(target):
    # no term lands on the target, so only its type can refuse it
    with pytest.raises(ValueError, match=f"embedding target {target!r} out of range 1..2"):
        pullback(unit_class(1), 2, [target])


def test_pushforward_of_tau_vanishes():
    # diagonal part and top Kuenneth term cancel: the derivation expands
    # tau = diag - (1/d) sum h^j x h^(n-j) and integrates one factor
    assert pushforward(tau_class(2, 1, 2), (2,), P).is_zero


def test_pushforward_point_and_h():
    x = multiply(o_class(2, 1), h_class(P, 2, 2), P)
    assert pushforward(x, (2,), P) == h_class(P, 1, 1)
    hh = multiply(h_class(P, 2, 1), h_class(P, 2, 2), P)
    assert pushforward(hh, (2,), P).is_zero


def test_pushforward_over_nothing_is_identity():
    x = diagonal_class(P)
    assert pushforward(x, (1, 2), P) == x


def test_pushforward_of_diagonal_is_fundamental_class():
    assert pushforward(diagonal_class(P), (1,), P) == unit_class(1)
    assert pushforward(diagonal_class(P), (2,), P) == unit_class(1)


def test_pair_examples():
    tau = tau_class(2, 1, 2)
    assert pair(tau, tau, P) == 2  # loop value b - 1
    assert pair(o_class(2, 1), o_class(2, 2), P) == 1
    hh = multiply(h_class(P, 2, 1), h_class(P, 2, 2), P)
    assert pair(hh, hh, P) == 64
    with pytest.raises(ValueError):
        pair(unit_class(2), unit_class(3), P)


def test_gram_square_example():
    report = gram(P, 2, 2)
    assert [m.canonical_str() for m in report.basis] == ["h1*h2", "o1", "o2", "t(1,2)"]
    assert report.rank == 4
    assert report.kernel_basis == ()
    expected = RationalMatrix(
        [
            [64, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 2],
        ]
    )
    assert report.gram == expected


def test_gram_single_factor_always_full_rank():
    for codim in range(0, 3):
        report = gram(P, 1, codim)
        assert report.rank == len(report.basis) == 1


def test_gram_middle_degree_symmetry():
    report = gram(P, 2, 2)
    assert report.gram == report.gram.transpose()
    report4 = gram(P2, 4, 4)
    assert report4.gram == report4.gram.transpose()


def test_gram_kernel_detects_alternating_element():
    report = gram(P2, 4, 4)
    assert len(report.kernel_basis) >= 1
    element = kimura_element(P2)
    # the element lies in the span of the kernel classes
    columns = [vec for vec in report.kernel_basis]
    matrix = RationalMatrix(
        [[col.coefficient(mono) for col in columns] for mono in report.basis],
        cols=len(columns),
    )
    rhs = [element.coefficient(mono) for mono in report.basis]
    assert solve_linear(matrix, rhs) is not None
    for kernel_class in report.kernel_basis:
        assert is_zero_in_cohomology(kernel_class, P2)


def test_gram_rank_plus_kernel_is_basis_size():
    for codim in range(0, 5):
        report = gram(P, 2, codim)
        assert report.rank + len(report.kernel_basis) == len(report.basis)
        assert len(report.basis) == len(report.dual_basis)


@pytest.mark.parametrize("m, codim", [(2, "1"), (2, None), (2, 1.0), (2, True), ("2", 1), (None, 1), (True, 1)])
def test_gram_refuses_a_cell_that_is_not_an_int(m, codim):
    # gram(P, 2, "1") and gram(P, 2, None) raised TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        gram(P, m, codim)


def test_gram_keeps_its_messages_for_an_int_cell():
    with pytest.raises(ValueError, match="factor count 0 must be an integer >= 1"):
        gram(P, 0, 0)
    with pytest.raises(ValueError, match=r"codimension -1 is not in 0\.\.m\*n = 0\.\.4"):
        gram(P, 2, -1)


@pytest.mark.parametrize("m, codim", [(2, 2), (3, 3), (3, 2), (2, 0)])
def test_gram_lists_the_blocks_of_a_cell_once(monkeypatch, m, codim):
    # one pass over the blocks builds both sides; the basis and the dual are their sorted unions
    count = [0]

    def counting_gram_blocks(*args):
        count[0] += 1
        return _gram_blocks(*args)

    monkeypatch.setattr(calculus, "_gram_blocks", counting_gram_blocks)
    report = gram(P, m, codim)
    assert count[0] == 1
    assert report.basis == tuple(enumerate_basis(P, m, codim))
    assert report.dual_basis == tuple(enumerate_basis(P, m, m * P.n - codim))


def test_gram_reports_are_reproducible():
    assert gram(P, 3, 3) == gram(P, 3, 3)


def test_is_zero_in_cohomology_examples():
    assert is_zero_in_cohomology(TautClass.zero(2), P)
    element = kimura_element(P2)
    assert is_zero_in_cohomology(element, P2)
    assert not is_zero_in_cohomology(tau_class(2, 1, 2), P)
    assert not is_zero_in_cohomology(tau_class(2, 1, 2), P2)


def test_is_zero_requires_homogeneous_input():
    mixed = o_class(1, 1) + unit_class(1)
    with pytest.raises(ValueError):
        is_zero_in_cohomology(mixed, P)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_projection_formula(data):
    params = data.draw(st.sampled_from([P, ModelParams(4, 8, 2)]))
    m = data.draw(st.integers(min_value=2, max_value=3))
    s = data.draw(st.integers(min_value=1, max_value=m - 1))
    image = tuple(sorted(data.draw(st.permutations(range(1, m + 1)))[:s]))
    x = data.draw(classes(s, params.n))
    y = data.draw(classes(m, params.n))
    lhs = pair(pullback(x, m, image), y, params)
    rhs = pair(x, pushforward(y, image, params), params)
    assert lhs == rhs


def test_mono_pairing_agrees_with_integrate_multiply():
    # the Gram fast path and the definitional pairing must agree
    from tautring.calculus import _mono_pairing

    rng = Random(77)
    from strategies import random_monomial

    for _ in range(300):
        params = ModelParams(rng.choice((2, 4)), 8, rng.choice((2, 3)))
        m = rng.randint(1, 4)
        a = random_monomial(rng, m, params.n)
        b = random_monomial(rng, m, params.n)
        direct = _mono_pairing(a, b, params)
        definitional = pair(
            TautClass.from_monomial(a), TautClass.from_monomial(b), params
        )
        assert direct == definitional


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_push_products_matches_pushforward_of_each_product(data):
    n = data.draw(st.sampled_from((2, 4)))
    delta = data.draw(st.sampled_from((2, 0, Fraction(1, 2))))  # b - 1, 0, 1/2
    params = ModelParams(n, 8, 3, delta)
    m = data.draw(st.integers(min_value=1, max_value=4))
    x = data.draw(classes(m, n, max_terms=5))
    ys = data.draw(st.lists(classes(m, n, max_terms=5), max_size=3))
    for size in range(m + 1):
        for kept in combinations(range(1, m + 1), size):
            expected = [oracles.pushforward(multiply(x, y, params), kept, params) for y in ys]
            assert push_products(x, ys, kept, params) == expected
            assert pushforward(x, kept, params) == oracles.pushforward(x, kept, params)
    for y in ys:
        assert pair(x, y, params) == integrate(multiply(x, y, params), params)


def test_push_products_validates_its_operands():
    with pytest.raises(ValueError, match="factor count mismatch"):
        push_products(unit_class(2), [unit_class(3)], (1,), P)
    with pytest.raises(ValueError, match="kept factor 3 out of range"):
        push_products(unit_class(2), [unit_class(2)], (3,), P)


@pytest.mark.parametrize("kept", [[1.5], [1.0], [True], [Fraction(1)], ["1"], [1, True]])
def test_pushforward_refuses_a_kept_factor_that_is_not_an_int(kept):
    # 1.5 passed the range check and pushed o2 forward to 0, where [1] gives 1
    assert pushforward(o_class(2, 2), [1], P) == unit_class(1)
    with pytest.raises(ValueError, match="kept factor"):
        pushforward(o_class(2, 2), kept, P)


def _raw(m: int, e: int, opoints: tuple[int, ...] = ()) -> TautClass:
    """The raw power h_1^e, beside o on `opoints`, as one monomial: not normal form for e >= n."""
    return TautClass.from_monomial(TautMonomial(m, hpows=((1, e),), opoints=opoints))


def _closed(m: int, e: int, params: ModelParams, opoints: tuple[int, ...] = ()) -> TautClass:
    """h_1^e = d*o_1 at e = n and 0 above, beside o on `opoints`."""
    if e > params.n:
        return TautClass.zero(m)
    return TautClass.from_monomial(TautMonomial(m, opoints=(1, *opoints)), params.d)


@pytest.mark.parametrize("e_over_n", [0, 1], ids=["e=n", "e=n+1"])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("d", [2, 8])
def test_a_raw_h_power_closes_to_d_times_o_in_every_product(n, d, e_over_n):
    # the product read h^n = d*o only when both sides carried h on the factor:
    # a lone raw h_1^2 paired with the unit to 1, not 8, at (2, 8, 3)
    params = ModelParams(n, d, 3)
    e = n + e_over_n
    zero = TautClass.zero(2)
    for left, right in ((_raw(2, e), unit_class(2)), (unit_class(2), _raw(2, e))):
        assert multiply(left, right, params) == _closed(2, e, params)
    for other in (o_class(2, 1), h_class(params, 2, 1), tau_class(2, 1, 2)):  # zero on factor 1
        assert multiply(_raw(2, e), other, params) == zero
        assert multiply(other, _raw(2, e), params) == zero
    assert multiply(_raw(2, e), o_class(2, 2), params) == _closed(2, e, params, (2,))
    h2 = TautClass.from_monomial(TautMonomial(2, hpows=((2, n),)))  # a second raw power
    assert multiply(_raw(2, e), h2, params) == _closed(2, e, params, (2,)).scale(d)

    point = d if e == n else 0
    assert pair(_raw(1, e), unit_class(1), params) == point
    assert pair(unit_class(1), _raw(1, e), params) == point
    assert pair(_raw(2, e), o_class(2, 2), params) == point
    for other in (multiply(o_class(2, 1), o_class(2, 2), params),
                  multiply(h_class(params, 2, 1, n - 1), o_class(2, 2), params), tau_class(2, 1, 2)):
        assert pair(_raw(2, e), other, params) == 0

    assert pushforward(_raw(1, e), (), params) == TautClass.from_monomial(TautMonomial(0), point)
    assert pushforward(_raw(2, e, (2,)), (1,), params) == _closed(1, e, params)
    assert pushforward(_raw(2, e), (2,), params) == TautClass.from_monomial(TautMonomial(1), point)
    ys = (unit_class(2), o_class(2, 2), o_class(2, 1), h_class(params, 2, 1), tau_class(2, 1, 2))
    assert push_products(_raw(2, e), ys, (1,), params) == [
        TautClass.zero(1), _closed(1, e, params), TautClass.zero(1), TautClass.zero(1), TautClass.zero(1)
    ]
