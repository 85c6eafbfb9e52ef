from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tautring import (
    Correspondence,
    ModelParams,
    basis_count,
    ProjectorSet,
    TautClass,
    TautMonomial,
    act,
    ck_projectors,
    class_codim,
    compose,
    diagonal,
    diagonal_class,
    euler_char,
    expand_diagonal_times_h,
    h_class,
    multiply,
    o_class,
    pullback,
    pushforward,
    small_diagonal,
    solve_gamma3,
    tau_class,
    tensor,
    transpose,
    unit_class,
    verify_ck,
    verify_mck,
)
from strategies import classes
from tautring import motives
import oracles

P = ModelParams(2, 8, 3)
P22 = ModelParams(2, 8, 22)
DP = ModelParams(2, 2, 44)
P4 = ModelParams(4, 8, 5)


def _y(n, delta=None):
    """Y, an intersection of three quadrics of dimension n (d = 8), at its
    own middle Betti number b(n) = n^2 + 5n + 8: 22 only at n = 2."""
    return ModelParams(n, 8, n * n + 5 * n + 8, delta)


def _corr(cls, s=1, t=1):
    return Correspondence(cls, s, t)


def test_diagonal_closed_form():
    expected = (
        tau_class(2, 1, 2)
        + o_class(2, 1)
        + o_class(2, 2)
        + multiply(h_class(P, 2, 1), h_class(P, 2, 2), P).scale(Fraction(1, 8))
    )
    assert diagonal_class(P) == expected


def _terms_built(monkeypatch, n):
    """Terms of every class constructed for the diagonal and its product with h_1."""
    built = [0]
    init = TautClass.__init__

    def counting_init(self, m, terms=None):
        init(self, m, terms)
        built[0] += len(self._terms)

    params = _y(n)
    with monkeypatch.context() as patch:
        patch.setattr(TautClass, "__init__", counting_init)
        diagonal_class(params)
        expand_diagonal_times_h(params, 1)
    return built[0]


def test_the_diagonal_is_built_in_terms_linear_in_n(monkeypatch):
    # a sum that copies the running class per summand builds about 4x the terms at 2n
    assert _terms_built(monkeypatch, 400) <= 2.2 * _terms_built(monkeypatch, 200)


def test_diagonal_is_identity_for_compose():
    diag = diagonal(P)
    rng_classes = [
        tau_class(2, 1, 2) + o_class(2, 1).scale(3),
        multiply(h_class(P, 2, 1), h_class(P, 2, 2), P),
        diagonal_class(P),
    ]
    for cls in rng_classes:
        f = _corr(cls)
        assert compose(diag, f, P).cls == cls
        assert compose(f, diag, P).cls == cls


def test_diagonal_is_symmetric():
    assert transpose(diagonal(P)).cls == diagonal_class(P)


def test_compose_tau_is_idempotent():
    tau = _corr(tau_class(2, 1, 2))
    assert compose(tau, tau, P).cls == tau.cls


def test_compose_block_mismatch():
    f = _corr(small_diagonal(P), 2, 1)
    with pytest.raises(ValueError):
        compose(f, f, P)


def test_correspondence_make_and_replace_validate():
    with pytest.raises(ValueError, match="blocks cover"):
        Correspondence._make((tau_class(2, 1, 2), 1, 2))
    with pytest.raises(ValueError, match="blocks cover"):
        _corr(tau_class(2, 1, 2))._replace(s=2)


@pytest.mark.parametrize(
    "cls, s, t",
    [
        (tau_class(2, 1, 2), 1.0, 1.0),
        (tau_class(3, 1, 2), 1.5, 1.5),
        (tau_class(2, 1, 2), True, True),
        (tau_class(2, 1, 2), 1, True),
        (tau_class(2, 1, 2), Fraction(1), 1),
    ],
)
def test_correspondence_refuses_block_sizes_that_are_not_ints(cls, s, t):
    with pytest.raises(ValueError, match="must be integers"):
        Correspondence(cls, s, t)
    with pytest.raises(ValueError, match="must be integers"):
        Correspondence._make((cls, s, t))


@pytest.mark.parametrize("k", [2.0, False, Fraction(2)])
def test_projector_set_refuses_an_index_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="projector index"):
        ProjectorSet(P, {k: diagonal(P)})


@pytest.mark.parametrize("params", [None, "P", (2, 8, 3)])
@pytest.mark.parametrize("projectors", [{}, {0: ck_projectors(P)[0]}], ids=["empty", "one"])
def test_projector_set_refuses_params_that_are_not_model_params(params, projectors):
    # ProjectorSet(None, {}) was built, and verify_ck of it raised AttributeError
    with pytest.raises(ValueError, match="is not a ModelParams"):
        ProjectorSet(params, projectors)


@pytest.mark.parametrize("cls", ["x", None, 1, TautMonomial(2)])
def test_correspondence_refuses_what_is_not_a_class(cls):
    with pytest.raises(ValueError, match="not a TautClass"):
        Correspondence(cls, 1, 1)


@pytest.mark.parametrize("projectors, match", [
    ({0: tau_class(2, 1, 2)}, "correspondences from one factor"),
    ({0: "x"}, "correspondences from one factor"),
    ([1], "map indices to correspondences"),
    ([(0, diagonal(P))], "map indices to correspondences"),
], ids=["class-value", "str-value", "list", "pairs"])
def test_projector_set_refuses_what_is_not_a_map_to_correspondences(projectors, match):
    with pytest.raises(ValueError, match=match):
        ProjectorSet(P, projectors)


DIAGONAL_PROFILES = [_y(n) for n in (2, 4, 6, 12, 30)] + [DP] + [
    ModelParams(4, 8, 5, delta) for delta in (4, Fraction(1, 2), 0)
]


@pytest.mark.parametrize("params", DIAGONAL_PROFILES, ids=repr)
def test_diagonal_and_projectors_match_the_subtraction_oracle(params):
    assert diagonal_class(params) == oracles.diagonal_from_points(params)
    expected = oracles.projectors_by_subtraction(params)
    ps = ck_projectors(params)
    assert ps.indices() == sorted(expected)
    for k, cls in expected.items():
        assert ps[k].cls == cls


def test_projector_idempotence_and_orthogonality_examples():
    ps = ck_projectors(P)
    p0, p2n = ps[0], ps[2 * P.n]
    assert p0.cls == o_class(2, 1)  # (1/d) h^n x 1 in normal form
    assert p2n.cls == o_class(2, 2)
    assert compose(p0, p0, P).cls == p0.cls
    assert compose(p0, p2n, P).cls.is_zero
    assert compose(p2n, p0, P).cls.is_zero


def test_middle_projector_closed_form():
    ps = ck_projectors(P)
    middle = tau_class(2, 1, 2) + multiply(
        h_class(P, 2, 1, 1), h_class(P, 2, 2, 1), P
    ).scale(Fraction(1, 8))
    assert ps[P.n].cls == middle
    ps4 = ck_projectors(P4)
    middle4 = tau_class(2, 1, 2) + multiply(
        h_class(P4, 2, 1, 2), h_class(P4, 2, 2, 2), P4
    ).scale(Fraction(1, 8))
    assert ps4[P4.n].cls == middle4


def test_double_plane_projector_coefficient():
    ps = ck_projectors(DP)
    # (1/2) h^2 x 1 rewrites to the point class on the first factor
    assert ps[0].cls == h_class(DP, 2, 1, 2).scale(Fraction(1, 2))
    assert ps[0].cls == o_class(2, 1)


def test_projectors_sum_to_diagonal():
    for params in (P, P4, DP):
        ps = ck_projectors(params)
        total = TautClass.zero(2)
        for k in ps.indices():
            total = total + ps[k].cls
        assert total == diagonal_class(params)


def test_transpose_swaps_graded_projectors():
    ps = ck_projectors(P4)
    for j in range(P4.n + 1):
        assert transpose(ps[2 * j]).cls == ps[2 * P4.n - 2 * j].cls


def test_transpose_involution_and_antihomomorphism():
    f = _corr(tau_class(2, 1, 2) + o_class(2, 1))
    g = _corr(diagonal_class(P) - o_class(2, 2).scale(5))
    assert transpose(transpose(f)) == f
    lhs = transpose(compose(f, g, P))
    rhs = compose(transpose(g), transpose(f), P)
    assert lhs.cls == rhs.cls


def test_verify_ck_passes_for_sampled_profiles():
    for params in (ModelParams(2, 8, 2), P, P4):
        report = verify_ck(ck_projectors(params))
        assert report.passed, [c for c in report.checks if not c.ok]


def test_verify_ck_flags_perturbed_projector():
    ps = ck_projectors(P)
    broken = dict(ps.projectors)
    broken[0] = _corr(ps[0].cls.scale(2))
    report = verify_ck(ProjectorSet(params=P, projectors=broken))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok}
    assert "idempotent[0]" in failing
    assert "sum=diagonal" in failing


def test_verify_ck_of_an_empty_set_reports_only_the_sum():
    report = verify_ck(ProjectorSet(P, {}))
    assert [c.name for c in report.checks] == ["sum=diagonal"] and not report.passed


def _projector_sets(params):
    """The projector family and three changes of it: pi^0 doubled, tau
    moved from pi^n to pi^0 (the laws hold again, only the grading moves),
    and the whole diagonal as pi^n."""
    ps, n, tau = ck_projectors(params), params.n, tau_class(2, 1, 2)
    doubled = {**ps.projectors, 0: _corr(ps[0].cls.scale(2))}
    moved = {**ps.projectors, 0: _corr(ps[0].cls + tau), n: _corr(ps[n].cls - tau)}
    whole = {**ps.projectors, n: diagonal(params)}
    return [ps] + [ProjectorSet(params, projectors) for projectors in (doubled, moved, whole)]


@pytest.mark.parametrize("delta", [None, 0, Fraction(1, 2)], ids=["b-1", "0", "1/2"])
@pytest.mark.parametrize(
    "n, d, b",
    [(n, 8, _y(n).b) for n in (2, 4, 6, 12)] + [(2, 2, 44)],
    ids=["n2", "n4", "n6", "n12", "dp"],
)
def test_verify_ck_matches_the_pair_by_pair_oracle(n, d, b, delta):
    sets = _projector_sets(ModelParams(n, d, b, delta))
    reports = [verify_ck(ps) for ps in sets]
    assert [report.passed for report in reports] == [True, False, True, False]
    assert all(any(c.detail for c in report.checks) for report in reports[1::2])
    assert reports == [oracles.verify_ck_pair_by_pair(ps) for ps in sets]


def _count_products(monkeypatch):
    """The names of the product calls motives makes, one entry per call."""
    calls = []
    for name in ("multiply", "push_products"):
        def counted(*args, _name=name, _real=getattr(motives, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(motives, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 12])
def test_verify_ck_forms_the_products_with_one_projector_in_one_batch(monkeypatch, n):
    ps = ck_projectors(_y(n))
    calls = _count_products(monkeypatch)
    assert verify_ck(ps).passed
    assert calls.count("push_products") == n + 1  # not one per pair, (n + 1)^2


@pytest.mark.parametrize("n", [2, 12])
def test_verify_mck_forms_the_products_with_one_operand_in_one_batch(monkeypatch, n):
    params = _y(n)
    calls = _count_products(monkeypatch)
    assert verify_mck(params).passed
    # one batch for the small diagonal, then one per pi^k, not one per (i, j)
    assert calls.count("push_products") == n + 2


def test_compose_forms_its_products_in_one_batch(monkeypatch):
    ps = ck_projectors(P)
    calls = _count_products(monkeypatch)
    compose(ps[0], ps[P.n], P)
    assert calls == ["push_products"]


@pytest.mark.parametrize("n", [12, 24])
def test_solve_gamma3_reads_the_coefficients_off_the_gap(monkeypatch, n):
    calls = _count_products(monkeypatch)
    assert solve_gamma3(_y(n)).residual.is_zero
    # only the three diagonal-times-point terms: the diagonal and the small
    # diagonal are written term by term, and no h-monomial is multiplied out
    assert calls == ["multiply"] * 3


@pytest.mark.parametrize("build", [small_diagonal, diagonal_class, ck_projectors])
def test_diagonals_and_projectors_are_written_without_a_product(monkeypatch, build):
    calls = _count_products(monkeypatch)
    build(_y(12))
    assert calls == []


def test_small_diagonal_contains_tau_point_terms():
    sd = small_diagonal(P)
    assert sd.coefficient(TautMonomial(3, pairs=((1, 2),), opoints=(3,))) == 1
    assert sd.coefficient(TautMonomial(3, pairs=((1, 3),), opoints=(2,))) == 1
    assert sd.coefficient(TautMonomial(3, pairs=((2, 3),), opoints=(1,))) == 1
    assert sd.coefficient(TautMonomial(3, opoints=(2, 3))) == 1
    assert class_codim(sd, P) == 2 * P.n


def test_small_diagonal_is_symmetric():
    for params in (P, P4):
        sd = small_diagonal(params)
        for emb in ((2, 1, 3), (3, 2, 1), (2, 3, 1)):
            assert pullback(sd, 3, emb) == sd


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(2, 8, 3),
        ModelParams(4, 8, 22),  # a b other than b(4) = 44, as an override
        ModelParams(6, 5, 2, Fraction(1, 2)),
        ModelParams(2, 2, 22),
        ModelParams(8, 4, 9, -3),
        ModelParams(2, 7, 3, 0),
        ModelParams(4, 1, 5),
        ModelParams(24, 8, 22),  # a b other than b(24) = 704, as an override
    ],
    ids=lambda p: f"n{p.n}d{p.d}b{p.b}delta{p.delta}",
)
def test_small_diagonal_is_the_product_of_two_diagonals(params):
    assert small_diagonal(params) == oracles.small_diagonal(params)


def test_small_diagonal_agrees_with_other_diagonal_pairings():
    # D_12 D_13 = D_12 D_23 once rewritten
    diag = diagonal_class(P4)
    a = multiply(pullback(diag, 3, (1, 2)), pullback(diag, 3, (1, 3)), P4)
    b = multiply(pullback(diag, 3, (1, 2)), pullback(diag, 3, (2, 3)), P4)
    assert a == b == small_diagonal(P4)


def test_verify_mck_passes():
    report = verify_mck(P)
    assert report.passed
    assert len(report.cases) == 27
    for case in report.cases:
        if case.i + case.j != case.k:
            assert case.zero


@pytest.mark.parametrize(
    "params",
    [_y(n) for n in (2, 4, 6, 8)]
    + [DP, _y(2, 5), ModelParams(4, 8, 3, Fraction(1, 2))],
    ids=lambda p: f"n{p.n}d{p.d}delta{p.delta}",
)
def test_verify_mck_matches_full_compositions(params):
    assert verify_mck(params) == oracles.verify_mck(params)


def test_verify_mck_matches_full_compositions_when_it_fails(monkeypatch):
    def broken(params):  # the whole diagonal as the middle projector
        projectors = dict(ck_projectors(params).projectors)
        projectors[params.n] = diagonal(params)
        return ProjectorSet(params, projectors)

    monkeypatch.setattr(motives, "ck_projectors", broken)
    monkeypatch.setattr(oracles, "ck_projectors", broken)
    report = verify_mck(P4)
    assert any(c.detail for c in report.cases) and any(p.detail for p in report.partition)
    assert report == oracles.verify_mck(P4)


@pytest.mark.parametrize(
    "params", [_y(n) for n in (2, 4, 6, 12)] + [DP], ids=lambda p: f"n{p.n}d{p.d}"
)
def test_tensor_joins_monomials_as_the_full_product(params):
    ps = ck_projectors(params)
    for i in ps.indices():
        for j in ps.indices():
            assert tensor(ps[i], ps[j], params) == oracles.tensor_by_unions(ps[i], ps[j], params)


def test_act_reproduces_grading():
    for params in (P, P4):
        ps = ck_projectors(params)
        n = params.n
        for a in range(n + 1):
            x = h_class(params, 1, 1, a)  # a == n gives d * o
            for k in ps.indices():
                result = act(ps[k], x, params)
                if k == 2 * a:
                    assert result == x
                else:
                    assert result.is_zero


def test_act_validation():
    with pytest.raises(ValueError):
        act(_corr(small_diagonal(P), 2, 1), unit_class(1), P)
    with pytest.raises(ValueError):
        act(diagonal(P), unit_class(2), P)


def test_expand_diagonal_times_h_closed_form_n2():
    result = expand_diagonal_times_h(P, 1)
    expected = multiply(o_class(2, 1), h_class(P, 2, 2), P) + multiply(
        h_class(P, 2, 1), o_class(2, 2), P
    )
    assert result == expected
    assert expand_diagonal_times_h(P, 2) == expected


def test_expand_diagonal_times_h_closed_form_n4():
    # o1 h2 + h1 o2 + (1/8)(h1^2 h2^3 + h1^3 h2^2), built directly
    expected = TautClass(
        2,
        {
            TautMonomial(2, opoints=(1,), hpows=((2, 1),)): Fraction(1),
            TautMonomial(2, opoints=(2,), hpows=((1, 1),)): Fraction(1),
            TautMonomial(2, hpows=((1, 2), (2, 3))): Fraction(1, 8),
            TautMonomial(2, hpows=((1, 3), (2, 2))): Fraction(1, 8),
        },
    )
    assert expand_diagonal_times_h(P4, 1) == expected


def test_tau_times_h_vanishes():
    assert multiply(tau_class(2, 1, 2), h_class(P, 2, 1), P).is_zero


def test_solve_gamma3_n2_exact_coefficients():
    solution = solve_gamma3(P)
    assert solution.residual.is_zero
    nonzero = {exp: c for exp, c in solution.coefficients.items() if c}
    assert nonzero == {
        (0, 2, 2): Fraction(1, 64),
        (2, 0, 2): Fraction(1, 64),
        (2, 2, 0): Fraction(1, 64),
    }


def test_solve_gamma3_n4_symmetric_with_known_values():
    solution = solve_gamma3(P4)
    assert solution.residual.is_zero
    coeffs = solution.coefficients
    assert coeffs[(0, 4, 4)] == Fraction(1, 64)
    assert coeffs[(2, 3, 3)] == Fraction(-1, 64)
    for (i, j, k), value in coeffs.items():
        assert coeffs[(k, j, i)] == value
        assert coeffs[(j, i, k)] == value


@pytest.mark.parametrize(
    "params",
    [_y(n) for n in (2, 4, 6, 8, 12)]
    + [DP, ModelParams(4, 3, 5), ModelParams(6, 5, 2, Fraction(1, 2)), ModelParams(2, 7, 3, 0)]
    + [ModelParams(8, 4, 9, -3)],
    ids=["n2", "n4", "n6", "n8", "n12", "double-plane"]
    + ["n4d3b5", "n6d5b2delta1/2", "n2d7b3delta0", "n8d4b9delta-3"],
)
def test_solve_gamma3_matches_linear_solve(params):
    solution, oracle = solve_gamma3(params), oracles.solve_gamma3(params)
    assert list(solution.coefficients.items()) == list(oracle.coefficients.items())
    assert solution.residual == oracle.residual


@pytest.mark.parametrize("n", [2, 4, 12])
def test_solve_gamma3_keys_its_coefficients_in_exponent_order(n):
    expected = [(i, j, 2 * n - i - j) for i in range(n + 1) for j in range(n - i, n + 1)]
    assert list(solve_gamma3(_y(n)).coefficients) == expected


@pytest.mark.parametrize(
    "n, d, b", [(2, 8, 22), (4, 8, 44), (12, 8, 212), (40, 8, 1808), (2, 2, 22), (2, 2, 8), (6, 3, 5)]
)
def test_solve_gamma3_gives_p_minus_one_over_d_squared(n, d, b):
    # a tau-free term of the small diagonal with p point classes has
    # coefficient d^(p-2) and lies in exactly p of the three D_ij o_k, each
    # with d^(p-2): the gap there is (1 - p) d^(p-2), so a_ijk = (p - 1)/d^2,
    # and the tau-point terms cancel
    solution = solve_gamma3(ModelParams(n, d, b))
    expected = {}
    for i in range(n + 1):
        for j in range(n + 1):
            k = 2 * n - i - j
            if 0 <= k <= n:
                expected[(i, j, k)] = Fraction([i, j, k].count(n) - 1, d * d)
    assert solution.coefficients == expected
    assert solution.residual.is_zero


@pytest.mark.parametrize("params", [_y(2), _y(4), _y(12), DP], ids=["n2", "n4", "n12", "double-plane"])
def test_each_written_class_is_its_whole_cell(params):
    n = params.n
    diag = diagonal_class(params)
    assert len(diag.terms) == basis_count(params, 2, n)
    assert len(small_diagonal(params).terms) == basis_count(params, 3, 2 * n)
    for factor in (1, 2):
        assert len(expand_diagonal_times_h(params, factor).terms) == basis_count(params, 2, n + 1)
    ps = ck_projectors(params)
    pieces = [ps[k].cls.terms for k in ps.indices()]
    merged = {}
    for piece in pieces:
        assert piece and merged.keys().isdisjoint(piece)
        merged.update(piece)
    assert merged == diag.terms


def test_solve_gamma3_leaves_the_stray_term_when_no_polynomial_cancels(monkeypatch):
    # a stray t(1,2)*o3 in the small diagonal is left over by every
    # h-polynomial: the library returns it as the residual, beside the
    # coefficients it reads off as before, and the linear solve finds no
    # solution
    import tautring.motives as motives

    clean = solve_gamma3(P)
    stray = TautClass.from_monomial(TautMonomial(3, ((1, 2),), opoints=(3,)))
    for module in (motives, oracles):
        monkeypatch.setattr(module, "small_diagonal", lambda params: small_diagonal(params) + stray)
    solution = solve_gamma3(P)
    assert solution.residual == stray
    assert solution.coefficients == clean.coefficients
    with pytest.raises(ArithmeticError):
        oracles.solve_gamma3(P)


def test_euler_char_values():
    assert euler_char(P22) == 24
    assert euler_char(DP) == 46
    assert euler_char(P4) == 9


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compose_is_associative(data):
    params = data.draw(st.sampled_from([P, ModelParams(4, 8, 2)]))
    f = _corr(data.draw(classes(2, params.n)))
    g = _corr(data.draw(classes(2, params.n)))
    h = _corr(data.draw(classes(2, params.n)))
    left = compose(compose(f, g, params), h, params)
    right = compose(f, compose(g, h, params), params)
    assert left.cls == right.cls


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_tensor_respects_composition(data):
    # (f1 x f2) o (g1 x g2) == (f1 o g1) x (f2 o g2)
    params = P
    f1 = _corr(data.draw(classes(2, params.n)))
    f2 = _corr(data.draw(classes(2, params.n)))
    g1 = _corr(data.draw(classes(2, params.n)))
    g2 = _corr(data.draw(classes(2, params.n)))
    lhs = compose(tensor(f1, f2, params), tensor(g1, g2, params), params)
    rhs = tensor(compose(f1, g1, params), compose(f2, g2, params), params)
    assert lhs.cls == rhs.cls
