"""The formal ring against the cohomology model of `tests/oracles.py`.

At an integer loop value N = delta >= 0 the model H*(Y) = <1, h, ..., h^(n-1), o>
+ <e_1, ..., e_N> shares nothing with `_mul_monomials`: it multiplies factor by
factor, so the rewriting rules are checked, not reused.  A non-integer delta
has no such model.
"""

from random import Random

import pytest

from tautring import (Correspondence, ModelParams, ProjectorSet, TautClass, TautMonomial, ck_projectors,
                      diagonal, diagonal_class, enumerate_basis, euler_char, gram, multiply, pair,
                      tau_class, transpose)
from oracles import (cohomology_action, cohomology_class, cohomology_cup, cohomology_image_rank,
                     cohomology_integral)

# (n, d) over the loop values N = 0..3, b fixed: delta is given outright
PROFILES = [ModelParams(n, d, 3, N) for n, d in ((2, 8), (2, 2), (4, 8)) for N in range(4)]
PROFILE_ID = "n={0.n},d={0.d},delta={0.delta}".format


def raw_monomial(rng: Random, m: int, n: int) -> TautMonomial:
    """A random monomial whose h exponents run up to n + 1, raw powers included."""
    pool = list(range(1, m + 1))
    rng.shuffle(pool)
    pairs = []
    while len(pool) >= 2 and rng.random() < 0.4:
        pairs.append((pool.pop(), pool.pop()))
    hpows, opoints = [], []
    for f in pool:
        state = rng.randrange(n + 3)  # 0 the unit, 1..n+1 an h power, n+2 the point class
        if state == n + 2:
            opoints.append(f)
        elif state:
            hpows.append((f, state))
    return TautMonomial(m, tuple(pairs), tuple(hpows), tuple(opoints))


@pytest.mark.parametrize("params", PROFILES, ids=PROFILE_ID)
def test_the_product_is_the_cup_product_in_the_model(params):
    rng = Random(f"product {params}")
    for _ in range(150):
        m = rng.randint(1, 4)
        x = TautClass.from_monomial(raw_monomial(rng, m, params.n))
        y = TautClass.from_monomial(raw_monomial(rng, m, params.n))
        expected = cohomology_cup(cohomology_class(x, params), cohomology_class(y, params), params)
        assert cohomology_class(multiply(x, y, params), params) == expected, (x, y)


@pytest.mark.parametrize("params", PROFILES, ids=PROFILE_ID)
def test_the_pairing_is_the_integral_of_the_cup_product(params):
    rng, n, nonzero = Random(f"pairing {params}"), params.n, 0
    for m in (1, 2, 3):
        for codim in range(m * n + 1):
            basis, dual = enumerate_basis(params, m, codim), enumerate_basis(params, m, m * n - codim)
            for _ in range(8):
                x = TautClass.from_monomial(rng.choice(basis))
                y = TautClass.from_monomial(rng.choice(dual))
                raw = TautClass.from_monomial(raw_monomial(rng, m, n))
                for a, b in ((x, y), (raw, y), (x, raw)):
                    cup = cohomology_cup(cohomology_class(a, params), cohomology_class(b, params), params)
                    value = pair(a, b, params)
                    assert cohomology_integral(cup, m, params) == value, (a, b)
                    nonzero += value != 0
    assert nonzero > 50


@pytest.mark.parametrize("params", PROFILES, ids=PROFILE_ID)
def test_the_gram_rank_is_the_rank_of_the_image(params):
    # the form on the image is definite, so the radical is the kernel of cl
    m_max = 5 if (params.n, params.d) == (2, 8) else 4 if params.n == 2 else 3
    for m in range(1, m_max + 1):
        for codim in range(m * params.n + 1):
            assert gram(params, m, codim).rank == cohomology_image_rank(params, m, codim), (m, codim)


def test_the_model_sees_the_loop_value_and_the_degree():
    tau = TautClass.from_monomial(TautMonomial(2, pairs=((1, 2),)))
    for N in range(4):
        params = ModelParams(2, 8, 3, N)
        square = cohomology_cup(cohomology_class(tau, params), cohomology_class(tau, params), params)
        assert square == ({(2, 2): N} if N else {})
    h_squared = TautClass.from_monomial(TautMonomial(1, hpows=((1, 2),)))
    assert cohomology_class(h_squared, ModelParams(2, 8, 3)) == {(2,): 8}
    with pytest.raises(ValueError, match="integer delta"):
        cohomology_class(tau, ModelParams(2, 8, 3, "1/2"))


# Y at n in {2, 4}, and the double plane, at each integer loop value N = 0..5
# with b = N + 1, so that delta = b - 1 = N and H*(Y) has n + 1 + N basis vectors
MOTIVE_PROFILES = [ModelParams(n, d, N + 1) for n, d in ((2, 8), (2, 2), (4, 8)) for N in range(6)]


def _graded_basis(params: ModelParams) -> list[tuple[int, int]]:
    """Each label of H*(Y) with its degree: h^k (label k < n) in 2k, o
    (label n) in 2n and each e_a (label n + a) in n."""
    n = params.n
    return [(u, 2 * u if u <= n else n) for u in range(n + 1 + int(params.delta))]


def _acts_as_graded_projections(ps: ProjectorSet) -> bool:
    """Whether each pi^k acts on H*(Y) as the projection onto H^k."""
    params = ps.params
    return all(cohomology_action(ps[k], {(u,): 1}, params) == ({(u,): 1} if degree == k else {})
               for k in ps.indices() for u, degree in _graded_basis(params))


@pytest.mark.parametrize("params", MOTIVE_PROFILES, ids=PROFILE_ID)
def test_the_diagonal_and_the_projectors_act_as_in_cohomology(params):
    for u, _ in _graded_basis(params):
        assert cohomology_action(diagonal(params), {(u,): 1}, params) == {(u,): 1}, u
    cl = cohomology_class(diagonal_class(params), params)
    assert cohomology_integral(cohomology_cup(cl, cl, params), 2, params) == params.n + params.b
    assert euler_char(params) == params.n + params.b
    ps = ck_projectors(params)
    assert _acts_as_graded_projections(ps)


@pytest.mark.parametrize("params", MOTIVE_PROFILES, ids=PROFILE_ID)
def test_the_action_catches_projectors_in_the_wrong_degree(params):
    # both broken sets keep the projector laws; only the grading moves
    ps, n, tau = ck_projectors(params), params.n, tau_class(2, 1, 2)
    transposed = ProjectorSet(params, {k: transpose(ps[k]) for k in ps.indices()})
    assert not _acts_as_graded_projections(transposed)
    moved = ProjectorSet(params, {**ps.projectors, 0: Correspondence(ps[0].cls + tau, 1, 1),
                                  n: Correspondence(ps[n].cls - tau, 1, 1)})
    # tau is sum_a e_a x e_a, which is 0 at N = 0, where the two sets agree in cohomology
    assert _acts_as_graded_projections(moved) == (params.delta == 0)
