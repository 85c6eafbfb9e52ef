"""The formal ring against the cohomology model of `tests/oracles.py`.

At an integer loop value N = delta >= 0 the model H*(Y) = <1, h, ..., h^(n-1), o>
+ <e_1, ..., e_N> shares nothing with `_mul_monomials`: it multiplies factor by
factor, so the rewriting rules are checked, not reused.  A non-integer delta
has no such model.
"""

from random import Random

import pytest

from tautring import ModelParams, TautClass, TautMonomial, enumerate_basis, gram, multiply, pair
from oracles import cohomology_class, cohomology_cup, cohomology_image_rank, cohomology_integral

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
