import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from tautring import (
    ModelParams,
    ResourceLimitError,
    TautClass,
    TautMonomial,
    class_codim,
    falling_factorial_pairing,
    gram,
    kimura_element,
    pair,
    parse_class,
    pullback,
    scan_injectivity,
    verify_kimura_vanishing,
)
from tautring import kimura
from tautring.algebra import _perfect_matchings
from tautring.kimura import _matching_eigenvalue, _matching_gram_rank, _partitions
import oracles

P2 = ModelParams(2, 8, 2)
P3 = ModelParams(2, 8, 3)


def _params(n, b, delta):
    return ModelParams(n, 8, b) if delta is None else ModelParams(n, 8, b, delta=Fraction(delta))


def test_kimura_element_b2():
    element = kimura_element(P2)
    assert element == parse_class("t(1,3)*t(2,4) - t(1,4)*t(2,3)", P2)


def test_kimura_element_b3_shape():
    element = kimura_element(P3)
    assert len(element.terms) == 6
    assert all(abs(c) == 1 for c in element.terms.values())
    assert class_codim(element, P3) == P3.b * P3.n
    for mono in element.terms:
        assert len(mono.pairs) == P3.b
        assert all(i <= P3.b < j for i, j in mono.pairs)


@pytest.mark.parametrize("b", range(1, 7))
def test_kimura_signs_are_the_cycle_type_signs(b):
    # the library counts inversions; the oracle reads the sign off the cycles
    element = kimura_element(ModelParams(2, 8, b))
    assert len(element.terms) == factorial(b)
    for perm in itertools.permutations(range(1, b + 1)):
        mono = TautMonomial(2 * b, tuple((i, b + perm[i - 1]) for i in range(1, b + 1)))
        assert element.coefficient(mono) == oracles.cycle_type_sign(perm), perm


def test_kimura_element_respects_cap():
    with pytest.raises(ResourceLimitError):
        kimura_element(ModelParams(2, 8, 8))
    with pytest.raises(ResourceLimitError):
        kimura_element(P3, cap_b=2)


def test_falling_factorial_examples():
    assert falling_factorial_pairing(2, 1) == 0
    assert falling_factorial_pairing(3, 2) == 0
    assert falling_factorial_pairing(3, 3) == 6


def test_falling_factorial_refuses_a_float_loop_value():
    with pytest.raises(ValueError, match="float"):
        falling_factorial_pairing(3, 2.0)
    with pytest.raises(ValueError, match="True is a bool"):
        falling_factorial_pairing(3, True)  # not the loop value 1, where it is 0


@pytest.mark.parametrize("b", [2.5, -1, True], ids=["float", "negative", "bool"])
def test_falling_factorial_refuses_a_size_that_is_not_a_count(b):
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        falling_factorial_pairing(b, 3)


def test_falling_factorial_matches_closed_form_and_independent_sum():
    deltas = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)]
    for b in range(1, 8):
        for delta in deltas:
            value = falling_factorial_pairing(b, delta)
            closed = Fraction(1)
            for i in range(b):
                closed *= delta - i
            assert value == closed
            independent = Fraction(0)
            for perm in itertools.permutations(range(1, b + 1)):
                independent += oracles.cycle_type_sign(perm) * delta ** oracles.cycle_count(perm)
            assert value == independent


@pytest.mark.parametrize("b", [8, 9, 22])
@pytest.mark.parametrize("delta", [None, Fraction(7, 2), Fraction(-7, 3)], ids=["b-1", "7/2", "-7/3"])
def test_falling_factorial_is_its_closed_form_past_the_element_cap(b, delta):
    # no b! route: kimura_element's cap is 7, and 22! permutations would never finish
    delta = b - 1 if delta is None else delta
    assert falling_factorial_pairing(b, delta) == prod(delta - i for i in range(b))


def test_falling_factorial_vanishes_at_loop_value():
    for b in range(1, 8):
        assert falling_factorial_pairing(b, b - 1) == 0


def test_pairing_against_block_matchings_counts_cycles():
    # <prod tau_(i,b+sigma(i)), prod tau_(i,b+rho(i))> = delta^cycles(sigma rho^-1)
    for b, params in ((2, P2), (3, P3), (4, ModelParams(2, 8, 4))):
        m = 2 * b
        for sigma in itertools.permutations(range(1, b + 1)):
            left = TautClass.from_monomial(
                TautMonomial(m, tuple((i, b + sigma[i - 1]) for i in range(1, b + 1)))
            )
            for rho in itertools.permutations(range(1, b + 1)):
                right = TautClass.from_monomial(
                    TautMonomial(m, tuple((i, b + rho[i - 1]) for i in range(1, b + 1)))
                )
                rho_inv = [0] * b
                for i in range(1, b + 1):
                    rho_inv[rho[i - 1] - 1] = i
                composed = tuple(sigma[rho_inv[i] - 1] for i in range(b))
                expected = params.delta ** oracles.cycle_count(composed)
                assert pair(left, right, params) == expected


def test_kimura_pairing_matches_falling_factorial_for_all_matchings():
    # the sign rule: a perfect matching with a same-side pair pairs to 0 with
    # K, and a crossing rho to sgn(rho) times the falling factorial
    for b in (1, 2, 3, 4):
        for delta in (None, Fraction(7, 3)):
            params = _params(2, b, delta)
            element = kimura_element(params)
            base = falling_factorial_pairing(b, params.delta)
            crossings = 0
            for pairs in _perfect_matchings(tuple(range(1, 2 * b + 1))):
                mono = TautMonomial(2 * b, pairs)
                value = pair(element, TautClass.from_monomial(mono), params)
                if all(i <= b < j for i, j in pairs):
                    rho = [j - b for _, j in sorted(pairs)]
                    assert value == oracles.cycle_type_sign(rho) * base
                    crossings += 1
                else:
                    assert value == 0
            assert crossings == prod(range(1, b + 1))


def test_kimura_element_is_alternating_under_relabeling():
    element = kimura_element(P3)
    swapped = pullback(element, 6, (2, 1, 3, 4, 5, 6))
    assert swapped == -element


def test_vanishing_at_loop_value_and_not_above():
    report = verify_kimura_vanishing(P2)
    assert report.vanishing and report.crosscheck_ok
    shifted = verify_kimura_vanishing(ModelParams(2, 8, 2, delta=Fraction(2)))
    assert not shifted.vanishing
    assert shifted.crosscheck_ok
    report3 = verify_kimura_vanishing(P3)
    assert report3.vanishing and report3.crosscheck_ok


def test_vanishing_respects_gram_cap():
    with pytest.raises(ResourceLimitError):
        verify_kimura_vanishing(P3, cap_gram=10)


@pytest.fixture
def no_work(monkeypatch):
    """Every step past the caps fails: the b! terms, the pairing and the
    ranks."""
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the caps were read")

    for name in ("kimura_element", "pair", "_matching_gram_rank"):
        monkeypatch.setattr(kimura, name, refuse)


LIBRARY_CAPS = {
    "scan cap_gram": lambda cap: scan_injectivity(P3, 2, cap_gram=cap),
    "kimura_element cap_b": lambda cap: kimura_element(P3, cap_b=cap),
    "verify cap_b": lambda cap: verify_kimura_vanishing(P3, cap_b=cap),
    "verify cap_gram": lambda cap: verify_kimura_vanishing(P3, cap_gram=cap),
}


@pytest.mark.parametrize("cap", ["9", 2.5, True], ids=["str", "float", "bool"])
@pytest.mark.parametrize("call", LIBRARY_CAPS.values(), ids=LIBRARY_CAPS)
def test_library_caps_refuse_a_cap_that_is_not_an_int_before_any_work(no_work, call, cap):
    with pytest.raises(ValueError, match=f"cap {cap!r} must be an integer"):
        call(cap)


def test_vanishing_reads_the_gram_cap_before_it_builds_the_element(no_work):
    with pytest.raises(ResourceLimitError, match="^dual basis has .* over the Gram cap 10$"):
        verify_kimura_vanishing(ModelParams(2, 8, 8), cap_b=8, cap_gram=10)


def test_vanishing_reads_the_b_cap_first(no_work):
    with pytest.raises(ResourceLimitError, match=r"^b=9 exceeds the cap 7 \(9! terms\)$"):
        verify_kimura_vanishing(ModelParams(2, 8, 9), cap_gram=10)


KIMURA_DELTAS = (None, 0, Fraction(1, 2), 1, 2, 3, Fraction(7, 3), Fraction(-7, 3))


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize("b", (1, 2, 3, 4))
def test_one_pairing_decides_as_the_radical_test(b, n):
    for delta in KIMURA_DELTAS:
        params = _params(n, b, delta)
        report = verify_kimura_vanishing(params, cap_gram=10**6)
        assert report == oracles.verify_kimura_vanishing(params, cap_gram=10**6)
        # the falling factorial vanishes exactly at delta = 0, 1, ..., b - 1
        assert report.vanishing == (report.delta in range(b))
        assert report.crosscheck_ok


def test_scan_injectivity_thresholds():
    rows = scan_injectivity(P2, 4)
    below = [row for row in rows if row.m <= 2 * P2.b - 1]
    assert all(row.deficiency == 0 for row in below)
    nonzero = [row for row in rows if row.deficiency]
    assert nonzero
    first = nonzero[0]
    assert (first.m, first.codim) == (4, 4)
    for row in rows:
        assert row.rank + row.deficiency == row.basis_size


def test_scan_emits_partial_table_on_resource_limit():
    with pytest.raises(ResourceLimitError) as err:
        scan_injectivity(P2, 4, cap_gram=10)
    partial = err.value.partial
    assert partial is not None
    assert partial
    assert all(row.deficiency == 0 for row in partial)


def test_scan_validates_m_max():
    with pytest.raises(ValueError):
        scan_injectivity(P2, 0)


@pytest.mark.parametrize("m_max", [2.5, "3", True], ids=["float", "str", "bool"])
def test_scan_refuses_an_m_max_that_is_not_an_int(m_max):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        scan_injectivity(P2, m_max)


def test_scan_reads_each_rank_once():
    # r_k is cached where it is defined: a scan misses once per k it reads,
    # k = 0..20 at m_max = 40, and a second scan only hits
    _matching_gram_rank.cache_clear()
    rows = scan_injectivity(P3, 40, cap_gram=10**80)
    first = _matching_gram_rank.cache_info()
    assert first.misses == first.currsize == 21 and first.hits > 0
    assert scan_injectivity(P3, 40, cap_gram=10**80) == rows
    second = _matching_gram_rank.cache_info()
    assert (second.misses, second.currsize) == (21, 21) and second.hits > first.hits


def test_matching_gram_ranks_follow_brauer_invariant_counts():
    # for an integer loop value N the rank of the matching Gram matrix on 2k
    # points is the dimension of the O(N)-invariants of the 2k-fold tensor
    # power; a non-integer loop value leaves it nondegenerate
    def ranks(delta, k_max):
        params = ModelParams(2, 8, 3, delta=delta)
        return [_matching_gram_rank(params, k) for k in range(k_max + 1)]

    def matchings(k):
        return prod(range(1, 2 * k, 2))

    assert ranks(0, 4) == [1, 0, 0, 0, 0]
    assert ranks(1, 4) == [1, 1, 1, 1, 1]
    assert ranks(2, 4) == [1] + [comb(2 * k, k) // 2 for k in range(1, 5)] == [1, 1, 3, 10, 35]
    assert ranks(3, 3) == [matchings(k) for k in range(4)]
    assert ranks(Fraction(1, 2), 4) == [matchings(k) for k in range(5)] == [1, 1, 3, 15, 105]


RANK_DELTAS = [Fraction(x) for x in (0, 1, -1, 2, 3, 4, -2, -3, -5)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(7, 3)
]


@pytest.mark.parametrize("delta", RANK_DELTAS, ids=str)
def test_closed_form_matching_rank_matches_elimination(delta):
    params = ModelParams(2, 8, 3, delta=delta)
    for k in range(5):
        assert _matching_gram_rank(params, k) == oracles._matching_gram_rank(params, k)


@pytest.mark.parametrize(
    "delta",
    (0, 1, 2, 3, 5, 21, -1, -3, Fraction(1, 2), Fraction(2, 3), Fraction(7, 2), Fraction(-7, 3)),
    ids=str,
)
def test_matching_rank_sums_as_over_every_shape(delta):
    params = ModelParams(2, 8, 3, delta=delta)
    for k in range(13):
        assert _matching_gram_rank(params, k) == oracles.matching_gram_rank_by_all_shapes(params, k)


def test_partitions_into_at_most_so_many_parts():
    for k in range(13):
        every = list(_partitions(k, k, k))
        assert len(set(every)) == len(every)
        assert all(sum(shape) == k and list(shape) == sorted(shape, reverse=True) for shape in every)
        for parts in range(k + 2):
            assert list(_partitions(k, k, parts)) == [s for s in every if len(s) <= parts]


def test_column_shape_eigenvalue_is_the_falling_factorial():
    for b in range(1, 6):
        for delta in RANK_DELTAS:
            assert _matching_eigenvalue((1,) * b, delta) == prod(delta - i for i in range(b))


def test_matching_rank_counts_involutions_by_longest_increasing_subsequence():
    # RSK: a second route to r_k at every integer loop value, sharing
    # nothing with the hook lengths or the eigenvalues
    for k in range(8):
        for N in range(2 * k + 2):
            params = ModelParams(2, 8, 3, delta=N)
            assert _matching_gram_rank(params, k) == (
                oracles.matching_gram_rank_by_increasing_subsequences(k, N)), (k, N)


def _catalan(b):
    return comb(2 * b, b) // (b + 1)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 8), (4, 8)], ids=["double-plane", "n2", "n4"])
@pytest.mark.parametrize("b", range(2, 9))
def test_first_radical_is_catalan_on_2b_factors(n, d, b):
    # at the loop value b - 1 the alternating element's relabellings span
    # the first radical: f^(2^b) = C_b classes in the middle codimension
    rows = scan_injectivity(ModelParams(n, d, b), 2 * b, cap_gram=10**80)
    first = next(row for row in rows if row.deficiency)
    assert (first.m, first.codim, first.deficiency) == (2 * b, n * b, _catalan(b))


@pytest.mark.parametrize("n, d", [(2, 2), (2, 8), (4, 8)], ids=["double-plane", "n2", "n4"])
@pytest.mark.parametrize("b", (2, 3))
def test_first_radical_is_catalan_by_elimination(n, d, b):
    assert len(gram(ModelParams(n, d, b), 2 * b, n * b).kernel_basis) == _catalan(b)
