"""Differential tests: the block Gram engine against the dense oracles, and
the closed-form scan against the scan through full Gram reports."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from tautring import (
    ModelParams,
    ResourceLimitError,
    TautClass,
    basis_count,
    enumerate_basis,
    gram,
    is_zero_in_cohomology,
    rank_kernel,
    scan_injectivity,
)
from tautring.algebra import _block_counts, _block_monomials, _gram_blocks
from tautring.kimura import _matching_gram_rank
from oracles import basis_by_all_matchings, dense_gram, dense_is_zero_in_cohomology, gram_scan

DELTAS = (None, Fraction(1, 2), Fraction(0))  # None: the model value b - 1


@st.composite
def cells(draw):
    """A profile with n in {2, 4}, a loop value, and a (power, codimension) cell."""
    n = draw(st.sampled_from((2, 4)))
    params = ModelParams(n, 8, draw(st.sampled_from((2, 3))), delta=draw(st.sampled_from(DELTAS)))
    m = draw(st.integers(min_value=1, max_value=5 if n == 2 else 4))
    codim = draw(st.integers(min_value=0, max_value=m * n))
    return params, m, codim


@given(cell=cells())
@settings(max_examples=80, deadline=None)
def test_block_gram_matches_dense_oracle(cell):
    params, m, codim = cell
    report, oracle = gram(params, m, codim), dense_gram(params, m, codim)
    assert report.basis == oracle.basis and report.dual_basis == oracle.dual_basis
    assert report.rank == oracle.rank
    assert report.kernel_basis == oracle.kernel_basis
    assert report.gram == oracle.gram


@given(cell=cells(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_block_is_zero_matches_dense_oracle(cell, data):
    params, m, codim = cell
    report = gram(params, m, codim)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = TautClass(m)
    if report.kernel_basis:
        for kernel_class in data.draw(st.lists(st.sampled_from(report.kernel_basis), max_size=3)):
            x = x + kernel_class.scale(data.draw(coeffs))
    if report.basis and data.draw(st.booleans()):
        mono = data.draw(st.sampled_from(report.basis))
        x = x + TautClass.from_monomial(mono, data.draw(coeffs))
    assert is_zero_in_cohomology(x, params) == dense_is_zero_in_cohomology(x, params)


@given(cell=cells())
@settings(max_examples=80, deadline=None)
def test_basis_count_matches_enumeration(cell):
    params, m, codim = cell
    assert basis_count(params, m, codim) == len(enumerate_basis(params, m, codim))


def test_blocks_are_perfect_matching_grams():
    # at m = 6, middle codimension, the largest block pairs the 15 perfect
    # matchings of all six factors with each other
    report = gram(ModelParams(2, 8, 3), 6, 6)
    sizes = sorted(len(block.rows) for block in report.blocks)
    assert sizes[-1] == 15
    assert all(len(block.rows) == len(block.cols) for block in report.blocks)
    assert sum(sizes) == len(report.basis)


@pytest.mark.parametrize("delta", (None, 0, 1, -1, Fraction(1, 2), Fraction(2, 3), -3))
@pytest.mark.parametrize("n, m_max", ((2, 6), (4, 5)))
def test_closed_form_scan_matches_gram_oracle(n, m_max, delta):
    params = ModelParams(n, 8, 3, delta=delta)
    assert scan_injectivity(params, m_max, cap_gram=100000) == gram_scan(params, m_max, cap_gram=100000)


@pytest.mark.parametrize("n, cap", ((2, 1), (2, 5), (2, 10), (2, 30), (2, 200), (4, 100)))
def test_capped_scan_matches_gram_oracle(n, cap):
    params = ModelParams(n, 8, 3)
    with pytest.raises(ResourceLimitError) as got:
        scan_injectivity(params, 6, cap_gram=cap)
    with pytest.raises(ResourceLimitError) as want:
        gram_scan(params, 6, cap_gram=cap)
    assert str(got.value) == str(want.value)
    assert got.value.partial == want.value.partial


# Four profiles, a fractional loop value among them, over the small cells and
# over cells whose tau atoms join two-digit factors (m = 10..12), where
# `canonical_str` no longer orders the factors numerically.
SYMMETRY_PROFILES = (ModelParams(2, 8, 3), ModelParams(2, 8, 3, Fraction(1, 2)), ModelParams(4, 8, 5),
                     ModelParams(2, 2, 22))
TWO_DIGIT_CELLS = [(m, codim) for m in (10, 11, 12) for codim in (2, 3, 4)]


@pytest.mark.parametrize("params", SYMMETRY_PROFILES, ids="n={0.n},d={0.d},b={0.b},delta={0.delta}".format)
def test_each_block_is_symmetric_and_of_the_matching_rank(params):
    # gram eliminates each block as paired, which is its transpose only when
    # rows and columns run over the same matchings in the same order and the
    # entries are symmetric; each block's rank is the scan's closed-form r_k;
    # each block's rows ascend (the canonical kernel needs it), and the blocks
    # come by first row
    blocks = 0
    small = [(m, codim) for m in range(1, 6) for codim in range(m * params.n + 1)]
    for m, codim in small + TWO_DIGIT_CELLS:
        report = gram(params, m, codim)
        assert all(list(block.rows) == sorted(block.rows) for block in report.blocks), (m, codim)
        firsts = [block.rows[0] for block in report.blocks]
        assert firsts == sorted(firsts), (m, codim)
        rank = 0
        for block in report.blocks:
            matchings = [report.basis[r].pairs for r in block.rows]
            assert matchings == [report.dual_basis[c].pairs for c in block.cols], (m, codim)
            entries = block.entries.entries
            assert all(row[j] == entries[j][i] for i, row in enumerate(entries) for j in range(len(row)))
            block_rank = _matching_gram_rank(params, len(matchings[0]))
            assert rank_kernel(block.entries)[0] == block_rank, (m, codim, matchings)
            rank += block_rank
        assert report.rank == rank, (m, codim)
        blocks += len(report.blocks)
    assert blocks > 7000


@pytest.mark.parametrize("params", SYMMETRY_PROFILES, ids="n={0.n},d={0.d},b={0.b},delta={0.delta}".format)
def test_the_block_enumeration_lists_each_basis_monomial_once(params):
    # C(m, 2k) * A(m - 2k, codim - nk) blocks of k pairs, whose monomials are
    # the basis, each once
    n = params.n
    small = [(m, codim) for m in range(1, 6) for codim in range(m * n + 1)]
    for m, codim in small + TWO_DIGIT_CELLS:
        blocks = list(_gram_blocks(n, m, codim))
        per_k = Counter(len(matchings[0]) for matchings, _, _ in blocks)
        assert dict(per_k) == {k: count for k, count in _block_counts(n, m, codim) if count}, (m, codim)
        monos = [mono for block in blocks for mono in _block_monomials(m, *block, n)]
        assert len(set(monos)) == len(monos) == basis_count(params, m, codim), (m, codim)
        assert set(monos) == set(basis_by_all_matchings(params, m, codim)), (m, codim)
