"""Integration, projections, the intersection pairing and Gram reports.

The cohomological realization of the formal ring is defined as the
quotient by the radical of the intersection pairing: a class is zero in
cohomology exactly when it pairs to zero with every monomial of
complementary codimension.  Gram reports expose that radical degree by
degree through exact ranks and kernels.
"""

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import (ModelParams, TautClass, TautMonomial, _block_monomials, _check_cell, _codes, _dropped_key,
                      _gram_blocks, _mul_monomials, _perfect_matchings, class_codim, push_products, unit_class)
from .linalg import RationalMatrix, rank_kernel


def integrate(x: TautClass, params: ModelParams) -> Fraction:
    """Degree of the top-codimension component, normalized so o integrates to 1.

    Only the monomial carrying o on every factor has codimension m*n, so
    the integral is simply its coefficient; lower components contribute 0.
    """
    top = TautMonomial(x.m, opoints=tuple(range(1, x.m + 1)))
    return x.coefficient(top)


def pullback(x: TautClass, m_target: int, embedding: Sequence[int]) -> TautClass:
    """Relabel factor i of x to embedding[i-1] inside a product with m_target factors.
    Only the embedding, from outside, is checked: moved by it, a valid monomial stays
    valid, so each is written once, canonical (tau pairs low-high, fields by factor)."""
    if len(embedding) != x.m:
        raise ValueError(f"embedding must list a target for each of {x.m} factors")
    if len(set(embedding)) != len(embedding):
        raise ValueError("embedding must be injective")
    for f in embedding:
        if f.__class__ is not int or not 1 <= f <= m_target:  # 1.5 would pass the range check
            raise ValueError(f"embedding target {f!r} out of range 1..{m_target}")
    at, terms = (0, *embedding), {}  # factor i's target; the moved terms
    for (_, pairs, hpows, opoints), c in x._terms.items():
        pairs = tuple(sorted((a, b) if (a := at[i]) < (b := at[j]) else (b, a) for i, j in pairs))
        hpows, opoints = tuple(sorted((at[f], e) for f, e in hpows)), tuple(sorted(at[f] for f in opoints))
        terms[tuple.__new__(TautMonomial, (m_target, pairs, hpows, opoints))] = c
    return TautClass(m_target, terms)


def pushforward(x: TautClass, kept: Iterable[int], params: ModelParams) -> TautClass:
    """Integrate out the factors not in `kept` and relabel the rest in order.

    A dropped factor contributes 1 when it carries o and kills the term
    otherwise: h powers below n and the unit integrate to 0, and a tau
    edge with a dropped endpoint pushes to 0 because its diagonal part
    cancels against its top Kuenneth correction.
    """
    return push_products(x, (unit_class(x.m),), kept, params)[0]


def pair(x: TautClass, y: TautClass, params: ModelParams) -> Fraction:
    """Intersection pairing: the product pushed to a point."""
    (value,) = push_products(x, (y,), (), params)
    return value.coefficient(TautMonomial(0))


def _mono_pairing(a: TautMonomial, b: TautMonomial, params: ModelParams) -> Fraction:
    """Pairing of two monomials: the top coefficient of their product."""
    result = _mul_monomials(a, b, params)
    return result[0] if result and len(result[1].opoints) == a.m else Fraction(0)  # o on every factor


class GramBlock(namedtuple("GramBlock", "rows cols entries")):
    """One diagonal block of a Gram matrix: the basis positions `rows`, the
    dual positions `cols` (both ascending) and their pairing values."""

    __slots__ = ()


class GramReport(
    namedtuple("GramReport", "basis dual_basis blocks rank kernel_basis")
):
    """Pairing matrix of a codimension basis against its complementary basis.

    The pairing is block diagonal (see `_dropped_key`), so only the blocks
    are stored; `gram` scatters them into the dense matrix on each use,
    with one row per basis monomial and one column per dual monomial.
    `kernel_basis` spans the classes in the row basis that pair to zero
    with every dual monomial, so rank + len(kernel_basis) == len(basis).
    """

    __slots__ = ()

    @property
    def gram(self) -> RationalMatrix:
        entries = [[Fraction(0)] * len(self.dual_basis) for _ in self.basis]
        for block in self.blocks:
            for r, values in zip(block.rows, block.entries.entries):
                row = entries[r]
                for c, value in zip(block.cols, values):
                    row[c] = value
        return RationalMatrix(entries, cols=len(self.dual_basis))


def gram(params: ModelParams, m: int, codim: int) -> GramReport:
    """Exact Gram report at the given power and codimension.

    Each block is paired as `_gram_blocks` lists it: rows and columns are the
    same matchings in the same canonical order (so ascending), with the local
    degrees and their complements, so it is symmetric and is eliminated on its
    own, as paired.  A column is free exactly when it is free within its block,
    and its canonical kernel vector involves only that block's columns, so the
    block kernels, ordered by free column (a vector's last nonzero entry), are
    the canonical kernel of the whole.  Every block is square, so the rank is
    the basis size less the kernel's.
    """
    if m.__class__ is not int or codim.__class__ is not int or m < 1:
        _check_cell(m, codim)  # m < 1 too; before the comparisons below, which "1" or None would break
    n, top = params.n, m * params.n
    if not 0 <= codim <= top:
        raise ValueError(f"codimension {codim} is not in 0..m*n = 0..{top}")
    sides = [(_block_monomials(m, matchings, free, degrees, n),
              _block_monomials(m, matchings, free, [n - e for e in degrees], n))
             for matchings, free, degrees in _gram_blocks(n, m, codim)]
    key = TautMonomial.canonical_str  # the basis and the dual are the sorted unions of the two sides
    basis = sorted([mono for row_monos, _ in sides for mono in row_monos], key=key)
    dual = basis if 2 * codim == top else sorted([mono for _, col_monos in sides for mono in col_monos], key=key)
    row_at = {mono: i for i, mono in enumerate(basis)}
    col_at = row_at if dual is basis else {mono: i for i, mono in enumerate(dual)}  # middle: self-dual
    blocks: list[GramBlock] = []
    kernel: list[tuple[int, TautClass]] = []
    for row_monos, col_monos in sides:
        rows, cols = tuple(map(row_at.__getitem__, row_monos)), tuple(map(col_at.__getitem__, col_monos))
        entries = [[_mono_pairing(a, b, params) for b in col_monos] for a in row_monos]
        block = GramBlock(rows, cols, RationalMatrix(entries, cols=len(cols)))
        blocks.append(block)
        _, vectors = rank_kernel(block.entries)
        for vec in vectors:
            free = max(i for i, c in enumerate(vec) if c)
            terms = {mono: c for mono, c in zip(row_monos, vec) if c}
            kernel.append((rows[free], TautClass(m, terms)))
    blocks.sort(key=lambda block: block.rows[0])
    kernel.sort(key=lambda item: item[0])
    return GramReport(
        basis=tuple(basis),
        dual_basis=tuple(dual),
        blocks=tuple(blocks),
        rank=len(basis) - len(kernel),
        kernel_basis=tuple(cls for _, cls in kernel),
    )


def is_zero_in_cohomology(x: TautClass, params: ModelParams) -> bool:
    """True when x pairs to zero with every monomial of complementary codimension.

    Only the duals in a term's own block (see `_dropped_key`) can pair
    with it: the perfect matchings of its tau-covered factors, with the
    complementary local class on every other factor.
    """
    class_codim(x, params)  # raises on inhomogeneous input
    n, factors = params.n, range(1, x.m + 1)
    duals = []
    for key in dict.fromkeys(_dropped_key(_codes(mono, params), factors, n) for mono in x.terms):
        covered = tuple(f for f, e in zip(factors, key) if e < 0)
        free, degrees = [f for f, e in zip(factors, key) if e >= 0], [n - e for e in key if e >= 0]
        duals += map(TautClass.from_monomial, _block_monomials(x.m, _perfect_matchings(covered), free, degrees, n))
    return all(value.is_zero for value in push_products(x, duals, (), params))
