"""Integration, projections, the intersection pairing and Gram reports.

The cohomological realization of the formal ring is defined as the
quotient by the radical of the intersection pairing: a class is zero in
cohomology exactly when it pairs to zero with every monomial of
complementary codimension.  Gram reports expose that radical degree by
degree through exact ranks and kernels.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .algebra import (
    ModelParams,
    TautClass,
    TautMonomial,
    _matchings,
    _mul_monomials,
    class_codim,
    enumerate_basis,
    unit_class,
)
from .linalg import RationalMatrix, rank_kernel


def integrate(x: TautClass, params: ModelParams) -> Fraction:
    """Degree of the top-codimension component, normalized so o integrates to 1.

    Only the monomial carrying o on every factor has codimension m*n, so
    the integral is simply its coefficient; lower components contribute 0.
    """
    top = TautMonomial(x.m, opoints=tuple(range(1, x.m + 1)))
    return x.coefficient(top)


def pullback(x: TautClass, m_target: int, embedding: Sequence[int]) -> TautClass:
    """Relabel factor i of x to embedding[i-1] inside a product with m_target factors."""
    if len(embedding) != x.m:
        raise ValueError(f"embedding must list a target for each of {x.m} factors")
    if len(set(embedding)) != len(embedding):
        raise ValueError("embedding must be injective")
    for f in embedding:
        if not 1 <= f <= m_target:
            raise ValueError(f"embedding target {f} out of range 1..{m_target}")
    relabel = {i + 1: f for i, f in enumerate(embedding)}
    return TautClass(m_target, {_moved(mono, relabel, m_target): c for mono, c in x._terms.items()})


def pushforward(x: TautClass, kept: Iterable[int], params: ModelParams) -> TautClass:
    """Integrate out the factors not in `kept` and relabel the rest in order.

    A dropped factor contributes 1 when it carries o and kills the term
    otherwise: h powers below n and the unit integrate to 0, and a tau
    edge with a dropped endpoint pushes to 0 because its diagonal part
    cancels against its top Kuenneth correction.
    """
    return push_products(x, (unit_class(x.m),), kept, params)[0]


def _split(m: int, kept: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """The kept factors, each mapped to its place in order, and the dropped
    ones in order; kept factors are checked against m."""
    kept_sorted = sorted(set(kept))
    for f in kept_sorted:
        if not 1 <= f <= m:
            raise ValueError(f"kept factor {f} out of range 1..{m}")
    relabel = {f: i + 1 for i, f in enumerate(kept_sorted)}
    return relabel, [f for f in range(1, m + 1) if f not in relabel]


def _moved(mono: TautMonomial, relabel: dict[int, int], m: int) -> TautMonomial:
    """A monomial relabelled onto m factors.  Every unlabelled factor must
    carry o, which is integrated out (to 1)."""
    return TautMonomial(
        m,
        tuple((relabel[i], relabel[j]) for i, j in mono.pairs),
        tuple((relabel[f], e) for f, e in mono.hpows),
        tuple(relabel[f] for f in mono.opoints if f in relabel),
    )


def _dropped_key(
    mono: TautMonomial, dropped: Sequence[int], n: int, complement: bool = False
) -> tuple:
    """Per dropped factor: -1 where a tau edge covers it, else its local
    degree (0 unit, n point class), or n minus that with `complement`.

    This is the block rule of the pairing.  A term product carries o on a
    dropped factor exactly when both terms cover it by tau (it lies inside
    a path or on a cycle), or neither does and their local degrees sum to
    n.  So the product of an x term and a y term survives a pushforward
    only when the x key equals the complemented y key; over all factors,
    two monomials pair to nonzero only when tau covers the same factors in
    both and their local degrees are complementary on every other factor.
    """
    covered = {f for p in mono.pairs for f in p}
    local = dict(mono.hpows)
    local.update((f, n) for f in mono.opoints)
    if complement:
        return tuple(-1 if f in covered else n - local.get(f, 0) for f in dropped)
    return tuple(-1 if f in covered else local.get(f, 0) for f in dropped)


def push_products(
    x: TautClass, ys: Iterable[TautClass], kept: Iterable[int], params: ModelParams
) -> list[TautClass]:
    """[pushforward(multiply(x, y), kept) for y in ys], forming only the
    term products that survive the pushforward.

    x's terms are grouped once by `_dropped_key`, and each y term is
    multiplied only with the group under its complemented key.
    """
    relabel, dropped = _split(x.m, kept)
    n, m_kept = params.n, len(relabel)
    groups: dict[tuple, list[tuple[TautMonomial, Fraction]]] = {}
    for mono, coeff in x._terms.items():
        groups.setdefault(_dropped_key(mono, dropped, n), []).append((mono, coeff))
    out = []
    for y in ys:
        if x.m != y.m:
            raise ValueError(f"factor count mismatch: {x.m} != {y.m}")
        acc: dict[TautMonomial, Fraction] = {}
        for mb, cb in y._terms.items():
            for ma, ca in groups.get(_dropped_key(mb, dropped, n, complement=True), ()):
                result = _mul_monomials(ma, mb, params)
                if result is None:
                    continue
                coeff, mono = result
                moved = _moved(mono, relabel, m_kept)
                coeff *= ca * cb
                prev = acc.get(moved)
                acc[moved] = coeff if prev is None else prev + coeff
        out.append(TautClass(m_kept, acc))
    return out


def pair(x: TautClass, y: TautClass, params: ModelParams) -> Fraction:
    """Intersection pairing: the product pushed to a point."""
    (value,) = push_products(x, (y,), (), params)
    return value.coefficient(TautMonomial(0))


def _mono_pairing(a: TautMonomial, b: TautMonomial, params: ModelParams) -> Fraction:
    """Pairing of two monomials: the top coefficient of their product."""
    result = _mul_monomials(a, b, params)
    if result is None:
        return Fraction(0)
    coeff, mono = result
    if mono.pairs or mono.hpows or len(mono.opoints) != mono.m:
        return Fraction(0)
    return coeff


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


def _group(
    monos: Sequence[TautMonomial], factors: range, n: int, complement: bool = False
) -> dict[tuple, list[int]]:
    groups: dict[tuple, list[int]] = {}
    for idx, mono in enumerate(monos):
        groups.setdefault(_dropped_key(mono, factors, n, complement), []).append(idx)
    return groups


def gram(params: ModelParams, m: int, codim: int) -> GramReport:
    """Exact Gram report at the given power and codimension.

    Each block is eliminated on its own.  A column of the dense matrix is
    free exactly when it is free within its block, and its canonical
    kernel vector only involves columns of the same block, so the block
    kernels, ordered by free column (a vector's last nonzero entry), are
    the canonical kernel of the whole matrix.
    """
    top = m * params.n
    if m >= 1 and not 0 <= codim <= top:  # enumerate_basis rejects m < 1
        raise ValueError(f"codimension {codim} is not in 0..m*n = 0..{top}")
    basis = enumerate_basis(params, m, codim)
    dual = enumerate_basis(params, m, m * params.n - codim)
    factors = range(1, m + 1)
    dual_groups = _group(dual, factors, params.n, complement=True)
    blocks: list[GramBlock] = []
    rank = 0
    kernel: list[tuple[int, TautClass]] = []
    for key, rows in _group(basis, factors, params.n).items():
        cols = dual_groups.get(key, [])
        entries = [[_mono_pairing(basis[r], dual[c], params) for c in cols] for r in rows]
        block = GramBlock(tuple(rows), tuple(cols), RationalMatrix(entries, cols=len(cols)))
        blocks.append(block)
        block_rank, vectors = rank_kernel(block.entries.transpose())
        rank += block_rank
        for vec in vectors:
            free = max(i for i, c in enumerate(vec) if c)
            terms = {basis[r]: c for r, c in zip(rows, vec) if c}
            kernel.append((rows[free], TautClass(m, terms)))
    kernel.sort(key=lambda item: item[0])
    return GramReport(
        basis=tuple(basis),
        dual_basis=tuple(dual),
        blocks=tuple(blocks),
        rank=rank,
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
    for key in dict.fromkeys(_dropped_key(mono, factors, n) for mono in x.terms):
        covered = tuple(f for f, e in zip(factors, key) if e < 0)
        hpows = tuple((f, n - e) for f, e in zip(factors, key) if 0 < e < n)
        opoints = tuple(f for f, e in zip(factors, key) if e == 0)
        duals += [
            TautClass.from_monomial(TautMonomial(x.m, pairs, hpows, opoints))
            for pairs in _matchings(covered, len(covered) // 2)
        ]
    return all(value.is_zero for value in push_products(x, duals, (), params))
