"""Reference implementations kept as test oracles.

The dense ones pair every basis monomial with every dual monomial and
eliminate the whole matrix at once; the library splits the same
computation into blocks.  `gram_scan` builds a full Gram report per
cell where the library uses the closed-form block count.  The
differential tests require each pair to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tautring import (
    ModelParams,
    RationalMatrix,
    ResourceLimitError,
    ScanRow,
    ScanTable,
    TautClass,
    TautMonomial,
    basis_count,
    class_codim,
    enumerate_basis,
    gram,
    rank_kernel,
)
from tautring.calculus import _mono_pairing


@dataclass(frozen=True)
class DenseGram:
    basis: tuple[TautMonomial, ...]
    dual_basis: tuple[TautMonomial, ...]
    gram: RationalMatrix
    rank: int
    kernel_basis: tuple[TautClass, ...]


def dense_gram(params: ModelParams, m: int, codim: int) -> DenseGram:
    """Gram matrix of the full basis against the full dual basis, one elimination."""
    basis = enumerate_basis(params, m, codim)
    dual = enumerate_basis(params, m, m * params.n - codim)
    entries = [[_mono_pairing(row, col, params) for col in dual] for row in basis]
    matrix = RationalMatrix(entries, cols=len(dual))
    rank, kernel_vectors = rank_kernel(matrix.transpose())
    kernel = tuple(
        TautClass(m, {mono: c for mono, c in zip(basis, vec) if c}) for vec in kernel_vectors
    )
    return DenseGram(tuple(basis), tuple(dual), matrix, rank, kernel)


def dense_is_zero_in_cohomology(x: TautClass, params: ModelParams) -> bool:
    """Pair x with every monomial of complementary codimension."""
    codim = class_codim(x, params)
    if codim is None:
        return True
    duals = enumerate_basis(params, x.m, x.m * params.n - codim)
    items = list(x.terms.items())
    for dual in duals:
        total = Fraction(0)
        for mono, coeff in items:
            total += coeff * _mono_pairing(mono, dual, params)
        if total:
            return False
    return True


def gram_scan(params: ModelParams, m_max: int, cap_gram: int) -> ScanTable:
    """The injectivity scan through one full Gram report per (m, codim)."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows: list[ScanRow] = []
    for m in range(1, m_max + 1):
        for codim in range(m * params.n + 1):
            size = basis_count(params, m, codim)
            dual_size = basis_count(params, m, m * params.n - codim)
            if max(size, dual_size) > cap_gram:
                raise ResourceLimitError(
                    f"Gram dimension {max(size, dual_size)} at m={m}, codim={codim} "
                    f"exceeds the cap {cap_gram}",
                    partial=ScanTable(params=params, m_max=m_max, rows=tuple(rows)),
                )
            report = gram(params, m, codim)
            rows.append(
                ScanRow(
                    m=m,
                    codim=codim,
                    basis_size=len(report.basis),
                    rank=report.rank,
                    deficiency=len(report.kernel_basis),
                )
            )
    return ScanTable(params=params, m_max=m_max, rows=tuple(rows))
