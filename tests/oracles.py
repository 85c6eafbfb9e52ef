"""Dense reference implementations of the Gram engine, kept as test oracles.

These pair every basis monomial with every dual monomial and eliminate
the whole matrix at once.  The library splits the same computation into
blocks; the differential tests require both to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tautring import (
    ModelParams,
    RationalMatrix,
    TautClass,
    TautMonomial,
    class_codim,
    enumerate_basis,
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
