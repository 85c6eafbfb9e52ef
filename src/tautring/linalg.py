"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction`; nothing in this module ever rounds.
The elimination core is one fraction-free Gauss-Jordan pass (Bareiss,
Math. Comp. 22, 1968): rows are cleared to integers and updated with the
two-term minor formula above and below each pivot, so every entry stays
a minor of the input instead of accumulating unreduced numerators, and
the kernel is read off the integer rows.  Pivoting always takes the
first nonzero entry in column order, which makes ranks, kernels and
solutions reproducible bit for bit.
"""

import re
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

Vector = tuple[Fraction, ...]


def _exact(x: Fraction | int | str) -> Fraction:
    """x as a Fraction, refusing a float: it would enter as its binary
    expansion (0.1 as 3602879701896397/36028797018963968), and a bool,
    which is no number.  A string must be p or p/q in integers: Fraction
    would also read 1.5, or 1e30000000 by building 10**30000000."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{x!r} is a {x.__class__.__name__}; pass an int, a Fraction or a 'p/q' string")
    if isinstance(x, str) and not re.fullmatch(r"[+-]?\d+(/\d+)?", x):
        raise ValueError(f"Invalid literal for Fraction: {x!r}")
    return Fraction(x)


class RationalMatrix:
    """Immutable dense matrix with Fraction entries.

    `cols` must be passed explicitly for matrices with zero rows, since
    the shape cannot be recovered from an empty entry list.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction | int]], cols: int | None = None):
        entries = tuple(
            tuple(x if x.__class__ is Fraction else _exact(x) for x in row) for row in entries
        )
        if entries:
            width = len(entries[0])
            if cols is not None and cols != width:
                raise ValueError("explicit cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("non-rectangular matrix")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    def transpose(self) -> "RationalMatrix":
        cols = tuple(tuple(row[c] for row in self.entries) for c in range(self.cols))
        return RationalMatrix(cols, cols=self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _integer_rows(entries: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; preserves row space."""
    out = []
    for row in entries:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination lost exact divisibility")
    return q


def _bareiss(rows: list[list[int]], width: int) -> list[int]:
    """In-place fraction-free Gauss-Jordan elimination, in one pass.

    Pivots are the first nonzero entry in column order.  Each pivot row
    clears its column in every other row, above as well as below, and
    every update divides exactly by the previous pivot, so each entry
    stays a minor of the input.  Returns the pivot columns.  On exit every
    row i < len(piv_cols) holds the last pivot at column piv_cols[i] and
    zeros at the other pivot columns, and all later rows are zero.
    """
    piv_cols: list[int] = []
    prev = 1
    for c in range(width):
        r = len(piv_cols)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        row_r = rows[r]
        piv = row_r[c]
        for i, row_i in enumerate(rows):
            if i != r:
                f = row_i[c]
                rows[i] = [_exact_div(piv * a - f * b, prev) for a, b in zip(row_i, row_r)]
        piv_cols.append(c)
        prev = piv
    return piv_cols


def rank_kernel(matrix: RationalMatrix) -> tuple[int, list[Vector]]:
    """Exact rank and null-space basis of a rational matrix.

    The kernel basis is the canonical one read off the reduced echelon
    form: one vector per free column in ascending order, with a 1 in the
    free position.  rank + len(kernel) == matrix.cols always holds.
    """
    rows = _integer_rows(matrix.entries)
    piv_cols = _bareiss(rows, matrix.cols)
    piv_set = set(piv_cols)
    kernel: list[Vector] = []
    for free in range(matrix.cols):
        if free in piv_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for i, c in enumerate(piv_cols):
            vec[c] = Fraction(-rows[i][free], rows[i][c])
        kernel.append(tuple(vec))
    return len(piv_cols), kernel


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction | int]) -> Vector | None:
    """Solve M x = rhs exactly, or return None when the system is inconsistent.

    The solution is read off the null space of [M | rhs]: the system is
    consistent exactly when the last column is free, and that column's
    canonical kernel vector is then (-x, 1), with x zero on every free
    variable (the minimal-support echelon solution).
    """
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    augmented = RationalMatrix(
        [(*row, x) for row, x in zip(matrix.entries, rhs)], cols=matrix.cols + 1
    )
    kernel = rank_kernel(augmented)[1]
    if not kernel or not kernel[-1][-1]:
        return None
    return tuple(-v for v in kernel[-1][:-1])
