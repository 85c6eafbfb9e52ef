"""Reference implementations kept as test oracles.

The dense ones pair every basis monomial with every dual monomial and
eliminate the whole matrix at once; the library splits the same
computation into blocks.  `gram_scan` builds a full Gram report per
cell where the library uses the closed-form block count, and
`_matching_gram_rank` eliminates the matching Gram matrix whose rank the
library reads off its eigenvalues, and `matching_gram_rank_by_all_shapes`
sums those eigenvalues' multiplicities over every partition, where the
library skips the shapes too tall to count at an integer loop value.  `solve_gamma3` solves the linear
system whose solution the library reads off monomial by monomial.
`compose` and `verify_mck` form every product on the triple product and
then push forward, where the library forms only the products that
survive the pushforward.  `pushforward` keeps the terms that carry o on
every dropped factor, where the library pushes the product with the
unit through `push_products`.  `tensor` multiplies the two pullbacks in
full, where the library joins their monomials.  `verify_kimura_vanishing` runs the radical
test on the alternating element and pairs it with every crossing
matching, where the library pairs it with one.  `basis_by_all_matchings`
walks every partial matching and every local degree, where the library
enumerates only those that can reach the codimension.
`diagonal_from_points` writes the diagonal as o1 + o2 plus the inner
h-sum, and `projectors_by_subtraction` takes the middle projector as the
diagonal minus the others, where the library sums one Kuenneth piece per
degree and writes the middle one as tau plus its own piece.
`two_phase_rank_kernel` eliminates forward over the integers and then
back-substitutes over Fractions, where the library makes one
fraction-free Gauss-Jordan pass.  The differential
tests require each pair to agree exactly.  `argparse_parser` reads argv
with argparse, where the CLI reads it from its option table; the parser
tests name the argv on which the two may differ.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass
from fractions import Fraction

from tautring import (
    CheckResult,
    Correspondence,
    Gamma3Solution,
    KimuraReport,
    MckCase,
    MckReport,
    ModelParams,
    RationalMatrix,
    ResourceLimitError,
    ScanRow,
    TautClass,
    TautMonomial,
    basis_count,
    ck_projectors,
    class_codim,
    format_class,
    enumerate_basis,
    falling_factorial_pairing,
    gram,
    h_class,
    is_zero_in_cohomology,
    kimura_element,
    multiply,
    o_class,
    pair,
    pullback,
    rank_kernel,
    solve_linear,
    tau_class,
)
from tautring.algebra import _matchings
from tautring.calculus import _mono_pairing
from tautring.kimura import (
    DEFAULT_B_CAP,
    DEFAULT_GRAM_CAP,
    _doubled_shape_dimension,
    _matching_eigenvalue,
    _partitions,
    _sign,
)
from tautring.linalg import _exact_div, _integer_rows
from tautring.motives import diagonal_class, small_diagonal


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


def gram_scan(params: ModelParams, m_max: int, cap_gram: int) -> tuple[ScanRow, ...]:
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
                    partial=tuple(rows),
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
    return tuple(rows)


def _all_matchings(avail: tuple[int, ...]):
    if not avail:
        yield ()
        return
    first, rest = avail[0], avail[1:]
    yield from _all_matchings(rest)
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1 :]
        for sub in _all_matchings(remaining):
            yield ((first, partner),) + sub


def _all_local_assignments(factors: tuple[int, ...], total: int, n: int):
    # degree n on a factor means the point class o
    if not factors:
        if total == 0:
            yield ((), ())
        return
    f, rest = factors[0], factors[1:]
    for deg in range(min(n, total) + 1):
        for hp, op in _all_local_assignments(rest, total - deg, n):
            if deg == 0:
                yield hp, op
            elif deg == n:
                yield hp, (f,) + op
            else:
                yield ((f, deg),) + hp, op


def basis_by_all_matchings(params: ModelParams, m: int, codim: int) -> list[TautMonomial]:
    """The basis through every partial matching of the m factors."""
    n = params.n
    if codim > m * n:
        return []
    out: list[TautMonomial] = []
    factors = tuple(range(1, m + 1))
    for pairs in _all_matchings(factors):
        rem = codim - n * len(pairs)
        if rem < 0:
            continue
        matched = {f for p in pairs for f in p}
        unmatched = tuple(f for f in factors if f not in matched)
        for hp, op in _all_local_assignments(unmatched, rem, n):
            out.append(TautMonomial(m, pairs, hp, op))
    out.sort(key=TautMonomial.canonical_str)
    return out


def argparse_parser() -> argparse.ArgumentParser:
    """The CLI's option table as an argparse parser, one subparser per command."""
    from tautring.cli import _COMMON, COMMANDS

    parser = argparse.ArgumentParser(prog="tautring")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in _COMMON + command.options:
            if kwargs.get("action") == "negatable":
                kwargs = dict(kwargs, action=argparse.BooleanOptionalAction)
            p.add_argument(flag, **kwargs)
    return parser


def _forward_bareiss(rows: list[list[int]], width: int) -> list[int]:
    """In-place fraction-free forward elimination.

    Pivots are the first nonzero entry in column order.  Returns the pivot
    columns; on exit the first len(piv_cols) rows are an integer echelon
    form and all later rows are zero.
    """
    piv_cols: list[int] = []
    nrows = len(rows)
    r = 0
    prev = 1
    for c in range(width):
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            f = row_i[c]
            if f:
                for j in range(c + 1, width):
                    row_i[j] = _exact_div(piv * row_i[j] - f * row_r[j], prev)
                row_i[c] = 0
            else:
                for j in range(c + 1, width):
                    if row_i[j]:
                        row_i[j] = _exact_div(piv * row_i[j], prev)
        piv_cols.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return piv_cols


def _rref(rows: list[list[int]], piv_cols: list[int]) -> list[list[Fraction]]:
    """Reduced echelon form (pivot entries 1, zeros above) of the pivot rows."""
    rank = len(piv_cols)
    reduced = [[Fraction(v) for v in rows[i]] for i in range(rank)]
    for i in range(rank - 1, -1, -1):
        c = piv_cols[i]
        inv = reduced[i][c]
        reduced[i] = [v / inv for v in reduced[i]]
        for k in range(i):
            f = reduced[k][c]
            if f:
                reduced[k] = [a - f * b for a, b in zip(reduced[k], reduced[i])]
    return reduced


def two_phase_rank_kernel(matrix: RationalMatrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    """rank_kernel in two passes: forward fraction-free elimination to an
    integer echelon form, then back-substitution over Fractions to the
    reduced echelon form, whose columns give the canonical kernel."""
    rows = _integer_rows(matrix.entries)
    piv_cols = _forward_bareiss(rows, matrix.cols)
    reduced = _rref(rows, piv_cols)
    kernel = []
    for free in range(matrix.cols):
        if free in piv_cols:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for i, c in enumerate(piv_cols):
            vec[c] = -reduced[i][free]
        kernel.append(tuple(vec))
    return len(piv_cols), kernel


def rank(matrix: RationalMatrix) -> int:
    """Exact rank of a rational matrix: the forward elimination alone."""
    return len(_forward_bareiss(_integer_rows(matrix.entries), matrix.cols))


def mat_vec(matrix: RationalMatrix, vec) -> tuple[Fraction, ...]:
    """The product M v, entry by entry."""
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0))
                 for row in matrix.entries)


def _matching_gram_rank(params: ModelParams, k: int) -> int:
    """Rank r_k(delta) of the perfect-matching Gram matrix on 2k points,
    whose (mu, nu) entry is delta^cycles(mu union nu), by elimination."""
    points = tuple(range(1, 2 * k + 1))
    monos = [TautMonomial(2 * k, pairs) for pairs in _matchings(points, k)]
    return rank(RationalMatrix([[_mono_pairing(a, b, params) for b in monos] for a in monos]))


def matching_gram_rank_by_all_shapes(params: ModelParams, k: int) -> int:
    """r_k(delta) as the sum of f^(2 lambda) over every partition lambda of
    k whose eigenvalue is nonzero."""
    return sum(
        _doubled_shape_dimension(shape)
        for shape in _partitions(k, k, k)
        if _matching_eigenvalue(shape, params.delta)
    )


def solve_gamma3(params: ModelParams) -> Gamma3Solution:
    """The modified small diagonal through one exact linear solve over the
    codimension-2n basis of the cube."""
    n = params.n
    diag = diagonal_class(params)
    gap = small_diagonal(params)
    for (fi, fj), other in (((1, 2), 3), ((1, 3), 2), ((2, 3), 1)):
        gap = gap - multiply(pullback(diag, 3, (fi, fj)), o_class(3, other), params)
    exponents = sorted(
        (i, j, 2 * n - i - j) for i in range(n + 1) for j in range(n + 1) if 0 <= 2 * n - i - j <= n
    )
    columns = []
    for i, j, k in exponents:
        cls = multiply(h_class(params, 3, 1, i), h_class(params, 3, 2, j), params)
        columns.append(multiply(cls, h_class(params, 3, 3, k), params))
    basis = enumerate_basis(params, 3, 2 * n)
    matrix = RationalMatrix(
        [[col.coefficient(mono) for col in columns] for mono in basis], cols=len(columns)
    )
    solution = solve_linear(matrix, [-gap.coefficient(mono) for mono in basis])
    if solution is None:
        raise ArithmeticError("no polarization polynomial cancels the small diagonal")
    residual = gap
    for value, col in zip(solution, columns):
        residual = residual + col.scale(value)
    return Gamma3Solution(coefficients=dict(zip(exponents, solution)), residual=residual)


def pushforward(x: TautClass, kept, params: ModelParams) -> TautClass:
    """Integrate out the factors not in `kept` term by term: a term
    survives only when every dropped factor carries o."""
    kept = sorted(set(kept))
    relabel = {f: i + 1 for i, f in enumerate(kept)}
    dropped = set(range(1, x.m + 1)) - set(kept)
    acc: dict[TautMonomial, Fraction] = {}
    for mono, coeff in x.terms.items():
        if not dropped <= set(mono.opoints):
            continue
        moved = TautMonomial(
            len(kept),
            tuple((relabel[i], relabel[j]) for i, j in mono.pairs),
            tuple((relabel[f], e) for f, e in mono.hpows),
            tuple(relabel[f] for f in mono.opoints if f in relabel),
        )
        acc[moved] = acc.get(moved, Fraction(0)) + coeff
    return TautClass(len(kept), acc)


def diagonal_from_points(params: ModelParams) -> TautClass:
    """The diagonal as tau + o1 + o2 plus (1/d) h^j x h^(n-j) for j = 1..n-1."""
    n, d = params.n, params.d
    total = tau_class(2, 1, 2) + o_class(2, 1) + o_class(2, 2)
    for j in range(1, n):
        term = multiply(h_class(params, 2, 1, j), h_class(params, 2, 2, n - j), params)
        total = total + term.scale(Fraction(1, d))
    return total


def projectors_by_subtraction(params: ModelParams) -> dict[int, TautClass]:
    """pi^(2j) = (1/d) h^(n-j) x h^j for 2j != n, and pi^n the diagonal
    minus all of those."""
    n, d = params.n, params.d
    projectors = {}
    middle = diagonal_from_points(params)
    for j in range(n + 1):
        if 2 * j == n:
            continue
        cls = multiply(h_class(params, 2, 1, n - j), h_class(params, 2, 2, j), params)
        projectors[2 * j] = cls.scale(Fraction(1, d))
        middle = middle - projectors[2 * j]
    projectors[n] = middle
    return projectors


def small_diagonal_correspondence(params: ModelParams) -> Correspondence:
    """The triple diagonal read as the multiplication map from two factors to one."""
    return Correspondence(small_diagonal(params), 2, 1)


def compose(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """f o g: the whole product on the triple product, then the pushforward."""
    total = g.s + g.t + f.t
    left = pullback(g.cls, total, tuple(range(1, g.s + g.t + 1)))
    right = pullback(f.cls, total, tuple(range(g.s + 1, total + 1)))
    kept = list(range(1, g.s + 1)) + list(range(g.s + g.t + 1, total + 1))
    return Correspondence(pushforward(multiply(left, right, params), kept, params), g.s, f.t)


def tensor(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """f x g: the full product of the two pullbacks in the ring."""
    total = f.s + g.s + f.t + g.t
    emb_f = tuple(range(1, f.s + 1)) + tuple(range(f.s + g.s + 1, f.s + g.s + f.t + 1))
    emb_g = tuple(range(f.s + 1, f.s + g.s + 1)) + tuple(range(f.s + g.s + f.t + 1, total + 1))
    cls = multiply(pullback(f.cls, total, emb_f), pullback(g.cls, total, emb_g), params)
    return Correspondence(cls, f.s + g.s, f.t + g.t)


def verify_mck(params: ModelParams) -> MckReport:
    """The multiplicativity check, one full composition at a time."""
    ps = ck_projectors(params)
    sm = small_diagonal_correspondence(params)
    indices = ps.indices()
    cases: list[MckCase] = []
    partition: list[CheckResult] = []
    for i in indices:
        for j in indices:
            mij = compose(sm, tensor(ps[i], ps[j], params), params)
            ksum = TautClass.zero(3)
            for k in indices:
                piece = compose(ps[k], mij, params)
                ksum = ksum + piece.cls
                required = i + j != k
                zero = piece.cls.is_zero
                ok = zero or not required
                detail = "" if ok else format_class(piece.cls, params)
                cases.append(MckCase(i, j, k, required, zero, ok, detail))
            ok = ksum == mij.cls
            partition.append(
                CheckResult(
                    f"partition[{i},{j}]",
                    ok,
                    "" if ok else f"sum-over-k mismatch: {format_class(ksum - mij.cls, params)}",
                )
            )
    passed = all(c.ok for c in cases) and all(p.ok for p in partition)
    return MckReport(cases=tuple(cases), partition=tuple(partition), passed=passed)


def verify_kimura_vanishing(
    params: ModelParams, cap_b: int = DEFAULT_B_CAP, cap_gram: int = DEFAULT_GRAM_CAP
) -> KimuraReport:
    """Radical membership of the alternating element by the radical test,
    and its pairing with every crossing matching against the signed
    falling factorial."""
    element = kimura_element(params, cap_b)
    b, m = params.b, 2 * params.b
    dual_count = basis_count(params, m, b * params.n)
    if dual_count > cap_gram:
        raise ResourceLimitError(
            f"dual basis has {dual_count} monomials, over the Gram cap {cap_gram}"
        )
    vanishing = is_zero_in_cohomology(element, params)
    expected = falling_factorial_pairing(b, params.delta, cap_b)
    crosscheck_ok = True
    for rho in itertools.permutations(range(1, b + 1)):
        mono = TautMonomial(m, tuple((i, b + rho[i - 1]) for i in range(1, b + 1)))
        value = pair(element, TautClass.from_monomial(mono), params)
        if value != _sign(rho) * expected:
            crosscheck_ok = False
            break
    return KimuraReport(
        b=b,
        delta=params.delta,
        vanishing=vanishing,
        crosscheck_ok=crosscheck_ok,
        dual_count=dual_count,
    )
