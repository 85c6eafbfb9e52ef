"""Reference implementations kept as test oracles.

The dense ones pair every basis monomial with every dual monomial and
eliminate the whole matrix at once; the library splits the same
computation into blocks.  `gram_scan` builds a full Gram report per
cell where the library uses the closed-form block count, and
`_matching_gram_rank` eliminates the matching Gram matrix whose rank the
library reads off its eigenvalues.  `solve_gamma3` solves the linear
system whose solution the library reads off monomial by monomial.
`compose` and `verify_mck` form every product on the triple product and
then push forward, where the library forms only the products that
survive the pushforward.  `tensor` multiplies the two pullbacks in
full, where the library joins their monomials.  `verify_kimura_vanishing` runs the radical
test on the alternating element and pairs it with every crossing
matching, where the library pairs it with one.  The differential tests
require each pair to agree exactly.
"""

from __future__ import annotations

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
    ScanTable,
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
    pushforward,
    rank_kernel,
    small_diagonal_correspondence,
    solve_linear,
)
from tautring.algebra import _matchings
from tautring.calculus import _mono_pairing
from tautring.kimura import DEFAULT_B_CAP, DEFAULT_GRAM_CAP, _sign
from tautring.linalg import _bareiss, _integer_rows
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


def rank(matrix: RationalMatrix) -> int:
    """Exact rank of a rational matrix: the forward elimination alone."""
    return len(_bareiss(_integer_rows(matrix.entries), matrix.cols, matrix.cols))


def _matching_gram_rank(params: ModelParams, k: int) -> int:
    """Rank r_k(delta) of the perfect-matching Gram matrix on 2k points,
    whose (mu, nu) entry is delta^cycles(mu union nu), by elimination."""
    points = tuple(range(1, 2 * k + 1))
    monos = [TautMonomial(2 * k, pairs) for pairs in _matchings(points) if len(pairs) == k]
    return rank(RationalMatrix([[_mono_pairing(a, b, params) for b in monos] for a in monos]))


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
    return MckReport(params=params, cases=tuple(cases), partition=tuple(partition), passed=passed)


def verify_kimura_vanishing(
    params: ModelParams, cap_b: int = DEFAULT_B_CAP, cap_gram: int = DEFAULT_GRAM_CAP
) -> KimuraReport:
    """Radical membership of the alternating element by the radical test,
    and its pairing with every crossing matching against the signed
    falling factorial."""
    element = kimura_element(params, cap_b)
    b, m = element.b, 2 * params.b
    dual_count = basis_count(params, m, b * params.n)
    if dual_count > cap_gram:
        raise ResourceLimitError(
            f"dual basis has {dual_count} monomials, over the Gram cap {cap_gram}"
        )
    vanishing = is_zero_in_cohomology(element.cls, params)
    expected = falling_factorial_pairing(b, params.delta, cap_b)
    crosscheck_ok = True
    for rho in itertools.permutations(range(1, b + 1)):
        mono = TautMonomial(m, tuple((i, b + rho[i - 1]) for i in range(1, b + 1)))
        value = pair(element.cls, TautClass.from_monomial(mono), params)
        if value != _sign(rho) * expected:
            crosscheck_ok = False
            break
    return KimuraReport(
        params=params,
        b=b,
        delta=params.delta,
        vanishing=vanishing,
        crosscheck_ok=crosscheck_ok,
        dual_count=dual_count,
    )
