"""Reference implementations kept as test oracles.

The dense ones pair every basis monomial with every dual monomial and
eliminate the whole matrix at once; the library splits the same
computation into blocks.  `gram_scan` builds a full Gram report per
cell where the library uses the closed-form block count, and
`_matching_gram_rank` eliminates the matching Gram matrix whose rank the
library reads off its eigenvalues, and `matching_gram_rank_by_all_shapes`
sums those eigenvalues' multiplicities over every partition, where the
library skips the shapes too tall to count at an integer loop value.
`matching_gram_rank_by_increasing_subsequences` counts the same rank at
an integer loop value as fixed-point-free involutions with short
increasing subsequences, with no tableau shape.  `solve_gamma3` solves the linear
system whose solution the library reads off the gap's terms.
`compose` and `verify_mck` form every product on the triple product and
then push forward, where the library forms only the products that
survive the pushforward.  `verify_ck_pair_by_pair` makes one such
composition per projector law, where the library forms the products
with one projector in one batch.  `pushforward` keeps the terms that carry o on
every dropped factor, where the library pushes the product with the
unit through `push_products`.  `tensor_by_unions` joins the monomials of
the two pullbacks, where the library multiplies them in the ring.
`small_diagonal` multiplies two diagonals, where the library writes the
small diagonal term by term.  `verify_kimura_vanishing` runs the radical
test on the alternating element and pairs it with every crossing
matching, where the library pairs it with one.  `cycle_type_sign` reads
a permutation's sign off its cycles, where the library counts its
inversions.  `basis_by_all_matchings`
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
tests name the argv on which the two may differ.  `scanner_terms` reads
class text one character at a time, where the library matches the
grammar's patterns; the two read the same terms, and a text that one
refuses the other refuses too.  `mul_monomials_two_walks` contracts the
paths of the tau graph in one walk and its cycles in a second, and
builds the product through the validating constructor, where the
library walks once and builds the canonical fields directly.
`moved` relabels a monomial through the validating constructor, where
`pullback` and the product write the relabelled fields as they are.
`parse_class_term_by_term` adds each term of a class text to a running
total, multiplies the generator classes of a term's atoms and builds a
strict term's monomial by hand, where the library sums all terms into
one map and multiplies a term's atom monomials by the product rule,
strict or not.
`canonical_str_by_tagged_locals` sorts each local as a (factor, kind,
exponent) tuple and formats it by kind, where the library sorts
(factor, atom text) pairs; both keep the tau atoms first.
`cohomology_class` maps a class into an explicit model of H*(Y^m) at an
integer loop value, where `cohomology_cup` multiplies factor by factor:
the ring map, the pairing and the Gram rank are checked against it, and
it shares no rewriting rule with the library's product.
`cohomology_action` lets a correspondence act on the model by
pr2_*(cl(Gamma) cup pr1^* alpha), where the library composes
correspondences by its own product rule.
`report_values` copies a report tree into plain JSON values, a
namedtuple as a dict of its fields, a tuple as a list and a `Fraction`
as its text, where the library's JSON writer reads the records as they
are, in one walk.
"""

from __future__ import annotations

import argparse
import functools
import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from tautring import (
    CheckResult,
    CkReport,
    Correspondence,
    Gamma3Solution,
    KimuraReport,
    MckCase,
    MckReport,
    ModelParams,
    ParseError,
    ProjectorSet,
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
    unit_class,
)
from tautring.calculus import _mono_pairing
from tautring.grammar import _terms, format_fraction
from tautring.kimura import (
    DEFAULT_B_CAP,
    DEFAULT_GRAM_CAP,
    _doubled_shape_dimension,
    _matching_eigenvalue,
    _partitions,
)
from tautring.linalg import _exact_div, _integer_rows
from tautring.motives import diagonal_class


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
    monos = [TautMonomial(2 * k, pairs) for pairs in _all_matchings(points) if len(pairs) == k]
    return rank(RationalMatrix([[_mono_pairing(a, b, params) for b in monos] for a in monos]))


def matching_gram_rank_by_all_shapes(params: ModelParams, k: int) -> int:
    """r_k(delta) as the sum of f^(2 lambda) over every partition lambda of
    k whose eigenvalue is nonzero."""
    return sum(
        _doubled_shape_dimension(shape)
        for shape in _partitions(k, k, k)
        if _matching_eigenvalue(shape, params.delta)
    )


def _longest_increasing_subsequence(seq) -> int:
    """Patience sorting: tails[i] is the least last entry of an
    increasing subsequence of length i + 1 seen so far."""
    tails: list[int] = []
    for x in seq:
        i = bisect_left(tails, x)
        tails[i:i + 1] = [x]
    return len(tails)


@functools.lru_cache(maxsize=None)
def _involutions_by_longest_increasing_subsequence(k: int) -> Counter:
    """How many fixed-point-free involutions of 2k points have each
    length of longest increasing subsequence."""
    counts: Counter = Counter()
    image = [0] * (2 * k)

    def place(free: tuple[int, ...]) -> None:
        if not free:
            counts[_longest_increasing_subsequence(image)] += 1
            return
        first = free[0]
        for idx in range(1, len(free)):
            partner = free[idx]
            image[first], image[partner] = partner, first
            place(free[1:idx] + free[idx + 1:])

    place(tuple(range(2 * k)))
    return counts


def matching_gram_rank_by_increasing_subsequences(k: int, N: int) -> int:
    """r_k(N) at an integer loop value N >= 0, with no tableau shape: the
    number of fixed-point-free involutions of 2k points whose longest
    increasing subsequence is at most N.

    RSK sends such an involution to one standard tableau whose columns
    all have even length, and its longest increasing subsequence is the
    tableau's first row (Baik-Rains, Duke Math. J. 109, 2001).  The
    transposed shapes are the doubled shapes 2 lambda, with lambda a
    partition of k into as many parts as that first row is long, so the
    count is the sum of f^(2 lambda) over lambda of at most N parts.
    """
    return sum(count for length, count in _involutions_by_longest_increasing_subsequence(k).items()
               if length <= N)


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


def tensor_by_unions(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """f x g: the two pullbacks sit on disjoint factors, so no rewriting
    rule applies, and each term of the product is the union of one
    monomial of each, with the product of their coefficients."""
    total = f.s + g.s + f.t + g.t
    emb_f = tuple(range(1, f.s + 1)) + tuple(range(f.s + g.s + 1, f.s + g.s + f.t + 1))
    emb_g = tuple(range(f.s + 1, f.s + g.s + 1)) + tuple(range(f.s + g.s + f.t + 1, total + 1))
    left = pullback(f.cls, total, emb_f).terms.items()
    right = pullback(g.cls, total, emb_g).terms.items()
    terms = {
        TautMonomial(total, a.pairs + b.pairs, a.hpows + b.hpows, a.opoints + b.opoints): ca * cb
        for a, ca in left
        for b, cb in right
    }
    return Correspondence(TautClass(total, terms), f.s + g.s, f.t + g.t)


def small_diagonal(params: ModelParams) -> TautClass:
    """The small diagonal as the product of two diagonals, D_12 D_13, each
    built from products of h classes."""
    diag = diagonal_from_points(params)
    return multiply(pullback(diag, 3, (1, 2)), pullback(diag, 3, (1, 3)), params)


def verify_ck_pair_by_pair(ps: ProjectorSet) -> CkReport:
    """The projector laws, one full composition per check."""
    params = ps.params
    checks: list[CheckResult] = []
    indices = ps.indices()
    for k in indices:
        pk = ps[k]
        square = compose(pk, pk, params)
        ok = square.cls == pk.cls
        detail = "" if ok else f"pi^{k} o pi^{k} = {format_class(square.cls, params)}"
        checks.append(CheckResult(f"idempotent[{k}]", ok, detail))
    for k1 in indices:
        for k2 in indices:
            if k1 == k2:
                continue
            product = compose(ps[k1], ps[k2], params)
            ok = product.cls.is_zero
            detail = "" if ok else f"pi^{k1} o pi^{k2} = {format_class(product.cls, params)}"
            checks.append(CheckResult(f"orthogonal[{k1},{k2}]", ok, detail))
    total = TautClass.zero(2)
    for k in indices:
        total = total + ps[k].cls
    diff = total - diagonal_class(params)
    ok = diff.is_zero
    checks.append(
        CheckResult("sum=diagonal", ok, "" if ok else f"sum - diagonal = {format_class(diff, params)}")
    )
    return CkReport(checks=tuple(checks), passed=all(c.ok for c in checks))


def verify_mck(params: ModelParams) -> MckReport:
    """The multiplicativity check, one full composition at a time."""
    ps = ck_projectors(params)
    sm = small_diagonal_correspondence(params)
    indices = ps.indices()
    cases: list[MckCase] = []
    partition: list[CheckResult] = []
    for i in indices:
        for j in indices:
            mij = compose(sm, tensor_by_unions(ps[i], ps[j], params), params)
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


def cycle_count(perm) -> int:
    """The cycles of the permutation sending position i (0-based) to
    perm[i] (1-based)."""
    seen: set[int] = set()
    count = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur] - 1
    return count


def cycle_type_sign(perm) -> int:
    """sgn(sigma) from its cycle type: (-1)^(b - cycles), each cycle of
    length l being l - 1 transpositions."""
    return -1 if (len(perm) - cycle_count(perm)) % 2 else 1


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
    expected = falling_factorial_pairing(b, params.delta)
    crosscheck_ok = True
    for rho in itertools.permutations(range(1, b + 1)):
        mono = TautMonomial(m, tuple((i, b + rho[i - 1]) for i in range(1, b + 1)))
        value = pair(element, TautClass.from_monomial(mono), params)
        if value != cycle_type_sign(rho) * expected:
            crosscheck_ok = False
            break
    return KimuraReport(
        b=b,
        delta=params.delta,
        vanishing=vanishing,
        crosscheck_ok=crosscheck_ok,
        dual_count=dual_count,
    )


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def _scan_atom(sc: _Scanner) -> tuple:
    sc.skip_ws()
    pos = sc.pos
    ch = sc.peek()
    if ch == "t":
        sc.pos += 1
        sc.expect("(")
        i = sc.integer()
        sc.expect(",")
        j = sc.integer()
        sc.expect(")")
        if i == j:
            raise ParseError("tau must join two distinct factors", pos)
        return ("t", min(i, j), max(i, j), pos)
    if ch == "h":
        sc.pos += 1
        i = sc.integer()
        exp = 1
        if sc.peek() == "^":
            sc.pos += 1
            exp = sc.integer()
            if exp < 1:
                raise ParseError("h exponent must be >= 1", pos)
        return ("h", i, exp, pos)
    if ch == "o":
        sc.pos += 1
        i = sc.integer()
        return ("o", i, 0, pos)
    if ch == "1":
        sc.pos += 1
        return ("1", 0, 0, pos)
    raise ParseError("expected a generator (t, h, o) or 1", pos)


def _scan_term(sc: _Scanner) -> tuple[Fraction, list[tuple]]:
    sc.skip_ws()
    sign = Fraction(1)
    if sc.peek() == "-":
        sign = Fraction(-1)
        sc.pos += 1
        sc.skip_ws()
    coeff = Fraction(1)
    atoms: list[tuple] = []
    if sc.peek().isdigit():
        pos = sc.pos
        num = sc.integer()
        if sc.peek() == "/":
            sc.pos += 1
            den = sc.integer()
            if den == 0:
                raise ParseError("zero denominator", pos)
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        sc.skip_ws()
        if sc.peek() == "*":
            sc.pos += 1
        else:
            return sign * coeff, atoms  # bare scalar: multiple of the unit
    while True:
        atoms.append(_scan_atom(sc))
        sc.skip_ws()
        if sc.peek() == "*":
            sc.pos += 1
        else:
            break
    return sign * coeff, atoms


def scanner_terms(text: str) -> list[tuple[Fraction, list[tuple]]]:
    """The terms of a class text, read one character at a time: each
    term's coefficient and its atoms (kind, i, j, position)."""
    sc = _Scanner(text)
    terms = [_scan_term(sc)]
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "":
            return terms
        if ch not in "+-":
            raise ParseError("expected '+', '-' or end of input", sc.pos)
        if ch == "+":
            sc.pos += 1  # a leading '-' is consumed by the term
        terms.append(_scan_term(sc))


def parse_class_term_by_term(
    text: str,
    params: ModelParams,
    m: int | None = None,
    normalize: bool = True,
) -> TautClass:
    """Parse a class expression, adding each term to the running total.

    With normalize=True every term is its coefficient times the atoms'
    generator classes; with normalize=False the term's monomial is built
    by hand, claiming each factor once and refusing h exponents >= n.
    """
    terms = _terms(text)
    if m is None:  # the largest factor index (of a tau, its second)
        m = max([1] + [j if kind == "t" else i for _, atoms in terms for kind, i, j, _ in atoms])
    for _, atoms in terms:
        for kind, i, j, pos in atoms:
            indices = (i, j) if kind == "t" else (i,) if kind in ("h", "o") else ()
            for f in indices:
                if not 1 <= f <= m:
                    raise ParseError(f"factor index {f} out of range 1..{m}", pos)

    total = TautClass.zero(m)
    for coeff, atoms in terms:
        if normalize:
            value = unit_class(m).scale(coeff)
            for kind, i, j, _pos in atoms:
                if kind == "t":
                    factor = tau_class(m, i, j)
                elif kind == "h":
                    factor = h_class(params, m, i, j)
                elif kind == "o":
                    factor = o_class(m, i)
                else:
                    factor = unit_class(m)
                value = multiply(value, factor, params)
            total = total + value
        else:
            total = total + _strict_term(m, coeff, atoms, params)
    return total


def _strict_term(m: int, coeff: Fraction, atoms: list[tuple], params: ModelParams) -> TautClass:
    pairs: list[tuple[int, int]] = []
    hpows: list[tuple[int, int]] = []
    opoints: list[int] = []
    used: set[int] = set()

    def claim(f: int, pos: int) -> None:
        if f in used:
            raise ParseError(f"factor {f} used more than once in a monomial", pos)
        used.add(f)

    for kind, i, j, pos in atoms:
        if kind == "t":
            claim(i, pos)
            claim(j, pos)
            pairs.append((i, j))
        elif kind == "h":
            if j >= params.n:
                raise ParseError(f"h exponent {j} must be < n={params.n}", pos)
            claim(i, pos)
            hpows.append((i, j))
        elif kind == "o":
            claim(i, pos)
            opoints.append(i)
    mono = TautMonomial(m, tuple(pairs), tuple(hpows), tuple(opoints))
    return TautClass.from_monomial(mono, coeff)


def moved(mono: TautMonomial, relabel: dict[int, int], m: int) -> TautMonomial:
    """A monomial relabelled onto m factors, built through the validating
    constructor.  Every unlabelled factor must carry o, which is integrated
    out (to 1)."""
    return TautMonomial(
        m,
        tuple((relabel[i], relabel[j]) for i, j in mono.pairs),
        tuple((relabel[f], e) for f, e in mono.hpows),
        tuple(relabel[f] for f in mono.opoints if f in relabel),
    )


_ONE = Fraction(1)  # shared: most products have coefficient 1


def mul_monomials_two_walks(
    a: TautMonomial, b: TautMonomial, params: ModelParams
) -> tuple[Fraction, TautMonomial] | None:
    """Normal form of a monomial product in two walks, paths then cycles,
    built through the validating constructor; None when it is zero.

    The tau edges of the operands form a graph in which every vertex has
    degree at most two, so the components are paths and cycles.  A cycle
    contracts to the scalar delta with o on its vertices; a path
    contracts to a single tau between its endpoints with o on its
    interior.  Any local class sitting on a tau vertex kills the term,
    and locals on shared free factors combine with h^n -> d*o capping.
    """
    n, d = params.n, params.d
    pa: dict[int, int] = {}
    for i, j in a.pairs:
        pa[i] = j
        pa[j] = i
    pb: dict[int, int] = {}
    for i, j in b.pairs:
        pb[i] = j
        pb[j] = i
    la = dict(a.hpows)
    for f in a.opoints:
        la[f] = n
    lb = dict(b.hpows)
    for f in b.opoints:
        lb[f] = n
    for f in pa:
        if f in lb:
            return None
    for f in pb:
        if f in la:
            return None

    new_pairs: list[tuple[int, int]] = []
    new_o: list[int] = []
    cycles = 0
    visited: set[int] = set()
    vertices = set(pa) | set(pb)
    for v in sorted(vertices):
        if v in visited or (v in pa and v in pb):
            continue
        # path endpoint: walk to the other end, o on the interior
        visited.add(v)
        cur = v
        use_a = v in pa
        while True:
            w = pa[cur] if use_a else pb[cur]
            visited.add(w)
            if w in pa and w in pb:
                new_o.append(w)
                use_a = not use_a
                cur = w
            else:
                new_pairs.append((v, w) if v < w else (w, v))
                break
    for v in sorted(vertices):
        if v in visited:
            continue
        cycles += 1
        cur = v
        use_a = True
        while True:
            visited.add(cur)
            new_o.append(cur)
            cur = pa[cur] if use_a else pb[cur]
            use_a = not use_a
            if cur == v:
                break
    if cycles and not params.delta:
        return None

    scale = 1  # the powers of d, kept as an int until the end
    new_h: list[tuple[int, int]] = []
    for f in sorted(set(la) | set(lb)):
        s = la.get(f, 0) + lb.get(f, 0)
        if s > n:
            return None
        if s == n:
            if f in la and f in lb:
                scale *= d  # h^x * h^(n-x) closes to d * o
            new_o.append(f)
        else:
            new_h.append((f, s))
    mono = TautMonomial(a.m, tuple(new_pairs), tuple(new_h), tuple(new_o))
    if cycles:
        return params.delta**cycles * scale, mono
    return (_ONE if scale == 1 else Fraction(scale)), mono


def canonical_str_by_tagged_locals(mono: TautMonomial) -> str:
    """Canonical text form: tau atoms sorted, then locals by factor."""
    atoms = [f"t({i},{j})" for i, j in mono.pairs]
    locals_ = [(f, "o", 0) for f in mono.opoints] + [(f, "h", e) for f, e in mono.hpows]
    for f, kind, e in sorted(locals_):
        if kind == "o":
            atoms.append(f"o{f}")
        else:
            atoms.append(f"h{f}" if e == 1 else f"h{f}^{e}")
    return "*".join(atoms) if atoms else "1"


# The cohomology model: H*(Y) = <1, h, ..., h^(n-1), o> + <e_1, ..., e_N> at an
# integer loop value N = delta >= 0, with h^n = d*o, h*e_a = 0, e_a*e_b = [a = b]*o
# and the integral of o equal to 1.  A local label k < n is h^k (0 the unit),
# n is o, and n + a is e_a; a class on Y^m maps tuples of m labels to coefficients.


def _local_cup(u: int, v: int, n: int, d: int) -> tuple[int, int] | None:
    """The cup product of two local labels as (coefficient, label); None for zero."""
    if u > v:
        u, v = v, u
    if u == 0:
        return 1, v
    if v < n:  # h^u * h^v
        return (1, u + v) if u + v < n else (d, n) if u + v == n else None
    if u > n:  # e_a * e_b, both primitive
        return (1, n) if u == v else None
    return None  # h or o against o or a primitive class


def cohomology_cup(x: dict, y: dict, params: ModelParams) -> dict:
    """The cup product on H*(Y^m), factor by factor."""
    out: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            coeff, key = cx * cy, []
            for u, v in zip(kx, ky):
                local = _local_cup(u, v, params.n, params.d)
                if local is None:
                    break
                coeff *= local[0]
                key.append(local[1])
            else:
                key = tuple(key)
                out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


def cohomology_class(x: TautClass, params: ModelParams) -> dict:
    """cl(x) in the model: h_i and o_i go to the local classes on factor i,
    tau_ij to the sum of e_a on i times e_a on j, and every generator of a
    monomial, each h factor of a power too, is cupped on in turn."""
    n, N, m = params.n, params.delta, x.m
    if N.denominator != 1 or N < 0:
        raise ValueError(f"the model needs an integer delta >= 0, not {N}")

    def placed(labels: dict) -> tuple:
        return tuple(labels.get(f, 0) for f in range(1, m + 1))

    out: dict = {}
    for mono, coeff in x.terms.items():
        value = {placed({}): coeff}
        for i, j in mono.pairs:
            tau = {placed({i: n + a, j: n + a}): 1 for a in range(1, int(N) + 1)}
            value = cohomology_cup(value, tau, params)
        for f, e in mono.hpows:
            for _ in range(e):
                value = cohomology_cup(value, {placed({f: 1}): 1}, params)
        for f in mono.opoints:
            value = cohomology_cup(value, {placed({f: n}): 1}, params)
        for key, c in value.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def cohomology_integral(x: dict, m: int, params: ModelParams) -> Fraction:
    """The integral over Y^m: the coefficient of o on every factor."""
    return Fraction(x.get((params.n,) * m, 0))


def cohomology_action(corr: Correspondence, alpha: dict, params: ModelParams) -> dict:
    """Gamma_*(alpha) = pr2_*(cl(Gamma) cup pr1^* alpha) in the model: alpha,
    on the source factors, is pulled back with the unit on the target ones,
    and the push to the target reads the coefficient of o on every source
    factor."""
    pulled = {key + (0,) * corr.t: c for key, c in alpha.items()}
    cup = cohomology_cup(cohomology_class(corr.cls, params), pulled, params)
    point = (params.n,) * corr.s
    return {key[corr.s:]: c for key, c in cup.items() if key[:corr.s] == point}


def cohomology_image_rank(params: ModelParams, m: int, codim: int) -> int:
    """The rank of the image of the codimension-`codim` basis in H*(Y^m)."""
    images = [cohomology_class(TautClass.from_monomial(mono), params)
              for mono in enumerate_basis(params, m, codim)]
    keys = sorted({key for image in images for key in image})
    if not keys:
        return 0
    return rank(RationalMatrix([[image.get(key, 0) for key in keys] for image in images], cols=len(keys)))


def report_values(value):
    """A report tree as the values json.dumps writes: a namedtuple as a
    dict of its fields, a tuple as a list, a Fraction as its text, and
    dicts and lists walked."""
    if isinstance(value, dict):
        return {key: report_values(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            return {key: report_values(item) for key, item in zip(value._fields, value)}
        return [report_values(item) for item in value]
    return format_fraction(value) if isinstance(value, Fraction) else value
