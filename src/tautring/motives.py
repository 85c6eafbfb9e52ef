"""Correspondence calculus and the projector identities of the model.

A correspondence is a tautological class on a product together with a
split of the factors into a source block and a target block.
Composition pulls both operands to a triple product, multiplies, and
pushes forward over the middle block.  On top of that sit the
projectors of the model (one per even cohomological degree), the small
diagonal, and exact verifiers for the projector axioms, the
multiplicativity condition, the diagonal-times-h expansion, the
modified small diagonal, and the Euler characteristic identity.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .algebra import (
    ModelParams,
    TautClass,
    TautMonomial,
    _Validated,
    h_class,
    multiply,
    o_class,
    tau_class,
)
from .calculus import pair, pullback, push_products
from .grammar import format_class


class Correspondence(_Validated, namedtuple("Correspondence", "cls s t")):
    """Class on a product of s + t factors, read as a map from s factors to t."""

    __slots__ = ()

    def __new__(_cls, cls: TautClass, s: int, t: int):
        if s.__class__ is not int or t.__class__ is not int:
            raise ValueError(f"block sizes {s!r}, {t!r} must be integers")
        if s < 0 or t < 0 or s + t < 1:
            raise ValueError("source and target blocks must cover at least one factor")
        if cls.m != s + t:
            raise ValueError(f"class lives on {cls.m} factors, blocks cover {s + t}")
        return tuple.__new__(_cls, (cls, s, t))


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))
CkReport = namedtuple("CkReport", "checks passed")
MckCase = namedtuple("MckCase", "i j k required_zero zero ok detail", defaults=("",))
MckReport = namedtuple("MckReport", "cases partition passed")


class ProjectorSet:
    """Projectors indexed by even cohomological degree 0, 2, ..., 2n.

    The container itself enforces only the block structure; the
    idempotent / orthogonal / sum-to-diagonal laws are what verify_ck
    checks, so deliberately broken sets can be built for testing.
    """

    __slots__ = ("params", "projectors")

    def __init__(self, params: ModelParams, projectors: Mapping[int, Correspondence]):
        for k, corr in projectors.items():
            if k.__class__ is not int or k % 2 or not 0 <= k <= 2 * params.n:
                raise ValueError(f"projector index {k} must be even in [0, 2n]")
            if corr.s != 1 or corr.t != 1:
                raise ValueError("projectors must map one factor to one factor")
        self.params = params
        self.projectors = projectors

    def indices(self) -> list[int]:
        return sorted(self.projectors)

    def __getitem__(self, k: int) -> Correspondence:
        return self.projectors[k]


class Gamma3Solution(namedtuple("Gamma3Solution", "coefficients residual")):
    """Coefficients of the pure-polarization correction that cancels the
    small diagonal against its diagonal-times-point terms, plus the residual
    (zero exactly when the cancellation succeeds)."""

    __slots__ = ()


def _kunneth(params: ModelParams, i: int, j: int) -> TautClass:
    """(1/d) h1^i h2^j on the square; _kunneth(n, 0) is o1, since h^n = d o."""
    h1, h2 = h_class(params, 2, 1, i), h_class(params, 2, 2, j)
    return multiply(h1, h2, params).scale(Fraction(1, params.d))


def diagonal_class(params: ModelParams) -> TautClass:
    """The diagonal on the square: tau plus the full Kuenneth h-sum."""
    n = params.n
    return sum((_kunneth(params, n - j, j) for j in range(n + 1)), tau_class(2, 1, 2))


def diagonal(params: ModelParams) -> Correspondence:
    return Correspondence(diagonal_class(params), 1, 1)


def compose(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """Composition f o g (g applied first): pull to the triple product,
    multiply, push over the middle block (forming only the products that
    survive the push)."""
    if g.t != f.s:
        raise ValueError(f"block mismatch: g has target size {g.t}, f has source size {f.s}")
    total = g.s + g.t + f.t
    left = pullback(g.cls, total, tuple(range(1, g.s + g.t + 1)))
    right = pullback(f.cls, total, tuple(range(g.s + 1, total + 1)))
    kept = (*range(1, g.s + 1), *range(g.s + g.t + 1, total + 1))
    (cls,) = push_products(left, (right,), kept, params)
    return Correspondence(cls, g.s, f.t)


def transpose(f: Correspondence) -> Correspondence:
    """Swap the source and target blocks (an involution)."""
    embedding = tuple(range(f.t + 1, f.t + f.s + 1)) + tuple(range(1, f.t + 1))
    return Correspondence(pullback(f.cls, f.s + f.t, embedding), f.t, f.s)


def tensor(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """Product correspondence acting on juxtaposed source and target blocks.

    The two pullbacks sit on disjoint factors, so no rewriting rule
    applies: each term of the product is the union of one monomial of
    each, with the product of their coefficients.
    """
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


def ck_projectors(params: ModelParams) -> ProjectorSet:
    """The projector family: (1/d) h^(n-j) x h^j off the middle degree,
    and tau + (1/d) h^(n/2) x h^(n/2) in the middle."""
    n = params.n
    classes = {2 * j: _kunneth(params, n - j, j) for j in range(n + 1)}
    classes[n] = tau_class(2, 1, 2) + classes[n]
    return ProjectorSet(params, {k: Correspondence(cls, 1, 1) for k, cls in classes.items()})


def verify_ck(ps: ProjectorSet) -> CkReport:
    """Check idempotence, mutual orthogonality, and sum-to-diagonal, exactly."""
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


def small_diagonal(params: ModelParams) -> TautClass:
    """Class of the triple diagonal on the cube, as a product of two diagonals."""
    diag = diagonal_class(params)
    left = pullback(diag, 3, (1, 2))
    right = pullback(diag, 3, (1, 3))
    return multiply(left, right, params)


def verify_mck(params: ModelParams) -> MckReport:
    """Exact multiplicativity check of the projector family.

    For every even (i, j, k) the composition pi^k o sm o (pi^i x pi^j)
    must vanish unless i + j == k, and for fixed (i, j) the k-components
    must add up to sm o (pi^i x pi^j).
    """
    ps = ck_projectors(params)
    indices = ps.indices()
    ijs = [(i, j) for i in indices for j in indices]
    # Two batches of compositions, each grouping one operand's terms once:
    # the small diagonal on factors 3-5 against every pi^i x pi^j on 1-4,
    # pushed onto 1, 2, 5; then each result on 1-3 against every pi^k on
    # 3-4, pushed onto 1, 2, 4.
    tensors = [pullback(tensor(ps[i], ps[j], params).cls, 5, (1, 2, 3, 4)) for i, j in ijs]
    mijs = push_products(pullback(small_diagonal(params), 5, (3, 4, 5)), tensors, (1, 2, 5), params)
    pks = [pullback(ps[k].cls, 4, (3, 4)) for k in indices]
    cases: list[MckCase] = []
    partition: list[CheckResult] = []
    for (i, j), mij in zip(ijs, mijs):
        pieces = push_products(pullback(mij, 4, (1, 2, 3)), pks, (1, 2, 4), params)
        ksum = TautClass.zero(3)
        for k, piece in zip(indices, pieces):
            ksum = ksum + piece
            required = i + j != k
            zero = piece.is_zero
            ok = zero or not required
            detail = "" if ok else format_class(piece, params)
            cases.append(MckCase(i, j, k, required, zero, ok, detail))
        ok = ksum == mij
        partition.append(
            CheckResult(
                f"partition[{i},{j}]",
                ok,
                "" if ok else f"sum-over-k mismatch: {format_class(ksum - mij, params)}",
            )
        )
    passed = all(c.ok for c in cases) and all(p.ok for p in partition)
    return MckReport(cases=tuple(cases), partition=tuple(partition), passed=passed)


def act(f: Correspondence, x: TautClass, params: ModelParams) -> TautClass:
    """Apply a one-to-one correspondence to a class on a single factor:
    f composed with x, read as a correspondence from no factor to one."""
    if f.s != 1 or f.t != 1:
        raise ValueError("act requires a correspondence with one source and one target factor")
    if x.m != 1:
        raise ValueError("act requires a class on a single factor")
    return compose(f, Correspondence(x, 0, 1), params).cls


def expand_diagonal_times_h(params: ModelParams, factor: int) -> TautClass:
    """Product of the diagonal with h on one factor, in normal form.

    The result must equal the closed Kuenneth form
    (1/d) * sum_k h^k x h^(n+1-k); a mismatch would mean the model
    relations are broken, and raises ArithmeticError.
    """
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    n = params.n
    product = multiply(diagonal_class(params), h_class(params, 2, factor, 1), params)
    expected = sum((_kunneth(params, k, n + 1 - k) for k in range(n + 2)), TautClass.zero(2))
    if product != expected:
        raise ArithmeticError("diagonal-times-h expansion does not match its closed form")
    return product


def solve_gamma3(params: ModelParams) -> Gamma3Solution:
    """Solve for the symmetric h-polynomial that cancels the small diagonal
    against the three diagonal-times-point corrections.

    Sets up  sm - (D_12 o_3 + D_13 o_2 + D_23 o_1) + sum a_ijk h1^i h2^j h3^k = 0
    over exponent triples i + j + k = 2n with each exponent at most n
    (exponent n realized through o).  Each h1^i h2^j h3^k is a single
    monomial times a power of d, distinct for distinct triples, so a_ijk
    is read off the gap's coefficient there.  What is left is the
    residual, zero exactly when the system is solvable.
    """
    n = params.n
    diag = diagonal_class(params)
    gap = small_diagonal(params)
    for (fi, fj), other in (((1, 2), 3), ((1, 3), 2), ((2, 3), 1)):
        term = multiply(pullback(diag, 3, (fi, fj)), o_class(3, other), params)
        gap = gap - term
    coefficients: dict[tuple[int, int, int], Fraction] = {}
    residual = dict(gap.terms)  # one TautClass at the end, not a copy per read-off
    for i in range(n + 1):
        for j in range(n - i, n + 1):
            k = 2 * n - i - j
            cls = multiply(h_class(params, 3, 1, i), h_class(params, 3, 2, j), params)
            cls = multiply(cls, h_class(params, 3, 3, k), params)
            ((mono, scale),) = cls.terms.items()
            value = -gap.coefficient(mono) / scale
            coefficients[i, j, k] = value
            residual[mono] = residual.get(mono, 0) + value * scale
    return Gamma3Solution(coefficients=coefficients, residual=TautClass(3, residual))


def euler_char(params: ModelParams) -> Fraction:
    """Degree of the self-intersection of the diagonal; equals n + b."""
    diag = diagonal_class(params)
    return pair(diag, diag, params)
