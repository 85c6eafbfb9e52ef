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

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .algebra import (
    ModelParams,
    TautClass,
    TautMonomial,
    _Validated,
    _block_monomials,
    _codes,
    _gram_blocks,
    _local_assignments,
    _sum,
    h_class,
    multiply,
    o_class,
    push_products,
)
from .calculus import pair, pullback
from .grammar import format_class


class Correspondence(_Validated, namedtuple("Correspondence", "cls s t")):
    """Class on a product of s + t factors, read as a map from s factors to t."""

    __slots__ = ()

    def __new__(_cls, cls: TautClass, s: int, t: int):
        if not isinstance(cls, TautClass):
            raise ValueError(f"{cls!r} is not a TautClass")
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
        if not isinstance(params, ModelParams):
            raise ValueError(f"{params!r} is not a ModelParams")
        if not isinstance(projectors, Mapping):
            raise ValueError("projectors must map indices to correspondences")
        for k, corr in projectors.items():
            if k.__class__ is not int or k % 2 or not 0 <= k <= 2 * params.n:
                raise ValueError(f"projector index {k} must be even in [0, 2n]")
            if not isinstance(corr, Correspondence) or corr.s != 1 or corr.t != 1:
                raise ValueError("projectors must be correspondences from one factor to one")
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


def _cell(params: ModelParams, m: int, codim: int) -> TautClass:
    """Every monomial of the cell (m, codim), weighted d^(pairs + points) / d^(m - 1): the one
    written class that applies h^n = d o, so an h-monomial with an exponent n carries its d."""
    n, d = params.n, params.d
    weights = [Fraction(d**e, d ** (m - 1)) for e in range(m + 1)]  # pairs + points <= m
    terms = {}
    for matchings, free, degrees in _gram_blocks(n, m, codim):
        weight = weights[len(matchings[0]) + degrees.count(n)]
        for mono in _block_monomials(m, matchings, free, degrees, n):
            terms[mono] = weight
    return TautClass(m, terms)


def diagonal_class(params: ModelParams) -> TautClass:
    """The diagonal on the square, the cell (2, n): tau plus (1/d) h1^i h2^j over i + j = n."""
    return _cell(params, 2, params.n)


def diagonal(params: ModelParams) -> Correspondence:
    return Correspondence(diagonal_class(params), 1, 1)


def _compositions(fs, gs, params: ModelParams):
    """Yield [f o g for g in gs] (the classes) for each f in fs.

    fs and gs are nonempty; all fs share one block shape, and so do all
    gs.  Each g is pulled once onto the first g.s + g.t factors of a
    product with f.t more, each f onto the last f.s + f.t, and the
    products with one f are pushed over the middle block in one batch,
    which groups f's terms once and forms only the products that survive
    the push.
    """
    f, g = fs[0], gs[0]
    if g.t != f.s:
        raise ValueError(f"block mismatch: g has target size {g.t}, f has source size {f.s}")
    total = g.s + g.t + f.t
    lefts = [pullback(x.cls, total, range(1, g.s + g.t + 1)) for x in gs]
    kept = (*range(1, g.s + 1), *range(g.s + g.t + 1, total + 1))
    for f in fs:
        yield push_products(pullback(f.cls, total, range(g.s + 1, total + 1)), lefts, kept, params)


def compose(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """Composition f o g (g applied first): pull to the triple product,
    multiply, push over the middle block."""
    ((cls,),) = _compositions((f,), (g,), params)
    return Correspondence(cls, g.s, f.t)


def transpose(f: Correspondence) -> Correspondence:
    """Swap the source and target blocks (an involution)."""
    embedding = tuple(range(f.t + 1, f.t + f.s + 1)) + tuple(range(1, f.t + 1))
    return Correspondence(pullback(f.cls, f.s + f.t, embedding), f.t, f.s)


def tensor(f: Correspondence, g: Correspondence, params: ModelParams) -> Correspondence:
    """Product correspondence acting on juxtaposed source and target blocks:
    the product of the two pullbacks."""
    total = f.s + g.s + f.t + g.t
    emb_f = tuple(range(1, f.s + 1)) + tuple(range(f.s + g.s + 1, f.s + g.s + f.t + 1))
    emb_g = tuple(range(f.s + 1, f.s + g.s + 1)) + tuple(range(f.s + g.s + f.t + 1, total + 1))
    cls = multiply(pullback(f.cls, total, emb_f), pullback(g.cls, total, emb_g), params)
    return Correspondence(cls, f.s + g.s, f.t + g.t)


def ck_projectors(params: ModelParams) -> ProjectorSet:
    """The diagonal split by the local degree j on factor 2: pi^(2j) is
    (1/d) h^(n-j) x h^j, and tau goes into the middle pi^n."""
    n = params.n
    pieces = {k: {} for k in range(0, 2 * n + 1, 2)}
    for mono, c in diagonal_class(params).terms.items():
        pieces[n if mono.pairs else 2 * _codes(mono, params)[2]][mono] = c
    return ProjectorSet(params, {k: Correspondence(TautClass(2, terms), 1, 1) for k, terms in pieces.items()})


def verify_ck(ps: ProjectorSet) -> CkReport:
    """Check idempotence, mutual orthogonality, and sum-to-diagonal, exactly.

    The compositions pi^k1 o pi^k2 with one pi^k1 form one batch.
    """
    params = ps.params
    indices = ps.indices()
    projectors = [ps[k] for k in indices]
    idempotent: list[CheckResult] = []
    orthogonal: list[CheckResult] = []
    for k1, row in zip(indices, _compositions(projectors, projectors, params)):
        for k2, product in zip(indices, row):
            ok = product == ps[k1].cls if k1 == k2 else product.is_zero
            detail = "" if ok else f"pi^{k1} o pi^{k2} = {format_class(product, params)}"
            if k1 == k2:
                idempotent.append(CheckResult(f"idempotent[{k1}]", ok, detail))
            else:
                orthogonal.append(CheckResult(f"orthogonal[{k1},{k2}]", ok, detail))
    diff = _sum((ps[k].cls for k in indices), 2) - diagonal_class(params)
    ok = diff.is_zero
    summed = CheckResult("sum=diagonal", ok, "" if ok else f"sum - diagonal = {format_class(diff, params)}")
    checks = (*idempotent, *orthogonal, summed)
    return CkReport(checks=checks, passed=all(c.ok for c in checks))


def small_diagonal(params: ModelParams) -> TautClass:
    """The triple diagonal on the cube, D_12 D_13, the cell (3, 2n): t23 o1 + t13 o2 +
    t12 o3 + (1/d^2) h1^i h2^j h3^k over i + j + k = 2n with each exponent at most n."""
    return _cell(params, 3, 2 * params.n)


def verify_mck(params: ModelParams) -> MckReport:
    """Exact multiplicativity check of the projector family.

    For every even (i, j, k) the composition pi^k o sm o (pi^i x pi^j)
    must vanish unless i + j == k, and for fixed (i, j) the k-components
    must add up to sm o (pi^i x pi^j).
    """
    ps = ck_projectors(params)
    indices = ps.indices()
    ijs = [(i, j) for i in indices for j in indices]
    tensors = [tensor(ps[i], ps[j], params) for i, j in ijs]
    (mijs,) = _compositions((Correspondence(small_diagonal(params), 2, 1),), tensors, params)
    rows = _compositions([ps[k] for k in indices], [Correspondence(mij, 2, 1) for mij in mijs], params)
    cases: list[MckCase] = []
    partition: list[CheckResult] = []
    for (i, j), mij, pieces in zip(ijs, mijs, zip(*rows)):
        for k, piece in zip(indices, pieces):
            required = i + j != k
            zero = piece.is_zero
            ok = zero or not required
            detail = "" if ok else format_class(piece, params)
            cases.append(MckCase(i, j, k, required, zero, ok, detail))
        ksum = _sum(pieces, 3)
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

    The result must equal the closed Kuenneth form, the cell (2, n + 1):
    (1/d) * sum_k h^k x h^(n+1-k) over k = 1..n; a mismatch would mean the
    model relations are broken, and raises ArithmeticError.
    """
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    product = multiply(diagonal_class(params), h_class(params, 2, factor, 1), params)
    if product != _cell(params, 2, params.n + 1):
        raise ArithmeticError("diagonal-times-h expansion does not match its closed form")
    return product


def solve_gamma3(params: ModelParams) -> Gamma3Solution:
    """Solve for the symmetric h-polynomial that cancels the small diagonal
    against the three diagonal-times-point corrections.

    Sets up  sm - (D_12 o_3 + D_13 o_2 + D_23 o_1) + sum a_ijk h1^i h2^j h3^k = 0
    over exponent triples i + j + k = 2n with each exponent at most n.
    h1^i h2^j h3^k is d^#o times the tau-free monomial of local degrees
    (i, j, k), o read as degree n, so a_ijk = -c / d^#o for the gap's
    term c there.  The gap's other terms (a tau pair, or degrees off the
    system) are the residual, zero exactly when the system is solvable.
    """
    n = params.n
    diag = diagonal_class(params)
    corrections = (multiply(pullback(diag, 3, factors), o_class(3, other), params)
                   for factors, other in (((1, 2), 3), ((1, 3), 2), ((2, 3), 1)))
    gap = small_diagonal(params) - _sum(corrections, 3)
    coefficients = dict.fromkeys(_local_assignments(3, 2 * n, n), Fraction(0))
    residual: dict[TautMonomial, Fraction] = {}
    for mono, c in gap.terms.items():
        key = tuple(_codes(mono, params)[1:])  # a tau pair's negative codes are no key
        if key in coefficients:
            coefficients[key] = -c / params.d ** len(mono.opoints)
        else:
            residual[mono] = c
    return Gamma3Solution(coefficients=coefficients, residual=TautClass(3, residual))


def euler_char(params: ModelParams) -> Fraction:
    """Degree of the self-intersection of the diagonal; equals n + b."""
    diag = diagonal_class(params)
    return pair(diag, diag, params)
