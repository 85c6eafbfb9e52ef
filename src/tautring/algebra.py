"""Formal tautological ring of the m-th power of a polarized even-dimensional variety.

Classes on the m-th power are rational combinations of normal-form
monomials built from three kinds of generator: the hyperplane class h_i
on factor i (degree 1), the normalized point class o_i (degree n), and
the primitive diagonal correction tau_ij between factors i and j
(degree n).  Products are rewritten to a fixpoint of

    o_i * o_i   = 0        h_i * o_i   = 0        h_i^n = d * o_i
    tau_ij * o_i = 0       tau_ij * h_i = 0
    tau_ij * tau_ij = delta * o_i * o_j
    tau_ij * tau_ik = tau_jk * o_i            (i, j, k distinct)

where d is the degree of the variety and delta is the loop value picked
up by a closed tau cycle (b - 1 for a middle cohomology of dimension b).
The rules kill every monomial in which a tau-matched factor carries a
local class, and cap h exponents at n - 1, so a normal-form monomial is
a partial matching of the factors by tau edges plus one local class
(h power below n, or o) on each unmatched factor.  That makes the space
of classes of each codimension finite-dimensional with an explicit
monomial basis.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, prod
from types import MappingProxyType

from .linalg import _exact


class _Validated:
    """Mixin for namedtuple value types with a validating `__new__`.

    namedtuple's `_make` (and `_replace`, which calls it) builds through
    `tuple.__new__`; routing it through `cls(*iterable)` keeps every
    instance normalised and checked.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ModelParams(_Validated, namedtuple("ModelParams", "n d b delta")):
    """Numerical profile of the model: dimension n (even), degree d,
    middle cohomology dimension b, loop value delta (defaults to b - 1)."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, b: int, delta: Fraction | int | str | None = None):
        if n.__class__ is not int or n < 2 or n % 2:
            raise ValueError("n must be an even integer >= 2")
        if d.__class__ is not int or d < 1:
            raise ValueError("d must be an integer >= 1")
        if b.__class__ is not int or b < 1:
            raise ValueError("b must be an integer >= 1")
        delta = Fraction(b - 1) if delta is None else _exact(delta)
        return tuple.__new__(cls, (n, d, b, delta))


class TautMonomial(_Validated, namedtuple("TautMonomial", "m pairs hpows opoints")):
    """Normal-form monomial on m factors.

    `pairs` is the tau matching (disjoint, each pair sorted), `hpows`
    maps unmatched factors to h exponents >= 1, `opoints` lists the
    unmatched factors carrying the point class.  Absent factors carry
    the unit.  An exponent >= n is a raw power that the product reads
    (h^n = d*o, zero above n); `monomial_codim` and `format_class` refuse
    it.  Construction sorts the fields, so equality is syntactic (and,
    the value being a tuple, hashing and equality run in C).
    """

    __slots__ = ()

    def __new__(
        cls,
        m: int,
        pairs: tuple[tuple[int, int], ...] = (),
        hpows: tuple[tuple[int, int], ...] = (),
        opoints: tuple[int, ...] = (),
    ):
        if m.__class__ is not int or m < 0:
            raise ValueError(f"factor count {m!r} must be an integer >= 0")
        try:
            pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
            hpows = tuple(sorted(tuple(h) for h in hpows))
            opoints = tuple(sorted(opoints))
        except TypeError:  # a str beside an int does not sort
            raise ValueError("pairs, hpows and opoints must hold integers") from None
        used: set[int] = set()
        for i, j in pairs:
            if i == j:
                raise ValueError(f"tau pair ({i},{j}) must join distinct factors")
            _claim(i, m, used)
            _claim(j, m, used)
        for f, e in hpows:
            if e.__class__ is not int or e < 1:
                raise ValueError(f"h exponent {e!r} must be an integer >= 1")
            _claim(f, m, used)
        for f in opoints:
            _claim(f, m, used)
        return tuple.__new__(cls, (m, pairs, hpows, opoints))

    def canonical_str(self) -> str:
        """Canonical text form: tau atoms sorted, then locals by factor."""
        locals_ = [(f, f"o{f}") for f in self.opoints]
        locals_ += [(f, f"h{f}" if e == 1 else f"h{f}^{e}") for f, e in self.hpows]
        locals_.sort()  # each factor once: only the factors are compared
        return "*".join([f"t({i},{j})" for i, j in self.pairs] + [atom for _, atom in locals_]) or "1"

    __str__ = canonical_str


def _claim(factor: int, m: int, used: set[int]) -> None:
    if factor.__class__ is not int:
        raise ValueError(f"factor index {factor!r} is not an integer")
    if not 1 <= factor <= m:
        raise ValueError(f"factor index {factor} out of range 1..{m}")
    if factor in used:
        raise ValueError(f"factor {factor} used more than once")
    used.add(factor)


def _codes(mono: TautMonomial, params: ModelParams) -> list[int] | None:
    """The monomial read once, as one code per factor (index 0 counts the
    d's its raw powers close with): -partner on a tau-covered factor, else
    the local degree, 0 the unit and n the point class.  A raw h^n reads as
    o times one d; a raw power above n makes the monomial zero (None)."""
    n = params.n
    codes = [0] * (mono.m + 1)
    for i, j in mono.pairs:
        codes[i], codes[j] = -j, -i
    for f in mono.opoints:
        codes[f] = n
    for f, e in mono.hpows:
        if e > n:
            return None
        codes[0] += e == n
        codes[f] = e
    return codes


def monomial_codim(mono: TautMonomial, params: ModelParams) -> int:
    """Codimension: n per tau pair and per o, plus the h exponents."""
    n = params.n
    for _, e in mono.hpows:
        if e >= n:
            raise ValueError(f"h exponent {e} is not in normal form for n={n}")
    return n * (len(mono.pairs) + len(mono.opoints)) + sum(e for _, e in mono.hpows)


class TautClass:
    """Finite rational combination of normal-form monomials on a fixed power m.

    Instances behave as immutable values: term maps are copied on the
    way in, zero coefficients are dropped, and equality is syntactic.
    """

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping[TautMonomial, Fraction | int] | None = None):
        if m.__class__ is not int or m < 0:
            raise ValueError(f"factor count {m!r} must be an integer >= 0")
        try:
            items = () if terms is None else terms.items()
        except AttributeError:
            raise ValueError(f"terms {terms!r} must be a mapping of monomials to coefficients") from None
        clean: dict[TautMonomial, Fraction] = {}
        for mono, coeff in items:
            if mono.__class__ is not TautMonomial:
                raise ValueError(f"term {mono!r} is not a TautMonomial")
            if mono.m != m:
                raise ValueError(f"monomial on {mono.m} factors in a class on {m}")
            if coeff.__class__ is not Fraction:
                coeff = _exact(coeff)
            if coeff:
                clean[mono] = coeff
        self.m = m
        self._terms = clean

    @classmethod
    def zero(cls, m: int) -> "TautClass":
        return cls(m)

    @classmethod
    def from_monomial(cls, mono: TautMonomial, coeff: Fraction | int = 1) -> "TautClass":
        return cls(mono.m, {mono: coeff})

    @property
    def terms(self) -> Mapping[TautMonomial, Fraction]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: TautMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def scale(self, coeff: Fraction | int) -> "TautClass":
        if coeff.__class__ is not Fraction:
            coeff = _exact(coeff)
        if not coeff:
            return TautClass(self.m)
        return TautClass(self.m, {mono: c * coeff for mono, c in self._terms.items()})

    def __add__(self, other: "TautClass") -> "TautClass":
        if not isinstance(other, TautClass):
            return NotImplemented
        return _sum((self, other), self.m)

    def __sub__(self, other: "TautClass") -> "TautClass":
        if not isinstance(other, TautClass):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "TautClass":
        return self.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    def __repr__(self) -> str:
        texts = sorted((str(mono), c) for mono, c in self._terms.items())
        body = " + ".join(f"{c}*{text}" for text, c in texts)
        return f"TautClass({self.m}: {body or '0'})"


def _sum(classes: Iterable[TautClass], m: int) -> TautClass:
    """The sum of classes on m factors: every term is added into one map
    and the class is built once, so a sum is linear in its terms."""
    acc: dict[TautMonomial, Fraction] = {}
    for x in classes:
        if x.m != m:
            raise ValueError(f"factor count mismatch: {m} != {x.m}")
        for mono, c in x._terms.items():
            prev = acc.get(mono)
            acc[mono] = c if prev is None else prev + c
    return TautClass(m, acc)


def unit_class(m: int) -> TautClass:
    return TautClass.from_monomial(TautMonomial(m))


def o_class(m: int, i: int) -> TautClass:
    return TautClass.from_monomial(TautMonomial(m, opoints=(i,)))


def tau_class(m: int, i: int, j: int) -> TautClass:
    return TautClass.from_monomial(TautMonomial(m, pairs=((i, j),)))


def h_class(params: ModelParams, m: int, i: int, exp: int = 1) -> TautClass:
    """h_i^exp in normal form: the raw power times the unit (h^n = d * o_i, zero above n)."""
    if exp.__class__ is not int:  # 2.0 or True would pass the comparison below
        raise ValueError(f"h exponent {exp!r} must be an integer")
    if exp < 0:
        raise ValueError("h exponent must be >= 0")
    TautMonomial(m, opoints=(i,))  # checks m and the factor, also at exponent 0
    raw = tuple.__new__(TautMonomial, (m, (), ((i, exp),) if exp else (), ()))
    return multiply(TautClass.from_monomial(raw), unit_class(m), params)


def _product(a: list[int], b: list[int], at: Sequence[int], m: int,
             params: ModelParams) -> tuple[Fraction | int, TautMonomial] | None:
    """Normal form of the product of two monomials read by `_codes`, written on
    m factors: factor f goes to at[f], and a factor with at[f] == 0 is dropped,
    which it may be only where the product carries o.  None when it is zero.

    The product contracts the union of the two tau matchings, in which
    every factor has degree at most two.  Every factor that both sides
    cover by tau gets o.  A walk, alternating sides, goes from each path
    end to the other end (one tau between the ends, written from the lower
    end), and round each cycle once, from its least factor (one factor
    delta).  A local class on a factor the other side covers by tau kills
    the term.  Locals on a free factor add: h^x * h^(n-x) closes to d*o,
    a sum above n is zero.  The factors are read in order, so the fields
    come out canonical and are not validated again.
    """
    n = params.n
    closures = a[0] + b[0]  # the d's: each raw h^n read as o, then each h^x * h^(n-x)
    pairs, hpows, opoints, both = [], [], [], []
    for f in range(1, len(a)):
        x, y = a[f], b[f]
        if x < 0 or y < 0:
            if x > 0 or y > 0:  # a local on a factor the other side covers
                return None
            if x and y:  # inside a path or on a cycle
                both.append(f)
                if at[f]:
                    opoints.append(at[f])
            else:  # a path end
                side, other, end = (a, b, f) if x else (b, a, f)
                while other[end := -side[end]] < 0:
                    side, other = other, side
                if f < end:
                    pairs.append((at[f], at[end]))
        elif (s := x + y) == n:
            if x and y:
                closures += 1
            if at[f]:
                opoints.append(at[f])
        elif s > n:
            return None
        elif s:
            hpows.append((at[f], s))
    cycles = 0
    for v in both:  # a walk that meets a lower factor or a path end counts no cycle
        side, other, cur = a, b, v
        while (cur := -side[cur]) > v and other[cur] < 0:
            side, other = other, side
        cycles += cur == v
    if cycles and not params.delta:
        return None
    mono = tuple.__new__(TautMonomial, (m, tuple(pairs), tuple(hpows), tuple(opoints)))
    return (params.delta**cycles if cycles else 1) * params.d**closures, mono


def _mul_monomials(a: TautMonomial, b: TautMonomial, params: ModelParams) -> tuple[Fraction | int, TautMonomial] | None:
    """Normal form of a monomial product (see `_product`); None when it is zero."""
    codes = _codes(a, params), _codes(b, params)
    return None if None in codes else _product(*codes, range(a.m + 1), a.m, params)


def push_products(x: TautClass, ys: Iterable[TautClass], kept: Iterable[int], params: ModelParams) -> list[TautClass]:
    """[pushforward(multiply(x, y), kept) for y in ys], forming only the
    term products that survive the pushforward.

    Each term is read by `_codes` once.  x's terms are grouped by
    `_dropped_key`, and each y term is multiplied only with the group under
    its complemented key, by `_product`, which writes the kept factors in
    their new places.  With no factor dropped there is one group: that is
    `multiply`.
    """
    kept = list(kept)
    for f in kept:
        if f.__class__ is not int or not 1 <= f <= x.m:  # 1.5 would pass the range check
            raise ValueError(f"kept factor {f!r} out of range 1..{x.m}")
    at = [0] * (x.m + 1)  # each factor's place among the kept ones, 0 where it is dropped
    for i, f in enumerate(sorted(set(kept))):
        at[f] = i + 1
    dropped = [f for f in range(1, x.m + 1) if not at[f]]
    n, m_kept = params.n, x.m - len(dropped)
    groups: dict[tuple, list[tuple[list[int], Fraction]]] = {}
    for mono, coeff in x._terms.items():
        if (codes := _codes(mono, params)) is not None:
            groups.setdefault(_dropped_key(codes, dropped, n), []).append((codes, coeff))
    out = []
    for y in ys:
        if x.m != y.m:
            raise ValueError(f"factor count mismatch: {x.m} != {y.m}")
        acc: dict[TautMonomial, Fraction] = {}
        for mb, cb in y._terms.items():
            if (b := _codes(mb, params)) is None:
                continue
            for a, ca in groups.get(_dropped_key(b, dropped, n, complement=True), ()):
                result = _product(a, b, at, m_kept, params)
                if result is None:
                    continue
                scale, mono = result
                coeff = ca * cb if scale == 1 else ca * cb * scale
                prev = acc.get(mono)
                acc[mono] = coeff if prev is None else prev + coeff
        out.append(TautClass(m_kept, acc))
    return out


def multiply(x: TautClass, y: TautClass, params: ModelParams) -> TautClass:
    """Product in the tautological ring, fully rewritten to normal form:
    the product pushed forward along no factor."""
    return push_products(x, (y,), range(1, x.m + 1), params)[0]


def class_codim(x: TautClass, params: ModelParams) -> int | None:
    """Codimension of a homogeneous class, None for the zero class.

    Raises ValueError on inhomogeneous input.
    """
    codims = {monomial_codim(mono, params) for mono in x._terms}
    if not codims:
        return None
    if len(codims) > 1:
        raise ValueError("class is not homogeneous")
    return codims.pop()


def _local_assignments(count: int, total: int, n: int) -> list[tuple[int, ...]]:
    # the local degrees, each in 0..n, of `count` factors in order summing to `total`: a
    # factor takes only the degrees from which those after it reach `total`, the last what is left
    assignments = [(total,)]  # each: the degrees placed, then what is left for the rest
    for after in range(count - 1, 0, -1):
        assignments = [(*placed, deg, left - deg) for *placed, left in assignments
                       for deg in range(max(0, left - n * after), min(n, left) + 1)]
    return assignments if count else [()]


def _perfect_matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """The perfect matchings of the ascending points, each as sorted pairs, in
    the order of their tau text: the first point's partners are taken in the
    order of their decimal text, which is how `canonical_str` compares them."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for partner in sorted(rest, key=str):
        idx = rest.index(partner)
        for sub in _perfect_matchings(rest[:idx] + rest[idx + 1 :]):
            yield ((first, partner),) + sub


def _check_cell(m: int, codim: int) -> None:
    if m.__class__ is not int or m < 1:
        raise ValueError(f"factor count {m!r} must be an integer >= 1")
    if codim.__class__ is not int or codim < 0:
        raise ValueError(f"codimension {codim!r} must be an integer >= 0")


def _gram_blocks(n: int, m: int, codim: int) -> Iterator[tuple[list, list[int], tuple[int, ...]]]:
    """Each Gram block of the cell (see `_dropped_key`): the perfect
    matchings of its tau-covered factors, formed once per covered set, the
    other factors, and their local degrees, listed once per pair count k
    (those with n*k <= codim <= n*(m - k))."""
    factors = range(1, m + 1)
    for k in range(min(m // 2, codim // n) + 1):
        rem = codim - n * k
        if rem > n * (m - 2 * k):
            continue
        assignments = _local_assignments(m - 2 * k, rem, n)
        for covered in combinations(factors, 2 * k):
            matchings = list(_perfect_matchings(covered))
            free = [f for f in factors if f not in covered]
            for degrees in assignments:
                yield matchings, free, degrees


def _dropped_key(codes: list[int], dropped: Sequence[int], n: int, complement: bool = False) -> tuple:
    """Per dropped factor of a monomial read by `_codes`: -1 where a tau edge
    covers it, else its local degree (0 unit, n point class), or n minus
    that with `complement`.

    This is the block rule of the pairing.  A term product carries o on a
    dropped factor exactly when both terms cover it by tau (it lies inside
    a path or on a cycle), or neither does and their local degrees sum to
    n.  So the product of an x term and a y term survives a pushforward
    only when the x key equals the complemented y key; over all factors,
    two monomials pair to nonzero only when tau covers the same factors in
    both and their local degrees are complementary on every other factor.
    """
    return tuple(-1 if codes[f] < 0 else n - codes[f] if complement else codes[f] for f in dropped)


def _block_monomials(m: int, matchings: Iterable, free: Iterable[int], degrees: Iterable[int], n: int) -> list:
    """A block's monomials: each sorted tau matching with local degrees `degrees` on the factors `free`,
    in order, degree n read as o and 0 as the unit.  The fields are canonical, so not validated again."""
    hpows, opoints = [], []
    for f, e in zip(free, degrees):  # a loop: every basis and Gram monomial is built here
        if e == n:
            opoints.append(f)
        elif e:
            hpows.append((f, e))
    hpows, opoints = tuple(hpows), tuple(opoints)
    return [tuple.__new__(TautMonomial, (m, pairs, hpows, opoints)) for pairs in matchings]


def enumerate_basis(params: ModelParams, m: int, codim: int) -> list[TautMonomial]:
    """All normal-form monomials of the given codimension, in canonical order:
    the monomials of every Gram block of the cell."""
    _check_cell(m, codim)
    n = params.n
    monos = [mono for matchings, free, degrees in _gram_blocks(n, m, codim)
             for mono in _block_monomials(m, matchings, free, degrees, n)]
    return sorted(monos, key=TautMonomial.canonical_str)


@cache  # a scan asks for the same count at many cells and k
def _local_count(factors: int, total: int, n: int) -> int:
    """Ways to give `factors` factors local degrees in 0..n summing to `total`
    (inclusion-exclusion over the factors pushed above n)."""
    if factors == 0:
        return 1 if total == 0 else 0
    return sum(
        (-1) ** j * comb(factors, j) * comb(total - j * (n + 1) + factors - 1, factors - 1)
        for j in range(min(factors, total // (n + 1)) + 1)
    )


def _block_counts(n: int, m: int, codim: int) -> Iterator[tuple[int, int]]:
    """(k, C(m, 2k) * A(m - 2k, codim - nk)) for each tau pair count k: the
    ways to choose the 2k matched factors and the local degrees on the
    other m - 2k factors, summing to codim - nk."""
    for k in range(min(m // 2, codim // n) + 1):
        yield k, comb(m, 2 * k) * _local_count(m - 2 * k, codim - n * k, n)


def _matching_count(k: int) -> int:
    """(2k-1)!!, the perfect matchings of 2k points."""
    return prod(range(1, 2 * k, 2))


def basis_count(params: ModelParams, m: int, codim: int) -> int:
    """len(enumerate_basis(params, m, codim)) without building the basis.

    A basis monomial is a matching of k tau pairs on 2k of the m factors,
    ((2k-1)!! matchings of each choice), plus local degrees on the other
    m - 2k factors summing to codim - n*k.
    """
    _check_cell(m, codim)
    return sum(blocks * _matching_count(k) for k, blocks in _block_counts(params.n, m, codim))


class ResourceLimitError(RuntimeError):
    """A configured resource cap was exceeded; carries partial output if any."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _check_cap(size: int, cap: int, message: str, partial=None) -> None:
    """The one cap rule, read before the work it predicts: a cap that is not an
    int is a ValueError; a size over it raises ResourceLimitError(message)."""
    if cap.__class__ is not int:
        raise ValueError(f"cap {cap!r} must be an integer")
    if size > cap:
        raise ResourceLimitError(message, None if partial is None else tuple(partial))
