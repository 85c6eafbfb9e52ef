"""The alternating tau relation, its pairing combinatorics, and the
injectivity scanner.

On 2b factors the alternating sum of sign(sigma) * prod tau_(i, b+sigma(i))
over the symmetric group pairs against any block matching to a signed
falling factorial of the loop value, so it falls into the Gram radical
exactly when the loop value is b - 1.  The scanner tabulates rank
deficiencies of the Gram pairing degree by degree to locate where the
radical first appears.
"""

import itertools
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from math import factorial, prod

from .algebra import (ModelParams, TautClass, TautMonomial, _block_counts, _check_cap, _matching_count,
                      basis_count)
from .calculus import pair
from .linalg import _exact

DEFAULT_B_CAP = 7
DEFAULT_GRAM_CAP = 2000


def kimura_element(params: ModelParams, cap_b: int = DEFAULT_B_CAP) -> TautClass:
    """Build sum over sigma of sign(sigma) * prod_i tau_(i, b+sigma(i)), the
    alternating sum of block matchings on 2b factors: b! terms, each sign
    (-1)^(inversions of sigma)."""
    b = params.b
    _check_cap(b, cap_b, f"b={b} exceeds the cap {cap_b} ({b}! terms)")
    m = 2 * b
    terms: dict[TautMonomial, Fraction] = {}
    for perm in itertools.permutations(range(1, b + 1)):
        pairs = tuple((i, b + perm[i - 1]) for i in range(1, b + 1))
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        terms[TautMonomial(m, pairs)] = Fraction((-1) ** inversions)
    return TautClass(m, terms)


def falling_factorial_pairing(b: int, delta: Fraction | int) -> Fraction:
    """The pairing of the alternating element on 2b factors against a fixed
    block matching: the sum over the symmetric group of
    sign(sigma) * delta^cycles(sigma), which is the column-shape eigenvalue
    delta * (delta - 1) * ... * (delta - b + 1) of the matching Gram matrix.
    """
    if b.__class__ is not int or b < 0:
        raise ValueError(f"b {b!r} must be an integer >= 0")
    if delta.__class__ is not Fraction:
        delta = _exact(delta)
    return Fraction(_matching_eigenvalue((1,) * b, delta))


KimuraReport = namedtuple("KimuraReport", "b delta vanishing crosscheck_ok dual_count")


def verify_kimura_vanishing(
    params: ModelParams,
    cap_b: int = DEFAULT_B_CAP,
    cap_gram: int = DEFAULT_GRAM_CAP,
) -> KimuraReport:
    """Radical membership of the alternating element K at the loop value,
    decided by one pairing v of K with the identity crossing matching
    t(1,b+1)...t(b,2b): `vanishing` is v == 0, and `crosscheck_ok` compares
    v with the falling factorial in closed form, the column-shape
    eigenvalue that `scan` reads too.

    One pairing decides it, by this sign rule:

    - A matching with a same-side pair is fixed by that pair's
      transposition, which negates K, so it pairs to 0 with K.
    - K's only nonzero pairings are with perfect matchings, since a local
      class on a tau-covered factor kills the product.
    - A crossing matching rho pairs to sgn(rho) * delta (delta - 1) ...
      (delta - b + 1).

    So K pairs to zero with every complementary monomial exactly when v
    does.  `b` is checked against `cap_b` first, then `dual_count` against
    `cap_gram`, and only then are the b! terms of K built.
    """
    b, m = params.b, 2 * params.b
    _check_cap(b, cap_b, f"b={b} exceeds the cap {cap_b} ({b}! terms)")
    dual_count = basis_count(params, m, b * params.n)
    message = f"dual basis has {dual_count} monomials, over the Gram cap {cap_gram}"
    _check_cap(dual_count, cap_gram, message)
    element = kimura_element(params, cap_b)
    identity = TautMonomial(m, tuple((i, b + i) for i in range(1, b + 1)))
    value = pair(element, TautClass.from_monomial(identity), params)
    return KimuraReport(
        b=b,
        delta=params.delta,
        vanishing=value == 0,
        crosscheck_ok=value == falling_factorial_pairing(b, params.delta),
        dual_count=dual_count,
    )


ScanRow = namedtuple("ScanRow", "m codim basis_size rank deficiency")


def _partitions(k: int, largest: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of k into at most `parts` parts, each at most `largest`,
    largest part first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        if first * parts < k:  # the other parts, none larger, cannot make up k
            break
        for rest in _partitions(k - first, first, parts - 1):
            yield (first,) + rest


def _doubled_shape_dimension(shape: tuple[int, ...]) -> int:
    """f^(2 shape): standard tableaux of the shape with every row doubled,
    by the hook-length formula."""
    rows = [2 * part for part in shape]
    heights = [sum(1 for row in rows if row > j) for j in range(rows[0])] if rows else []
    hooks = prod(row - j + heights[j] - i - 1 for i, row in enumerate(rows) for j in range(row))
    return factorial(sum(rows)) // hooks


def _matching_eigenvalue(shape: tuple[int, ...], delta: Fraction) -> Fraction | int:
    """The scalar by which the matching Gram matrix on 2k points acts on
    S^(2 shape), for a partition `shape` of k: the product over its cells
    (i, j), 0-based, of delta + 2j - i (Hanlon-Wales, J. Algebra 121,
    1989; Macdonald, Symmetric Functions, ch. VII).  At the column shape
    (1^b) it is the falling factorial delta (delta - 1) ... (delta - b + 1).
    """
    return prod(delta + 2 * j - i for i, part in enumerate(shape) for j in range(part))


@cache  # a scan reads each r_k at many cells
def _matching_gram_rank(params: ModelParams, k: int) -> int:
    """Rank r_k(delta) of the perfect-matching Gram matrix on 2k points,
    whose (mu, nu) entry is delta^cycles(mu union nu).

    The matchings span the sum of the S_2k-irreducibles S^(2 lambda) over
    the partitions lambda of k, each once, and the matrix is a scalar on
    each, so the rank adds up f^(2 lambda) over the nonzero scalars.  A
    factor delta + 2j - i is 0 only at an integer delta = N, in the row
    i = N + 2j, and a shape of k has no row i >= k, so when delta is not an
    integer, or k <= N, every matching counts.  At N >= 0 exactly the shapes
    of at most N rows count (one more row has the cell (N, 0), of factor 0),
    and only they are generated; a negative N filters shapes by eigenvalue.
    """
    delta = params.delta
    if delta.denominator != 1 or k <= delta:
        return _matching_count(k)
    return sum(
        _doubled_shape_dimension(shape)
        for shape in _partitions(k, k, k if delta < 0 else int(delta))
        if delta >= 0 or _matching_eigenvalue(shape, delta)
    )


def scan_injectivity(
    params: ModelParams, m_max: int, cap_gram: int = DEFAULT_GRAM_CAP
) -> tuple[ScanRow, ...]:
    """Gram rank deficiencies for every power up to m_max and every codimension,
    one row per (m, codim).

    Every Gram block with k tau pairs is d^(h-pairs) times the matching
    Gram matrix on 2k points, and there are C(m, 2k) * A(m - 2k, codim - nk)
    such blocks, so the rank is a sum over k of block counts times r_k,
    each r_k in closed form.  A cell's basis and dual basis have the same
    size (local degrees e <-> n - e).  Raises ResourceLimitError carrying
    the rows finished so far when that size exceeds the cap.
    """
    if m_max.__class__ is not int:
        raise ValueError(f"m_max {m_max!r} must be an integer >= 1")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n = params.n
    rows: list[ScanRow] = []
    for m in range(1, m_max + 1):
        for codim in range(m * n + 1):
            counts = [(k, blocks) for k, blocks in _block_counts(n, m, codim) if blocks]
            size = sum(blocks * _matching_count(k) for k, blocks in counts)
            message = f"Gram dimension {size} at m={m}, codim={codim} exceeds the cap {cap_gram}"
            _check_cap(size, cap_gram, message, rows)
            total = sum(blocks * _matching_gram_rank(params, k) for k, blocks in counts)
            rows.append(ScanRow(m=m, codim=codim, basis_size=size, rank=total, deficiency=size - total))
    return tuple(rows)
