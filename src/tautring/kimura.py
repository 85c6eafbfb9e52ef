"""The alternating tau relation, its pairing combinatorics, and the
injectivity scanner.

On 2b factors the alternating sum of sign(sigma) * prod tau_(i, b+sigma(i))
over the symmetric group pairs against any block matching to a signed
falling factorial of the loop value, so it falls into the Gram radical
exactly when the loop value is b - 1.  The scanner tabulates rank
deficiencies of the Gram pairing degree by degree to locate where the
radical first appears.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .algebra import ModelParams, TautClass, TautMonomial, _local_count, _matchings, basis_count
from .calculus import _mono_pairing, is_zero_in_cohomology, pair
from .linalg import RationalMatrix, rank

DEFAULT_B_CAP = 7
DEFAULT_GRAM_CAP = 2000


class ResourceLimitError(RuntimeError):
    """A configured resource cap was exceeded; carries partial output if any."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _cycle_count(perm: Sequence[int]) -> int:
    # perm maps position i (0-based) to perm[i] (1-based values)
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur] - 1
    return cycles


def _sign(perm: Sequence[int]) -> int:
    return -1 if (len(perm) - _cycle_count(perm)) % 2 else 1


class KimuraElement(NamedTuple):
    """Alternating sum of block matchings on 2b factors; b! terms, signs +-1."""

    b: int
    cls: TautClass


def kimura_element(params: ModelParams, cap_b: int = DEFAULT_B_CAP) -> KimuraElement:
    """Build sum over sigma of sign(sigma) * prod_i tau_(i, b+sigma(i))."""
    b = params.b
    if b > cap_b:
        raise ResourceLimitError(f"b={b} exceeds the cap {cap_b} ({b}! terms)")
    m = 2 * b
    terms: dict[TautMonomial, Fraction] = {}
    for perm in itertools.permutations(range(1, b + 1)):
        pairs = tuple((i, b + perm[i - 1]) for i in range(1, b + 1))
        terms[TautMonomial(m, pairs)] = Fraction(_sign(perm))
    return KimuraElement(b=b, cls=TautClass(m, terms))


def falling_factorial_pairing(b: int, delta: Fraction | int, cap_b: int = DEFAULT_B_CAP) -> Fraction:
    """Brute-force sum over the symmetric group of sign(sigma) * delta^cycles(sigma).

    This is the pairing of the alternating element against a fixed block
    matching, and it equals delta * (delta - 1) * ... * (delta - b + 1).
    """
    if b > cap_b:
        raise ResourceLimitError(f"b={b} exceeds the cap {cap_b} ({b}! permutations)")
    delta = Fraction(delta)
    total = Fraction(0)
    for perm in itertools.permutations(range(1, b + 1)):
        total += _sign(perm) * delta ** _cycle_count(perm)
    return total


class KimuraReport(NamedTuple):
    params: ModelParams
    b: int
    delta: Fraction
    vanishing: bool
    crosscheck_ok: bool
    dual_count: int

    @property
    def passed(self) -> bool:
        return self.vanishing and self.crosscheck_ok


def verify_kimura_vanishing(
    params: ModelParams,
    cap_b: int = DEFAULT_B_CAP,
    cap_gram: int = DEFAULT_GRAM_CAP,
) -> KimuraReport:
    """Radical membership of the alternating element at the loop value.

    `vanishing` is radical membership (zero pairing against every
    complementary monomial); `crosscheck_ok` compares the pairings
    against block matchings with the signed falling factorial computed
    by independent permutation enumeration.
    """
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


class ScanRow(NamedTuple):
    m: int
    codim: int
    basis_size: int
    rank: int
    deficiency: int


class ScanTable(NamedTuple):
    params: ModelParams
    m_max: int
    rows: tuple[ScanRow, ...]


def _matching_gram_rank(params: ModelParams, k: int) -> int:
    """Rank r_k(delta) of the perfect-matching Gram matrix on 2k points,
    whose (mu, nu) entry is delta^cycles(mu union nu)."""
    points = tuple(range(1, 2 * k + 1))
    monos = [TautMonomial(2 * k, pairs) for pairs in _matchings(points) if len(pairs) == k]
    return rank(RationalMatrix([[_mono_pairing(a, b, params) for b in monos] for a in monos]))


def scan_injectivity(
    params: ModelParams, m_max: int, cap_gram: int = DEFAULT_GRAM_CAP
) -> ScanTable:
    """Gram rank deficiencies for every power up to m_max and every codimension.

    Every Gram block with k tau pairs is d^(h-pairs) times the matching
    Gram matrix on 2k points, and there are C(m, 2k) * A(m - 2k, codim - nk)
    such blocks, so the rank is a sum over k of block counts times r_k,
    with each r_k eliminated once per call.  Raises ResourceLimitError
    carrying the partial table when a Gram dimension exceeds the cap.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n = params.n
    ranks = {0: 1}  # r_k by k; a block without tau pairs is one nonzero entry
    rows: list[ScanRow] = []
    for m in range(1, m_max + 1):
        for codim in range(m * n + 1):
            size = basis_count(params, m, codim)
            dual_size = basis_count(params, m, m * n - codim)
            if max(size, dual_size) > cap_gram:
                raise ResourceLimitError(
                    f"Gram dimension {max(size, dual_size)} at m={m}, codim={codim} "
                    f"exceeds the cap {cap_gram}",
                    partial=ScanTable(params=params, m_max=m_max, rows=tuple(rows)),
                )
            total = 0
            for k in range(min(m // 2, codim // n) + 1):
                blocks = comb(m, 2 * k) * _local_count(m - 2 * k, codim - n * k, n)
                if blocks:
                    if k not in ranks:  # (2k-1)!! <= size <= cap_gram here
                        ranks[k] = _matching_gram_rank(params, k)
                    total += blocks * ranks[k]
            rows.append(ScanRow(m=m, codim=codim, basis_size=size, rank=total, deficiency=size - total))
    return ScanTable(params=params, m_max=m_max, rows=tuple(rows))
