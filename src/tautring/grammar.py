"""Canonical text form for tautological classes.

Grammar (whitespace allowed between tokens):

    class  :=  term (('+' | '-') term)*
    term   :=  ['-'] (coeff ['*' mono] | mono)
    coeff  :=  int ['/' int]
    mono   :=  atom ('*' atom)*
    atom   :=  't(' int ',' int ')' | 'h' int ['^' int] | 'o' int | '1'

Formatting emits each monomial in canonical form (tau atoms sorted,
locals by ascending factor, exponent omitted when 1), terms ordered by
codimension then by canonical string, coefficients as 'p/q'.
"""

import re
import sys
from fractions import Fraction

from .algebra import (ModelParams, ResourceLimitError, TautClass, TautMonomial, _mul_monomials, _sum,
                      monomial_codim)


class ParseError(ValueError):
    """Syntax or well-formedness error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The grammar as patterns, each matched where the last one ended and each
# eating the whitespace after it, so that every position read is a token's.
# A term's head is its sign, coefficient and the '*' that joins atoms to it.
_HEAD = r"\s*(-?)\s*(?:(\d+)(?:/(\d+))?\s*(\*?))?\s*"
_ATOM = r"(?:t\((\d+),(\d+)\)|h(\d+)(?:\^(\d+))?|o(\d+)|1)\s*"
_STAR = r"\*\s*"


def _int(match: re.Match, group: int) -> int | None:
    """A matched digit run as an int (None when the group is absent); a
    run over the interpreter's int-string limit is refused at its start."""
    digits = match[group]
    try:
        return None if digits is None else int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", match.start(group)) from None


def _terms(text: str) -> list[tuple[Fraction, list[tuple]]]:
    """Each term's coefficient and its atoms (kind, i, j, position).  The
    patterns compile on first use, through re's own cache, so that a
    process that reads no class does not pay for them at import."""
    terms, pos = [], 0
    while True:
        head = re.compile(_HEAD).match(text, pos)
        num, den = _int(head, 2), _int(head, 3)
        if den == 0:
            raise ParseError("zero denominator", head.start(2))
        coeff = Fraction(1 if num is None else num, den or 1)
        atoms: list[tuple] = []
        pos, more = head.end(), num is None or head[4]  # a bare scalar is a multiple of the unit
        while more:
            atom = re.compile(_ATOM).match(text, pos)
            if atom is None:
                raise ParseError("expected a generator (t, h, o) or 1", pos)
            t_i, t_j, h_i, exp, o_i = (_int(atom, group) for group in range(1, 6))
            if t_i is not None:
                if t_i == t_j:
                    raise ParseError("tau must join two distinct factors", pos)
                atoms.append(("t", min(t_i, t_j), max(t_i, t_j), pos))
            elif h_i is not None:
                if exp == 0:
                    raise ParseError("h exponent must be >= 1", pos)
                atoms.append(("h", h_i, exp or 1, pos))
            else:
                atoms.append(("o", o_i, 0, pos) if o_i is not None else ("1", 0, 0, pos))
            more = re.compile(_STAR).match(text, atom.end())
            pos = (more or atom).end()
        terms.append((-coeff if head[1] else coeff, atoms))
        if pos == len(text):
            return terms
        if text[pos] not in "+-":
            raise ParseError("expected '+', '-' or end of input", pos)
        pos += text[pos] == "+"  # a '-' is the next term's sign


def parse_class(
    text: str,
    params: ModelParams,
    m: int | None = None,
    normalize: bool = True,
) -> TautClass:
    """Parse a class expression.

    Each term is one class: its coefficient times its atoms' monomials,
    multiplied in order by the product rule, so arbitrary products are
    rewritten to normal form ('h1^2' at n=2 becomes '8*o1').  The terms
    are summed into one map, so reading is linear in the number of terms.
    With normalize=False the input must already be in normal form: before
    an atom is multiplied, its h exponent must be below n and it may claim
    no factor an earlier atom of its term has claimed.  On such input the
    product is the monomial as written.  Text that is not a str is a
    ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"class text must be a str, not {text.__class__.__name__}")
    terms = _terms(text)
    if m is None:  # the largest factor index (of a tau, its second)
        m = max([1] + [j if kind == "t" else i for _, atoms in terms for kind, i, j, _ in atoms])
    for _, atoms in terms:
        for kind, i, j, pos in atoms:
            for f in _factors(kind, i, j):
                if not 1 <= f <= m:
                    raise ParseError(f"factor index {f} out of range 1..{m}", pos)

    return _sum((_term(coeff, atoms, m, params, normalize) for coeff, atoms in terms), m)


def _term(coeff: Fraction, atoms: list[tuple], m: int, params: ModelParams, normalize: bool) -> TautClass:
    """One term as one class: its coefficient times its atoms' monomials, in order, by the product rule."""
    mono, used = TautMonomial(m), set()
    for kind, i, j, pos in atoms:
        if not normalize:
            if kind == "h" and j >= params.n:
                raise ParseError(f"h exponent {j} must be < n={params.n}", pos)
            for f in _factors(kind, i, j):
                if f in used:
                    raise ParseError(f"factor {f} used more than once in a monomial", pos)
                used.add(f)
        # the factors are in range and a tau's are sorted: the atom's fields are canonical as read
        atom = (m, ((i, j),) if kind == "t" else (), ((i, j),) if kind == "h" else (), (i,) if kind == "o" else ())
        product = _mul_monomials(mono, tuple.__new__(TautMonomial, atom), params)
        if product is None:  # never on a strict term, so no strict check is skipped
            return TautClass(m)
        scale, mono = product
        coeff *= scale
    return TautClass(m, {mono: coeff})


def _factors(kind: str, i: int, j: int) -> tuple[int, ...]:
    """The factors an atom names: both of a tau, the one of h or o."""
    return (i, j) if kind == "t" else (i,) if kind in ("h", "o") else ()


def format_fraction(q: Fraction) -> str:
    """A report's text of a rational number, as 'p' or 'p/q'.  A number
    with more digits than the interpreter writes is a resource limit."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"a value is over the int-string limit of {limit} digits") from None


def format_class(x: TautClass, params: ModelParams) -> str:
    """Canonical text form; parse_class(format_class(x)) == x."""
    if x.is_zero:
        return "0"
    parts: list[str] = []
    # each monomial's text made once, and sorted on after its codimension
    terms = sorted((monomial_codim(mono, params), mono.canonical_str(), coeff)
                   for mono, coeff in x.terms.items())
    for idx, (_, body, coeff) in enumerate(terms):
        sign = (" - " if coeff < 0 else " + ") if idx else ("-" if coeff < 0 else "")
        scalar = format_fraction(abs(coeff))
        if body == "1":
            parts.append(sign + scalar)
        else:
            parts.append(sign + body if scalar == "1" else f"{sign}{scalar}*{body}")
    return "".join(parts)
