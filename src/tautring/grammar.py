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

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import (
    ModelParams,
    TautClass,
    TautMonomial,
    h_class,
    multiply,
    o_class,
    tau_class,
    unit_class,
)


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

    With normalize=True (the default) arbitrary products are accepted
    and rewritten to normal form, so 'h1^2' at n=2 becomes '8*o1'.  With
    normalize=False the input must already be in normal form: h
    exponents >= n, repeated factors and locals on tau factors are
    rejected at the parse boundary.
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


def format_class(x: TautClass, params: ModelParams) -> str:
    """Canonical text form; parse_class(format_class(x)) == x."""
    if x.is_zero:
        return "0"
    parts: list[str] = []
    for idx, (mono, coeff) in enumerate(x.sorted_terms(params)):
        if idx == 0:
            sign, coeff_abs = ("-" if coeff < 0 else ""), abs(coeff)
        else:
            sign, coeff_abs = (" - " if coeff < 0 else " + "), abs(coeff)
        body = mono.canonical_str()
        if body == "1":
            parts.append(f"{sign}{coeff_abs}")
        elif coeff_abs == 1:
            parts.append(f"{sign}{body}")
        else:
            parts.append(f"{sign}{coeff_abs}*{body}")
    return "".join(parts)


__all__ = ["ParseError", "parse_class", "format_class"]
