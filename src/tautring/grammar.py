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


def _parse_atom(sc: _Scanner) -> tuple:
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


def _parse_term(sc: _Scanner) -> tuple[Fraction, list[tuple]]:
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
        atoms.append(_parse_atom(sc))
        sc.skip_ws()
        if sc.peek() == "*":
            sc.pos += 1
        else:
            break
    return sign * coeff, atoms


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
    sc = _Scanner(text)
    terms = [_parse_term(sc)]
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise ParseError("expected '+', '-' or end of input", sc.pos)
        if ch == "+":
            sc.pos += 1  # a leading '-' is consumed by the term
        terms.append(_parse_term(sc))

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
