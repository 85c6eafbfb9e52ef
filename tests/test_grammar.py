import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tautring import (
    ModelParams,
    ParseError,
    TautClass,
    TautMonomial,
    enumerate_basis,
    format_class,
    o_class,
    parse_class,
)
from tautring.grammar import _terms
from oracles import parse_class_term_by_term, scanner_terms
from strategies import classes, monomials

P = ModelParams(2, 8, 3)


def test_parse_matching_with_point():
    cls = parse_class("t(1,2)*o3", P)
    assert cls == TautClass.from_monomial(TautMonomial(3, pairs=((1, 2),), opoints=(3,)))
    assert cls.m == 3


def test_parse_normalizes_h_power_by_default():
    assert format_class(parse_class("h1^2", P), P) == "8*o1"
    # above the cap the class is zero outright
    assert parse_class("h1^3", P).is_zero


def test_strict_mode_rejects_high_exponent():
    with pytest.raises(ParseError) as err:
        parse_class("h1^2", P, normalize=False)
    assert err.value.position == 0


def test_strict_mode_rejects_repeated_factor():
    with pytest.raises(ParseError):
        parse_class("h1*o1", P, normalize=False)
    # the same product normalizes to zero
    assert parse_class("h1*o1", P).is_zero


def test_parse_unit_and_scalars():
    assert parse_class("1", P) == TautClass.from_monomial(TautMonomial(1))
    assert parse_class("3", P) == TautClass.from_monomial(TautMonomial(1), 3)
    assert parse_class("0", P).is_zero
    assert format_class(TautClass.zero(2), P) == "0"


def test_parse_signs_and_fractions():
    cls = parse_class("-1/2*h1 + 3*o2 - t(1,2)", P)
    assert cls.coefficient(TautMonomial(2, hpows=((1, 1),))) == Fraction(-1, 2)
    assert cls.coefficient(TautMonomial(2, opoints=(2,))) == 3
    assert cls.coefficient(TautMonomial(2, pairs=((1, 2),))) == -1


def test_parse_explicit_m_and_range_errors():
    cls = parse_class("o1", P, m=3)
    assert cls == o_class(3, 1)
    with pytest.raises(ParseError):
        parse_class("o4", P, m=3)
    with pytest.raises(ParseError):
        parse_class("t(1,1)", P)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_class("h1 + * o2", P)
    assert err.value.position == 5


@pytest.mark.parametrize("text", [None, b"h1", 7], ids=["None", "bytes", "int"])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "strict"])
def test_parse_refuses_text_that_is_not_a_str(text, normalize):
    # as every library input check, a ValueError that names the type
    with pytest.raises(ValueError) as err:
        parse_class(text, P, normalize=normalize)
    assert str(err.value) == f"class text must be a str, not {type(text).__name__}"


def test_a_digit_that_is_not_decimal_is_a_positioned_parse_error():
    # str.isdigit accepts '²', int() does not: the scanner raised a bare ValueError
    with pytest.raises(ParseError) as err:
        parse_class("h1²", P)
    assert err.value.position == 2
    assert str(err.value) == "expected '+', '-' or end of input (at position 2)"
    # a decimal digit of another script is an integer, as int() reads it
    assert parse_class("h٣", P) == parse_class("h3", P)


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() < 5000, reason="5000 digits are under the int-string limit"
)
@pytest.mark.parametrize(
    "text,position",
    [("1" * 5000, 0), ("h" + "1" * 5000, 1), ("t(1," + "2" * 5000 + ")", 4), ("h1^" + "3" * 5000, 3), ("1/" + "2" * 5000, 2)],
    ids=["coefficient", "h factor", "tau factor", "h exponent", "denominator"],
)
def test_a_digit_run_over_the_int_string_limit_is_a_positioned_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse_class(text, P)
    assert err.value.position == position
    assert str(err.value) == f"integer of 5000 digits is too long (at position {position})"


def test_normalizing_parse_contracts_tau_products():
    cls = parse_class("t(1,2)*t(1,3)", P)
    assert cls == TautClass.from_monomial(TautMonomial(3, pairs=((2, 3),), opoints=(1,)))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_format_parse_roundtrip(data):
    params = data.draw(st.sampled_from([ModelParams(2, 8, 3), ModelParams(4, 8, 2)]))
    m = data.draw(st.integers(min_value=1, max_value=4))
    cls = data.draw(classes(m, params.n))
    text = format_class(cls, params)
    parsed = parse_class(text, params, m=m)
    assert parsed == cls
    # strict mode accepts canonical output too
    assert parse_class(text, params, m=m, normalize=False) == cls


@st.composite
def formatted_classes(draw):
    params = draw(st.sampled_from([ModelParams(2, 8, 3), ModelParams(4, 8, 2)]))
    m = draw(st.integers(min_value=1, max_value=4))
    return format_class(draw(classes(m, params.n)), params)


# Tokens of the grammar and their near misses, with a digit that is not
# decimal ('²'), a decimal digit of another script ('٣') and a tab.
NEAR_MISSES = st.lists(
    st.sampled_from(list("tho0123()/^*+-, \t²٣") + ["t(1,2)", "t(2,2)", "h1", "^0", "o3", "1/0", "2/3"]),
    max_size=12,
).map("".join)

# Messages that name a tau pair, an exponent, a zero denominator or what may
# follow a term; the scanner's other messages ("expected an integer", "expected
# '('", ...) may read coarser, as the atom error or the one after a term.
KEPT = ("tau must join", "h exponent", "zero denominator", "expected '+', '-' or end of input")


@given(text=st.one_of(formatted_classes(), NEAR_MISSES))
@settings(max_examples=600, deadline=None)
def test_pattern_reader_matches_the_scanner_oracle(text):
    try:
        expected = scanner_terms(text)
    except ValueError as exc:  # a ParseError, or int() refusing a digit such as '²'
        with pytest.raises(ParseError) as err:
            _terms(text)
        if isinstance(exc, ParseError) and str(exc).startswith(KEPT):
            assert str(err.value) == str(exc)
        if isinstance(exc, ParseError) and str(err.value).startswith(KEPT[:3]):
            assert str(err.value) == str(exc)
    else:
        assert _terms(text) == expected


def _read(reader, text, params, m, normalize):
    """A reader's class, or the message and position of its ParseError."""
    try:
        return reader(text, params, m=m, normalize=normalize)
    except ParseError as exc:
        return str(exc), exc.position


@st.composite
def cancelling_texts(draw, params):
    """format_class output of a random class, followed by terms that
    cancel each other and terms with a zero coefficient."""
    m = draw(st.integers(min_value=1, max_value=4))
    parts = [format_class(draw(classes(m, params.n)), params)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mono = draw(monomials(m, params.n)).canonical_str()
        coeff = draw(st.sampled_from(["0", "1", "2", "3/4"]))
        parts += [f"{coeff}*{mono}", f"-{coeff}*{mono}"] if coeff != "0" else [f"0*{mono}"]
    order = draw(st.permutations(range(len(parts))))
    return " + ".join(parts[k] for k in order)


@st.composite
def atom_texts(draw, n):
    """Terms of random atoms: '1' atoms, repeated factors, h exponents up
    to n + 1 and factor indices up to 4."""
    factor = st.integers(min_value=1, max_value=4)
    atom = st.one_of(
        st.tuples(factor, factor).filter(lambda t: t[0] != t[1]).map(lambda t: f"t({t[0]},{t[1]})"),
        st.tuples(factor, st.integers(min_value=1, max_value=n + 1)).map(lambda t: f"h{t[0]}^{t[1]}"),
        factor.map(lambda f: f"o{f}"),
        st.just("1"),
    )
    term = st.tuples(st.sampled_from(["", "2*", "-1/3*", "0*"]), st.lists(atom, min_size=1, max_size=4))
    terms = draw(st.lists(term, min_size=1, max_size=4))
    return " + ".join(coeff + "*".join(atoms) for coeff, atoms in terms)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_pass_reader_matches_the_term_by_term_oracle(data):
    params = data.draw(st.sampled_from([ModelParams(2, 8, 3), ModelParams(4, 8, 2)]))
    text = data.draw(st.one_of(cancelling_texts(params), atom_texts(params.n)))
    given_m = data.draw(st.integers(min_value=1, max_value=4))
    for m in (None, given_m):
        for normalize in (True, False):
            expected = _read(parse_class_term_by_term, text, params, m, normalize)
            assert _read(parse_class, text, params, m, normalize) == expected


@pytest.mark.parametrize(
    "text,m,normalize",
    [
        ("h1*o1 + o9", 3, False),  # a range error in a later term wins over a strict one
        ("h1^2*o1 + t(1,4)", 3, False),
        ("o1*t(1,2) + h2^2", None, False),  # the repeated factor comes first
        ("h3*h3^2", None, False),  # the exponent is checked before the factor is claimed
        ("0*h1*h1 + 1*2", None, False),
        ("1*h1 - h1*1 + 0*o2", None, True),
        *((text, None, normalize) for text in ("h1^2", "h1^3", "t(1,2)*t(1,2)", "t(1,2)*t(2,3)", "o1*o1")
          for normalize in (True, False)),
    ],
)
def test_one_pass_reader_matches_the_oracle_on_examples(text, m, normalize):
    expected = _read(parse_class_term_by_term, text, P, m, normalize)
    assert _read(parse_class, text, P, m, normalize) == expected


def test_parse_builds_one_class_per_term(monkeypatch):
    # each atom was a generator class multiplied into the term: 56,281 classes for 5,824 terms
    x = TautClass(8, {mono: Fraction(k % 11 - 5 or 7, k % 4 + 1) for k, mono in enumerate(enumerate_basis(P, 8, 6))})
    text = format_class(x, P)
    count = [0]
    init = TautClass.__init__

    def counting_init(self, m, terms=None):
        count[0] += 1
        init(self, m, terms)

    monkeypatch.setattr(TautClass, "__init__", counting_init)
    for normalize in (True, False):
        count[0] = 0
        assert parse_class(text, P, normalize=normalize) == x
        assert count[0] == len(x.terms) + 1 == 5825


def test_format_class_makes_each_monomial_text_once(monkeypatch):
    # one canonical_str call per term, for the sort and the body alike
    x = TautClass(4, {mono: Fraction(k % 7 - 3 or 5, k % 3 + 1)
                      for k, mono in enumerate(enumerate_basis(P, 4, 4))})
    text = format_class(x, P)
    calls = []
    canonical_str = TautMonomial.canonical_str
    monkeypatch.setattr(TautMonomial, "canonical_str",
                        lambda mono: calls.append(mono) or canonical_str(mono))
    assert format_class(x, P) == text
    assert sorted(calls) == sorted(x.terms)
