"""Expression grammar: parsing, validation, deterministic printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monogenic.charts import BASE, TWISTOR
from monogenic.expr import ParseError, parse_expr, parse_section, parse_spinor
from monogenic.laurent import LaurentPoly
from monogenic.transform import SpinorField

LONG = "9" * 4301  # one digit past the interpreter's int-string limit, as "{long}" below


def test_parse_known_generator():
    section = parse_section("z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1")
    expected = LaurentPoly.monomial(
        TWISTOR, {"z11": 2, "zeta1": -1, "zeta2": -1, "zeta3": -1}
    )
    assert section.body == expected


def test_parse_coefficient_term():
    p = parse_expr("1/2 * x1_11 * x2_12", BASE)
    assert p == LaurentPoly.monomial(BASE, {"x1_11": 1, "x2_12": 1}, Fraction(1, 2))


def test_parse_sign_handling():
    p = parse_expr("-z0 + 2*z11 - 1", TWISTOR)
    expected = (
        LaurentPoly.variable(TWISTOR, "z0").scale(-1)
        + LaurentPoly.variable(TWISTOR, "z11").scale(2)
        - LaurentPoly.constant(TWISTOR, 1)
    )
    assert p == expected


def test_negative_exponent_rules():
    with pytest.raises(ParseError):
        parse_expr("z11^-1", TWISTOR)
    with pytest.raises(ParseError):
        parse_expr("x12^-1", BASE)
    parse_expr("zeta2^-3", TWISTOR)  # allowed


@pytest.mark.parametrize("alphabet", [TWISTOR, BASE], ids=["twistor", "base"])
def test_only_the_invertible_names_take_negative_exponents(alphabet):
    for name in alphabet.names:
        assert parse_expr(f"{name}^2", alphabet) == LaurentPoly.monomial(alphabet, {name: 2})
        if name in alphabet.negatives:
            assert parse_expr(f"{name}^-1", alphabet) == LaurentPoly.monomial(alphabet, {name: -1})
        else:
            with pytest.raises(ParseError) as err:
                parse_expr(f"{name}^-1", alphabet)
            assert err.value.position == 0


@pytest.mark.parametrize(
    "text, alphabet, position, problem",
    [
        ("z11 $", "twistor", 4, "unexpected character '$'"),
        ("{long} * z11", "twistor", 0, "numeral of 4301 digits is too long"),
        ("z11^{long}", "twistor", 4, "numeral of 4301 digits is too long"),
        ("1/{long}", "twistor", 2, "numeral of 4301 digits is too long"),
        ("2 /", "twistor", 3, "expected 'int', found 'end of input'"),
        ("z11^", "twistor", 4, "expected 'int', found 'end of input'"),
        ("z11^-", "twistor", 5, "expected 'int', found 'end of input'"),
        ("z11 ^^ 2", "twistor", 5, "expected 'int', found '^'"),
        ("1/-2", "twistor", 2, "expected 'int', found '-'"),
        ("1/0", "twistor", 2, "zero denominator"),
        ("* z11", "twistor", 0, "expected a term, found '*'"),
        ("-", "twistor", 1, "expected a term, found 'end of input'"),
        ("--z11", "twistor", 1, "expected a term, found '-'"),
        ("z11 +", "twistor", 5, "expected a term, found 'end of input'"),
        ("", "twistor", 0, "expected a term, found 'end of input'"),
        ("z11 z12", "twistor", 4, "expected '+' or '-', found 'z12'"),
        ("1/2/3", "twistor", 3, "expected '+' or '-', found '/'"),
        ("z11^2^3", "twistor", 5, "expected '+' or '-', found '^'"),
        ("2 * 3", "twistor", 4, "expected 'ident', found '3'"),
        ("z11 * ", "twistor", 6, "expected 'ident', found 'end of input'"),
        ("zeta1^-1 + q", "twistor", 11, "unknown identifier 'q'"),
        ("q^-1", "twistor", 0, "unknown identifier 'q'"),
        ("x12^-1", "base", 0, "negative exponent on 'x12', which is not invertible"),
    ],
)
def test_parse_errors_give_their_message_and_position(text, alphabet, position, problem):
    with pytest.raises(ParseError) as err:
        parse_expr(text.format(long=LONG), {"twistor": TWISTOR, "base": BASE}[alphabet])
    assert err.value.position == position
    assert str(err.value) == f"{problem} (at position {position})"


def test_like_terms_merge():
    p = parse_expr("z11 + z11 - 2*z11", TWISTOR)
    assert p.terms == {}
    assert p.to_string() == "0"


SUITE_EXPRESSIONS = [
    "z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1",
    "1/2 * z0 - 3 * z22 * z31 * zeta1^-2",
    "-z0 + z11 * z22 - z12 * z21",
    "5",
    "zeta1^-1 * zeta2^-1 * zeta3^-1 + zeta3^2",
]


@pytest.mark.parametrize("text", SUITE_EXPRESSIONS)
def test_print_parse_round_trip_ast(text):
    # The printed text is canonical: it reparses to the same text.
    text = parse_expr(text, TWISTOR).to_string()
    assert parse_expr(text, TWISTOR).to_string() == text


@pytest.mark.parametrize("text", SUITE_EXPRESSIONS)
def test_print_parse_round_trip_poly(text):
    poly = parse_expr(text, TWISTOR)
    again = parse_expr(poly.to_string(), TWISTOR)
    assert again == poly


def test_parse_spinor_needs_four_components():
    with pytest.raises(ParseError):
        parse_spinor("1;0;0")
    field = parse_spinor("1;0;0;x2_11")
    assert field.components[0] == LaurentPoly.constant(BASE, 1)
    assert field.components[3] == LaurentPoly.variable(BASE, "x2_11")


@pytest.mark.parametrize(
    "text, position, problem",
    [
        ("x12;x12;0;foo", 10, "unknown identifier 'foo'"),
        ("x12;x12;0;x12 x12", 14, "expected '+' or '-', found 'x12'"),
        ("x12;x12+;0;0", 8, "expected a term, found 'end of input'"),
        ("0;0;x12 $;0", 8, "unexpected character '$'"),
        ("x12;1/0;0;0", 6, "zero denominator"),
        ("x12;x12;0;x12^-1", 10, "negative exponent on 'x12', which is not invertible"),
    ],
)
def test_spinor_parse_errors_count_from_the_start_of_the_text(text, position, problem):
    with pytest.raises(ParseError) as err:
        parse_spinor(text)
    assert err.value.position == position
    assert str(err.value) == f"{problem} (at position {position})"


def laurent_polys(alphabet):
    """Random polynomials over `alphabet`: p/q coefficients of either sign, zeta exponents -4..4."""
    exponents = st.tuples(*(
        st.integers(-4, 4) if name in alphabet.negatives else st.integers(0, 3)
        for name in alphabet.names
    ))
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda terms: LaurentPoly(alphabet, terms)
    )


spinor_fields = st.tuples(*[laurent_polys(BASE)] * 4).map(SpinorField)


def spinor_text(field):
    return ";".join(p.to_string() for p in field.components)


@given(st.sampled_from([TWISTOR, BASE]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), laurent_polys(alphabet))
))
@settings(max_examples=80, deadline=None)
def test_every_polynomial_reparses_from_its_text(case):
    alphabet, poly = case
    assert parse_expr(poly.to_string(), alphabet) == poly


@given(spinor_fields)
@settings(max_examples=40, deadline=None)
def test_every_spinor_field_reparses_from_its_text(field):
    assert parse_spinor(spinor_text(field)) == field


@given(laurent_polys(TWISTOR), spinor_fields, st.data())
@settings(max_examples=60, deadline=None)
def test_a_stray_character_is_reported_where_it_stands(poly, field, data):
    texts = [(poly.to_string(), lambda text: parse_expr(text, TWISTOR)), (spinor_text(field), parse_spinor)]
    for text, parse in texts:
        i = data.draw(st.integers(0, len(text)))
        with pytest.raises(ParseError) as err:
            parse(text[:i] + "$" + text[i:])
        assert str(err.value) == f"unexpected character '$' (at position {i})"
