"""Expression grammar: parsing, validation, deterministic printing."""

from fractions import Fraction

import pytest

from monogenic.charts import BASE, TWISTOR
from monogenic.expr import Context, ParseError, parse_expr, parse_section, parse_spinor
from monogenic.laurent import LaurentPoly


def test_parse_known_generator():
    section = parse_section("z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1")
    expected = LaurentPoly.monomial(
        TWISTOR, {"z11": 2, "zeta1": -1, "zeta2": -1, "zeta3": -1}
    )
    assert section.body == expected


def test_parse_coefficient_term():
    p = parse_expr("1/2 * x1_11 * x2_12", Context.SPINOR)
    assert p == LaurentPoly.monomial(BASE, {"x1_11": 1, "x2_12": 1}, Fraction(1, 2))


def test_parse_unknown_identifier_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("zeta1^-1 + q", Context.SECTION)
    assert err.value.position == 11


def test_parse_sign_handling():
    p = parse_expr("-z0 + 2*z11 - 1", Context.SECTION)
    expected = (
        LaurentPoly.variable(TWISTOR, "z0").scale(-1)
        + LaurentPoly.variable(TWISTOR, "z11").scale(2)
        - LaurentPoly.constant(TWISTOR, 1)
    )
    assert p == expected


def test_negative_exponent_rules():
    with pytest.raises(ParseError):
        parse_expr("z11^-1", Context.SECTION)
    with pytest.raises(ParseError):
        parse_expr("x12^-1", Context.SPINOR)
    parse_expr("zeta2^-3", Context.SECTION)  # allowed


def test_malformed_inputs():
    for bad in ("z11 ^^ 2", "2 /", "* z11", "z11 z12", "1/0"):
        with pytest.raises(ParseError):
            parse_expr(bad, Context.SECTION)


def test_like_terms_merge():
    p = parse_expr("z11 + z11 - 2*z11", Context.SECTION)
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
    text = parse_expr(text, Context.SECTION).to_string()
    assert parse_expr(text, Context.SECTION).to_string() == text


@pytest.mark.parametrize("text", SUITE_EXPRESSIONS)
def test_print_parse_round_trip_poly(text):
    poly = parse_expr(text, Context.SECTION)
    again = parse_expr(poly.to_string(), Context.SECTION)
    assert again == poly


def test_parse_spinor_needs_four_components():
    with pytest.raises(ParseError):
        parse_spinor("1;0;0")
    field = parse_spinor("1;0;0;x2_11")
    assert field.components[0] == LaurentPoly.constant(BASE, 1)
    assert field.components[3] == LaurentPoly.variable(BASE, "x2_11")
