"""Expression grammar: parsing, validation, deterministic printing."""

from fractions import Fraction

import pytest

from monogenic.charts import BASE, TWISTOR
from monogenic.expr import ParseError, parse_expr, parse_section, parse_spinor
from monogenic.laurent import LaurentPoly


def test_parse_known_generator():
    section = parse_section("z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1")
    expected = LaurentPoly.monomial(
        TWISTOR, {"z11": 2, "zeta1": -1, "zeta2": -1, "zeta3": -1}
    )
    assert section.body == expected


def test_parse_coefficient_term():
    p = parse_expr("1/2 * x1_11 * x2_12", BASE)
    assert p == LaurentPoly.monomial(BASE, {"x1_11": 1, "x2_12": 1}, Fraction(1, 2))


def test_parse_unknown_identifier_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("zeta1^-1 + q", TWISTOR)
    assert err.value.position == 11


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


def test_malformed_inputs():
    for bad in ("z11 ^^ 2", "2 /", "* z11", "z11 z12", "1/0"):
        with pytest.raises(ParseError):
            parse_expr(bad, TWISTOR)


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
    ],
)
def test_spinor_parse_errors_count_from_the_start_of_the_text(text, position, problem):
    with pytest.raises(ParseError) as err:
        parse_spinor(text)
    assert err.value.position == position
    assert str(err.value) == f"{problem} (at position {position})"
