"""Text expressions for sections and spinors.

Grammar (whitespace insensitive):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*' factor)*  |  factor ('*' factor)*
    rational := integer ['/' positive-integer]
    factor   := ident ['^' ['-'] integer]

Identifiers come from the alphabet the parser is given: sections use z0,
z11..z32 and zeta1..zeta3 (`TWISTOR`), spinor components x12, x1_11..x1_32 and
x2_11..x2_32 (`BASE`).  Only the names in the alphabet's `negatives` (the
zetas) may carry negative exponents.  Parse errors carry the offending
position; the whole text is tokenized first, so an unexpected character is
reported before any grammar error.  An expression parses straight to its canonical
`LaurentPoly` (like terms merged, zero terms dropped), whose `to_string` prints
the terms in descending graded-lexicographic order with the signs absorbed into
the separators, so print/parse round-trips are exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .charts import BASE, TWISTOR
from .cochain import CochainSection
from .laurent import Alphabet, LaurentPoly
from .transform import SpinorField


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


def _tokenize(text: str, pos: int, end: int) -> list[tuple[str, str, int]]:
    """The (kind, value, position) tokens of text[pos:end], positions in the whole `text`."""
    tokens = []
    while pos < end:
        match = _TOKEN.match(text, pos, end)
        if not match:
            stripped = text[pos:end].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", end - len(stripped))
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", end))
    return tokens


def _int_value(token: tuple[str, str, int]) -> int:
    try:
        return int(token[1])
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"numeral of {len(token[1])} digits is too long", token[2]) from None


def _parse(text: str, alphabet: Alphabet, start: int, end: int) -> LaurentPoly:
    """The canonical polynomial of text[start:end], which must hold one whole expression."""
    tokens = _tokenize(text, start, end)
    cursor = 0

    def take(kind: str, values: str | None = None) -> tuple[str, str, int] | None:
        """Consume and return the next token if it is a `kind` (with a value in `values`)."""
        nonlocal cursor
        token = tokens[cursor]
        if token[0] != kind or (values is not None and token[1] not in values):
            return None
        cursor += 1
        return token

    def fail(want: str):
        _, value, pos = tokens[cursor]
        raise ParseError(f"expected {want}, found {value or 'end of input'!r}", pos)

    terms: list[LaurentPoly] = []
    while not terms or tokens[cursor][0] != "end":
        sign = take("op", "+-")
        if terms and not sign:
            fail("'+' or '-'")
        coefficient = Fraction(-1 if sign and sign[1] == "-" else 1)
        powers: dict[str, int] = {}
        number = take("int")
        if number:
            coefficient *= _int_value(number)
            if take("op", "/"):
                token = take("int") or fail("'int'")
                denominator = _int_value(token)
                if not denominator:
                    raise ParseError("zero denominator", token[2])
                coefficient /= denominator
        factor_due = not number  # a term without a number starts with a factor
        while factor_due or take("op", "*"):
            _, name, pos = take("ident") or fail("a term" if factor_due else "'ident'")
            factor_due = False
            if name not in alphabet.index:
                raise ParseError(f"unknown identifier {name!r}", pos)
            exponent = 1
            if take("op", "^"):
                negative = take("op", "-")
                exponent = _int_value(take("int") or fail("'int'"))
                if negative:
                    exponent = -exponent
            if exponent < 0 and name not in alphabet.negatives:
                raise ParseError(f"negative exponent on {name!r}, which is not invertible", pos)
            powers[name] = powers.get(name, 0) + exponent
        terms.append(LaurentPoly.monomial(alphabet, powers, coefficient))
    return LaurentPoly.sum(alphabet, terms)


def parse_expr(text: str, alphabet: Alphabet) -> LaurentPoly:
    return _parse(text, alphabet, 0, len(text))


def parse_section(text: str) -> CochainSection:
    return CochainSection(parse_expr(text, TWISTOR))


def parse_spinor(text: str) -> SpinorField:
    parts = text.split(";")
    if len(parts) != 4:
        raise ParseError("a spinor needs exactly 4 ';'-separated components", 0)
    components, start = [], 0
    for part in parts:
        components.append(_parse(text, BASE, start, start + len(part)))
        start += len(part) + 1
    return SpinorField(tuple(components))
