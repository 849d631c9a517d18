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
position.  An expression parses straight to its canonical
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
    """The tokens of text[pos:end], each with its position in the whole `text`."""
    tokens = []
    while pos < end:
        match = _TOKEN.match(text, pos, end)
        if not match:
            stripped = text[pos:end].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", end - len(stripped))
        if match.lastgroup == "int":
            tokens.append(("int", match.group("int"), match.start("int")))
        elif match.lastgroup == "ident":
            tokens.append(("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", end))
    return tokens


def _int_value(token: tuple[str, str, int]) -> int:
    try:
        return int(token[1])
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"numeral of {len(token[1])} digits is too long", token[2]) from None


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet, start: int, end: int):
        self.alphabet = alphabet
        self.tokens = _tokenize(text, start, end)
        self.cursor = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.cursor]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {token[1] or 'end of input'!r}", token[2])
        return self.advance()

    def parse(self) -> LaurentPoly:
        terms: list[LaurentPoly] = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        terms.append(self.parse_term(sign))
        while True:
            kind, value, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and value in "+-":
                self.advance()
                terms.append(self.parse_term(-1 if value == "-" else 1))
            else:
                raise ParseError(f"expected '+' or '-', found {value!r}", pos)
        return LaurentPoly.sum(self.alphabet, terms)

    def parse_term(self, sign: int) -> LaurentPoly:
        kind, value, pos = self.peek()
        coefficient = Fraction(sign)
        powers: dict[str, int] = {}
        if kind == "int":
            numerator = _int_value(self.advance())
            if self.peek()[:2] == ("op", "/"):
                self.advance()
                denom_token = self.expect("int")
                denominator = _int_value(denom_token)
                if denominator == 0:
                    raise ParseError("zero denominator", denom_token[2])
                coefficient *= Fraction(numerator, denominator)
            else:
                coefficient *= numerator
        elif kind == "ident":
            name, exponent = self.parse_factor()
            powers[name] = powers.get(name, 0) + exponent
        else:
            raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            name, exponent = self.parse_factor()
            powers[name] = powers.get(name, 0) + exponent
        return LaurentPoly.monomial(self.alphabet, powers, coefficient)

    def parse_factor(self) -> tuple[str, int]:
        token = self.expect("ident")
        name, pos = token[1], token[2]
        if name not in self.alphabet.index:
            raise ParseError(f"unknown identifier {name!r}", pos)
        exponent = 1
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            negative = False
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                negative = True
            exponent = _int_value(self.expect("int"))
            if negative:
                exponent = -exponent
        if exponent < 0 and name not in self.alphabet.negatives:
            raise ParseError(f"negative exponent on {name!r}, which is not invertible", pos)
        return name, exponent


def parse_expr(text: str, alphabet: Alphabet) -> LaurentPoly:
    return _Parser(text, alphabet, 0, len(text)).parse()


def parse_section(text: str) -> CochainSection:
    return CochainSection(parse_expr(text, TWISTOR))


def parse_spinor(text: str) -> SpinorField:
    parts = text.split(";")
    if len(parts) != 4:
        raise ParseError("a spinor needs exactly 4 ';'-separated components", 0)
    components, start = [], 0
    for part in parts:
        components.append(_Parser(text, BASE, start, start + len(part)).parse())
        start += len(part) + 1
    return SpinorField(tuple(components))
