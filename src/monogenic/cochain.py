"""Degree-3 cochain representatives on the chart W0 and their g0 structure.

A representative is a Laurent polynomial in (z0, z_ij, zeta_k) whose z
exponents are non-negative and whose zeta exponents are arbitrary integers; a
monomial z0^s0 prod z_ij^s_ij / (zeta1^r1 zeta2^r2 zeta3^r3) is described by
the data (s0, s_ij, r_k).

The reductive action is implemented as a derivation from the coordinate table

    A12: z_i2 -> z_i1
    E23: zeta1 -> -zeta2,  z_2j -> z_1j        E32: zeta2 -> -zeta1,  z_1j -> z_2j
    E34: zeta2 -> -zeta3,  z_3j -> z_2j        E43: zeta3 -> -zeta2,  z_2j -> z_3j
    E21: zeta1 -> 1
    E12: z_1j -> -zeta2 z_2j - zeta3 z_3j,  z0 -> z22 z31 - z21 z32,
         zeta1 -> zeta1^2,  v -> zeta1 v  for v in {zeta2, zeta3, z_2j, z_3j}

with every unlisted derivative zero, plus the line-bundle twist 5*zeta1*f on
each E12 application.  The E12/zeta1 entry is forced by the raising-chain
coefficients (the test oracle `tests/cochain_oracle.py`) and by the
highest-weight completions; see the repository README for the calibration
story.  The matching action rho of the positive simple roots on transforms is
`transform.spinor_action`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping

from .charts import TWISTOR, Z_VARS, term_data, term_exponents
from .laurent import LaurentPoly, PreconditionError, Record, Scalar

POSITIVE_SIMPLE_ROOTS = ("A12", "E12", "E23", "E34")
ROOT_NAMES = ("A12", "E12", "E21", "E23", "E32", "E34", "E43")


class CochainSection(Record):
    """A rational section on the four-fold chart intersection (trivialized on W0)."""

    __slots__ = ("body",)  # a LaurentPoly over TWISTOR

    def _check(self):
        if self.body.alphabet != TWISTOR:
            raise PreconditionError("cochain sections live over the twistor chart alphabet")

    @classmethod
    def from_terms(cls, terms: Mapping[tuple, Scalar]) -> "CochainSection":
        return cls(LaurentPoly(TWISTOR, terms))

    @classmethod
    def monomial(
        cls,
        s0: int = 0,
        z: Mapping[str, int] | None = None,
        poles: tuple[int, int, int] = (0, 0, 0),
        coeff: Scalar = 1,
    ) -> "CochainSection":
        z = z or {}
        for name in z:
            if name not in Z_VARS:
                raise PreconditionError(f"{name!r} is not a z variable")
        if len(poles) != 3:
            raise PreconditionError(f"a monomial takes exactly three pole orders, not {len(poles)}")
        exps = term_exponents(s0, tuple(z.get(name, 0) for name in Z_VARS), poles)
        return cls.from_terms({exps: coeff})


class Weight(Record):
    """A gl(2) (+) gl(4)-style weight; the gl(4) part matters modulo (1,1,1,1)."""

    __slots__ = ("gl2", "gl4")  # two Fractions, four ints

    def gl4_normalized(self) -> tuple[int, int, int, int]:
        last = self.gl4[3]
        return tuple(v - last for v in self.gl4)


def weight_of_monomial(section: CochainSection) -> Weight:
    """The joint gl(2) (+) gl(4) eigenvalue of a single monomial section."""
    s0, z, (r1, r2, r3) = term_data(section.body.sole_term()[0])
    # z = (z11, z12, z21, z22, z31, z32): rows are its pairs, columns its even and odd positions.
    row = [a + b for a, b in zip(z[0::2], z[1::2])]
    gl2 = tuple(sum(z[j::2]) + s0 + Fraction(5, 2) for j in (0, 1))
    return Weight(gl2=gl2, gl4=(5 + sum(z) - r1 - r2 - r3, r1 + row[0], r2 + row[1], r3 + row[2]))


# --------------------------------------------------------------- action tables
def _poly(powers: Mapping[str, int], coeff: Scalar = 1) -> LaurentPoly:
    return LaurentPoly.monomial(TWISTOR, powers, coeff)


def _build_tables() -> dict[str, dict[str, LaurentPoly]]:
    tables: dict[str, dict[str, LaurentPoly]] = {
        "A12": {f"z{i}2": _poly({f"z{i}1": 1}) for i in (1, 2, 3)},
        "E23": {"zeta1": _poly({"zeta2": 1}, -1), "z21": _poly({"z11": 1}), "z22": _poly({"z12": 1})},
        "E32": {"zeta2": _poly({"zeta1": 1}, -1), "z11": _poly({"z21": 1}), "z12": _poly({"z22": 1})},
        "E34": {"zeta2": _poly({"zeta3": 1}, -1), "z31": _poly({"z21": 1}), "z32": _poly({"z22": 1})},
        "E43": {"zeta3": _poly({"zeta2": 1}, -1), "z21": _poly({"z31": 1}), "z22": _poly({"z32": 1})},
        "E21": {"zeta1": LaurentPoly.constant(TWISTOR, 1)},
    }
    e12: dict[str, LaurentPoly] = {
        "z0": _poly({"z22": 1, "z31": 1}) - _poly({"z21": 1, "z32": 1}),
        "zeta1": _poly({"zeta1": 2}),
        "zeta2": _poly({"zeta1": 1, "zeta2": 1}),
        "zeta3": _poly({"zeta1": 1, "zeta3": 1}),
    }
    for j in (1, 2):
        e12[f"z1{j}"] = _poly({"zeta2": 1, f"z2{j}": 1}, -1) - _poly({"zeta3": 1, f"z3{j}": 1})
        e12[f"z2{j}"] = _poly({"zeta1": 1, f"z2{j}": 1})
        e12[f"z3{j}"] = _poly({"zeta1": 1, f"z3{j}": 1})
    tables["E12"] = e12
    return tables


_TABLES = _build_tables()
_TWISTS = {"E12": _poly({"zeta1": 1}, 5)}


def apply_derivation(table: Mapping[str, LaurentPoly], poly: LaurentPoly) -> LaurentPoly:
    """The derivation sum value * d(poly)/d(name) over the table's entries."""
    derivatives = ((value, poly.derivative(name)) for name, value in table.items())
    return LaurentPoly.sum(poly.alphabet, (value * d for value, d in derivatives if not d.is_zero()))


def g0_action(root: str, section: CochainSection) -> CochainSection:
    """Act by one root on a section: table derivation plus the E12 twist."""
    if root not in ROOT_NAMES:
        raise PreconditionError(f"unknown root {root!r}")
    body = apply_derivation(_TABLES[root], section.body)
    if root in _TWISTS:
        body = body + _TWISTS[root] * section.body
    return CochainSection(body)


# ------------------------------------------------------ triviality certificate
class Certificate(enum.Enum):
    TRIVIAL_NEGATIVE_POLE = "TrivialNegativePole"
    TRIVIAL_EXTENDS = "TrivialExtends"
    INCONCLUSIVE = "Inconclusive"


def triviality_certificate(section: CochainSection) -> Certificate:
    """Syntactic sufficient conditions for a monomial class to vanish.

    The TrivialExtends branch is advisory only: the inequality is kept exactly
    as stated even though it is not a reliable vanishing test (a zero
    `penrose_transform` is authoritative).  Inconclusive, also kept as stated,
    means every r_i >= 0 and sum(r) >= s0 + |Z| + 5: past the transform's
    reach bound, so the image is zero.
    """
    s0, z, poles = term_data(section.body.sole_term()[0])
    if any(r < 0 for r in poles):
        return Certificate.TRIVIAL_NEGATIVE_POLE
    if 5 + s0 + sum(z) > sum(poles):
        return Certificate.TRIVIAL_EXTENDS
    return Certificate.INCONCLUSIVE

