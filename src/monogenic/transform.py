"""The explicit twistor transform: triple residue after the fibre substitution.

For a chart-0 section f the transform substitutes the incidence bindings
(z0, z_ij in terms of the base coordinates and the fibre zetas), multiplies by
the weight vector (1, zeta1, zeta2, zeta3) and extracts the coefficient of
zeta1^-1 zeta2^-1 zeta3^-1 exactly: for Laurent polynomial integrands the
normalized torus integral *is* that coefficient, so no numerics are involved.

Outputs are 4-component polynomial spinor fields on the base cell, graded by
deg(x12) = 2 and deg(x1_ij) = deg(x2_ij) = 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .charts import BASE, CORRESPONDENCE, TWISTOR, ZETA_VARS, correspondence_substitution
from .cochain import CochainSection
from .laurent import Exponents, LaurentPoly, PreconditionError, Scalar

_ZETA_SLOTS = tuple(TWISTOR.index[name] for name in ZETA_VARS)


@dataclass(frozen=True)
class SpinorField:
    """A 4-tuple of polynomials on the base cell (a spinor-bundle section)."""

    components: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]

    def __post_init__(self):
        for p in self.components:
            if p.alphabet != BASE:
                raise PreconditionError("spinor components live over the base alphabet")

    @classmethod
    def zero(cls) -> "SpinorField":
        z = LaurentPoly.zero(BASE)
        return cls((z, z, z, z))

    @classmethod
    def combination(cls, pairs: Iterable[tuple[Scalar, "SpinorField"]]) -> "SpinorField":
        """The linear combination sum c * field over (c, field) pairs, merged once per component."""
        pairs = list(pairs)
        return cls(tuple(
            LaurentPoly.sum(BASE, (field.components[m].scale(c) for c, field in pairs))
            for m in range(4)
        ))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, scalar: Scalar) -> "SpinorField":
        return SpinorField(tuple(p.scale(scalar) for p in self.components))


@lru_cache(maxsize=None)
def _weight_vector() -> tuple[LaurentPoly, ...]:
    one = LaurentPoly.constant(CORRESPONDENCE, 1)
    return (one,) + tuple(LaurentPoly.variable(CORRESPONDENCE, name) for name in ZETA_VARS)


def _reaches_residue(exps: Exponents) -> bool:
    """False only for a monomial z0^s0 z^Z zeta^-r whose image is provably zero.

    Its bindings multiply to zeta exponents >= 0 summing to at most s0 + |Z|
    (each binding is affine in zeta), and component m needs zeta^(r - 1 - delta_m).
    """
    poles = [-exps[i] for i in _ZETA_SLOTS]
    degree = sum(exps) + sum(poles)  # s0 + |Z|
    return min(poles) >= 1 and sum(r - 1 for r in poles) <= degree + 1


def penrose_transform(section: CochainSection) -> SpinorField:
    """Transform a finite Laurent section into a polynomial spinor field.

    Component m is the zeta1^-1 zeta2^-1 zeta3^-1 coefficient of the
    substituted section multiplied by the m-th entry of (1, zeta1, zeta2,
    zeta3).  Linear over rational scalars by construction.
    Terms that fail `_reaches_residue` are dropped before the substitution.
    """
    terms = {exps: c for exps, c in section.body.terms.items() if _reaches_residue(exps)}
    if not terms:
        return SpinorField.zero()
    integrand = LaurentPoly(TWISTOR, terms).substitute(correspondence_substitution(), CORRESPONDENCE)
    components = []
    for weight in _weight_vector():
        residue = (integrand * weight).coefficient_of(ZETA_VARS, (-1, -1, -1))
        components.append(residue.project(BASE))
    return SpinorField(tuple(components))


def penrose_transforms(sections: Sequence[CochainSection]) -> list[SpinorField]:
    """The transforms of many sections by linearity: one residue per distinct monomial.

    A monomial that fails `_reaches_residue` has the zero image, with no
    substitution; every other distinct one is transformed once.
    """
    images: dict[Exponents, SpinorField] = {}
    for section in sections:
        for exps in section.body.terms:
            if exps not in images and _reaches_residue(exps):
                images[exps] = penrose_transform(CochainSection.from_terms({exps: 1}))
    return [
        SpinorField.combination(
            (c, images[exps]) for exps, c in section.body.terms.items() if exps in images
        )
        for section in sections
    ]


def spinor_coefficient_rows(columns: list[Sequence[SpinorField]]) -> list[dict[int, Fraction]]:
    """Exact coefficient matrix of a tuple of spinor fields per column, as sparse rows.

    One row {column: coefficient} per (slot, component, monomial) coordinate
    that occurs, in order of first occurrence.
    """
    rows: dict[tuple[int, int, Exponents], dict[int, Fraction]] = {}
    for col, fields in enumerate(columns):
        for slot, field in enumerate(fields):
            for m, p in enumerate(field.components):
                for e, c in p.terms.items():
                    rows.setdefault((slot, m, e), {})[col] = c
    return list(rows.values())
