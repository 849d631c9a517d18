"""Irreducible-module bookkeeping for the graded monogenic decomposition.

Degree-k monogenic spinors decompose, multiplicity free, into the modules
labeled by (a, b, l) with 2a + b + 2l = k: the gl(2) factor has highest
weight (5/2 + l + a + b, 5/2 + l + a) and the sl(4) factor (2a+b+1, a+b, a, 0).
Dimensions come from the classical formulas in exact arithmetic and
cross-validate the operator's kernel, counted by exact weight-block ranks.
"""

from __future__ import annotations

from fractions import Fraction

from .charts import TWISTOR, ZETA_VARS, term_data
from .cochain import CochainSection, weight_of_monomial
from .laurent import Exponents, InternalCheckError, LaurentPoly, PreconditionError, Record, Scalar


class IrrepLabel(Record):
    """A summand label; the weighted degree of the summand is 2a + b + 2l."""

    __slots__ = ("a", "b", "l")

    def _check(self):
        if min(self.a, self.b, self.l) < 0:
            raise PreconditionError("label entries must be non-negative")


class ModuleDescriptor(Record):
    __slots__ = ("gl2_weight", "sl4_weight", "dimension")  # two Fractions, four ints, an int


def dim_gl2(weight: tuple[Scalar, Scalar]) -> int:
    """Dimension of the gl(2) irrep with the given dominant weight pair."""
    w1, w2 = Fraction(weight[0]), Fraction(weight[1])
    if w1 < w2:
        raise PreconditionError(f"gl(2) weight {weight} is not dominant")
    diff = w1 - w2
    if diff.denominator != 1:
        raise PreconditionError(f"gl(2) weight difference {diff} is not integral")
    return int(diff) + 1


def dim_sl4(weight: tuple[int, int, int, int]) -> int:
    """Weyl dimension of the sl(4) irrep with weakly decreasing weight: the Weyl product, in integers."""
    if any(weight[i] < weight[i + 1] for i in range(3)):
        raise PreconditionError(f"sl(4) weight {weight} is not weakly decreasing")
    p, q, r = (weight[i] - weight[i + 1] for i in range(3))
    return (1 + p) * (1 + q) * (1 + r) * (2 + p + q) * (2 + q + r) * (3 + p + q + r) // 12


def module_descriptor(label: IrrepLabel) -> ModuleDescriptor:
    half5 = Fraction(5, 2)
    gl2 = (half5 + label.l + label.a + label.b, half5 + label.l + label.a)
    sl4 = (2 * label.a + label.b + 1, label.a + label.b, label.a, 0)
    return ModuleDescriptor(
        gl2_weight=gl2,
        sl4_weight=sl4,
        dimension=dim_gl2(gl2) * dim_sl4(sl4),
    )


def decompose_Mk(k: int) -> list[tuple[IrrepLabel, ModuleDescriptor]]:
    """All summands of the degree-k monogenic space, sorted by (l, a, b)."""
    if k < 0:
        raise PreconditionError("degree must be non-negative")
    labels = [
        IrrepLabel(a, b, l)
        for l in range(k // 2 + 1)
        for a in range((k - 2 * l) // 2 + 1)
        for b in (k - 2 * l - 2 * a,)
    ]
    return [(lab, module_descriptor(lab)) for lab in labels]


def leading_term(a: int, b: int, l: int) -> tuple[Exponents, LaurentPoly]:
    """The lead monomial of the (a, b, l) highest weight vector and its z0^l part.

    Returns the exponents of z0^l z11^(a+b) z22^a / (zeta1 zeta2 zeta3) and the
    pattern Delta^a z11^b / (zeta1 zeta2 zeta3), Delta = z11 z22 - z12 z21,
    that the coefficient of z0^l must equal.
    """
    poles = {name: -1 for name in ZETA_VARS}
    (lead,) = LaurentPoly.monomial(TWISTOR, {"z0": l, "z11": a + b, "z22": a, **poles}).terms
    delta = LaurentPoly.monomial(TWISTOR, {"z11": 1, "z22": 1}) - LaurentPoly.monomial(
        TWISTOR, {"z12": 1, "z21": 1}
    )
    return lead, (delta ** a) * LaurentPoly.monomial(TWISTOR, {"z11": b, **poles})


def label_of_hwv(section: CochainSection) -> IrrepLabel:
    """Read (a, b, l) off the leading z0-term of a highest weight vector."""
    body = section.body
    if body.is_zero():
        raise PreconditionError("the zero section is not a highest weight vector")
    l = body.degree_in("z0")
    top = body.coefficient_of(("z0",), (l,))
    if any(term_data(exps)[2] != (1, 1, 1) for exps in top.terms):
        raise PreconditionError("leading z0-term does not have simple poles (1,1,1)")
    a = top.degree_in("z22")
    b = top.degree_in("z11") - a
    if b < 0:
        raise PreconditionError("leading z0-term is not of the determinant-power shape")
    lead_key, pattern = leading_term(a, b, l)
    scale = body.coefficient(lead_key)
    if scale == 0 or top != pattern.scale(scale):
        raise PreconditionError("leading z0-term is not of the determinant-power shape")

    label = IrrepLabel(a, b, l)
    descriptor = module_descriptor(label)
    lead_weight = weight_of_monomial(CochainSection.from_terms({lead_key: 1}))
    if lead_weight.gl2 != descriptor.gl2_weight or lead_weight.gl4_normalized() != descriptor.sl4_weight:
        raise InternalCheckError(
            f"leading-term weight {lead_weight} disagrees with descriptor {descriptor}"
        )
    return label
