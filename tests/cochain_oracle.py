"""Test oracles for the g0 structure of cochain sections and the decomposition.

The engine acts on sections by the root table (`monogenic.cochain.g0_action`)
and reads torus weights off monomials (`weight_of_monomial`).  This module
keeps what the tests claim about them: the Cartan action written from the
same frame normalization, the raising chain behind the Lemma coefficients
with their closed forms, and the multiplicity-freeness of the graded
decomposition (`monogenic.repn.decompose_Mk`).
"""

import itertools
from fractions import Fraction

from monogenic.charts import TWISTOR, Z_VARS, ZETA_VARS, term_data
from monogenic.cochain import CochainSection, Weight, g0_action, weight_of_monomial
from monogenic.laurent import InternalCheckError, LaurentPoly, PreconditionError
from monogenic.repn import decompose_Mk

# The diagonal basis of gl(2) (+) sl(4), as (gl2_diag, sl4_diag) pairs.
CARTAN_BASIS = [
    ((1, 0), (0, 0, 0, 0)),
    ((0, 1), (0, 0, 0, 0)),
    ((0, 0), (1, -1, 0, 0)),
    ((0, 0), (0, 1, -1, 0)),
    ((0, 0), (0, 0, 1, -1)),
]

# The (gl2, gl4) weight shift of each root acting on a monomial, and the
# variable a monomial must carry for the root-shift checks to act on it.
ROOT_SHIFTS = {
    "E23": ((0, 0), (0, 1, -1, 0)),
    "E32": ((0, 0), (0, -1, 1, 0)),
    "E34": ((0, 0), (0, 0, 1, -1)),
    "E43": ((0, 0), (0, 0, -1, 1)),
    "A12": ((1, -1), (0, 0, 0, 0)),
}
TRIGGERS = {"E23": "zeta1", "E32": "zeta2", "E34": "zeta2", "E43": "zeta3", "A12": "z12"}


def is_dominant(weight: Weight) -> bool:
    a, b = weight.gl2
    return a >= b and all(weight.gl4[i] >= weight.gl4[i + 1] for i in range(3))


def pair(weight: Weight, gl2_diag, sl4_diag) -> Fraction:
    """The eigenvalue of the diagonal element (gl2_diag, sl4_diag) at `weight`."""
    pairs = zip(weight.gl2 + weight.gl4, tuple(gl2_diag) + tuple(sl4_diag))
    return sum((w * Fraction(a) for w, a in pairs), Fraction(0))


def cartan_action(section: CochainSection, gl2_diag, sl4_diag) -> CochainSection:
    """Act by a diagonal (Cartan) element; the gl(4) part must be traceless.

    Derived from the same frame normalization as the root table: z_ij scales
    by a1 + a_{i+1} + alpha_j, z0 by alpha1 + alpha2, zeta_k by
    2 a1 + (sum of the two a's other than a_{k+1}), and the bundle twist
    contributes 5 a1 + 5/2 (alpha1 + alpha2).
    """
    a = tuple(Fraction(v) for v in sl4_diag)
    al = tuple(Fraction(v) for v in gl2_diag)
    if sum(a) != 0:
        raise PreconditionError("the gl(4) diagonal must be traceless")
    coeff = {
        "z0": al[0] + al[1],
        "zeta1": 2 * a[0] + a[2] + a[3],
        "zeta2": 2 * a[0] + a[1] + a[3],
        "zeta3": 2 * a[0] + a[1] + a[2],
    }
    for i in (1, 2, 3):
        for j in (1, 2):
            coeff[f"z{i}{j}"] = a[0] + a[i] + al[j - 1]
    parts = [
        (LaurentPoly.variable(TWISTOR, name) * section.body.derivative(name)).scale(c)
        for name, c in coeff.items()
        if c
    ]
    twist = 5 * a[0] + Fraction(5, 2) * (al[0] + al[1])
    if twist:
        parts.append(section.body.scale(twist))
    return CochainSection(LaurentPoly.sum(TWISTOR, parts))


def _chain_coefficient(section: CochainSection, z: dict[str, int], poles: tuple[int, int, int]) -> Fraction:
    powers = dict(z)
    for name, r in zip(ZETA_VARS, poles):
        powers[name] = -r
    target = LaurentPoly.monomial(TWISTOR, powers).sole_term()[0]
    return section.body.coefficient(target)


def raising_chain(section: CochainSection) -> tuple[CochainSection, tuple[Fraction, Fraction, Fraction]]:
    """Apply E12^(r-3) E23^(r2+r3-2) E34^(r3-1) to a dominant monomial.

    Returns the chained section together with the scalars (A, B, C): the
    coefficients of the leading monomial after each stage, i.e. at poles
    (r1, r2+r3-1, 1), (r1+r2+r3-2, 1, 1) and (1, 1, 1) with the z part fixed.
    C != 0 is asserted (dominance guarantees it).
    """
    if not section.body.is_monomial():
        raise PreconditionError("raising_chain expects a single monomial")
    exps, coeff = section.body.sole_term()
    s0, z, (r1, r2, r3) = term_data(exps)
    z = {name: e for name, e in zip(Z_VARS, z) if e}
    if s0 != 0:
        raise PreconditionError("raising_chain requires s0 = 0")
    if min(r1, r2, r3) < 1:
        raise PreconditionError("raising_chain requires all pole orders >= 1")
    if not is_dominant(weight_of_monomial(section)):
        raise PreconditionError("raising_chain requires a dominant weight")

    current = section
    for _ in range(r3 - 1):
        current = g0_action("E34", current)
    a = _chain_coefficient(current, z, (r1, r2 + r3 - 1, 1)) / coeff
    for _ in range(r2 + r3 - 2):
        current = g0_action("E23", current)
    b = _chain_coefficient(current, z, (r1 + r2 + r3 - 2, 1, 1)) / coeff
    for _ in range(r1 + r2 + r3 - 3):
        current = g0_action("E12", current)
    c = _chain_coefficient(current, z, (1, 1, 1)) / coeff
    if c == 0:
        raise InternalCheckError("raising chain produced a vanishing leading coefficient")
    return current, (a, b, c)


def closed_form_scalars(z, poles):
    """The Lemma's closed forms for the chain scalars (A, B, C)."""
    r1, r2, r3 = poles
    s2 = z.get("z21", 0) + z.get("z22", 0)
    s3 = z.get("z31", 0) + z.get("z32", 0)
    a = Fraction(1)
    for m in range(r3 - 1):
        a *= r2 + m
    b = a
    for m in range(r2 + r3 - 2):
        b *= r1 + m
    c = b
    for m in range(r1 + r2 + r3 - 3):
        c *= s2 + s3 + 5 - (r1 + r2 + r3) + m
    return a, b, c


def dominant_row1_free_cases():
    """(z, poles) of every dominant monomial with z in rows 2 and 3 only,
    pole orders 1..5 summing to at most 11, and z degree at most 6."""
    zvars = ("z21", "z22", "z31", "z32")
    for poles in itertools.product(range(1, 6), repeat=3):
        if sum(poles) > 11:
            continue
        for deg in range(7):
            for picks in itertools.combinations_with_replacement(zvars, deg):
                z = {}
                for p in picks:
                    z[p] = z.get(p, 0) + 1
                f = CochainSection.monomial(z=z, poles=poles)
                if is_dominant(weight_of_monomial(f)):
                    yield z, poles


def multiplicity_free_check(k_max: int) -> bool:
    """True iff all summand weight pairs up to degree k_max are distinct.

    Every `sl4_weight` ends in 0, so it is already the sl(4) representative.
    """
    weights = [
        (desc.gl2_weight, desc.sl4_weight) for k in range(k_max + 1) for _, desc in decompose_Mk(k)
    ]
    return len(set(weights)) == len(weights)
