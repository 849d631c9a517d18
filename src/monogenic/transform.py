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

from collections.abc import Sequence
from functools import lru_cache

from .charts import BASE, CORRESPONDENCE, LINEAR_VARIABLES, TWISTOR, Z_VARS, ZETA_VARS, move_pair
from .charts import correspondence_substitution, term_data
from .cochain import POSITIVE_SIMPLE_ROOTS, _TABLES, _TWISTS, CochainSection, apply_derivation
from .laurent import Exponents, InternalCheckError, LaurentPoly, PreconditionError, Record


class SpinorField(Record):
    """A 4-tuple of polynomials on the base cell (a spinor-bundle section)."""

    __slots__ = ("components",)  # four LaurentPolys over BASE

    def _check(self):
        if type(self.components) is not tuple or len(self.components) != 4:
            raise PreconditionError("a spinor field is a tuple of exactly four components")
        for p in self.components:
            if not isinstance(p, LaurentPoly) or p.alphabet != BASE:
                raise PreconditionError("spinor components live over the base alphabet")

    @classmethod
    def zero(cls) -> "SpinorField":
        z = LaurentPoly.zero(BASE)
        return cls((z, z, z, z))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)


@lru_cache(maxsize=None)
def _weight_vector() -> tuple[LaurentPoly, ...]:
    one = LaurentPoly.constant(CORRESPONDENCE, 1)
    return (one,) + tuple(LaurentPoly.variable(CORRESPONDENCE, name) for name in ZETA_VARS)


def _reaches_residue(exps: Exponents) -> bool:
    """False only for a monomial z0^s0 z^Z zeta^-r whose image is provably zero.

    Its bindings multiply to zeta exponents >= 0 summing to at most s0 + |Z|
    (each binding is affine in zeta), and component m needs zeta^(r - 1 - delta_m).
    """
    s0, z, poles = term_data(exps)
    degree = s0 + sum(z)
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


@lru_cache(maxsize=None)
def _certify_transform_equivariance() -> None:
    """Certify, exactly and once, that T(E.s) = rho(E) T(s) for every section s.

    With phi the incidence substitution, D_E the derivation of `_TABLES`, t_E
    its twist, V_E = sum_k phi(D_E zeta_k) d/dzeta_k and w = (1, zeta1, zeta2,
    zeta3), raises InternalCheckError unless for every positive simple root E
    (a) phi(D_E z) = rho_vf(E) phi(z) + V_E phi(z) for z0 and the six z_ij, and
    (b) t_E w_m - div(V_E) w_m - V_E(w_m) = sum_nu M_m,nu w_nu, M its slot entry.
    By (a) and the chain rule, phi(E.s) = (rho_vf(E) + V_E + t_E) phi(s).
    rho_vf(E) acts on x only, so it commutes with the residue.  A zeta-derivative
    has no zeta1^-1 zeta2^-1 zeta3^-1 term, so by parts the residue of
    V_E(phi(s)) w_m is that of -phi(s) (div(V_E) w_m + V_E(w_m)), and (b) gives
    T(E.s)_m = rho_vf(E) T(s)_m + sum_nu M_m,nu T(s)_nu.
    """
    phi, weights, zero = correspondence_substitution(), _weight_vector(), LaurentPoly.zero(CORRESPONDENCE)
    for root in POSITIVE_SIMPLE_ROOTS:
        table = {name: value.substitute(phi, CORRESPONDENCE) for name, value in _TABLES[root].items()}
        fibre = {name: value for name, value in table.items() if name in ZETA_VARS}  # V_E
        field, slot = _RHO[root]
        rho = {name: value.project(CORRESPONDENCE) for name, value in field.items()}
        for z in ("z0",) + Z_VARS:  # rho_vf(E) + V_E, on disjoint variables
            if table.get(z, zero) != apply_derivation(rho | fibre, phi[z]):
                raise InternalCheckError(f"{root}: rho does not match the action on {z}")
        twist = _TWISTS[root].substitute(phi, CORRESPONDENCE) if root in _TWISTS else zero
        divergence = LaurentPoly.sum(CORRESPONDENCE, (v.derivative(k) for k, v in fibre.items()))
        for m, w in enumerate(weights):
            residual = (twist - divergence) * w - apply_derivation(fibre, w)
            if residual != (weights[slot[1]] if slot and slot[0] == m else zero):
                raise InternalCheckError(f"{root}: the residue term of component {m} is not its slot entry")


def _root_action(
    index: Sequence[int], column: int | None = None
) -> tuple[dict[str, LaurentPoly], tuple[int, int] | None]:
    """rho of the root that sends f_q to f_index[q] and, given `column`, the other GL(2) column to it.

    The vector field {x_v: c x_u}, sum c x_u d/dx_v, moves each variable the
    root changes: x_u is the variable of v's moved pair (`charts.move_pair`), c
    its sign.  The slot entry (m, nu), component m += component nu, moves f_nu to f_m.
    """
    field = {}
    for v in LINEAR_VARIABLES:
        u, sign = move_pair(v, index, column) or (v, 0)
        if u != v:
            field[v] = LaurentPoly.monomial(BASE, {u: 1}, sign)
    return field, next(((index[nu], nu) for nu in range(4) if index[nu] != nu), None)


# rho(E) of each positive simple root, applied to every component of a transform.  A12 moves
# GL(2) column 2 to column 1, and E_{a+1,a+2} sends f_{a+1} to f_a, in each pair and on the slots.
_RHO = {"A12": _root_action(range(4), 0)} | {
    f"E{a + 1}{a + 2}": _root_action([a if q == a + 1 else q for q in range(4)]) for a in range(3)
}


def spinor_action(root: str, field: SpinorField) -> SpinorField:
    """rho(E) for a positive simple root E: spinor_action(E, T(s)) = T(g0_action(E, s)), certified once."""
    if root not in _RHO:
        raise PreconditionError(f"no spinor-side action for the root {root!r}")
    _certify_transform_equivariance()
    vector_field, slot = _RHO[root]
    components = [apply_derivation(vector_field, p) for p in field.components]
    if slot:
        m, nu = slot
        components[m] = components[m] + field.components[nu]
    return SpinorField(tuple(components))
