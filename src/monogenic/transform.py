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
from fractions import Fraction
from functools import lru_cache

from .charts import BASE, CORRESPONDENCE, TWISTOR, Z_VARS, ZETA_VARS, correspondence_substitution, term_data
from .cochain import POSITIVE_SIMPLE_ROOTS, _SPINOR_SLOTS, _SPINOR_TABLES, _TABLES, _TWISTS
from .cochain import CochainSection, apply_derivation
from .laurent import Exponents, InternalCheckError, LaurentPoly, PreconditionError, Record, Scalar


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


def spinor_coefficient_rows(columns: Sequence[SpinorField]) -> list[dict[int, Fraction]]:
    """Exact coefficient matrix of one spinor field per column, as sparse rows.

    One row {column: coefficient} per (component, monomial) that occurs, in order of first occurrence.
    """
    rows: dict[tuple[int, Exponents], dict[int, Fraction]] = {}
    for col, field in enumerate(columns):
        for m, p in enumerate(field.components):
            for e, c in p.terms.items():
                rows.setdefault((m, e), {})[col] = c
    return list(rows.values())


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
        rho = {name: value.project(CORRESPONDENCE) for name, value in _SPINOR_TABLES[root].items()}
        for z in ("z0",) + Z_VARS:  # rho_vf(E) + V_E, on disjoint variables
            if table.get(z, zero) != apply_derivation(rho | fibre, phi[z]):
                raise InternalCheckError(f"{root}: rho does not match the action on {z}")
        twist = _TWISTS[root].substitute(phi, CORRESPONDENCE) if root in _TWISTS else zero
        divergence = LaurentPoly.sum(CORRESPONDENCE, (v.derivative(k) for k, v in fibre.items()))
        slot = _SPINOR_SLOTS.get(root)
        for m, w in enumerate(weights):
            residual = (twist - divergence) * w - apply_derivation(fibre, w)
            if residual != (weights[slot[1]] if slot and slot[0] == m else zero):
                raise InternalCheckError(f"{root}: the residue term of component {m} is not its slot entry")


def spinor_action(root: str, field: SpinorField) -> SpinorField:
    """rho(E) for a positive simple root E: spinor_action(E, T(s)) = T(g0_action(E, s)), certified once."""
    if root not in _SPINOR_TABLES:
        raise PreconditionError(f"no spinor-side action for the root {root!r}")
    _certify_transform_equivariance()
    components = [apply_derivation(_SPINOR_TABLES[root], p) for p in field.components]
    if root in _SPINOR_SLOTS:
        m, nu = _SPINOR_SLOTS[root]
        components[m] = components[m] + field.components[nu]
    return SpinorField(tuple(components))
