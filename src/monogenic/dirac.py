"""The coupled first-order Dirac pair on the base cell, built from scratch.

Construction: the six null directions of the model fibre C^6 = Lambda^2 C^4
act on spinors S+ = C^4 by wedging into Lambda^3 C^4, identified with (C^4)*
through the volume form f0^f1^f2^f3.  Differentiation uses the invariant
vector fields of the 2-step graded group in exponential coordinates,

    V = d/dx^k_ij + epsilon * (1/2) * sum_v kappa([u_v, u]) x_v * d/dx12,

with the central structure constants kappa in closed form: the bracket of two
grade -1 basis elements u and v, one per linear variable, is the symplectic
form on their GL(2) columns times the wedge pairing of their signed pairs in
C^6 = Lambda^2 C^4, kappa([u_v, u]) = (j_v - j_u) * (pair v ^ pair u) / vol,
so each u has a single partner v: same row, other block, other column.  Each
derivative d/dx_u is paired with the Clifford matrix of u's signed pair, the
metric dual of its direction; both read `charts.LINEAR_VARIABLES`.  The one
genuinely free sign epsilon and an overall Clifford normalization are pinned
by calibration against known monogenic spinors (see calibration.py).

The operator is homogeneous of degree -1 for deg(x12)=2, deg(x^k_ij)=1, which
is what makes the graded kernels finite-dimensional and exactly computable.
It also preserves the GL(2) x GL(4) torus weight and commutes with the Weyl
group, which is how `graded_kernel_dim` counts (weyl.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import add

from .charts import BASE, LINEAR_VARIABLES
from .laurent import Exponents, LaurentPoly, PreconditionError, Record, Scalar, accumulate
from .transform import SpinorField


def _volume_coefficient(indices: tuple[int, int, int, int]) -> int:
    """Coefficient of the volume form f0^f1^f2^f3 in f_a^f_b^f_c^f_d."""
    if len(set(indices)) < 4:
        return 0
    return (-1) ** sum(a > b for a, b in combinations(indices, 2))


def wedge_pair_sign(a: tuple[tuple[int, int], int], b: tuple[tuple[int, int], int]) -> int:
    """Coefficient of the volume form in (signed 2-form a) ^ (signed 2-form b)."""
    (i, j), sa = a
    (k, l), sb = b
    return sa * sb * _volume_coefficient((i, j, k, l))


@lru_cache(maxsize=None)
def clifford_matrix(pair: tuple[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """4x4 matrix of wedging by the signed 2-form s f_i^f_j: S+ -> S- ~ (C^4)*.

    Entry (mu, nu) is the coefficient of the volume form in s f_i^f_j ^ f_nu ^ f_mu.
    """
    (i, j), sign = pair
    return tuple(
        tuple(sign * _volume_coefficient((i, j, nu, mu)) for nu in range(4)) for mu in range(4)
    )


# -------------------------------------------------- grade -1 structure constants
def central_bracket(v: str, u: str) -> int:
    """kappa([u_v, u]): the x12 coefficient of the bracket of two grade -1 basis elements.

    The basis element of a linear variable is the unit at its place in X1 or
    X2.  The bracket is the symplectic form on the GL(2) columns (C^2) times
    the wedge pairing of the two variables' pairs in Lambda^2 C^4 (C^6), so it
    is nonzero only for the variable of the complementary pair in the other column.
    """
    (jv, pv), (ju, pu) = LINEAR_VARIABLES[v], LINEAR_VARIABLES[u]
    return (jv - ju) * wedge_pair_sign(pv, pu)


class DiracOperator(Record):
    """The two coupled operators as one integer stencil plan.

    Component j sums clifford @ (d/dvar + correction * d/dx12) over the six
    directions.  ``plan[nu]`` is that operator on spinor slot nu, one flat
    (source variable s, exponent shift, j, mu, weight) entry per stencil term:
    the term multiplies by the exponent of x_s, lowers it by the shift and
    writes output (j, mu) with the exact coefficient times ``scale``, the lcm
    of the denominators.  `apply_2dirac` and the Weyl certificate read it one
    basis spinor at a time (`_column_image`); the kernel count reads it one
    weight block of output rows at a time (`weyl._block_rows`).
    """

    __slots__ = ("plan", "scale")


def build_dirac(epsilon: int, clifford_norm: Scalar) -> DiracOperator:
    """Assemble the operator pair for a choice of the two free conventions.

    Each linear variable u sends the two slots its pair misses to (u's GL(2) column, the
    fourth index) by d/dx_u and by epsilon * kappa(v, u)/2 * x_v * d/dx12: 48 terms.
    """
    if epsilon not in (1, -1):
        raise PreconditionError("epsilon must be +1 or -1")
    norm = Fraction(clifford_norm)
    if not norm:
        raise PreconditionError("the Clifford normalization must be nonzero")
    x12 = BASE.index["x12"]
    terms: list[list[tuple[int, Exponents, int, int, Fraction]]] = [[], [], [], []]
    for j, i, block in product(range(2), range(3), (1, 2)):
        u = f"x{block}_{i + 1}{j + 1}"
        v = next(v for v in LINEAR_VARIABLES if central_bracket(v, u))  # the one partner
        matrix = clifford_matrix(LINEAR_VARIABLES[u][1])
        x_u, x_v = BASE.index[u], BASE.index[v]
        lower = tuple(-(s == x_u) for s in range(len(BASE)))
        central = tuple((s == x_v) - (s == x12) for s in range(len(BASE)))
        half_kappa = epsilon * Fraction(central_bracket(v, u), 2)
        for nu, mu in product(range(4), range(4)):
            if matrix[mu][nu]:
                c = norm * matrix[mu][nu]
                terms[nu] += [(x_u, lower, j, mu, c), (x12, central, j, mu, c * half_kappa)]
    scale = math.lcm(*(c.denominator for slot in terms for *_, c in slot))
    plan = tuple(tuple((s, shift, j, mu, int(c * scale)) for s, shift, j, mu, c in slot) for slot in terms)
    return DiracOperator(plan, scale)


def apply_2dirac(op: DiracOperator, spinor: SpinorField) -> tuple[tuple, tuple]:
    """Both component operators applied to a spinor field (exactly).

    The image is the sum over the spinor's terms of coefficient / ``op.scale``
    times the column image of that basis spinor.
    """
    image: dict[tuple[int, int, Exponents], Fraction] = {}
    for nu, component in enumerate(spinor.components):
        for exps, coeff in component.terms.items():
            c = coeff / op.scale
            accumulate(image, ((key, c * w) for key, w in _column_image(op, nu, exps).items()))
    halves = ([{}, {}, {}, {}], [{}, {}, {}, {}])
    for (j, mu, e), c in image.items():
        halves[j][mu][e] = c
    return tuple(tuple(LaurentPoly(BASE, terms) for terms in half) for half in halves)


def is_monogenic(op: DiracOperator, spinor: SpinorField) -> bool:
    """True iff the spinor lies in the exact kernel of both operators."""
    return all(p.is_zero() for half in apply_2dirac(op, spinor) for p in half)


# ------------------------------------------------------------- graded kernels
def _column_image(op: DiracOperator, nu: int, exps: Exponents) -> dict[tuple, int]:
    """Sparse image of the basis spinor (monomial `exps` in slot nu), times ``op.scale``.

    Distinct shifts give distinct monomials, so no two plan entries meet.
    """
    image: dict[tuple[int, int, Exponents], int] = {}
    for s, shift, j, mu, w in op.plan[nu]:
        m = exps[s]
        if m:
            image[j, mu, tuple(map(add, exps, shift))] = m * w
    return image


def graded_kernel_dim(op: DiracOperator, k: int) -> int:
    """Exact dimension of the space of degree-k spinors killed by both operators.

    The operator commutes with the Weyl group S2 x S4 (an exact certificate
    is checked first), so the weight blocks of one orbit have equal size and
    rank: the nullity is the sum over dominant lambda of |W.lambda| * m_lambda
    (`weyl.kernel_character`).
    """
    # Imported on first use: only a kernel count needs the Weyl group, and
    # every process that imports the package would otherwise compile it.
    from .weyl import _orbit_size, kernel_character

    return sum(_orbit_size(lam) * m for lam, m in kernel_character(op, k).items())
