"""The coupled first-order Dirac pair on the base cell, built from scratch.

Construction: the six null directions of the model fibre C^6 = Lambda^2 C^4
act on spinors S+ = C^4 by wedging into Lambda^3 C^4, identified with (C^4)*
through the volume form f0^f1^f2^f3.  Differentiation uses the invariant
vector fields of the 2-step graded group in exponential coordinates,

    V = d/dx^k_ij + epsilon * (1/2) * sum_v kappa([u_v, u]) x_v * d/dx12,

with the central structure constants kappa computed exactly from commutators
of the embedded 10x10 matrices.  Each derivative is paired with the Clifford
matrix of its metric-dual direction (X1 rows pair with ebar directions, X2
rows with e directions); the one genuinely free sign epsilon and an overall
Clifford normalization are pinned by calibration against known monogenic
spinors (see calibration.py).

The operator is homogeneous of degree -1 for deg(x12)=2, deg(x^k_ij)=1, which
is what makes the graded kernels finite-dimensional and exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .charts import BASE, center_coefficient, gminus_matrix, matrix_commutator
from .laurent import (
    Exponents,
    LaurentPoly,
    PreconditionError,
    Scalar,
    accumulate,
    matrix_rank,
)
from .transform import SpinorField

DIRECTIONS = ("e3", "e4", "e5", "eb3", "eb4", "eb5")

# Images of the six null directions in Lambda^2 C^4: (index pair, sign).
LAMBDA2_IMAGE = {
    "e3": ((0, 1), 1),
    "e4": ((0, 2), 1),
    "e5": ((0, 3), 1),
    "eb3": ((2, 3), 1),
    "eb4": ((1, 3), -1),
    "eb5": ((1, 2), 1),
}

DUAL_DIRECTION = {"e3": "eb3", "e4": "eb4", "e5": "eb5", "eb3": "e3", "eb4": "e4", "eb5": "e5"}


def _perm_sign(indices: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                sign = -sign
    return sign


def wedge_pair_sign(a: tuple[tuple[int, int], int], b: tuple[tuple[int, int], int]) -> int:
    """Coefficient of the volume form in (signed 2-form a) ^ (signed 2-form b)."""
    (i, j), sa = a
    (k, l), sb = b
    if len({i, j, k, l}) < 4:
        return 0
    return sa * sb * _perm_sign((i, j, k, l))


def quadratic_form(coefficients: dict[str, Scalar]) -> Fraction:
    """Q(alpha) with alpha = sum over directions, via alpha ^ alpha = Q * vol."""
    q = Fraction(0)
    items = list(coefficients.items())
    for da, ca in items:
        for db, cb in items:
            q += Fraction(ca) * Fraction(cb) * wedge_pair_sign(LAMBDA2_IMAGE[da], LAMBDA2_IMAGE[db])
    return q


@lru_cache(maxsize=None)
def clifford_matrix(direction: str) -> tuple[tuple[int, ...], ...]:
    """4x4 matrix of wedging by the direction: S+ -> S- ~ (C^4)*.

    Entry (mu, nu) is the coefficient of the volume form in
    image(direction) ^ f_nu ^ f_mu.
    """
    (i, j), sign = LAMBDA2_IMAGE[direction]
    rows = []
    for mu in range(4):
        row = []
        for nu in range(4):
            if len({i, j, nu, mu}) < 4:
                row.append(0)
            else:
                row.append(sign * _perm_sign((i, j, nu, mu)))
        rows.append(tuple(row))
    return tuple(rows)


# -------------------------------------------------- grade -1 structure constants
_GRADE1_BASIS = tuple(
    (block, i, j) for block in (1, 2) for i in range(3) for j in range(2)
)


def _basis_var(block: int, i: int, j: int) -> str:
    return f"x{block}_{i + 1}{j + 1}"


def _basis_matrix(block: int, i: int, j: int) -> list[list[Fraction]]:
    x1 = [[0] * 2 for _ in range(3)]
    x2 = [[0] * 2 for _ in range(3)]
    (x1 if block == 1 else x2)[i][j] = 1
    return gminus_matrix(x1, x2, 0)


@lru_cache(maxsize=None)
def _central_corrections() -> dict[tuple[int, int, int], LaurentPoly]:
    """For each grade -1 direction u: (1/2) sum_v kappa([u_v, u]) x_v over the base."""
    mats = {key: _basis_matrix(*key) for key in _GRADE1_BASIS}
    out: dict[tuple[int, int, int], LaurentPoly] = {}
    for u in _GRADE1_BASIS:
        terms: dict[Exponents, Fraction] = {}
        for v in _GRADE1_BASIS:
            kappa = center_coefficient(matrix_commutator(mats[v], mats[u]))
            if kappa:
                exps = [0] * len(BASE)
                exps[BASE.index[_basis_var(*v)]] = 1
                terms[tuple(exps)] = Fraction(1, 2) * kappa
        out[u] = LaurentPoly.from_dict(BASE, terms)
    return out


@dataclass(frozen=True)
class DiracOperator:
    """The two coupled operators as explicit stencils.

    ``stencils[j]`` is a tuple of (clifford matrix, derivative variable,
    x12-correction polynomial) triples; applying the operator sums
    clifford @ (d/dvar + correction * d/dx12) over the six directions.
    """

    epsilon: int
    clifford_norm: Fraction
    stencils: tuple[tuple[tuple, ...], tuple[tuple, ...]]


def build_dirac(epsilon: int, clifford_norm: Scalar = 1) -> DiracOperator:
    """Assemble the operator pair for a choice of the two free conventions."""
    if epsilon not in (1, -1):
        raise PreconditionError("epsilon must be +1 or -1")
    norm = Fraction(clifford_norm)
    if not norm:
        raise PreconditionError("the Clifford normalization must be nonzero")
    corrections = _central_corrections()
    stencils = []
    for j in range(2):
        terms = []
        for i in range(3):
            for block, direction in ((1, DUAL_DIRECTION[f"e{i + 3}"]), (2, f"e{i + 3}")):
                matrix = tuple(
                    tuple(norm * v for v in row) for row in clifford_matrix(direction)
                )
                correction = corrections[(block, i, j)].scale(epsilon)
                terms.append((matrix, _basis_var(block, i, j), correction))
        stencils.append(tuple(terms))
    return DiracOperator(epsilon=epsilon, clifford_norm=norm, stencils=tuple(stencils))


def apply_2dirac(op: DiracOperator, spinor: SpinorField) -> tuple[tuple, tuple]:
    """Both component operators applied to a spinor field (exactly)."""
    results = []
    for stencil in op.stencils:
        parts: list[list[LaurentPoly]] = [[], [], [], []]
        for matrix, var, correction in stencil:
            for nu in range(4):
                if any(matrix[mu][nu] for mu in range(4)):
                    field = spinor.components[nu].derivative(var)
                    if not correction.is_zero():
                        field = field + correction * spinor.components[nu].derivative("x12")
                    for mu in range(4):
                        if matrix[mu][nu]:
                            parts[mu].append(field.scale(matrix[mu][nu]))
        results.append(tuple(LaurentPoly.sum(BASE, p) for p in parts))
    return tuple(results)


def is_monogenic(op: DiracOperator, spinor: SpinorField) -> bool:
    """True iff the spinor lies in the exact kernel of both operators."""
    return all(p.is_zero() for half in apply_2dirac(op, spinor) for p in half)


# ------------------------------------------------------------- graded kernels
def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def degree_exponents(k: int) -> list[Exponents]:
    """All base monomial exponent vectors of weighted degree k (x12 weighs 2)."""
    if k < 0:
        raise PreconditionError("degree must be non-negative")
    out = []
    for m in range(k // 2 + 1):
        for linear in _compositions(k - 2 * m, len(BASE) - 1):
            out.append((m,) + linear)
    return sorted(out)


def _column_image(
    op: DiracOperator, nu: int, exps: Exponents
) -> dict[tuple[int, int, Exponents], Fraction]:
    """Sparse image of the basis spinor (monomial `exps` in slot nu)."""
    image: dict[tuple[int, int, Exponents], Fraction] = {}
    x12 = BASE.index["x12"]
    for j, stencil in enumerate(op.stencils):
        for matrix, var, correction in stencil:
            column = [matrix[mu][nu] for mu in range(4)]
            if not any(column):
                continue
            pieces: list[tuple[Exponents, Fraction]] = []
            v = BASE.index[var]
            if exps[v]:
                lowered = list(exps)
                lowered[v] -= 1
                pieces.append((tuple(lowered), Fraction(exps[v])))
            if exps[x12] and not correction.is_zero():
                lowered = list(exps)
                lowered[x12] -= 1
                for cexps, ccoeff in correction.terms.items():
                    shifted = tuple(a + b for a, b in zip(lowered, cexps))
                    pieces.append((shifted, Fraction(exps[x12]) * ccoeff))
            accumulate(image, (
                ((j, mu, e), column[mu] * c)
                for mu in range(4)
                if column[mu]
                for e, c in pieces
            ))
    return image


def graded_kernel_dim(op: DiracOperator, k: int) -> int:
    """Exact dimension of the space of degree-k spinors killed by both operators.

    The operator matrix splits into connected components of its sparsity
    graph (it is equivariant, so blocks stay small); each block's rank comes
    from the fraction-free elimination and the nullities add up.
    """
    basis = degree_exponents(k)
    columns = [(nu, exps) for nu in range(4) for exps in basis]
    images = {col: _column_image(op, *col) for col in columns}

    row_id: dict[tuple[int, int, Exponents], int] = {}
    parent: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    nullity = 0
    live_columns = []
    for col, image in images.items():
        if not image:
            nullity += 1  # annihilated outright (e.g. constants)
            continue
        live_columns.append(col)
        ids = [row_id.setdefault(key, len(row_id)) for key in image]
        parent.extend(range(len(parent), len(row_id)))
        for other in ids[1:]:
            parent[find(other)] = find(ids[0])

    groups: dict[int, list] = {}
    for col in live_columns:
        root = find(row_id[next(iter(images[col]))])
        groups.setdefault(root, []).append(col)

    for cols in groups.values():
        row_keys = sorted({key for col in cols for key in images[col]})
        row_pos = {key: r for r, key in enumerate(row_keys)}
        dense = [[0] * len(cols) for _ in row_keys]
        for c, col in enumerate(cols):
            for key, value in images[col].items():
                dense[row_pos[key]][c] = value
        nullity += len(cols) - matrix_rank(dense, n_cols=len(cols))
    return nullity
