"""Test oracles for the graded algebra and the graded spinor bases.

The engine writes the central structure constants in closed form
(`monogenic.dirac.central_bracket`).  This module keeps the independent
route: embed (X1, X2, X12) into the graded algebra of C^10 and take the
x12 coefficient of dense Fraction commutators.

The engine builds only the dominant weight blocks of degree-k spinors
(`monogenic.weyl`).  This module keeps the full basis of degree-k monomials
and its weight blocks, found by one pass over every (monomial, slot) column.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from monogenic.charts import BASE
from monogenic.laurent import Exponents, InternalCheckError, LaurentPoly, PreconditionError, Scalar
from monogenic.weyl import _unit, _weight

_X12_SLOT = BASE.index["x12"]


def weighted_degree(exps: tuple[int, ...]) -> int:
    """Grading on base monomials: x12 (grade -2) counts twice, the linear slots once."""
    return sum(exps) + exps[_X12_SLOT]


def degree_exponents(k: int) -> list[Exponents]:
    """All base monomial exponent vectors of weighted degree k (x12 weighs 2), sorted."""
    if k < 0:
        raise PreconditionError("degree must be non-negative")

    def spread(total: int, parts: int) -> list[Exponents]:
        # Every tuple of `parts` ints >= 0 summing to `total`: its first entry, then the rest.
        if parts == 1:
            return [(total,)]
        return [(first,) + rest for first in range(total + 1) for rest in spread(total - first, parts - 1)]

    return sorted((m,) + linear for m in range(k // 2 + 1) for linear in spread(k - 2 * m, len(BASE) - 1))


def weight_columns(k: int) -> dict[tuple[int, ...], list[tuple[int, Exponents]]]:
    """Every degree-k column (nu, exps), by the torus weight w(exps) + f_nu, in (exps, nu) order."""
    blocks: dict[tuple[int, ...], list[tuple[int, Exponents]]] = {}
    for exps in degree_exponents(k):
        for nu in range(4):
            blocks.setdefault(tuple(map(add, _weight(exps), _unit(2 + nu))), []).append((nu, exps))
    return blocks


# (block, i, j): the unit in row i, column j of X1 (block 1) or X2 (block 2).
GRADE1_BASIS = tuple((block, i, j) for block in (1, 2) for i in range(3) for j in range(2))


def gminus_matrix(
    x1: list[list[Scalar]], x2: list[list[Scalar]], x12: Scalar
) -> list[list[Fraction]]:
    """Embed (X1, X2, X12) into the 10x10 graded algebra (lower-left blocks).

    Row/column blocks follow the basis order: e1 e2 | e3 e4 e5 | ebar3 ebar4
    ebar5 | ebar1 ebar2.  X12 is the antisymmetric 2x2 with upper entry x12.
    """
    m = [[Fraction(0)] * 10 for _ in range(10)]
    for i in range(3):
        for j in range(2):
            m[2 + i][j] = Fraction(x1[i][j])
            m[5 + i][j] = Fraction(x2[i][j])
    m[8][1] = Fraction(x12)
    m[9][0] = -Fraction(x12)
    for i in range(3):
        for j in range(2):
            m[8 + j][2 + i] = -Fraction(x2[i][j])
            m[8 + j][5 + i] = -Fraction(x1[i][j])
    return m


def matrix_commutator(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def center_coefficient(m: list[list[Fraction]]) -> Fraction:
    """Read the x12-block coefficient of a matrix known to lie in grade -2."""
    for i in range(10):
        for j in range(10):
            inside = 8 <= i <= 9 and j <= 1
            if not inside and m[i][j]:
                raise InternalCheckError(f"entry ({i},{j}) outside the grade -2 block is nonzero")
    if m[8][0] or m[9][1] or m[8][1] != -m[9][0]:
        raise InternalCheckError("grade -2 block is not antisymmetric")
    return m[8][1]


def basis_matrix(block: int, i: int, j: int) -> list[list[Fraction]]:
    x1 = [[0] * 2 for _ in range(3)]
    x2 = [[0] * 2 for _ in range(3)]
    (x1 if block == 1 else x2)[i][j] = 1
    return gminus_matrix(x1, x2, 0)


@lru_cache(maxsize=None)
def central_corrections() -> dict[tuple[int, int, int], LaurentPoly]:
    """For each grade -1 direction u: (1/2) sum_v kappa([u_v, u]) x_v over the base."""
    mats = {key: basis_matrix(*key) for key in GRADE1_BASIS}
    out = {}
    for u in GRADE1_BASIS:
        terms = {}
        for v in GRADE1_BASIS:
            kappa = center_coefficient(matrix_commutator(mats[v], mats[u]))
            if kappa:
                block, i, j = v
                (exps,) = LaurentPoly.variable(BASE, f"x{block}_{i + 1}{j + 1}").terms
                terms[exps] = Fraction(1, 2) * kappa
        out[u] = LaurentPoly(BASE, terms)
    return out
