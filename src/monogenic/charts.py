"""Coordinate alphabets and the incidence substitution of the twistor correspondence.

Everything lives over C^10 with the split bilinear form h(e_i, ebar_j) = delta_ij
in the ordered basis {e1, e2, e3, e4, e5, ebar3, ebar4, ebar5, ebar1, ebar2};
that single ordering fixes every sign convention in the package.

Coordinates:

* twistor chart 0:  z0, z_ij (i=1..3, j=1..2), zeta1..zeta3 (zetas invertible);
* base affine cell: x12 (grade 2) and x1_ij, x2_ij (grade 1).

The incidence bindings are written in closed form, affine in zeta.  The
frames, the alpha-plane charts and the chart transitions they come from live
in the test oracle `tests/chart_geometry.py`, which derives the same bindings
by matrix products and checks that the frames are totally null.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .laurent import Alphabet, Exponents, LaurentPoly, Scalar

ZETA_VARS = ("zeta1", "zeta2", "zeta3")
Z_VARS = ("z11", "z12", "z21", "z22", "z31", "z32")

# Basis of Lambda^2 C^4 matching {e3, e4, e5, ebar3, ebar4, ebar5}: each row is
# (index pair (i, j) with i < j, sign), i.e. ebar4 corresponds to -f1^f3.
LAMBDA2_BASIS = (
    ((0, 1), 1),
    ((0, 2), 1),
    ((0, 3), 1),
    ((2, 3), 1),
    ((1, 3), -1),
    ((1, 2), 1),
)

# The one statement of the base variables' GL(2) x GL(4) convention: each linear
# variable x{b}_{ij} -> (its GL(2) column j - 1, its signed LAMBDA2_BASIS pair).
# Row i of X1 takes ebar_{i+2} and row i of X2 takes e_{i+2}.
LINEAR_VARIABLES = {
    f"x{b}_{i + 1}{j + 1}": (j, LAMBDA2_BASIS[3 * (2 - b) + i])
    for b in (1, 2) for i in range(3) for j in range(2)
}
_VARIABLE_OF_PAIR = {(j, pair): name for name, (j, (pair, _)) in LINEAR_VARIABLES.items()}

TWISTOR = Alphabet(("z0",) + Z_VARS + ZETA_VARS, negatives=ZETA_VARS)
BASE = Alphabet(("x12", *LINEAR_VARIABLES))
CORRESPONDENCE = Alphabet(BASE.names + ZETA_VARS, negatives=ZETA_VARS)


def move_pair(name: str, index: Sequence[int], column: int | None = None) -> tuple[str, int] | None:
    """(target, sign) with s f_index[a]^f_index[b] = sign * (target's signed pair), s f_a^f_b name's.

    The target lies in GL(2) column `column`, by default name's own; None when
    index[a] == index[b], so that the moved 2-form is zero.
    """
    j, ((a, b), sign) = LINEAR_VARIABLES[name]
    ta, tb = index[a], index[b]
    if ta == tb:
        return None
    target = _VARIABLE_OF_PAIR[j if column is None else column, (min(ta, tb), max(ta, tb))]
    return target, sign * LINEAR_VARIABLES[target][1][1] * (1 if ta < tb else -1)


def term_data(exps: Exponents) -> tuple[int, Exponents, tuple[int, int, int]]:
    """(s0, z, poles) of the TWISTOR monomial z0^s0 z^z / (zeta1^r1 zeta2^r2 zeta3^r3).

    `z` holds the six exponents in `Z_VARS` order and `poles` the pole orders
    (r1, r2, r3); `term_exponents` is the inverse.
    """
    return exps[0], exps[1:7], (-exps[7], -exps[8], -exps[9])


def term_exponents(s0: int, z: Exponents, poles: tuple[int, int, int]) -> Exponents:
    """The TWISTOR exponent vector of the monomial with data (s0, z, poles)."""
    return (s0, *z, *(-r for r in poles))


def _levi_civita(i: int, k: int) -> tuple[int, int]:
    """(m, eps_ikm) for distinct i, k in {1, 2, 3}: the remaining index and the Levi-Civita sign."""
    return 6 - i - k, (1 if (k - i) % 3 == 1 else -1)


def _binding(terms: list[tuple[Scalar, tuple[str, ...]]]) -> LaurentPoly:
    """The sum of coeff * (product of the named variables) over CORRESPONDENCE."""
    return LaurentPoly.sum(CORRESPONDENCE, (
        LaurentPoly.monomial(CORRESPONDENCE, Counter(names), coeff) for coeff, names in terms
    ))


@lru_cache(maxsize=None)
def correspondence_substitution() -> dict[str, LaurentPoly]:
    """Bindings z0, z_ij -> polynomials in (x variables, zeta) along the fibre.

    The incidence relation in closed form.  Zeta's antisymmetric 3x3 matrix
    has entries zeta_ik = -sum_m eps_ikm zeta_m, so each binding is
    A + sum_m zeta_m B_m with A and B_m polynomials over BASE:

        z_ij = (X2 - zeta X1)_ij = x2_ij + sum_{k,m} eps_ikm zeta_m x1_kj,
        z0   = x12 + 1/2 sum_a (x2_a1 x1_a2 - x1_a1 x2_a2) + (X1^T zeta X1)_12,
        (X1^T zeta X1)_12 = -sum_{a,k,m} eps_akm zeta_m x1_a1 x1_k2.

    Terms are listed in the order the matrix products produce them.  The
    zeta variables are left unbound and pass through to the target alphabet,
    so substituting a chart-0 section yields the fibre-restricted integrand
    of the transform.
    """
    half = Fraction(1, 2)
    z0 = [(1, ("x12",))]
    z0 += [(half, (f"x2_{a}1", f"x1_{a}2")) for a in (1, 2, 3)]
    z0 += [(-half, (f"x1_{a}1", f"x2_{a}2")) for a in (1, 2, 3)]
    for k in (1, 2, 3):
        for a in (1, 2, 3):
            if a != k:
                m, eps = _levi_civita(a, k)
                z0.append((-eps, (f"zeta{m}", f"x1_{a}1", f"x1_{k}2")))
    bindings = {"z0": _binding(z0)}
    for i in (1, 2, 3):
        for j in (1, 2):
            zij = [(1, (f"x2_{i}{j}",))]
            for k in (1, 2, 3):
                if k != i:
                    m, eps = _levi_civita(i, k)
                    zij.append((eps, (f"zeta{m}", f"x1_{k}{j}")))
            bindings[f"z{i}{j}"] = _binding(zij)
    return bindings
