"""Affine charts, frames and transition functions for the twistor correspondence.

Everything lives over C^10 with the split bilinear form h(e_i, ebar_j) = delta_ij
in the ordered basis {e1, e2, e3, e4, e5, ebar3, ebar4, ebar5, ebar1, ebar2};
that single ordering fixes every sign convention in the package.

Coordinates:

* twistor chart 0:  z0, z_ij (i=1..3, j=1..2), zeta1..zeta3 (zetas invertible);
* base affine cell: x12 (grade 2) and x1_ij, x2_ij (grade 1);
* CP^3 fibre charts: zeta (chart 0) and rho (chart 1), both invertible.

The frame builders return the explicit 10x5 (twistor) and 10x2 (base) matrices
whose column spans are the corresponding null planes; total nullity of those
spans is a polynomial identity checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .laurent import Alphabet, LaurentPoly, PolyMatrix, PreconditionError

ZETA_VARS = ("zeta1", "zeta2", "zeta3")
Z_VARS = ("z11", "z12", "z21", "z22", "z31", "z32")
X1_VARS = ("x1_11", "x1_12", "x1_21", "x1_22", "x1_31", "x1_32")
X2_VARS = ("x2_11", "x2_12", "x2_21", "x2_22", "x2_31", "x2_32")
RHO_VARS = ("rho1", "rho2", "rho3")
W_VARS = ("w11", "w12", "w21", "w22", "w31", "w32")

TWISTOR = Alphabet(("z0",) + Z_VARS + ZETA_VARS, negatives=ZETA_VARS)
BASE = Alphabet(("x12",) + X1_VARS + X2_VARS)
CORRESPONDENCE = Alphabet(BASE.names + ZETA_VARS, negatives=ZETA_VARS)
CP3_ZETA = Alphabet(ZETA_VARS, negatives=ZETA_VARS)
CP3_RHO = Alphabet(RHO_VARS, negatives=RHO_VARS)
CHART1 = Alphabet(("w0",) + W_VARS + RHO_VARS, negatives=RHO_VARS)


@dataclass(frozen=True)
class ChartId:
    """One of the four affine charts of the alpha-plane family."""

    index: int

    def __post_init__(self):
        if self.index not in (0, 1, 2, 3):
            raise PreconditionError(f"chart index {self.index} not in 0..3")


@dataclass(frozen=True)
class TwistorCoords:
    """Symbolic chart-0 coordinates assembled into the block matrices."""

    z0: LaurentPoly
    zij: PolyMatrix  # 3x2
    zeta: PolyMatrix  # 3x3 antisymmetric

    @classmethod
    def generic(cls, alphabet: Alphabet = TWISTOR) -> "TwistorCoords":
        var = lambda n: LaurentPoly.variable(alphabet, n)
        zij = PolyMatrix(alphabet, [[var(f"z{i}{j}") for j in (1, 2)] for i in (1, 2, 3)])
        return cls(z0=var("z0"), zij=zij, zeta=zeta_matrix(alphabet))

    def b0(self) -> PolyMatrix:
        alphabet = self.z0.alphabet
        zero = LaurentPoly.zero(alphabet)
        return PolyMatrix(alphabet, [[zero, self.z0], [-self.z0, zero]])


@dataclass(frozen=True)
class BaseCoords:
    """Symbolic coordinates on the affine base cell: X1, X2 and x12."""

    x1: PolyMatrix  # 3x2
    x2: PolyMatrix  # 3x2
    x12: LaurentPoly

    @classmethod
    def generic(cls, alphabet: Alphabet = BASE) -> "BaseCoords":
        var = lambda n: LaurentPoly.variable(alphabet, n)
        x1 = PolyMatrix(alphabet, [[var(f"x1_{i}{j}") for j in (1, 2)] for i in (1, 2, 3)])
        x2 = PolyMatrix(alphabet, [[var(f"x2_{i}{j}") for j in (1, 2)] for i in (1, 2, 3)])
        return cls(x1=x1, x2=x2, x12=var("x12"))

    def x12_matrix(self) -> PolyMatrix:
        alphabet = self.x12.alphabet
        zero = LaurentPoly.zero(alphabet)
        return PolyMatrix(alphabet, [[zero, self.x12], [-self.x12, zero]])


def zeta_matrix(alphabet: Alphabet) -> PolyMatrix:
    """The antisymmetric 3x3 built from zeta1..zeta3 (block B2 of the frame)."""
    z1 = LaurentPoly.variable(alphabet, "zeta1")
    z2 = LaurentPoly.variable(alphabet, "zeta2")
    z3 = LaurentPoly.variable(alphabet, "zeta3")
    zero = LaurentPoly.zero(alphabet)
    return PolyMatrix(alphabet, [[zero, -z3, z2], [z3, zero, -z1], [-z2, z1, zero]])


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


def alpha_plane_basis(
    chart: ChartId | int,
    coords: tuple[str, str, str] = ZETA_VARS,
    alphabet: Alphabet | None = None,
) -> PolyMatrix:
    """The 6x3 frame of the alpha plane attached to a point of a CP^3 chart.

    Chart p uses the affine vector w with a 1 in slot p and the three chart
    coordinates filling the remaining slots in ascending order; the plane is
    spanned by w ^ f_q over q != p ascending.  Charts 0 and 1 reproduce the
    standard frames; charts 2 and 3 follow the same recipe.
    """
    p = chart.index if isinstance(chart, ChartId) else ChartId(chart).index
    if alphabet is None:
        alphabet = CP3_ZETA if p == 0 else Alphabet(coords, negatives=coords)
    one = LaurentPoly.constant(alphabet, 1)
    w: list[LaurentPoly] = []
    it = iter(coords)
    for slot in range(4):
        w.append(one if slot == p else LaurentPoly.variable(alphabet, next(it)))
    zero = LaurentPoly.zero(alphabet)
    columns = []
    for q in range(4):
        if q == p:
            continue
        pair_coeff: dict[tuple[int, int], LaurentPoly] = {}
        for slot in range(4):
            if slot == q:
                continue
            key = (slot, q) if slot < q else (q, slot)
            value = w[slot] if slot < q else -w[slot]
            pair_coeff[key] = pair_coeff.get(key, zero) + value
        columns.append([sign * pair_coeff.get(pair, zero) for pair, sign in LAMBDA2_BASIS])
    return PolyMatrix(alphabet, [[columns[c][r] for c in range(3)] for r in range(6)])


def bilinear_gram() -> list[list[int]]:
    """Gram matrix of h in the ordered basis {e1..e5, ebar3, ebar4, ebar5, ebar1, ebar2}."""
    h = [[0] * 10 for _ in range(10)]
    for i, j in ((0, 8), (1, 9), (2, 5), (3, 6), (4, 7)):
        h[i][j] = h[j][i] = 1
    return h


def frame_gram(frame: PolyMatrix) -> PolyMatrix:
    """G^T H G for a 10-row frame G; zero iff the span is totally null."""
    h = PolyMatrix.from_scalars(frame.alphabet, bilinear_gram())
    return frame.transpose() * h * frame


def twistor_frame(values: Mapping[str, LaurentPoly]) -> PolyMatrix:
    """The 10x5 chart-0 frame with the given coordinate values substituted."""
    alphabet = values["z0"].alphabet
    one = LaurentPoly.constant(alphabet, 1)
    zero = LaurentPoly.zero(alphabet)
    v = values
    rows = [
        [one, zero, zero, zero, zero],
        [zero, one, zero, zero, zero],
        [zero, zero, one, zero, zero],
        [zero, zero, zero, one, zero],
        [zero, zero, zero, zero, one],
        [v["z11"], v["z12"], zero, -v["zeta3"], v["zeta2"]],
        [v["z21"], v["z22"], v["zeta3"], zero, -v["zeta1"]],
        [v["z31"], v["z32"], -v["zeta2"], v["zeta1"], zero],
        [zero, v["z0"], -v["z11"], -v["z21"], -v["z31"]],
        [-v["z0"], zero, -v["z12"], -v["z22"], -v["z32"]],
    ]
    return PolyMatrix(alphabet, rows)


def generic_twistor_values(alphabet: Alphabet = TWISTOR) -> dict[str, LaurentPoly]:
    return {name: LaurentPoly.variable(alphabet, name) for name in ("z0",) + Z_VARS + ZETA_VARS}


def base_frame(coords: BaseCoords | None = None) -> PolyMatrix:
    """The 10x2 frame of the base point: exp of the graded coordinates applied to <e1, e2>."""
    if coords is None:
        coords = BaseCoords.generic()
    alphabet = coords.x12.alphabet
    one = LaurentPoly.constant(alphabet, 1)
    zero = LaurentPoly.zero(alphabet)
    x1t_x2 = coords.x1.transpose() * coords.x2
    x2t_x1 = coords.x2.transpose() * coords.x1
    bottom = coords.x12_matrix() - (x1t_x2 + x2t_x1).scale(Fraction(1, 2))
    rows = [[one, zero], [zero, one]]
    rows += [list(r) for r in coords.x1.entries]
    rows += [list(r) for r in coords.x2.entries]
    rows += [list(r) for r in bottom.entries]
    return PolyMatrix(alphabet, rows)


# ----------------------------------------------------------------- transitions
def cp3_transition(values: tuple[LaurentPoly, LaurentPoly, LaurentPoly]) -> tuple[LaurentPoly, ...]:
    """Chart change on CP^3: (c1, c2, c3) -> (c1^-1, c2*c1^-1, c3*c1^-1).

    The same involutive formula serves both directions; the pivot value must
    be an invertible monomial.
    """
    inv = values[0].inverse_monomial()
    return (inv, values[1] * inv, values[2] * inv)


def w01_transition(
    values: Mapping[str, LaurentPoly], direction: str = "0->1"
) -> dict[str, LaurentPoly]:
    """Coordinate change between the twistor charts W0 and W1.

    Forward ("0->1") consumes {z0, z_ij, zeta_k} values and produces
    {w0, w_ij, rho_k}; backward ("1->0") is the exact inverse (note the
    backward w1j line is not the verbatim forward formula).
    """
    if direction == "0->1":
        inv = values["zeta1"].inverse_monomial()
        out = {
            "rho1": inv,
            "rho2": values["zeta2"] * inv,
            "rho3": values["zeta3"] * inv,
            "w0": values["z0"] + (values["z21"] * values["z32"] - values["z22"] * values["z31"]) * inv,
        }
        for j in (1, 2):
            out[f"w1{j}"] = values[f"z1{j}"] + (
                values[f"z2{j}"] * values["zeta2"] + values[f"z3{j}"] * values["zeta3"]
            ) * inv
            out[f"w2{j}"] = values[f"z2{j}"] * inv
            out[f"w3{j}"] = -(values[f"z3{j}"] * inv)
        return out
    if direction == "1->0":
        inv = values["rho1"].inverse_monomial()
        out = {
            "zeta1": inv,
            "zeta2": values["rho2"] * inv,
            "zeta3": values["rho3"] * inv,
            "z0": values["w0"] + (values["w21"] * values["w32"] - values["w22"] * values["w31"]) * inv,
        }
        for j in (1, 2):
            out[f"z1{j}"] = values[f"w1{j}"] + (
                -(values[f"w2{j}"] * values["rho2"]) + values[f"w3{j}"] * values["rho3"]
            ) * inv
            out[f"z2{j}"] = values[f"w2{j}"] * inv
            out[f"z3{j}"] = -(values[f"w3{j}"] * inv)
        return out
    raise PreconditionError(f"direction must be '0->1' or '1->0', got {direction!r}")


# -------------------------------------------------------------- correspondence
def correspondence_b1(alphabet: Alphabet = CORRESPONDENCE) -> PolyMatrix:
    """B1 = X2 - zeta X1: the z_ij block of the incidence frame over the base."""
    coords = BaseCoords.generic(alphabet)
    return coords.x2 - zeta_matrix(alphabet) * coords.x1


def correspondence_b0(alphabet: Alphabet = CORRESPONDENCE) -> PolyMatrix:
    """B0 = X12 + (X2^T X1 - X1^T X2)/2 + X1^T zeta X1 (antisymmetric identically)."""
    coords = BaseCoords.generic(alphabet)
    zt = zeta_matrix(alphabet)
    sym = (coords.x2.transpose() * coords.x1 - coords.x1.transpose() * coords.x2).scale(
        Fraction(1, 2)
    )
    return coords.x12_matrix() + sym + coords.x1.transpose() * zt * coords.x1


@lru_cache(maxsize=None)
def correspondence_substitution() -> dict[str, LaurentPoly]:
    """Bindings z0, z_ij -> polynomials in (x variables, zeta) along the fibre.

    The zeta variables are left unbound and pass through to the target
    alphabet, so substituting a chart-0 section yields the fibre-restricted
    integrand of the transform.
    """
    b1 = correspondence_b1()
    b0 = correspondence_b0()
    bindings = {"z0": b0[0, 1]}
    for i in (1, 2, 3):
        for j in (1, 2):
            bindings[f"z{i}{j}"] = b1[i - 1, j - 1]
    return bindings

