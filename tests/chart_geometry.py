"""Test oracle: the chart geometry the incidence bindings come from.

The engine writes the bindings in closed form
(`monogenic.charts.correspondence_substitution`).  This module keeps the
geometry behind them: polynomial matrices, the 10x5 twistor frame and the
10x2 base frame, whose column spans are null planes of the split bilinear
form h (total nullity is a polynomial identity checked in the tests), the
alpha-plane charts of CP^3, the chart transitions, and the frame route to
the bindings: z_ij is entry (i, j) of B1 = X2 - zeta X1 and z0 is entry
(1, 2) of the corner block B0.

Coordinates beyond the engine's: the CP^3 fibre charts zeta (chart 0) and
rho (chart 1), both invertible, and the twistor chart 1 (w0, w_ij, rho_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from monogenic.charts import BASE, CORRESPONDENCE, LAMBDA2_BASIS, TWISTOR, Z_VARS, ZETA_VARS
from monogenic.laurent import Alphabet, AlphabetMismatch, LaurentPoly, PreconditionError, Scalar

RHO_VARS = ("rho1", "rho2", "rho3")
W_VARS = ("w11", "w12", "w21", "w22", "w31", "w32")

CP3_ZETA = Alphabet(ZETA_VARS, negatives=ZETA_VARS)
CP3_RHO = Alphabet(RHO_VARS, negatives=RHO_VARS)
CHART1 = Alphabet(("w0",) + W_VARS + RHO_VARS, negatives=RHO_VARS)


class PolyMatrix:
    """A rectangular matrix of LaurentPoly entries over one alphabet."""

    __slots__ = ("alphabet", "entries")

    def __init__(self, alphabet: Alphabet, entries: list[list[LaurentPoly]]):
        self.alphabet = alphabet
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in entries:
            for p in row:
                if p.alphabet != alphabet:
                    raise AlphabetMismatch("matrix entries over mixed alphabets")
        self.entries = [list(row) for row in entries]

    @classmethod
    def from_scalars(cls, alphabet: Alphabet, rows: list[list[Scalar]]) -> "PolyMatrix":
        return cls(
            alphabet,
            [[LaurentPoly.constant(alphabet, v) for v in row] for row in rows],
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, pos: tuple[int, int]) -> LaurentPoly:
        return self.entries[pos[0]][pos[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.alphabet == other.alphabet
            and self.entries == other.entries
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.alphabet,
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.alphabet,
            [
                [self.entries[r][c] + other.entries[r][c] for c in range(self.cols)]
                for r in range(self.rows)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def scale(self, scalar: Scalar) -> "PolyMatrix":
        return PolyMatrix(
            self.alphabet, [[p.scale(scalar) for p in row] for row in self.entries]
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        columns = list(zip(*other.entries))
        out = [
            [LaurentPoly.sum(self.alphabet, (a * b for a, b in zip(row, col))) for col in columns]
            for row in self.entries
        ]
        return PolyMatrix(self.alphabet, out)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)


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
        columns.append([pair_coeff.get(pair, zero).scale(sign) for pair, sign in LAMBDA2_BASIS])
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

