"""The Weyl symmetry of the 2-Dirac operator, and graded kernels counted by it.

A basis spinor x^e (x) f_nu has a torus weight of GL(2) x GL(4) in Z^2 x Z^4,
and the operator preserves it, so its matrix on degree-k spinors splits into
weight blocks.  The Weyl group S2 x S4 acts on spinors and on output
coordinates by signed permutations P and Q, and D P = Q D, so the blocks of one
Weyl orbit have equal size and rank.  Both facts are checked exactly, once
per operator, before a kernel is counted (`_certify_weyl_symmetry`); the
count then builds only the blocks of dominant weight, straight from the
monomials of the two GL(2) rows, and ranks each by its output rows, read
off the operator's plan with monomials packed into int keys.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, product
from operator import itemgetter, mul
from typing import Iterable, Iterator

from .charts import BASE, LINEAR_VARIABLES, move_pair
from .dirac import DiracOperator, _column_image, _volume_coefficient
from .laurent import Exponents, InternalCheckError, PreconditionError, Record, matrix_rank


# A torus weight of GL(2) x GL(4) is six ints (c0, c1 | f0, f1, f2, f3).
def _unit(*axes: int) -> tuple[int, ...]:
    return tuple(axes.count(t) for t in range(6))


_X12 = BASE.index["x12"]

# In BASE order: x12 weighs (1, 1 | 1, 1, 1, 1), and a linear variable in column j with the pair
# (a, b) weighs c_j + f_a + f_b.
_VARIABLE_WEIGHTS = (_unit(0, 1, 2, 3, 4, 5),) + tuple(
    _unit(j, 2 + a, 2 + b) for j, ((a, b), _) in LINEAR_VARIABLES.values()
)


# The six variables of each GL(2) row j (column j of X1 and X2), in BASE order;
# _place puts the exponents of x12, row 0 and row 1, concatenated, in BASE order.
_ROWS = tuple(
    tuple(BASE.index[name] for name, (column, _) in LINEAR_VARIABLES.items() if column == j)
    for j in range(2)
)
_place = itemgetter(*map(((_X12,) + _ROWS[0] + _ROWS[1]).index, range(len(BASE))))


def _weight(exps: Exponents) -> tuple[int, ...]:
    """Torus weight of a base monomial (or of a plan's exponent shift)."""
    return tuple(sum(e * w[t] for e, w in zip(exps, _VARIABLE_WEIGHTS)) for t in range(6))


def _output_weight(j: int, mu: int, exps: Exponents) -> tuple[int, ...]:
    """Weight of the output coordinate (j, mu, exps): w(exps) + c_j + (1, 1, 1, 1) - f_mu."""
    return tuple(w + c - f for w, c, f in zip(_weight(exps), _unit(j, 2, 3, 4, 5), _unit(2 + mu)))


class WeylGenerator(Record):
    """A simple reflection of S2 x S4 as signed permutations P of spinors and Q of output coordinates.

    P sends x^e (x) f_nu to the product of the images ``variables[s] =
    (target, sign)`` of its variables, times f_slots[nu]; Q sends the output
    coordinate (j, mu, e) to output_sign times (halves[j], slots[mu], the
    image of x^e).
    """

    # (target, sign) per BASE variable, the GL(2) and GL(4) axis permutations, and a sign
    __slots__ = ("variables", "halves", "slots", "output_sign")

    def monomial(self, exps: Exponents) -> tuple[int, Exponents]:
        """(sign, exponents) of the image of x^e."""
        image, sign = [0] * len(exps), 1
        for (target, s), e in zip(self.variables, exps):
            image[target] = e
            if s < 0 and e % 2:
                sign = -sign
        return sign, tuple(image)

    def weight(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The weight moved: c_j to c_halves[j] and f_a to f_slots[a]."""
        image = [0] * 6
        for t, v in zip(self.halves + tuple(2 + a for a in self.slots), w):
            image[t] = v
        return tuple(image)

    def image(self, op: DiracOperator, nu: int, exps: Exponents) -> dict[tuple, int]:
        """D(P(x^e (x) f_nu)) as a column image."""
        sign, moved = self.monomial(exps)
        return {key: sign * w for key, w in _column_image(op, self.slots[nu], moved).items()}

    def moved_image(self, op: DiracOperator, nu: int, exps: Exponents) -> dict[tuple, int]:
        """Q(D(x^e (x) f_nu)) as a column image."""
        out = {}
        for (j, mu, e), w in _column_image(op, nu, exps).items():
            sign, moved = self.monomial(e)
            out[self.halves[j], self.slots[mu], moved] = self.output_sign * sign * w
        return out


def _weyl_generator(halves: tuple[int, int], tau: tuple[int, int, int, int]) -> WeylGenerator:
    """The generator that permutes the GL(2) axes by `halves` and the GL(4) axes by `tau`.

    A variable in column j with the signed pair s f_a^f_b goes to the one in
    column halves[j] with the pair of s f_tau(a)^f_tau(b) (`charts.move_pair`);
    x12, of top weight, takes the signs of both permutations, and every output
    the sign of tau.
    """
    det = _volume_coefficient(tau)  # the sign of tau
    images = [("x12", det * (-1 if halves[0] else 1))]  # BASE is x12, then the linear variables
    images += [move_pair(name, tau, halves[j]) for name, (j, _) in LINEAR_VARIABLES.items()]
    return WeylGenerator(tuple((BASE.index[t], sign) for t, sign in images), halves, tau, det)


# The swap of S2 and the three adjacent transpositions of S4 generate S2 x S4.
WEYL_GENERATORS = (
    _weyl_generator((1, 0), (0, 1, 2, 3)),
    _weyl_generator((0, 1), (1, 0, 2, 3)),
    _weyl_generator((0, 1), (0, 2, 1, 3)),
    _weyl_generator((0, 1), (0, 1, 3, 2)),
)


@lru_cache(maxsize=None)
def _certify_weyl_symmetry(op: DiracOperator) -> None:
    """Certify, exactly and once per operator, the symmetry `graded_kernel_dim` counts by.

    Raises InternalCheckError unless:
    - the shifts of one slot are distinct, and every plan entry lowers its
      multiplier x_s by one, lowers no other variable and preserves weight,
      so neither `_column_image` nor `_block_rows` writes two entries to one
      key, and no packed key borrows across digits;
    - each generator moves the weight of every variable and slot as it moves
      weights, so P maps the columns of weight lambda onto those of g(lambda);
    - D(P(x_s (x) f_nu)) = Q(D(x_s (x) f_nu)) for every variable s and slot nu.
      The plan makes D first order with no zeroth-order term,
      D(p f_nu) = sum_s (dp/dx_s) L_s with L_s = D(x_s (x) f_nu), and P and Q
      act on coefficients by one signed substitution of variables, so by the
      chain rule this gives D P = Q D on every polynomial spinor.
    """
    for nu, slot in enumerate(op.plan):
        if len({shift for _, shift, *_ in slot}) != len(slot):
            raise InternalCheckError(f"slot {nu}: two plan entries share an exponent shift")
        for s, shift, j, mu, _ in slot:
            if shift[s] != -1 or sum(d < 0 for d in shift) != 1:
                raise InternalCheckError(f"slot {nu}: shift {shift} does not lower {BASE.names[s]} alone")
            if _output_weight(j, mu, shift) != _unit(2 + nu):
                raise InternalCheckError(f"slot {nu}: the plan entry {shift} does not preserve weight")
    units = [tuple(int(t == s) for t in range(len(BASE))) for s in range(len(BASE))]
    for g in WEYL_GENERATORS:
        if any(_weight(g.monomial(x)[1]) != g.weight(_weight(x)) for x in units) or any(
            _unit(2 + g.slots[nu]) != g.weight(_unit(2 + nu)) for nu in range(4)
        ):
            raise InternalCheckError(f"the Weyl generator {g.halves, g.slots} does not move weights")
        for x, nu in product(units, range(4)):
            if g.image(op, nu, x) != g.moved_image(op, nu, x):
                raise InternalCheckError(
                    f"the operator does not commute with the Weyl generator {g.halves, g.slots} "
                    f"on slot {nu}, monomial {x}"
                )


def _orbit_size(w: tuple[int, ...]) -> int:
    """|W.w| for W = S2 x S4: the product of the two multinomials."""
    size = 1
    for part in (w[:2], w[2:]):
        size *= math.factorial(len(part))
        for v in set(part):
            size //= math.factorial(part.count(v))
    return size


def _codes(k: int) -> list[int]:
    """Each BASE variable's step 8 * (k + 1)^t, big-endian: a code reads exponents 0..k as digits."""
    return [8 * (k + 1) ** t for t in reversed(range(len(BASE)))]


def _dominant_blocks(k: int) -> dict[tuple[int, ...], list[tuple[int, int, Exponents]]]:
    """The degree-k columns (code + nu, nu, exps) of each dominant weight, sorted slot-major.

    A degree-k monomial is x12^m times monomials of degrees d0 and d1 in the
    six variables of GL(2) rows 0 and 1, and c0 - c1 = d0 - d1, so only
    d0 >= d1 can be dominant.  One table of monomials by weight serves both
    rows, built a degree at a time, and a pair of its groups is assembled
    only for the slots nu that make the sum dominant.  A monomial's code
    (`_codes`) is summed from its x12, row-0 and row-1 parts.  Columns sort
    by (nu, code), which is (nu, exps): `_echelon`'s cost depends on the
    order, and this one takes 20 to 29 % fewer row operations than
    (exps, nu) at k = 5..9.
    """
    if k < 0:
        raise PreconditionError("degree must be non-negative")
    # Weights are packed into one int, coordinate t as digit t in base k + 2:
    # every coordinate of a degree-k spinor lies in 0..k+1.
    base, codes = k + 2, _codes(k)
    digits = [base**t for t in range(6)]
    packed = [sum(map(mul, w, digits)) for w in _VARIABLE_WEIGHTS]
    # Row 1's variables weigh as row 0's, position by position, with c1 for c0, so a
    # row-1 monomial of degree d packs to its row-0 twin plus d * (base - 1).
    weights, (steps0, steps1) = [packed[s] for s in _ROWS[0]], ([codes[s] for s in row] for row in _ROWS)
    # [d]: packed weight -> (a, row-0 code, row-1 code, last raised variable) with |a| = d; each
    # monomial of degree d is one of degree d - 1 raised at or after its last raised variable.
    table = [{0: [((0,) * len(weights), 0, 0, 0)]}]
    for _ in range(k):
        by_weight: dict[int, list[tuple[Exponents, int, int, int]]] = {}
        for w, entries in table[-1].items():
            for a, code0, code1, last in entries:
                for i in range(last, len(weights)):
                    by_weight.setdefault(w + weights[i], []).append(
                        (a[:i] + (a[i] + 1,) + a[i + 1:], code0 + steps0[i], code1 + steps1[i], i))
        table.append(by_weight)
    # Dominance is read off the GL(4) digits f of w0 + w1 alone: the GL(2)
    # digits are d0 >= d1, and x12^m adds m to every coordinate.
    slots, gl4 = digits[2:], digits[2]
    dominant_slots: dict[int, list[tuple[int, int]]] = {}  # w // gl4 -> the (nu, f_nu) kept
    blocks: dict[int, list[tuple[int, int, Exponents]]] = {}
    for m in range(k // 2 + 1):
        for d1 in range((k - 2 * m) // 2 + 1):
            for w0, rows0 in table[k - 2 * m - d1].items():
                for w1, rows1 in table[d1].items():
                    w = w0 + w1 + d1 * (base - 1)
                    kept = dominant_slots.get(w // gl4)
                    if kept is None:  # the nu that make f + f_nu non-increasing
                        f0, f1, f2, f3 = [w // slot % base for slot in slots]
                        dominant = (f0 + 1 >= f1 >= f2 >= f3, f0 > f1 >= f2 - 1 and f2 >= f3,
                                    f0 >= f1 > f2 >= f3 - 1, f0 >= f1 >= f2 > f3)
                        kept = dominant_slots[w // gl4] = list(compress(enumerate(slots), dominant))
                    if kept:
                        w, x12 = w + m * packed[_X12], m * codes[_X12]
                        monomials = [(x12 + code0 + code1, _place((m,) + a + b))
                                     for a, code0, _, _ in rows0 for b, _, code1, _ in rows1]
                        for nu, f_nu in kept:
                            blocks.setdefault(w + f_nu, []).extend((c + nu, nu, e) for c, e in monomials)
    return {tuple(key // d % base for d in digits): sorted(cols, key=itemgetter(1, 0))
            for key, cols in blocks.items()}


def _block_rows(
    op: DiracOperator, k: int, blocks: Iterable[list[tuple[int, int, Exponents]]]
) -> Iterator[dict[int, dict[int, int]]]:
    """The rows of each block of degree-k columns (code + nu, nu, exps): output key -> {column: weight}.

    Row (j, mu, e) has the key code(e) + 4j + mu.  Codes are linear, so each
    plan entry's output sits at a fixed offset from a column's code + nu, read
    off one flat list of (variable, row offset, weight) per slot, in plan order.
    """
    codes = _codes(k)
    entries = [[(s, sum(map(mul, shift, codes)) + 4 * j + mu - nu, w) for s, shift, j, mu, w in slot]
               for nu, slot in enumerate(op.plan)]
    for columns in blocks:
        rows: dict[int, dict[int, int]] = {}
        for c, (key, nu, exps) in enumerate(columns):
            for s, offset, w in entries[nu]:
                m = exps[s]
                if m:
                    rows.setdefault(key + offset, {})[c] = m * w
        yield rows


def kernel_character(op: DiracOperator, k: int) -> dict[tuple[int, ...], int]:
    """The degree-k kernel by weight: each dominant lambda -> m_lambda = n_lambda - rank B_lambda.

    The operator preserves the torus weight w(e) + f_nu of x^e (x) f_nu, so
    its matrix splits into weight blocks B_lambda of n_lambda columns, and
    m_lambda is the kernel's dimension at weight lambda.  Each block is one
    sparse `matrix_rank` of its rows, one per output coordinate
    (`_block_rows`): rank(B) = rank(B^T), and a large kernel leaves fewer
    output rows than column images to eliminate.
    """
    _certify_weyl_symmetry(op)
    blocks = _dominant_blocks(k)
    return {
        lam: len(columns) - matrix_rank(list(rows.values()))
        for (lam, columns), rows in zip(blocks.items(), _block_rows(op, k, blocks.values()))
    }

