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

from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Iterable, Iterator

from .charts import BASE, LINEAR_VARIABLES, move_pair
from .dirac import DiracOperator, _volume_coefficient
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


# The six variables of each GL(2) row j (column j of X1 and X2), in BASE order.
_ROWS = tuple(
    tuple(BASE.index[name] for name, (column, _) in LINEAR_VARIABLES.items() if column == j)
    for j in range(2)
)
# A block column's exponents are those of x12, row 0 and row 1, concatenated:
# BASE variable s sits at position _POSITION[s], and x12 at position 0.
_POSITION = tuple(map(((_X12,) + _ROWS[0] + _ROWS[1]).index, range(len(BASE))))


def _entry_weight(s: int, v: int | None, j: int, mu: int) -> tuple[int, ...]:
    """The weight a plan entry (s, v, j, mu, w) adds: w(x_v) - w(x_s) + c_j + (1, 1, 1, 1) - f_mu."""
    raised, lowered = _VARIABLE_WEIGHTS[v] if v is not None else _unit(), _VARIABLE_WEIGHTS[s]
    return tuple(r - l + c - f for r, l, c, f in zip(raised, lowered, _unit(j, 2, 3, 4, 5), _unit(2 + mu)))


class WeylGenerator(Record):
    """A simple reflection of S2 x S4 as signed permutations P of spinors and Q of output coordinates.

    P sends x^e (x) f_nu to the product of the images ``variables[s] =
    (target, sign)`` of its variables, times f_slots[nu]; Q sends the output
    coordinate (j, mu, e) to output_sign times (halves[j], slots[mu], the
    image of x^e).
    """

    # (target, sign) per BASE variable, the GL(2) and GL(4) axis permutations, and a sign
    __slots__ = ("variables", "halves", "slots", "output_sign")

    def weight(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The weight moved: c_j to c_halves[j] and f_a to f_slots[a]."""
        image = [0] * 6
        for t, v in zip(self.halves + tuple(2 + a for a in self.slots), w):
            image[t] = v
        return tuple(image)


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
    - the pairs (s, v) of one slot are distinct, and each plan entry keeps
      weight (`_entry_weight`).  Such an entry adds -3 to the coordinate sum,
      and a linear variable weighs 3, x12 6, so it is d/dx_s with s linear or
      x_v d/dx12 with v linear.  Neither `_column_image` nor `_block_rows`
      writes two entries to one key, and no packed key borrows across digits;
    - each generator moves the weight of every variable and slot as it moves
      weights, so P maps the columns of weight lambda onto those of g(lambda);
    - each generator carries every entry (s, v, j, mu, w) of slot nu onto an
      entry of slot slots[nu], namely (target of s, target of v, halves[j],
      slots[mu], output_sign * sign_s * sign_v * w).  An entry sends x^e (x)
      f_nu to e_s w x^(e - e_s + e_v) at output (j, mu); P moves e_s to the
      target's place, and both P and Q move exponents linearly and sign them
      multiplicatively.  The pairs of a slot are distinct, so the entries
      match one to one, and D P = Q D term by term on every polynomial spinor.
    """
    for nu, slot in enumerate(op.plan):
        if len({(s, v) for s, v, *_ in slot}) != len(slot):
            raise InternalCheckError(f"slot {nu}: two plan entries share a variable pair (s, v)")
        for s, v, j, mu, _ in slot:
            if _entry_weight(s, v, j, mu) != _unit(2 + nu):
                raise InternalCheckError(f"slot {nu}: the entry {s, v, j, mu} does not preserve weight")
    for g in WEYL_GENERATORS:
        targets = [t for t, _ in g.variables]
        if any(_VARIABLE_WEIGHTS[t] != g.weight(w) for t, w in zip(targets, _VARIABLE_WEIGHTS)) or any(
            _unit(2 + g.slots[nu]) != g.weight(_unit(2 + nu)) for nu in range(4)
        ):
            raise InternalCheckError(f"the Weyl generator {g.halves, g.slots} does not move weights")
        moves = dict(enumerate(g.variables)) | {None: (None, 1)}
        for nu, slot in enumerate(op.plan):
            moved = set()
            for s, v, j, mu, w in slot:
                (ts, sign_s), (tv, sign_v) = moves[s], moves[v]
                moved.add((ts, tv, g.halves[j], g.slots[mu], g.output_sign * sign_s * sign_v * w))
            if moved != set(op.plan[g.slots[nu]]):
                raise InternalCheckError(
                    f"the operator does not commute with the Weyl generator {g.halves, g.slots} "
                    f"on slot {nu}"
                )


# |S4.f| = 24 / |stabiliser of f| for a non-increasing f, at (f0 == f1) + 2 (f1 == f2) + 4 (f2 == f3).
_S4_ORBITS = (24, 12, 12, 4, 12, 6, 4, 1)


def _orbit_size(w: tuple[int, ...]) -> int:
    """|W.w| for W = S2 x S4 and w dominant, read off which adjacent coordinates are equal."""
    c0, c1, f0, f1, f2, f3 = w
    return (1 if c0 == c1 else 2) * _S4_ORBITS[(f0 == f1) + 2 * (f1 == f2) + 4 * (f2 == f3)]


def _codes(k: int) -> list[int]:
    """Each BASE variable's step 8 * (k + 1)^t, big-endian: a code reads exponents 0..k as digits."""
    return [8 * (k + 1) ** t for t in reversed(range(len(BASE)))]


def _majors(k: int) -> list[int]:
    """Each slot's sort-key base nu * span, with span = 8 * (k + 1)^len(BASE) above every code."""
    span = 8 * (k + 1) ** len(BASE)
    return [nu * span for nu in range(4)]


def _dominant_blocks(k: int) -> dict[tuple[int, ...], list[tuple[int, int, Exponents]]]:
    """The degree-k columns (major + code, nu, exps) of each dominant weight, sorted slot-major.

    A degree-k monomial is x12^m times monomials of degrees d0 and d1 in the
    six variables of GL(2) rows 0 and 1, and c0 - c1 = d0 - d1, so only
    d0 >= d1 can be dominant.  One table of monomials by weight serves both
    rows, built a degree at a time, and a pair of its groups is assembled
    only for the slots nu that make the sum dominant.  A monomial's code
    (`_codes`) is summed from its x12, row-0 and row-1 parts, and its
    exponents are theirs concatenated, (m,) + a + b (`_POSITION`).  Slot nu
    adds its major (`_majors`), so one int sorts a block by (nu, code),
    which is (nu, exps): `_echelon`'s cost depends on the order, and this one
    takes 20 to 29 % fewer row operations than (exps, nu) at k = 5..9.
    """
    if k < 0:
        raise PreconditionError("degree must be non-negative")
    # Weights are packed into one int, coordinate t as digit t in base k + 2:
    # every coordinate of a degree-k spinor lies in 0..k+1.
    base, codes, majors = k + 2, _codes(k), _majors(k)
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
    candidates = list(zip(range(4), majors, slots))  # (nu, major, f_nu)
    dominant_slots: dict[int, list[tuple[int, int, int]]] = {}  # w // gl4 -> the candidates kept
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
                        kept = dominant_slots[w // gl4] = list(compress(candidates, dominant))
                    if kept:
                        w, x12 = w + m * packed[_X12], m * codes[_X12]
                        joined = [(x12 + code0 + code1, (m,) + a + b)
                                  for a, code0, _, _ in rows0 for b, _, code1, _ in rows1]
                        for nu, major, f_nu in kept:
                            blocks.setdefault(w + f_nu, []).extend([(major + c, nu, e) for c, e in joined])
    for cols in blocks.values():
        cols.sort()
    return {tuple(key // d % base for d in digits): cols for key, cols in blocks.items()}


def _block_rows(
    plan: tuple[tuple[tuple, ...], ...], k: int, blocks: Iterable[list[tuple[int, int, Exponents]]]
) -> Iterator[dict[int, dict[int, int]]]:
    """The rows of each block of columns (major + code, nu, exps): output key -> {column: weight}.

    Row (j, mu, e) has the key code(e) + 4j + mu.  Codes are linear, so each
    entry (s, v, j, mu, w) of a certified plan (`_certify_weyl_symmetry`)
    writes at a fixed offset from a column's major + code: 4j + mu - major -
    code(x_s), plus code(x_v) for a central entry, whose x_s is x12 at
    position 0 of a column's exponents.  A column reads its central entries
    only when it has x12.
    """
    codes = _codes(k)
    offsets = [
        ([(codes[v] - codes[_X12] + 4 * j + mu - major, w) for s, v, j, mu, w in slot if s == _X12],
         [(_POSITION[s], 4 * j + mu - major - codes[s], w) for s, v, j, mu, w in slot if s != _X12])
        for slot, major in zip(plan, _majors(k))
    ]
    for columns in blocks:
        rows: dict[int, dict[int, int]] = {}
        for c, (key, nu, exps) in enumerate(columns):
            central, lowering = offsets[nu]
            for p, offset, w in lowering:
                m = exps[p]
                if m:
                    rows.setdefault(key + offset, {})[c] = m * w
            m = exps[0]
            if m:
                for offset, w in central:
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
        for (lam, columns), rows in zip(blocks.items(), _block_rows(op.plan, k, blocks.values()))
    }

