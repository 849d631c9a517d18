"""Exact rank, rref and nullspace via sparse integer elimination on primitive
rows, dense or {column: value}, checked against a Bareiss rank and a textbook
rational Gauss-Jordan oracle on random, rank-deficient and sparse matrices."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monogenic.laurent import exact_nullspace, matrix_rank, rref


def plain_gauss_jordan(rows, n_cols):
    # Independent oracle: textbook division-based Gauss-Jordan over Fraction;
    # returns the nonzero rows of the reduced row echelon form and the pivots.
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def bareiss_rank(rows, n_cols):
    # Independent oracle: Bareiss (1968) fraction-free elimination, which
    # rescales every row below each pivot and divides exactly by the previous
    # pivot; returns the number of pivots.
    m = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        lcm = math.lcm(*(f.denominator for f in fracs))
        m.append([int(f * lcm) for f in fracs])
    prev, r = 1, 0
    for c in range(n_cols):
        if r >= len(m):
            break
        best = None
        for i in range(r, len(m)):
            if m[i][c] and (best is None or abs(m[i][c]) < abs(m[best][c])):
                best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            mic = m[i][c]
            for k in range(c, n_cols):
                m[i][k] = (piv * m[i][k] - mic * m[r][k]) // prev
        prev = piv
        r += 1
    return r


def oracle_nullspace(rows, n_cols):
    # The canonical basis: one vector per free column f of the oracle's RREF,
    # with v[f] = 1, zero at the other free columns, and v[pivot] = -R[r][f].
    reduced, pivots = plain_gauss_jordan(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [Fraction(int(c == f)) for c in range(n_cols)]
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis


def test_identity_has_empty_nullspace():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert exact_nullspace(eye, n_cols=3) == []


def test_one_by_two():
    basis = exact_nullspace([[1, -1]], n_cols=2)
    assert basis == [[Fraction(1), Fraction(1)]]


def test_zero_map_gives_full_space():
    basis = exact_nullspace([], n_cols=3)
    assert len(basis) == 3


def test_sparse_rows_need_an_explicit_width():
    with pytest.raises(TypeError):  # the width is a required argument
        exact_nullspace([{0: 1}])
    assert exact_nullspace([{0: 1}], n_cols=2) == [[Fraction(0), Fraction(1)]]


def test_random_50_by_80_rank_nullity():
    rng = random.Random(7)
    rows = [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3 else Fraction(0)
            for _ in range(80)
        ]
        for _ in range(50)
    ]
    basis = exact_nullspace(rows, n_cols=80)
    rank = matrix_rank(rows)
    assert rank + len(basis) == 80
    assert rank == len(plain_gauss_jordan(rows, 80)[1])
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # basis vectors are linearly independent: stacking them has full rank
    assert matrix_rank(basis) == len(basis)


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entries = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    rows = [
        [draw(entries) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    return rows, n_cols


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_properties(data):
    rows, n_cols = data
    basis = exact_nullspace(rows, n_cols=n_cols)
    assert matrix_rank(rows) + len(basis) == n_cols
    assert matrix_rank(rows) == len(plain_gauss_jordan(rows, n_cols)[1])
    for v in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@st.composite
def rank_deficient_matrices(draw):
    # Fresh rows mixed with repeats, nonzero multiples of earlier rows and
    # zero rows, so ranks below min(rows, cols) and zero pivots are common.
    n_cols = draw(st.integers(1, 6))
    entries = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kinds = ("fresh", "repeat", "scaled", "zero") if rows else ("fresh",)
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            rows.append([draw(entries) for _ in range(n_cols)])
        elif kind == "zero":
            rows.append([Fraction(0)] * n_cols)
        else:
            factor = 1 if kind == "repeat" else draw(entries.filter(bool))
            rows.append([factor * v for v in draw(st.sampled_from(rows))])
    return rows, n_cols


@st.composite
def sparse_matrices(draw):
    # Mostly-zero matrices over (1/2)Z, possibly with 0 rows or 0 columns:
    # fresh rows, rows zero up to a drawn column (so zero in early pivot
    # columns), repeats, nonzero multiples of earlier rows and zero rows.
    # Zeros are ints and the other entries Fractions, as in the Dirac blocks.
    n_cols = draw(st.integers(0, 8))
    halves = st.integers(-6, 6).map(lambda k: Fraction(k, 2))

    def sparse_row(start=0):
        return [
            draw(halves) if c >= start and draw(st.integers(0, 3)) == 0 else 0
            for c in range(n_cols)
        ]

    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kinds = ("fresh", "late", "repeat", "scaled", "zero") if rows else ("fresh", "late", "zero")
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            rows.append(sparse_row())
        elif kind == "late":
            rows.append(sparse_row(draw(st.integers(0, n_cols))))
        elif kind == "zero":
            rows.append([0] * n_cols)
        else:
            factor = 1 if kind == "repeat" else draw(halves.filter(bool))
            rows.append([factor * v for v in draw(st.sampled_from(rows))])
    return rows, n_cols


@given(st.one_of(sparse_matrices(), small_matrices(), rank_deficient_matrices()))
@settings(max_examples=300, deadline=None)
def test_rref_and_nullspace_match_the_gauss_jordan_oracle(data):
    # The rank is checked against the Bareiss oracle as well, and the
    # {column: value} form of each row must give the same answers.  rref's
    # rows hold only their nonzero entries; they are widened for the oracle.
    rows, n_cols = data
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    reduced, pivots = plain_gauss_jordan(rows, n_cols)
    assert matrix_rank(rows) == bareiss_rank(rows, n_cols) == len(pivots)
    assert matrix_rank(sparse) == len(pivots)
    for rref_rows, rref_pivots in (rref(rows), rref(sparse)):
        assert rref_pivots == pivots
        assert all(all(row.values()) for row in rref_rows)
        assert [[row.get(c, 0) for c in range(n_cols)] for row in rref_rows] == reduced
    assert exact_nullspace(rows, n_cols=n_cols) == oracle_nullspace(rows, n_cols)
    assert exact_nullspace(sparse, n_cols=n_cols) == oracle_nullspace(rows, n_cols)


@st.composite
def sparse_integer_matrices(draw):
    n_cols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, n_cols - 1), st.integers(-3, 3), max_size=n_cols)
    return draw(st.lists(row, max_size=8)), n_cols


@given(sparse_integer_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_pivots_are_the_columns_the_later_columns_span(data):
    # The RREF pivots of the nullspace are its vectors' leading columns: the
    # columns in the span of the later ones, i.e. the non-pivots of the matrix
    # with its columns reversed (the rule that pins hwv candidates).
    rows, n_cols = data
    _, reversed_pivots = rref([{n_cols - 1 - c: v for c, v in row.items()} for row in rows])
    spanned = sorted(set(range(n_cols)).difference(n_cols - 1 - p for p in reversed_pivots))
    assert spanned == rref(exact_nullspace(rows, n_cols))[1]


@given(sparse_integer_matrices(), st.sampled_from(["primitive", "fraction", "dense"]))
@settings(max_examples=200, deadline=None)
def test_elimination_leaves_the_callers_rows_unchanged(data, form):
    # A primitive {column: int} row is used as it is, as a pivot or as the
    # row a multiplier of one copies; Fraction and dense rows are converted
    # first.  No form may be written to.
    rows, n_cols = data
    rows = [{c: v // math.gcd(*row.values()) for c, v in row.items() if v} for row in rows]
    if form == "fraction":
        rows = [{c: Fraction(v, c + 1) for c, v in row.items()} for row in rows]
    elif form == "dense":
        rows = [[row.get(c, 0) for c in range(n_cols)] for row in rows]
    before = copy.deepcopy(rows)
    matrix_rank(rows)
    rref(rows)
    exact_nullspace(rows, n_cols)
    assert rows == before
