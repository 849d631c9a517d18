"""The constructed operator pair: Clifford data, calibration, graded kernels."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monogenic import laurent
from monogenic.calibration import (
    build_calibrated,
    find_calibration,
    reference_monogenic_spinors,
)
from monogenic.charts import BASE, LINEAR_VARIABLES, Z_VARS
from monogenic.cochain import CochainSection
from monogenic.dirac import (
    DiracOperator,
    _column_image,
    apply_2dirac,
    build_dirac,
    central_bracket,
    clifford_matrix,
    graded_kernel_dim,
    is_monogenic,
    wedge_pair_sign,
)
from monogenic.laurent import (
    InternalCheckError,
    LaurentPoly,
    PreconditionError,
    accumulate,
    matrix_rank,
)
from monogenic.repn import decompose_Mk
from monogenic.transform import SpinorField, penrose_transform
from monogenic.weyl import (
    _POSITION,
    WEYL_GENERATORS,
    _block_rows,
    _certify_weyl_symmetry,
    _dominant_blocks,
    _entry_weight,
    _orbit_size,
    _unit,
    kernel_character,
)

from graded_algebra import (
    GRADE1_BASIS,
    basis_matrix,
    center_coefficient,
    central_corrections,
    degree_exponents,
    matrix_commutator,
    monomial_weight,
    weight_columns,
    weighted_degree,
)


def calibrated():
    config, _ = find_calibration()
    return build_calibrated(config)


def spinor(*components):
    return SpinorField(tuple(components))


# The oracle's own statement of the convention: the six null directions of
# C^6 = Lambda^2 C^4 as signed 2-forms, and the direction of each grade -1
# basis element (block, row): X1 rows take the ebar directions, X2 rows the e ones.
LAMBDA2_IMAGE = {
    "e3": ((0, 1), 1), "e4": ((0, 2), 1), "e5": ((0, 3), 1),
    "eb3": ((2, 3), 1), "eb4": ((1, 3), -1), "eb5": ((1, 2), 1),
}
DIRECTION = {(1, i): f"eb{i + 3}" for i in range(3)} | {(2, i): f"e{i + 3}" for i in range(3)}


def basis_var(block, i, j):
    return f"x{block}_{i + 1}{j + 1}"


@lru_cache(maxsize=None)
def fraction_stencils(epsilon, clifford_norm):
    # Oracle: the operator written down as Fraction stencils, independently of
    # the integer plan.  stencils[j] holds one (Clifford matrix times the norm,
    # derivative variable, x12 correction times epsilon) triple per direction;
    # the corrections come from the commutator oracle.
    corrections = central_corrections()
    return tuple(
        tuple(
            (
                tuple(
                    tuple(clifford_norm * v for v in row)
                    for row in clifford_matrix(LAMBDA2_IMAGE[DIRECTION[block, i]])
                ),
                basis_var(block, i, j),
                corrections[block, i, j].scale(epsilon),
            )
            for i in range(3)
            for block in (1, 2)
        )
        for j in range(2)
    )


def stencil_apply_2dirac(conventions, spinor):
    # Oracle: clifford @ (d/dvar + correction * d/dx12) summed over the stencils.
    results = []
    for stencil in fraction_stencils(*conventions):
        parts = [[], [], [], []]
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


def fraction_column_image(conventions, nu, exps):
    # Oracle: the image of one basis spinor read straight off the Fraction
    # stencils, d/dvar and the x12 correction term by term.
    image = {}
    x12 = BASE.index["x12"]
    for j, stencil in enumerate(fraction_stencils(*conventions)):
        for matrix, var, correction in stencil:
            column = [matrix[mu][nu] for mu in range(4)]
            if not any(column):
                continue
            pieces = []
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
                ((j, mu, e), column[mu] * c) for mu in range(4) if column[mu] for e, c in pieces
            ))
    return image


def blockwise_kernel_dim(conventions, k):
    # Oracle: split the Fraction operator matrix into the connected components
    # of its sparsity graph (union-find over shared output coordinates) and add
    # up the nullities of the dense blocks.
    columns = [(nu, exps) for nu in range(4) for exps in degree_exponents(k)]
    images = {col: fraction_column_image(conventions, *col) for col in columns}
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for image in images.values():
        keys = list(image)
        for key in keys[1:]:
            parent[find(key)] = find(keys[0])
    groups = {}
    nullity = 0
    for col, image in images.items():
        if image:
            groups.setdefault(find(next(iter(image))), []).append(col)
        else:
            nullity += 1  # annihilated outright (e.g. constants)
    for cols in groups.values():
        row_keys = sorted({key for col in cols for key in images[col]})
        dense = [[images[col].get(key, 0) for col in cols] for key in row_keys]
        nullity += len(cols) - matrix_rank(dense)
    return nullity


def global_kernel_dim(op, k):
    # Oracle: every basis spinor's integer image is one sparse row over int ids
    # of the output coordinates, and the nullity is the column count minus one
    # global `matrix_rank` of those rows, with no weights and no Weyl group.
    row_id = {}
    images = [
        {row_id.setdefault(key, len(row_id)): w for key, w in _column_image(op, nu, exps).items()}
        for nu in range(4)
        for exps in degree_exponents(k)
    ]
    return len(images) - matrix_rank(images)


def test_the_variable_table_is_the_oracle_convention():
    assert LINEAR_VARIABLES == {
        basis_var(block, i, j): (j, LAMBDA2_IMAGE[DIRECTION[block, i]])
        for block in (1, 2) for i in range(3) for j in range(2)
    }
    assert BASE.names == ("x12", *LINEAR_VARIABLES)


def test_clifford_wedge_examples():
    c = clifford_matrix(LAMBDA2_IMAGE["e3"])
    # f0^f1 wedged with f2 pairs against f3 positively; with f0 it vanishes.
    assert [c[mu][2] for mu in range(4)] == [0, 0, 0, 1]
    assert [c[mu][0] for mu in range(4)] == [0, 0, 0, 0]


def test_clifford_matrices_have_two_entries_each():
    for pair in LAMBDA2_IMAGE.values():
        c = clifford_matrix(pair)
        assert sum(1 for row in c for v in row if v) == 2


def quadratic_form(coefficients):
    """Q(alpha) with alpha = sum over directions, via alpha ^ alpha = Q * vol."""
    return sum(
        Fraction(ca) * Fraction(cb) * wedge_pair_sign(LAMBDA2_IMAGE[da], LAMBDA2_IMAGE[db])
        for da, ca in coefficients.items()
        for db, cb in coefficients.items()
    )


def test_quadratic_form_normalization():
    for i, (e, eb) in enumerate((("e3", "eb3"), ("e4", "eb4"), ("e5", "eb5"))):
        assert quadratic_form({e: 1}) == 0
        assert quadratic_form({eb: 1}) == 0
        assert quadratic_form({e: 1, eb: 1}) == 2
    # mixed pairs are h-orthogonal
    assert quadratic_form({"e3": 1, "eb4": 1}) == 0
    assert quadratic_form({"e4": 1, "eb5": 1}) == 0


def test_calibration_is_deterministic_and_unique():
    config, attempts = find_calibration()
    assert config.epsilon == 1
    assert config.clifford_norm == Fraction(1)
    assert attempts[0]["reference_monogenic"] == [True, True, True]
    assert attempts[1]["reference_monogenic"] == [True, True, False]


def test_reference_spinors_are_monogenic():
    op = calibrated()
    for s in reference_monogenic_spinors():
        assert is_monogenic(op, s)


def test_wrong_sign_fails_third_reference():
    op = build_dirac(-1, 1)
    refs = reference_monogenic_spinors()
    assert is_monogenic(op, refs[0])
    assert not is_monogenic(op, refs[2])


def test_bad_build_arguments():
    with pytest.raises(PreconditionError):
        build_dirac(2, 1)
    with pytest.raises(PreconditionError):
        build_dirac(1, 0)


def test_constants_are_monogenic():
    op = calibrated()
    one = LaurentPoly.constant(BASE, 1)
    zero = LaurentPoly.zero(BASE)
    assert is_monogenic(op, spinor(one, zero, zero, zero))
    first, second = apply_2dirac(op, spinor(one, one, one, one))
    assert all(p.is_zero() for p in first + second)


def test_operator_is_homogeneous_of_degree_minus_one():
    op = calibrated()
    rng = random.Random(17)
    names = list(BASE.names)
    for _ in range(30):
        powers = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(names)
            powers[v] = powers.get(v, 0) + 1
        p = LaurentPoly.monomial(BASE, powers)
        (exps,) = p.terms
        k = weighted_degree(exps)
        zero = LaurentPoly.zero(BASE)
        field = spinor(p, zero, p, zero)
        for half in apply_2dirac(op, field):
            for comp in half:
                for image_exps in comp.terms:
                    assert weighted_degree(image_exps) == k - 1


def hilbert_dimension(k):
    # dim M_k = 4 C(k + 9, 9): the Hilbert series 4 / (1 - t)^10 (ROADMAP item 17).
    return 4 * math.comb(k + 9, 9)


def test_graded_kernel_dimensions_match_the_enumeration():
    op = calibrated()
    for k in range(6):
        assert sum(d.dimension for _, d in decompose_Mk(k)) == hilbert_dimension(k)
        assert graded_kernel_dim(op, k) == hilbert_dimension(k)


def assert_kernel_dimension(k):
    assert sum(d.dimension for _, d in decompose_Mk(k)) == hilbert_dimension(k)
    assert graded_kernel_dim(calibrated(), k) == hilbert_dimension(k)


def test_graded_kernel_dimension_degree_six():
    assert_kernel_dimension(6)


def test_graded_kernel_dimension_degree_seven():
    assert_kernel_dimension(7)


def test_graded_kernel_dimension_degree_eight():
    assert_kernel_dimension(8)


@pytest.mark.slow
def test_graded_kernel_dimension_degree_nine():
    assert_kernel_dimension(9)


def test_degree_basis_sizes():
    assert len(degree_exponents(0)) == 1
    assert len(degree_exponents(1)) == 12
    assert len(degree_exponents(2)) == 79
    assert len(degree_exponents(4)) == 1444


def test_closed_form_bracket_is_the_commutator_bracket():
    for v in GRADE1_BASIS:
        for u in GRADE1_BASIS:
            bracket = matrix_commutator(basis_matrix(*v), basis_matrix(*u))
            outside = [bracket[r][c] for r in range(10) for c in range(10) if r < 8 or c > 1]
            assert not any(outside), (v, u)
            assert central_bracket(basis_var(*v), basis_var(*u)) == center_coefficient(bracket), (v, u)
    # The operator carries epsilon * kappa/2 * x_v on every d/dx12: the image
    # of x12 in each slot is exactly the oracle's.
    (x12,) = LaurentPoly.variable(BASE, "x12").terms
    for conventions in ((1, 1), (-1, Fraction(2, 3))):  # (1, 1) is the calibrated operator
        op = build_dirac(*conventions)
        for nu in range(4):
            expected = {key: op.scale * c for key, c in fraction_column_image(conventions, nu, x12).items()}
            assert expected and _column_image(op, nu, x12) == expected


def test_integer_column_image_is_the_scaled_fraction_image():
    for conventions in ((1, 1), (-1, Fraction(2, 3))):  # (1, 1) is the calibrated operator
        op = build_dirac(*conventions)
        for k in range(4):
            for nu in range(4):
                for exps in degree_exponents(k):
                    expected = {
                        key: op.scale * v for key, v in fraction_column_image(conventions, nu, exps).items()
                    }
                    assert _column_image(op, nu, exps) == expected


# Random spinors over the base: up to four terms per slot, x12 (slot 0) up to
# cubed, so the correction terms act and the fields are almost never monogenic.
base_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), *[st.integers(0, 2)] * (len(BASE) - 1)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    max_size=4,
).map(lambda terms: LaurentPoly(BASE, terms))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(((1, 1), (-1, 1), (-1, Fraction(2, 3)))),
    st.tuples(base_polys, base_polys, base_polys, base_polys).map(SpinorField),
)
def test_apply_2dirac_is_the_stencil_operator(conventions, field):
    op = build_dirac(*conventions)  # (1, 1) is the calibrated operator
    assert apply_2dirac(op, field) == stencil_apply_2dirac(conventions, field)


OPERATORS = ((1, 1), (-1, 1), (-1, Fraction(2, 3)))  # (1, 1) is the calibrated operator


@pytest.mark.parametrize("conventions", OPERATORS)
def test_orbit_count_agrees_with_the_global_rank(conventions):
    op = build_dirac(*conventions)
    for k in range(6):
        assert graded_kernel_dim(op, k) == global_kernel_dim(op, k)


def is_dominant(weight):
    # The largest weight of its Weyl orbit: both parts non-increasing.
    return all(list(part) == sorted(part, reverse=True) for part in (weight[:2], weight[2:]))


def base_order(exps):
    # A block column's exponents (x12, row 0, row 1) in BASE order.
    return tuple(exps[p] for p in _POSITION)


def test_dominant_blocks_are_the_oracle_partition():
    # The directly built blocks hold exactly the dominant columns that one
    # pass over every (monomial, slot) column finds, slot-major: in (nu, exps)
    # order; each column's leading sort key is stripped first.
    for k in range(7):
        expected = {lam: sorted(cols) for lam, cols in weight_columns(k).items() if is_dominant(lam)}
        blocks = {lam: [(nu, base_order(exps)) for _, nu, exps in cols]
                  for lam, cols in _dominant_blocks(k).items()}
        assert blocks == expected, k


def test_block_ranks_take_at_most_the_pinned_row_operations(monkeypatch):
    # `_echelon` makes a row primitive once per input row and once per row
    # operation that leaves a nonzero row, so this count is the elimination's
    # work; the block's column order sets it.  Slot-major order pins these
    # figures; the (exps, nu) order took 1592 and 8483 at k = 5 and 6.  At
    # k = 7 the rank is most of the kernel's time.
    calls, primitive = 0, laurent._primitive

    def counting(row):
        nonlocal calls
        calls += 1
        return primitive(row)

    monkeypatch.setattr(laurent, "_primitive", counting)
    op = calibrated()
    for k, most in ((5, 1390), (6, 7048), (7, 17970)):
        calls = 0
        kernel_character(op, k)
        assert calls <= most, k


def test_dominant_blocks_count_every_column():
    # Each block stands for its whole Weyl orbit, so the orbit-weighted block
    # sizes add up to the 4 * (number of degree-k monomials) columns; a lost
    # or doubled column shows here at degrees too large for the oracle.
    sizes = [48, 316, 1504, 5776, 18976, 55280, 146272, 357608, 818112]
    for k, size in enumerate(sizes, start=1):
        monomials = sum(math.comb(k - 2 * m + 11, 11) for m in range(k // 2 + 1))
        blocks = _dominant_blocks(k)
        assert all(is_dominant(lam) for lam in blocks)
        assert sum(_orbit_size(lam) * len(cols) for lam, cols in blocks.items()) == 4 * monomials == size
    with pytest.raises(PreconditionError):
        _dominant_blocks(-1)


def multinomial_orbit_size(w):
    # Oracle: |W.w| for W = S2 x S4 is the product of the two parts' multinomials.
    size = 1
    for part in (w[:2], w[2:]):
        size *= math.factorial(len(part))
        for v in set(part):
            size //= math.factorial(part.count(v))
    return size


def test_orbit_size_is_the_multinomial():
    # Every dominant weight of a degree-k spinor, k <= 9 (c sums to k and f to 2k + 1), and
    # every dominant weight with coordinates 0..3, which meets the two patterns of f an odd
    # sum never has, f0 = f1 > f2 = f3 and all four equal.
    spinor_weights = [c + f for k in range(10) for c in partitions(k, 2, k)
                      for f in partitions(2 * k + 1, 4, 2 * k + 1)]
    for w in spinor_weights + [w for w in product(range(4), repeat=6) if is_dominant(w)]:
        assert _orbit_size(w) == multinomial_orbit_size(w), w


def decode_output_key(key, k):
    # An output key is 8 * packed(e) + 4j + mu, packed(e) the exponents read
    # as big-endian digits in base k + 1.
    code, (j, mu) = key // 8, divmod(key % 8, 4)
    digits = []
    for _ in range(len(BASE)):
        code, digit = divmod(code, k + 1)
        digits.append(digit)
    assert code == 0, key
    return j, mu, tuple(reversed(digits))


@pytest.mark.parametrize("conventions", OPERATORS)
def test_block_rows_are_the_transposed_column_images(conventions):
    # Each block's rows, their keys decoded, are the transpose of the integer
    # column images on its columns; two outputs packed to one key would merge
    # two rows here even where the rank stays the same.
    op = build_dirac(*conventions)
    for k in range(6):
        blocks = _dominant_blocks(k)
        rows_of_blocks = _block_rows(op.plan, k, blocks.values())
        for columns, rows in zip(blocks.values(), rows_of_blocks):
            transposed = {}
            for c, (_, nu, exps) in enumerate(columns):
                for out, w in _column_image(op, nu, base_order(exps)).items():
                    transposed.setdefault(out, {})[c] = w
            decoded = {decode_output_key(key, k): row for key, row in rows.items()}
            assert decoded == transposed, k


def test_kernel_character_is_the_per_weight_nullity():
    # Oracle: the global matrix of every column's integer image, restricted to
    # the columns of one weight mu, has nullity m_lambda for lambda the
    # dominant weight of mu's orbit; the nullities over all weights add up to
    # the global nullity, so the weight blocks split the matrix.
    op = calibrated()
    for k in range(5):
        row_id = {}
        columns = weight_columns(k)
        nullity = {
            mu: len(cols) - matrix_rank([
                {row_id.setdefault(key, len(row_id)): w for key, w in _column_image(op, *col).items()}
                for col in cols
            ])
            for mu, cols in columns.items()
        }
        character = kernel_character(op, k)
        assert set(character) == {mu for mu in columns if is_dominant(mu)}
        for mu, m in nullity.items():
            dominant = tuple(sorted(mu[:2], reverse=True)) + tuple(sorted(mu[2:], reverse=True))
            assert character[dominant] == m, (k, mu)
        assert sum(nullity.values()) == global_kernel_dim(op, k) == graded_kernel_dim(op, k)


@lru_cache(maxsize=None)
def kostka(shape, content):
    # K_{shape, content}: the Gelfand-Tsetlin patterns with top row `shape`
    # and weight `content`.  The row below a row of length n interlaces it,
    # shape[i + 1] <= below[i] <= shape[i], and is shorter by content[-1].
    if len(shape) == 1:
        return int(shape == content)
    size = sum(shape) - content[-1]
    return sum(
        kostka(below, content[:-1])
        for below in product(*(range(shape[i + 1], shape[i] + 1) for i in range(len(shape) - 1)))
        if sum(below) == size
    )


def partitions(size, parts, largest):
    # The non-increasing tuples of `parts` non-negative ints, each at most `largest`, summing to `size`.
    if parts == 1:
        return [(size,)] if size <= largest else []
    return [(first,) + rest for first in range(min(size, largest), -1, -1)
            for rest in partitions(size - first, parts - 1, first)]


def predicted_character(k):
    # Oracle: {dominant weight: multiplicity} of the degree-k summands.  Label
    # (a, b, l) has GL(2) weights (l+a+b-i, l+a+i), i = 0..b, and GL(4) weight
    # multiplicities K_{nu,f} with nu = (2a+b+1+l, a+b+l, a+l, l).
    character = {}
    for label, _ in decompose_Mk(k):
        a, b, l = label.a, label.b, label.l
        nu = (2 * a + b + 1 + l, a + b + l, a + l, l)
        for i in range(b // 2 + 1):  # the dominant GL(2) weights
            for f in partitions(sum(nu), 4, sum(nu)):
                if multiplicity := kostka(nu, f):
                    lam = (l + a + b - i, l + a + i) + f
                    character[lam] = character.get(lam, 0) + multiplicity
    return character


@pytest.mark.parametrize("k", [*range(8), *(pytest.param(k, marks=pytest.mark.slow) for k in (8, 9))])
def test_kernel_character_is_the_decomposition(k):
    # At every dominant weight the kernel's dimension is the multiplicity the
    # summand labels predict (ROADMAP item 3's cross-check).
    character = kernel_character(calibrated(), k)
    assert {lam: m for lam, m in character.items() if m} == predicted_character(k)


def weighted_monomials(k):
    # P_k: the number of base monomials of weighted degree k (x12 weighs 2), 0 below degree 0.
    return sum(math.comb(k - 2 * m + 11, 11) for m in range(k // 2 + 1)) if k >= 0 else 0


def output_counts(d):
    # Oracle: the number of degree-d output coordinates (j, mu, e) at each dominant
    # weight w(e) + c_j + (1, 1, 1, 1) - f_mu, reached by a column or not.
    counts = {}
    for exps in degree_exponents(d) if d >= 0 else []:
        w = monomial_weight(exps)
        for j, mu in product(range(2), range(4)):
            lam = tuple(a + c - f for a, c, f in zip(w, _unit(j, 2, 3, 4, 5), _unit(2 + mu)))
            if is_dominant(lam):
                counts[lam] = counts.get(lam, 0) + 1
    return counts


def cokernel_character(op, k):
    # The cokernel of D on degree-k spinors by dominant weight: the output coordinates of
    # weight lambda less rank B_lambda = n_lambda - m_lambda, or 0 where no column reaches lambda.
    blocks, character = _dominant_blocks(k), kernel_character(op, k)
    return {lam: n - (len(blocks[lam]) - character[lam] if lam in blocks else 0)
            for lam, n in output_counts(k - 1).items()}


def test_the_cokernel_by_weight_has_the_hilbert_series_dimension():
    # ROADMAP item 18: D maps 4 P_k spinors to 8 P_(k - 1) outputs with rank
    # 4 P_k - 4 C(k + 9, 9), so the cokernel, summed over Weyl orbits, is
    # 8 P_(k - 1) - 4 P_k + 4 C(k + 9, 9), and no weight has a negative share.
    op, totals = calibrated(), []
    for k in range(8):
        coker = cokernel_character(op, k)
        assert min(coker.values(), default=0) >= 0, k
        totals.append(sum(_orbit_size(lam) * c for lam, c in coker.items()))
        assert totals[k] == 8 * weighted_monomials(k - 1) - 4 * weighted_monomials(k) + hilbert_dimension(k)
        if k == 3:
            # D is onto for k <= 2; the first cokernel is one Weyl orbit of 8 weights, so
            # the next operator of the complex, D2, starts with 8 components at output degree 2.
            assert {lam: c for lam, c in coker.items() if c} == {(2, 1, 2, 2, 2, 1): 1}
            assert _orbit_size((2, 1, 2, 2, 2, 1)) == 8
    assert totals == [0, 0, 0, 8, 92, 584, 2692, 10048]


def moved_monomial(g, exps):
    # (sign, exponents) of the image of x^e under the generator's P.
    image, sign = [0] * len(exps), 1
    for (target, s), e in zip(g.variables, exps):
        image[target] = e
        if s < 0 and e % 2:
            sign = -sign
    return sign, tuple(image)


def weyl_image(g, op, nu, exps):
    # Oracle: D(P(x^e (x) f_nu)) as a column image.
    sign, moved = moved_monomial(g, exps)
    return {key: sign * w for key, w in _column_image(op, g.slots[nu], moved).items()}


def moved_weyl_image(g, op, nu, exps):
    # Oracle: Q(D(x^e (x) f_nu)) as a column image.
    out = {}
    for (j, mu, e), w in _column_image(op, nu, exps).items():
        sign, moved = moved_monomial(g, e)
        out[g.halves[j], g.slots[mu], moved] = g.output_sign * sign * w
    return out


def commutes(op, spinors):
    # D P = Q D for every generator on the basis spinors x^e (x) f_nu, e in `spinors`.
    return all(
        weyl_image(g, op, nu, exps) == moved_weyl_image(g, op, nu, exps)
        for g in WEYL_GENERATORS for nu in range(4) for exps in spinors
    )


# The thirteen linear spinors' exponents: D P = Q D on them is D P = Q D on every polynomial spinor.
UNITS = [tuple(int(t == s) for t in range(len(BASE))) for s in range(len(BASE))]


@pytest.mark.parametrize("conventions", OPERATORS)
def test_weyl_generators_commute_with_the_plan(conventions):
    # D(P(x^e f_nu)) = Q(D(x^e f_nu)) on every basis spinor of degree 1 and 2,
    # beyond the linear spinors the certificate's plan invariance stands for.
    op = build_dirac(*conventions)
    for g in WEYL_GENERATORS:
        for nu in range(4):
            for exps in degree_exponents(1) + degree_exponents(2):
                assert weyl_image(g, op, nu, exps) == moved_weyl_image(g, op, nu, exps), (g, nu, exps)


def with_entry(op, nu, e, entry):
    # The operator with plan entry e of slot nu replaced.
    plan = list(op.plan)
    plan[nu] = plan[nu][:e] + (entry,) + plan[nu][e + 1:]
    return DiracOperator(tuple(plan), op.scale)


X12 = BASE.index["x12"]
LINEAR = range(1, len(BASE))  # the BASE indices of the twelve linear variables


def test_a_weight_keeping_entry_is_a_derivative_or_a_central_term():
    # The certificate checks no shape: an entry (s, v, j, mu) that keeps the
    # weight of slot nu adds -3 to the coordinate sum, and a linear variable
    # weighs 3, x12 6, so it is d/dx_s with s linear or x_v d/dx12 with v linear.
    kept = set()
    variables = range(len(BASE))
    for nu, s, v, j, mu in product(range(4), variables, (None, *variables), range(2), range(4)):
        if _entry_weight(s, v, j, mu) == _unit(2 + nu):
            kept.add((nu, s, v, j, mu))
            assert (s in LINEAR and v is None) or (s == X12 and v in LINEAR), (nu, s, v, j, mu)
    # Weight alone leaves exactly the 48 places the calibrated plan fills.
    plan = calibrated().plan
    assert kept == {(nu, s, v, j, mu) for nu, slot in enumerate(plan) for s, v, j, mu, _ in slot}


def test_a_broken_plan_fails_the_certificate():
    op = calibrated()
    for nu, slot in enumerate(op.plan):
        for e, (s, v, j, mu, w) in enumerate(slot):
            # Negating any one output weight breaks the Weyl symmetry.
            with pytest.raises(InternalCheckError, match="does not commute"):
                graded_kernel_dim(with_entry(op, nu, e, (s, v, j, mu, -w)), 2)
            # Sending it to another output slot breaks the weight blocks.
            with pytest.raises(InternalCheckError, match="does not preserve weight"):
                graded_kernel_dim(with_entry(op, nu, e, (s, v, j, (mu + 1) % 4, w)), 2)
            # A central entry that raises nothing, or a lowering entry that also
            # raises a linear variable, changes the weight.
            broken = (s, None, j, mu, w) if s == X12 else (s, 1 + s % 12, j, mu, w)
            with pytest.raises(InternalCheckError, match="does not preserve weight"):
                graded_kernel_dim(with_entry(op, nu, e, broken), 2)
        # Two entries with one pair (s, v) would overwrite each other's images.
        with pytest.raises(InternalCheckError, match="share a variable pair"):
            graded_kernel_dim(with_entry(op, nu, 1, slot[0]), 2)
    # Every entry read as multiplying by x12, the same way in all slots.  An
    # entry names the one variable it both multiplies by and lowers, so the
    # six lowering entries of each slot all become d/dx12, and their pairs repeat.
    misread = DiracOperator(tuple(tuple((X12,) + t[1:] for t in slot) for slot in op.plan), op.scale)
    with pytest.raises(InternalCheckError, match="share a variable pair"):
        graded_kernel_dim(misread, 2)


def certified(op):
    # The Weyl certificate's verdict, outside its per-operator cache.
    try:
        _certify_weyl_symmetry.__wrapped__(op)
    except InternalCheckError as error:
        return str(error)
    return None


def test_the_certificate_agrees_with_the_commutation_oracle():
    # The certificate accepts exactly the plans on which the generators commute
    # with D on the linear spinors: four operators, and every single-entry
    # perturbation of the calibrated plan below (264 plans).
    for conventions in OPERATORS + ((1, Fraction(-5, 7)),):
        op = build_dirac(*conventions)
        assert certified(op) is None and commutes(op, UNITS), conventions
    op = calibrated()
    for nu, slot in enumerate(op.plan):
        for e, (s, v, j, mu, w) in enumerate(slot):
            perturbed = {
                "weight negated": (s, v, j, mu, -w),
                "weight doubled": (s, v, j, mu, 2 * w),
                "another output slot": (s, v, j, (mu + 1) % 4, w),
                "the other GL(2) half": (s, v, 1 - j, mu, w),
            }
            if s == X12:  # a central entry raises another linear variable, or none
                perturbed |= {"another raised variable": (s, 1 + v % 12, j, mu, w),
                              "no raised variable": (s, None, j, mu, w)}
            else:  # a lowering entry also raises a linear variable
                perturbed["a raised variable"] = (s, 1 + s % 12, j, mu, w)
            for change, entry in perturbed.items():
                broken = with_entry(op, nu, e, entry)
                verdict = certified(broken)
                assert (verdict is None) == commutes(broken, UNITS), (nu, e, change)
                # A weight-keeping change is caught by plan invariance itself.
                if change.startswith("weight"):
                    assert verdict is not None and "does not commute" in verdict, (nu, e, change)


def test_one_sparse_rank_agrees_with_the_blockwise_oracle():
    op = calibrated()  # the conventions (1, 1)
    for k in range(5):
        assert graded_kernel_dim(op, k) == blockwise_kernel_dim((1, 1), k)


def test_block_decomposition_agrees_with_one_dense_elimination():
    # The component-wise nullity must equal the nullity of the full stacked
    # matrix computed in one plain exact elimination.
    from monogenic.laurent import exact_nullspace

    op = calibrated()
    for k in (1, 2):
        basis = degree_exponents(k)
        columns = [(nu, exps) for nu in range(4) for exps in basis]
        images = [_column_image(op, nu, exps) for nu, exps in columns]
        row_keys = sorted({key for image in images for key in image})
        dense = [
            [images[c].get(key, 0) for c in range(len(columns))] for key in row_keys
        ]
        assert len(exact_nullspace(dense, n_cols=len(columns))) == graded_kernel_dim(op, k)


def test_transform_images_are_monogenic():
    op = calibrated()
    rng = random.Random(31)
    for _ in range(25):
        z = {}
        for _ in range(rng.randint(0, 4)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        f = CochainSection.monomial(
            s0=rng.randint(0, 2), z=z, poles=tuple(rng.randint(-1, 4) for _ in range(3))
        )
        assert is_monogenic(op, penrose_transform(f))
