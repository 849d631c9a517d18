"""The incidence substitution in closed form, against the chart frames and transitions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monogenic.charts import (
    BASE,
    CORRESPONDENCE,
    TWISTOR,
    Z_VARS,
    ZETA_VARS,
    correspondence_substitution,
    term_data,
    term_exponents,
)
from monogenic.laurent import LaurentPoly, PreconditionError

from chart_geometry import (
    CHART1,
    CP3_ZETA,
    RHO_VARS,
    W_VARS,
    alpha_plane_basis,
    base_frame,
    bilinear_gram,
    correspondence_b0,
    correspondence_b1,
    cp3_transition,
    frame_gram,
    generic_twistor_values,
    twistor_frame,
    w01_transition,
)
from graded_algebra import center_coefficient, gminus_matrix, matrix_commutator


def const(alphabet, value):
    return LaurentPoly.constant(alphabet, value)


def test_alpha_plane_chart0_at_origin_is_standard():
    m = alpha_plane_basis(0)
    binds = {name: const(CP3_ZETA, 0) for name in ZETA_VARS}
    at_origin = [
        [m[r, c].substitute(binds, CP3_ZETA) for c in range(3)] for r in range(6)
    ]
    for r in range(6):
        for c in range(3):
            expected = 1 if r == c else 0
            assert at_origin[r][c] == const(CP3_ZETA, expected)


def test_alpha_plane_chart0_row4():
    m = alpha_plane_basis(0)
    z2 = LaurentPoly.variable(CP3_ZETA, "zeta2")
    z3 = LaurentPoly.variable(CP3_ZETA, "zeta3")
    assert [m[3, 0], m[3, 1], m[3, 2]] == [LaurentPoly.zero(CP3_ZETA), -z3, z2]


def test_alpha_plane_chart1_row1():
    m = alpha_plane_basis(1, coords=("rho1", "rho2", "rho3"))
    alphabet = m.alphabet
    assert [m[0, 0], m[0, 1], m[0, 2]] == [
        const(alphabet, -1),
        const(alphabet, 0),
        const(alphabet, 0),
    ]


def test_alpha_plane_chart1_full_pattern():
    m = alpha_plane_basis(1, coords=("rho1", "rho2", "rho3"))
    a = m.alphabet
    rho = {k: LaurentPoly.variable(a, f"rho{k}") for k in (1, 2, 3)}
    zero = LaurentPoly.zero(a)
    expected = [
        [const(a, -1), zero, zero],
        [-rho[2], rho[1], zero],
        [-rho[3], zero, rho[1]],
        [zero, -rho[3], rho[2]],
        [zero, zero, const(a, -1)],
        [zero, const(a, 1), zero],
    ]
    assert m.entries == expected


def test_alpha_plane_charts_2_and_3_are_null():
    # The generic recipe must produce totally null 3-planes in every chart.
    for chart in (2, 3):
        m = alpha_plane_basis(chart, coords=("c1", "c2", "c3"))
        # wedge-square of each column pair must vanish: q(u, v) from the
        # Lambda^2 pairing equals u^T Q v with Q the middle 6x6 of the gram.
        h = bilinear_gram()
        q = [[h[2 + i][2 + j] for j in range(6)] for i in range(6)]
        for c1 in range(3):
            for c2 in range(3):
                acc = LaurentPoly.zero(m.alphabet)
                for i in range(6):
                    for j in range(6):
                        if q[i][j]:
                            acc = acc + (m[i, c1] * m[j, c2]).scale(q[i][j])
                assert acc.is_zero()


def test_cp3_transition_fixed_point():
    vals = tuple(const(CP3_ZETA, v) for v in (1, 0, 0))
    assert cp3_transition(vals) == vals


def test_cp3_transition_values():
    vals = tuple(const(CP3_ZETA, v) for v in (2, 4, 6))
    out = cp3_transition(vals)
    assert out == tuple(const(CP3_ZETA, v) for v in (Fraction(1, 2), 2, 3))


def test_cp3_transition_round_trip_symbolic():
    vals = tuple(LaurentPoly.variable(CP3_ZETA, n) for n in ZETA_VARS)
    assert cp3_transition(cp3_transition(vals)) == vals


def test_cp3_transition_rejects_nonmonomial_pivot():
    p = LaurentPoly.variable(CP3_ZETA, "zeta1") + const(CP3_ZETA, 1)
    with pytest.raises(PreconditionError):
        cp3_transition((p, p, p))


def test_w01_zero_section():
    vals = {name: const(TWISTOR, 0) for name in ("z0",) + Z_VARS}
    vals.update(
        zeta1=const(TWISTOR, 1), zeta2=const(TWISTOR, 0), zeta3=const(TWISTOR, 0)
    )
    out = w01_transition(vals, "0->1")
    assert out["w0"].is_zero()
    for name in W_VARS:
        assert out[name].is_zero()
    assert out["rho1"] == const(TWISTOR, 1)
    assert out["rho2"].is_zero() and out["rho3"].is_zero()


def test_w01_w0_value():
    vals = {name: const(TWISTOR, 0) for name in ("z0",) + Z_VARS}
    vals["z32"] = const(TWISTOR, 1)
    vals["z21"] = const(TWISTOR, 1)
    vals.update(
        zeta1=const(TWISTOR, 1), zeta2=const(TWISTOR, 0), zeta3=const(TWISTOR, 0)
    )
    assert w01_transition(vals, "0->1")["w0"] == const(TWISTOR, 1)


def test_w01_row_signs():
    # w_2j carries (+) and w_3j carries (-): the (-1)^i rule with i = 2, 3.
    out = w01_transition(generic_twistor_values(), "0->1")
    assert out["w21"] == LaurentPoly.monomial(TWISTOR, {"zeta1": -1, "z21": 1})
    assert out["w22"] == LaurentPoly.monomial(TWISTOR, {"zeta1": -1, "z22": 1})
    assert out["w31"] == LaurentPoly.monomial(TWISTOR, {"zeta1": -1, "z31": 1}, -1)
    assert out["w32"] == LaurentPoly.monomial(TWISTOR, {"zeta1": -1, "z32": 1}, -1)


def test_w01_round_trips_both_ways():
    gen = generic_twistor_values()
    there = w01_transition(gen, "0->1")
    back = w01_transition(there, "1->0")
    for name in ("z0",) + Z_VARS + ZETA_VARS:
        assert back[name] == gen[name]

    gen1 = {n: LaurentPoly.variable(CHART1, n) for n in ("w0",) + W_VARS + RHO_VARS}
    to_zero = w01_transition(gen1, "1->0")
    forward = w01_transition(to_zero, "0->1")
    for name in ("w0",) + W_VARS + RHO_VARS:
        assert forward[name] == gen1[name]


def test_twistor_frame_is_totally_null_generically():
    assert frame_gram(twistor_frame(generic_twistor_values())).is_zero()


def test_base_frame_is_totally_null_identically():
    assert frame_gram(base_frame()).is_zero()


def test_substituted_frame_is_totally_null_in_16_variables():
    values = {n: LaurentPoly.variable(CORRESPONDENCE, n) for n in ZETA_VARS}
    values.update(correspondence_substitution())
    assert frame_gram(twistor_frame(values)).is_zero()


def test_b0_binding_is_antisymmetric_identically():
    b0 = correspondence_b0()
    assert (b0 + b0.transpose()).is_zero()
    assert b0[0, 0].is_zero() and b0[1, 1].is_zero()


def test_closed_form_bindings_equal_the_frame_route():
    binds = correspondence_substitution()
    b1 = correspondence_b1()
    assert binds["z0"] == correspondence_b0()[0, 1]
    for i in (1, 2, 3):
        for j in (1, 2):
            assert binds[f"z{i}{j}"] == b1[i - 1, j - 1]
    assert set(binds) == {"z0", *Z_VARS}


def test_every_binding_term_is_affine_in_zeta():
    # Each binding is A + sum_m zeta_m B_m: every term has total zeta-degree 0 or 1
    # and no zeta pole, which is what a residue truncated in zeta relies on.
    slots = [CORRESPONDENCE.index[name] for name in ZETA_VARS]
    zeta_parts = {
        tuple(exps[s] for s in slots)
        for value in correspondence_substitution().values()
        for exps in value.terms
    }
    assert zeta_parts == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert sum(len(value.terms) for value in correspondence_substitution().values()) == 31


def test_correspondence_origin_maps_to_origin():
    binds = correspondence_substitution()
    zeros = {name: const(CORRESPONDENCE, 0) for name in BASE.names}
    passthrough = {n: LaurentPoly.variable(CORRESPONDENCE, n) for n in ZETA_VARS}
    for name, value in binds.items():
        at_origin = value.substitute({**zeros, **passthrough}, CORRESPONDENCE)
        assert at_origin.is_zero(), name


def test_correspondence_z11_binding():
    binds = correspondence_substitution()
    expected = (
        LaurentPoly.variable(CORRESPONDENCE, "x2_11")
        + LaurentPoly.monomial(CORRESPONDENCE, {"zeta3": 1, "x1_21": 1})
        - LaurentPoly.monomial(CORRESPONDENCE, {"zeta2": 1, "x1_31": 1})
    )
    assert binds["z11"] == expected


def test_correspondence_z0_binding_pieces():
    z0 = correspondence_substitution()["z0"]
    x12_key = LaurentPoly.variable(CORRESPONDENCE, "x12").sole_term()[0]
    assert z0.coefficient(x12_key) == 1
    # quadratic piece: +1/2 x2_a1 x1_a2 and -1/2 x1_a1 x2_a2 for each row a
    for a in (1, 2, 3):
        plus = LaurentPoly.monomial(
            CORRESPONDENCE, {f"x2_{a}1": 1, f"x1_{a}2": 1}
        ).sole_term()[0]
        minus = LaurentPoly.monomial(
            CORRESPONDENCE, {f"x1_{a}1": 1, f"x2_{a}2": 1}
        ).sole_term()[0]
        assert z0.coefficient(plus) == Fraction(1, 2)
        assert z0.coefficient(minus) == Fraction(-1, 2)


def test_grade_minus_one_commutator_lands_in_center():
    u = gminus_matrix([[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], 0)
    v = gminus_matrix([[0, 0], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]], 0)
    kappa = center_coefficient(matrix_commutator(u, v))
    assert kappa == -1


def test_grade_minus_one_same_block_commutes():
    u = gminus_matrix([[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, 0)
    v = gminus_matrix([[0, 1], [0, 0], [0, 0]], [[0, 0]] * 3, 0)
    bracket = matrix_commutator(u, v)
    assert all(not any(row) for row in bracket)


# --------------------------------------------------------- twistor monomials
@given(st.tuples(*[st.integers(0, 6)] * 7, *[st.integers(-6, 6)] * 3))
@settings(max_examples=200, deadline=None)
def test_term_data_reads_the_twistor_slots_by_name(exps):
    s0, z, poles = term_data(exps)
    assert s0 == exps[TWISTOR.index["z0"]]
    assert z == tuple(exps[TWISTOR.index[name]] for name in Z_VARS)
    assert poles == tuple(-exps[TWISTOR.index[name]] for name in ZETA_VARS)
    assert term_exponents(s0, z, poles) == exps
