"""Weights, the reductive action, certificates and the raising chain."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monogenic.charts import TWISTOR, Z_VARS, ZETA_VARS, term_data
from monogenic.cochain import (
    ROOT_NAMES,
    Certificate,
    CochainSection,
    Weight,
    coboundaries,
    g0_action,
    triviality_certificate,
    weight_of_monomial,
)
from monogenic.hwv import _stacked_rows, candidate_exponents
from monogenic.laurent import InternalCheckError, LaurentPoly, PreconditionError, matrix_rank
from monogenic.transform import penrose_transform

from test_hwv import labels_of_degree
from cochain_oracle import (
    CARTAN_BASIS,
    ROOT_SHIFTS,
    TRIGGERS,
    cartan_action,
    closed_form_scalars,
    dominant_row1_free_cases,
    is_dominant,
    pair,
    raising_chain,
)


mono = CochainSection.monomial


def random_monomial(rng, max_pole=4):
    z = {}
    for _ in range(rng.randint(0, 4)):
        v = rng.choice(Z_VARS)
        z[v] = z.get(v, 0) + 1
    poles = tuple(rng.randint(-max_pole, max_pole) for _ in range(3))
    return mono(s0=rng.randint(0, 3), z=z, poles=poles)


# ----------------------------------------------------------------------- weight
def test_weight_of_basic_pole():
    w = weight_of_monomial(mono(poles=(1, 1, 1)))
    assert w.gl2 == (Fraction(5, 2), Fraction(5, 2))
    assert w.gl4 == (2, 1, 1, 1)


def test_weight_of_z11_squared():
    w = weight_of_monomial(mono(z={"z11": 2}, poles=(1, 1, 1)))
    assert w.gl2 == (Fraction(9, 2), Fraction(5, 2))
    assert w.gl4 == (4, 3, 1, 1)
    assert w.gl4_normalized() == (3, 2, 0, 0)


def test_weight_of_constant():
    w = weight_of_monomial(mono())
    assert w.gl2 == (Fraction(5, 2), Fraction(5, 2))
    assert w.gl4 == (5, 0, 0, 0)


def test_weight_rejects_sums():
    s = CochainSection(mono(z={"z11": 1}).body + mono(z={"z12": 1}).body)
    with pytest.raises(PreconditionError):
        weight_of_monomial(s)


def name_parsing_weight(section):
    # The weight with z_ij read by name: its exponent adds to row i and column j.
    exps, _ = section.body.sole_term()
    s0, (r1, r2, r3) = exps[TWISTOR.index["z0"]], [-exps[TWISTOR.index[name]] for name in ZETA_VARS]
    col = {1: 0, 2: 0}
    row = {1: 0, 2: 0, 3: 0}
    for name in Z_VARS:
        e = exps[TWISTOR.index[name]]
        row[int(name[1])] += e
        col[int(name[2])] += e
    s = row[1] + row[2] + row[3]
    half5 = Fraction(5, 2)
    return Weight(
        gl2=(col[1] + s0 + half5, col[2] + s0 + half5),
        gl4=(5 + s - r1 - r2 - r3, r1 + row[1], r2 + row[2], r3 + row[3]),
    )


@given(
    st.integers(0, 4),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
    st.tuples(*[st.integers(-4, 4)] * 3),
)
@settings(max_examples=200, deadline=None)
def test_weight_of_monomial_matches_the_name_reading(s0, z, poles):
    f = mono(s0=s0, z=dict(zip(Z_VARS, z)), poles=poles, coeff=3)
    assert weight_of_monomial(f) == name_parsing_weight(f)


@pytest.mark.parametrize("poles", [(1, 1), (1, 2, 3, 4), ()], ids=["two", "four", "none"])
def test_monomial_takes_exactly_three_pole_orders(poles):
    with pytest.raises(PreconditionError, match="exactly three pole orders"):
        mono(s0=1, z={"z11": 1}, poles=poles)


# ----------------------------------------------------------------------- action
def test_a12_moves_second_column_to_first():
    assert g0_action("A12", mono(z={"z12": 1})) == mono(z={"z11": 1})
    assert g0_action("A12", mono(z={"z11": 1})).body.is_zero()


def test_e12_on_z0_section_includes_the_twist():
    # Full section action = table derivative + 5*zeta1*f.
    result = g0_action("E12", mono(s0=1))
    expected = CochainSection(
        mono(z={"z22": 1, "z31": 1}).body
        - mono(z={"z21": 1, "z32": 1}).body
        + mono(s0=1, poles=(-1, 0, 0), coeff=5).body
    )
    assert result == expected


def test_e21_on_inverse_zeta1():
    result = g0_action("E21", mono(poles=(1, 0, 0)))
    assert result == mono(poles=(2, 0, 0), coeff=-1)


def test_e12_on_zeta1_inverse_is_constant():
    # E12 zeta1 = zeta1^2, so the power rule collapses zeta1^-1 to a constant.
    result = g0_action("E12", mono(poles=(1, 0, 0)))
    assert result == mono(poles=(0, 0, 0), coeff=4)  # -1 from the power rule + 5 twist


def test_unknown_root_rejected():
    with pytest.raises(PreconditionError):
        g0_action("E13", mono())


def test_cartan_eigenvalues_match_weight():
    rng = random.Random(11)
    for _ in range(200):
        f = random_monomial(rng)
        w = weight_of_monomial(f)
        for gl2_diag, sl4_diag in CARTAN_BASIS:
            eig = pair(w, gl2_diag, sl4_diag)
            assert cartan_action(f, gl2_diag, sl4_diag) == CochainSection(f.body.scale(eig))


def test_cartan_requires_traceless_gl4():
    with pytest.raises(PreconditionError):
        cartan_action(mono(), (0, 0), (1, 0, 0, 0))


# variables the root's table touches; inputs avoiding all but one keep the
# action a single monomial, so the shift is a sharp weight statement.
MULTI_TERM_VARS = {
    "E23": ("z21", "z22"),
    "E32": ("z11", "z12"),
    "E34": ("z31", "z32"),
    "E43": ("z21", "z22"),
    "A12": ("z12", "z22", "z32"),
}


def test_root_shifts_on_monomials():
    rng = random.Random(23)
    for root, (gl2_shift, gl4_shift) in ROOT_SHIFTS.items():
        checked = 0
        while checked < 40:
            f = random_monomial(rng)
            _, z, poles = term_data(f.body.sole_term()[0])
            z = dict(zip(Z_VARS, z))
            blocked = MULTI_TERM_VARS[root]
            if any(z.get(v) for v in blocked if v != TRIGGERS[root]):
                continue
            trigger = TRIGGERS[root]
            if trigger in ZETA_VARS:
                if poles[ZETA_VARS.index(trigger)] == 0:
                    continue
            elif not z.get(trigger):
                continue
            image = g0_action(root, f)
            if image.body.is_zero() or not image.body.is_monomial():
                continue
            before = weight_of_monomial(f)
            after = weight_of_monomial(
                CochainSection(LaurentPoly(TWISTOR, {image.body.sole_term()[0]: 1}))
            )
            assert tuple(a - b for a, b in zip(after.gl2, before.gl2)) == gl2_shift
            assert tuple(a - b for a, b in zip(after.gl4, before.gl4)) == gl4_shift
            checked += 1


def commutator_action(r1, r2, f):
    return CochainSection(g0_action(r1, g0_action(r2, f)).body - g0_action(r2, g0_action(r1, f)).body)


def test_commutator_e23_e32_is_the_cartan_element():
    rng = random.Random(5)
    for _ in range(40):
        f = random_monomial(rng)
        assert commutator_action("E23", "E32", f) == cartan_action(f, (0, 0), (0, 1, -1, 0))


def test_commutator_e34_e43_is_the_cartan_element():
    rng = random.Random(6)
    for _ in range(40):
        f = random_monomial(rng)
        assert commutator_action("E34", "E43", f) == cartan_action(f, (0, 0), (0, 0, 1, -1))


def test_weight_is_additive_up_to_the_bundle_offset():
    # weight(f*g) = weight(f) + weight(g) - weight(1): the formula is affine
    # with the constant section's weight as offset.
    rng = random.Random(77)
    offset = weight_of_monomial(mono())
    for _ in range(60):
        f = random_monomial(rng)
        g = random_monomial(rng)
        product = CochainSection(f.body * g.body)
        wf, wg, wp = (weight_of_monomial(x) for x in (f, g, product))
        assert wp.gl2 == tuple(a + b - c for a, b, c in zip(wf.gl2, wg.gl2, offset.gl2))
        assert wp.gl4 == tuple(a + b - c for a, b, c in zip(wf.gl4, wg.gl4, offset.gl4))


def test_actions_are_derivations_up_to_the_twist():
    # Roots without a bundle twist satisfy the Leibniz rule on products;
    # E12 double-counts its additive twist, so one copy is subtracted.
    rng = random.Random(78)
    for _ in range(25):
        f = random_monomial(rng)
        g = random_monomial(rng)
        product = CochainSection(f.body * g.body)
        for root in ("A12", "E21", "E23", "E32", "E34", "E43"):
            lhs = g0_action(root, product)
            rhs = CochainSection(
                g0_action(root, f).body * g.body + f.body * g0_action(root, g).body
            )
            assert lhs == rhs
        lhs = g0_action("E12", product)
        rhs = CochainSection(
            g0_action("E12", f).body * g.body
            + f.body * g0_action("E12", g).body
            - LaurentPoly.monomial(TWISTOR, {"zeta1": 1}, 5) * product.body
        )
        assert lhs == rhs


def sections():
    monomials = st.builds(
        mono,
        s0=st.integers(0, 2),
        z=st.dictionaries(st.sampled_from(Z_VARS), st.integers(1, 2), max_size=3),
        poles=st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 3)),
        coeff=st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )
    return st.lists(monomials, min_size=2, max_size=6).map(
        lambda parts: CochainSection(LaurentPoly.sum(TWISTOR, (m.body for m in parts)))
    ).filter(lambda section: len(section.body.terms) >= 2)


def fold_over_monomials(action, section):
    # The former accumulation: the action on each monomial, summed by `+`.
    total = LaurentPoly.zero(TWISTOR)
    for exps, coeff in section.body.terms.items():
        total = total + action(CochainSection.from_terms({exps: coeff})).body
    return CochainSection(total)


@given(
    sections(),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=40, deadline=None)
def test_actions_are_the_fold_of_their_monomial_actions(section, gl2_diag, sl4_head):
    for root in ROOT_NAMES:
        assert g0_action(root, section) == fold_over_monomials(partial(g0_action, root), section)
    sl4_diag = sl4_head + (-sum(sl4_head),)
    assert cartan_action(section, gl2_diag, sl4_diag) == fold_over_monomials(
        lambda f: cartan_action(f, gl2_diag, sl4_diag), section
    )


# ----------------------------------------------------------------- certificates
def test_certificate_negative_pole():
    assert triviality_certificate(mono(poles=(-1, 1, 1))) is Certificate.TRIVIAL_NEGATIVE_POLE


def test_certificate_extends():
    assert triviality_certificate(mono(z={"z11": 6}, poles=(1, 1, 1))) is Certificate.TRIVIAL_EXTENDS


def test_certificate_extends_fires_on_known_nonzero_class_too():
    # Advisory branch: the inequality as stated also fires on a generator whose
    # class is nonzero, which is why the transform stays authoritative.
    assert triviality_certificate(mono(z={"z11": 2}, poles=(1, 1, 1))) is Certificate.TRIVIAL_EXTENDS


def test_certificate_inconclusive():
    assert triviality_certificate(mono(poles=(2, 2, 2))) is Certificate.INCONCLUSIVE


# ---------------------------------------------------------------- raising chain
def test_chain_trivial_case():
    result, (a, b, c) = raising_chain(mono(poles=(1, 1, 1)))
    assert (a, b, c) == (1, 1, 1)
    assert result == mono(poles=(1, 1, 1))


def test_chain_scalars_match_closed_forms_on_clean_family():
    cases = list(dominant_row1_free_cases())
    assert len(cases) >= 20
    for z, poles in cases:
        _, (a, b, c) = raising_chain(mono(z=z, poles=poles))
        assert (a, b, c) == closed_form_scalars(z, poles)
        assert c != 0


def test_chain_scalar_abs_values_match_signed_closed_forms():
    # the signed variants differ from the extracted scalars by the factors
    # (-1)^(r3-1) and (-1)^(r2+r3-2) only
    for z, poles in itertools.islice(dominant_row1_free_cases(), 25):
        r1, r2, r3 = poles
        _, (a, b, c) = raising_chain(mono(z=z, poles=poles))
        ca, cb, _ = closed_form_scalars(z, poles)
        assert abs((-1) ** (r3 - 1) * ca) == abs(a)
        assert abs((-1) ** (r2 + r3 - 2) * cb) == abs(b)


def test_chain_preconditions():
    with pytest.raises(PreconditionError):
        raising_chain(mono(s0=1, poles=(1, 1, 1)))
    with pytest.raises(PreconditionError):
        raising_chain(mono(poles=(0, 1, 1)))
    with pytest.raises(PreconditionError):
        raising_chain(mono(poles=(1, 1, 2)))  # weight (1,1,1,2) is not dominant


def test_chain_flowback_counterexample_raises_internal_check():
    # Dominant input on which the leading coefficient genuinely cancels: the
    # machinery reports the falsified nonvanishing claim instead of papering
    # over it.
    f = mono(z={"z11": 1, "z21": 1}, poles=(1, 1, 2))
    assert is_dominant(weight_of_monomial(f))
    with pytest.raises(InternalCheckError):
        raising_chain(f)


# Labels of degree <= 7 whose coboundary rows include chart-1 sections, with their number.
CHART1_ROWS = {(0, 0, 2): 1, (0, 1, 2): 1, (0, 2, 2): 1, (1, 0, 2): 1, (0, 0, 3): 6,
               (0, 3, 2): 1, (1, 1, 2): 1, (0, 1, 3): 6}


def assert_coboundaries_span_the_kernel(k):
    # Half of the theorem the completion relies on: on each label's weight space
    # the coboundary rows have zero transform, and their rank plus the rank of
    # the candidate images is the number of candidates, so they span ker T there.
    for label in labels_of_degree(k):
        exponents = candidate_exponents(*label)
        rows = coboundaries(exponents)
        for row in rows:
            section = CochainSection.from_terms({exponents[c]: v for c, v in row.items()})
            assert penrose_transform(section).is_zero(), (label, row)
        images = [penrose_transform(CochainSection.from_terms({e: 1})) for e in exponents]
        assert matrix_rank(rows) + matrix_rank(_stacked_rows(images)) == len(exponents), label
        unit = sum(1 for e in exponents if min(term_data(e)[2]) <= 0)
        assert len(rows) - unit == CHART1_ROWS.get(label, 0), label


def test_coboundaries_span_the_transform_kernel():
    assert len(candidate_exponents(0, 1, 2)) == 81 and len(coboundaries(candidate_exponents(0, 1, 2))) == 49
    for k in range(6):
        assert_coboundaries_span_the_kernel(k)


@pytest.mark.slow
@pytest.mark.parametrize("k", [6, 7])
def test_coboundaries_span_the_transform_kernel_slow(k):
    assert_coboundaries_span_the_kernel(k)
