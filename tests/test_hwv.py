"""Highest weight testing and completion."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from monogenic.calibration import CalibrationConfig, build_calibrated
from monogenic.cli import TRANSFORM_SECTION_LIMIT
from monogenic.cochain import CochainSection, weight_of_monomial
from monogenic import hwv
from monogenic.dirac import is_monogenic
from monogenic.hwv import _complete_with_image, _is_hwv_image, candidate_exponents, closed_form
from monogenic.hwv import hwv_complete, hwv_test
from monogenic.laurent import InternalCheckError, PreconditionError
from monogenic.repn import IrrepLabel, label_of_hwv, leading_term, module_descriptor
from monogenic.transform import SpinorField, penrose_transform

from hwv_oracle import closed_form_with, complete_by_solve


mono = CochainSection.monomial


def test_hwv_examples():
    assert hwv_test(mono(z={"z11": 2}, poles=(1, 1, 1)))
    det = CochainSection(
        mono(z={"z11": 1, "z22": 1}, poles=(1, 1, 1)).body
        + mono(z={"z12": 1, "z21": 1}, poles=(1, 1, 1), coeff=-1).body
    )
    assert hwv_test(det)
    # z12 is raised by A12 to z11, whose class is nonzero
    assert not hwv_test(mono(z={"z12": 1}, poles=(1, 1, 1)))
    # zero classes are never highest weight vectors
    assert not hwv_test(mono(poles=(-1, 1, 1)))


def test_complete_smallest_labels():
    assert hwv_complete((0, 0, 0)) == mono(poles=(1, 1, 1))
    assert hwv_complete((0, 2, 0)) == mono(z={"z11": 2}, poles=(1, 1, 1))
    det = CochainSection(
        mono(z={"z11": 1, "z22": 1}, poles=(1, 1, 1)).body
        + mono(z={"z12": 1, "z21": 1}, poles=(1, 1, 1), coeff=-1).body
    )
    assert hwv_complete((1, 0, 0)) == det


def test_complete_001_exact_value():
    # The true vector: the bundled reference section's quadratic part scaled
    # by 1/5 (the reference coefficients fail the E12 raising condition; see
    # the calibration report and the repository notes).
    expected = mono(s0=1, poles=(1, 1, 1)).body
    fifth = Fraction(1, 5)
    for z, poles, sign in (
        ({"z22": 1, "z31": 1}, (2, 1, 1), -1),
        ({"z21": 1, "z32": 1}, (2, 1, 1), 1),
        ({"z11": 1, "z32": 1}, (1, 2, 1), -1),
        ({"z12": 1, "z31": 1}, (1, 2, 1), 1),
        ({"z12": 1, "z21": 1}, (1, 1, 2), -1),
        ({"z11": 1, "z22": 1}, (1, 1, 2), 1),
    ):
        expected = expected + mono(z=z, poles=poles, coeff=sign * fifth).body
    assert hwv_complete((0, 0, 1)) == CochainSection(expected)


def test_candidates_are_descending_and_share_the_lead_weight():
    # The completion reads the candidates in this order when it pins them.
    assert len(candidate_exponents(0, 0, 1)) == 10
    for label in [label for k in range(7) for label in labels_of_degree(k)]:
        exps = candidate_exponents(*label)
        assert all(e > f for e, f in zip(exps, exps[1:])), label  # so no duplicates either
        lead_exps = leading_term(*label)[0]
        assert lead_exps in exps, label
        lead = weight_of_monomial(CochainSection.from_terms({lead_exps: 1}))
        for e in exps:
            w = weight_of_monomial(CochainSection.from_terms({e: 1}))
            assert (w.gl2, w.gl4_normalized()) == (lead.gl2, lead.gl4_normalized()), (label, e)


def labels_of_degree(k):
    return [
        (a, b, l)
        for l in range(k // 2 + 1)
        for a in range((k - 2 * l) // 2 + 1)
        for b in (k - 2 * l - 2 * a,)
    ]


ALL_LABELS = [label for k in range(5) for label in labels_of_degree(k)]


# Canonical hwv_complete strings for the labels with l >= 1 and degree <= 4,
# and for (0, 1, 2).  Each label has a trivial subspace of positive dimension,
# so these pin the representative's reduction modulo it.  Listing the
# candidates in ascending order pins other candidates but prints the same
# strings up to degree four; (0, 1, 2) is the first label where it does not.
PINNED_BODIES = {
    (0, 1, 1): (
        "z0 * z11 * zeta1^-1 * zeta2^-1 * zeta3^-1 + 1/6 * z11^2 * z22 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-2 - 1/6 * z11^2 * z32 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-1 - 1/6 * z11 * z12 * z21 * zeta1^-1 * zeta2^-1 * "
        "zeta3^-2 + 1/6 * z11 * z12 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-1 + "
        "1/6 * z11 * z21 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-1 - 1/6 * z11 * "
        "z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-1"
    ),
    (0, 2, 1): (
        "z0 * z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1 + 1/7 * z11^3 * z22 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-2 - 1/7 * z11^3 * z32 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-1 - 1/7 * z11^2 * z12 * z21 * zeta1^-1 * zeta2^-1 * "
        "zeta3^-2 + 1/7 * z11^2 * z12 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-1 + "
        "1/7 * z11^2 * z21 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-1 - 1/7 * z11^2 "
        "* z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-1"
    ),
    (1, 0, 1): (
        "z0 * z11 * z22 * zeta1^-1 * zeta2^-1 * zeta3^-1 - z0 * z12 * z21 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-1 + 1/7 * z11^2 * z22^2 * zeta1^-1 * "
        "zeta2^-1 * zeta3^-2 - 1/7 * z11^2 * z22 * z32 * zeta1^-1 * zeta2^-2 * "
        "zeta3^-1 - 2/7 * z11 * z12 * z21 * z22 * zeta1^-1 * zeta2^-1 * "
        "zeta3^-2 + 1/7 * z11 * z12 * z21 * z32 * zeta1^-1 * zeta2^-2 * "
        "zeta3^-1 + 1/7 * z11 * z12 * z22 * z31 * zeta1^-1 * zeta2^-2 * "
        "zeta3^-1 + 1/7 * z11 * z21 * z22 * z32 * zeta1^-2 * zeta2^-1 * "
        "zeta3^-1 - 1/7 * z11 * z22^2 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-1 + "
        "1/7 * z12^2 * z21^2 * zeta1^-1 * zeta2^-1 * zeta3^-2 - 1/7 * z12^2 * "
        "z21 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-1 - 1/7 * z12 * z21^2 * z32 * "
        "zeta1^-2 * zeta2^-1 * zeta3^-1 + 1/7 * z12 * z21 * z22 * z31 * "
        "zeta1^-2 * zeta2^-1 * zeta3^-1"
    ),
    (0, 0, 2): (
        "z0^2 * zeta1^-1 * zeta2^-1 * zeta3^-1 + 2/5 * z0 * z11 * z22 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-2 - 2/5 * z0 * z11 * z32 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-1 - 2/5 * z0 * z12 * z21 * zeta1^-1 * zeta2^-1 * "
        "zeta3^-2 + 2/5 * z0 * z12 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-1 + 2/5 "
        "* z0 * z21 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-1 - 2/5 * z0 * z22 * "
        "z31 * zeta1^-2 * zeta2^-1 * zeta3^-1 - 1/5 * z11^2 * z22 * z32 * "
        "zeta1^-1 * zeta2^-2 * zeta3^-2 - 2/5 * z11 * z12 * z21 * z22 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-3 - 1/5 * z11 * z12 * z21 * z32 * "
        "zeta1^-1 * zeta2^-2 * zeta3^-2 - 1/5 * z11 * z12 * z22 * z31 * "
        "zeta1^-1 * zeta2^-2 * zeta3^-2 - 2/5 * z11 * z12 * z31 * z32 * "
        "zeta1^-1 * zeta2^-3 * zeta3^-1 - 1/5 * z11 * z21 * z22 * z32 * "
        "zeta1^-2 * zeta2^-1 * zeta3^-2 - 1/5 * z11 * z21 * z32^2 * zeta1^-2 * "
        "zeta2^-2 * zeta3^-1 - 1/5 * z11 * z22^2 * z31 * zeta1^-2 * zeta2^-1 * "
        "zeta3^-2 - 1/5 * z11 * z22 * z31 * z32 * zeta1^-2 * zeta2^-2 * "
        "zeta3^-1 - 1/5 * z12^2 * z21 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-2 - "
        "1/5 * z12 * z21^2 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-2 - 1/5 * z12 * "
        "z21 * z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-2 - 1/5 * z12 * z21 * "
        "z31 * z32 * zeta1^-2 * zeta2^-2 * zeta3^-1 - 1/5 * z12 * z22 * z31^2 * "
        "zeta1^-2 * zeta2^-2 * zeta3^-1 - 2/5 * z21 * z22 * z31 * z32 * "
        "zeta1^-3 * zeta2^-1 * zeta3^-1"
    ),
    (0, 1, 2): (
        "z0^2 * z11 * zeta1^-1 * zeta2^-1 * zeta3^-1 + 1/3 * z0 * z11^2 * z22 * "
        "zeta1^-1 * zeta2^-1 * zeta3^-2 - 1/3 * z0 * z11^2 * z32 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-1 - 1/3 * z0 * z11 * z12 * z21 * zeta1^-1 * zeta2^-1 "
        "* zeta3^-2 + 1/3 * z0 * z11 * z12 * z31 * zeta1^-1 * zeta2^-2 * "
        "zeta3^-1 + 1/3 * z0 * z11 * z21 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-1 "
        "- 1/3 * z0 * z11 * z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-1 + 1/21 * "
        "z11^3 * z22^2 * zeta1^-1 * zeta2^-1 * zeta3^-3 - 1/21 * z11^3 * z22 * "
        "z32 * zeta1^-1 * zeta2^-2 * zeta3^-2 + 1/21 * z11^3 * z32^2 * zeta1^-1 "
        "* zeta2^-3 * zeta3^-1 - 2/21 * z11^2 * z12 * z21 * z22 * zeta1^-1 * "
        "zeta2^-1 * zeta3^-3 + 1/21 * z11^2 * z12 * z21 * z32 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-2 + 1/21 * z11^2 * z12 * z22 * z31 * zeta1^-1 * "
        "zeta2^-2 * zeta3^-2 - 2/21 * z11^2 * z12 * z31 * z32 * zeta1^-1 * "
        "zeta2^-3 * zeta3^-1 + 1/21 * z11^2 * z21 * z22 * z32 * zeta1^-2 * "
        "zeta2^-1 * zeta3^-2 - 1/21 * z11^2 * z21 * z32^2 * zeta1^-2 * zeta2^-2 "
        "* zeta3^-1 - 1/21 * z11^2 * z22^2 * z31 * zeta1^-2 * zeta2^-1 * "
        "zeta3^-2 + 1/21 * z11^2 * z22 * z31 * z32 * zeta1^-2 * zeta2^-2 * "
        "zeta3^-1 + 1/21 * z11 * z12^2 * z21^2 * zeta1^-1 * zeta2^-1 * zeta3^-3 "
        "- 1/21 * z11 * z12^2 * z21 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-2 + "
        "1/21 * z11 * z12^2 * z31^2 * zeta1^-1 * zeta2^-3 * zeta3^-1 - 1/21 * "
        "z11 * z12 * z21^2 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-2 + 1/21 * z11 * "
        "z12 * z21 * z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-2 + 1/21 * z11 * "
        "z12 * z21 * z31 * z32 * zeta1^-2 * zeta2^-2 * zeta3^-1 - 1/21 * z11 * "
        "z12 * z22 * z31^2 * zeta1^-2 * zeta2^-2 * zeta3^-1 + 1/21 * z11 * z21^2 "
        "* z32^2 * zeta1^-3 * zeta2^-1 * zeta3^-1 - 2/21 * z11 * z21 * z22 * z31 "
        "* z32 * zeta1^-3 * zeta2^-1 * zeta3^-1 + 1/21 * z11 * z22^2 * z31^2 * "
        "zeta1^-3 * zeta2^-1 * zeta3^-1"
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_BODIES))
def test_complete_pinned_strings(label):
    assert hwv_complete(label).body.to_string() == PINNED_BODIES[label]


def assert_round_trip(a, b, l):
    section = hwv_complete((a, b, l))
    assert hwv_test(section)
    label = label_of_hwv(section)
    assert (label.a, label.b, label.l) == (a, b, l)
    descriptor = module_descriptor(label)
    lead = weight_of_monomial(
        mono(s0=l, z={k: v for k, v in (("z11", a + b), ("z22", a)) if v}, poles=(1, 1, 1))
    )
    assert lead.gl2 == descriptor.gl2_weight
    assert lead.gl4_normalized() == tuple(
        v - descriptor.sl4_weight[3] for v in descriptor.sl4_weight
    )
    return section


def test_round_trip_all_labels_up_to_degree_four():
    assert len(ALL_LABELS) == 14
    for label in ALL_LABELS:
        assert_round_trip(*label)


# hwv_complete and its image, as `penrose hwv` prints them, for every label up to degree six.
GOLDEN = json.loads((Path(__file__).parent / "hwv_golden.json").read_text())


def assert_golden(label, section, image):
    assert GOLDEN["%d,%d,%d" % label] == {
        "section": section.body.to_string(),
        "transform": [p.to_string() for p in image.components],
    }, label


def assert_round_trip_monogenic(k):
    op = build_calibrated(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)))
    for label in labels_of_degree(k):
        section = assert_round_trip(*label)
        # `penrose transform` accepts every section `penrose hwv` prints.
        weight = sum(1 + 2 * e[0] + sum(e[1:7]) for e in section.body.terms)
        assert weight <= TRANSFORM_SECTION_LIMIT, label
        image = penrose_transform(section)
        assert not image.is_zero() and is_monogenic(op, image), label
        assert_golden(label, section, image)


def test_round_trip_degree_five_labels():
    assert len(labels_of_degree(5)) == 6
    assert_round_trip_monogenic(5)


@pytest.mark.slow
def test_round_trip_degree_six_labels():
    assert len(labels_of_degree(6)) == 10
    assert_round_trip_monogenic(6)
    for label in labels_of_degree(6):
        assert complete_by_solve(label) == _complete_with_image(label), label


@pytest.mark.slow
def test_complete_degree_seven_labels():
    # Past `penrose hwv`'s degree limit of 6: the completion's leading
    # coefficient is one without any renormalisation, beyond the 30 goldens.
    assert len(labels_of_degree(7)) == 10
    for label in labels_of_degree(7):
        section = hwv_complete(label)
        assert hwv_test(section), label
        assert label_of_hwv(section) == IrrepLabel(*label)
        assert section.body.coefficient(leading_term(*label)[0]) == 1, label


def test_completion_is_the_raising_solve():
    # The oracle solves the raising system over the candidates and asserts that
    # its class dimension is 1; the slow degree-six round trip compares the rest.
    for label in ALL_LABELS + labels_of_degree(5):
        assert complete_by_solve(label) == _complete_with_image(label), label


def test_completion_image_is_the_transform_of_the_section():
    # The image summed from the candidate images, which `penrose hwv` prints,
    # is the transform of the completed section itself, and both print as in
    # hwv_golden.json up to degree five (the slow degree-six round trip
    # compares the rest).
    labels = ALL_LABELS + labels_of_degree(5)
    assert sorted(GOLDEN) == sorted("%d,%d,%d" % label for label in labels + labels_of_degree(6))
    for label in labels:
        section, image = _complete_with_image(label)
        assert image == penrose_transform(section), label
        assert_golden(label, section, image)


def test_completion_rejects_zero_candidate_images(monkeypatch):
    # Every candidate is pinned, so the representative is zero and has no leading term.
    monkeypatch.setattr(hwv, "penrose_transform", lambda section: SpinorField.zero())
    with pytest.raises(InternalCheckError, match=re.escape("(0, 0, 1): leading term has the wrong shape")):
        hwv_complete((0, 0, 1))


def test_completion_rejects_a_scaled_closed_form(monkeypatch):
    # 2H stays in the weight space and its image passes the certificate; only
    # the leading-shape check sees that its leading coefficient is 2, not 1.
    monkeypatch.setattr(hwv, "closed_form", lambda label: closed_form(label).scale(2))
    with pytest.raises(InternalCheckError, match=re.escape("(0, 0, 1): leading term has the wrong shape")):
        hwv_complete((0, 0, 1))


@pytest.mark.parametrize("shift", [-1, 1])
def test_completion_certifies_the_closed_form(monkeypatch, shift):
    # With N = 2a + b + 5 + shift the closed form stays in the weight space and
    # keeps its leading term, but its image is no longer raising-closed.
    shifted = lambda label: closed_form_with(label, 2 * label[0] + label[1] + 5 + shift)
    monkeypatch.setattr(hwv, "closed_form", shifted)
    with pytest.raises(InternalCheckError, match=re.escape("(0, 0, 1): the certificate fails")):
        hwv_complete((0, 0, 1))


def test_completion_rejects_a_closed_form_outside_the_weight_space(monkeypatch):
    stray = mono(s0=2, poles=(1, 1, 1)).body  # the weight of label (0, 0, 2)
    monkeypatch.setattr(hwv, "closed_form", lambda label: closed_form(label) + stray)
    expected = "(0, 0, 1): a closed-form term lies outside the weight space"
    with pytest.raises(InternalCheckError, match=re.escape(expected)):
        hwv_complete((0, 0, 1))


def test_completion_raises_only_the_final_image(monkeypatch):
    calls = []
    action = hwv.spinor_action
    monkeypatch.setattr(hwv, "spinor_action", lambda root, field: calls.append(root) or action(root, field))
    hwv_complete((0, 0, 2))
    assert calls == ["A12", "E12", "E23", "E34"]


def test_closed_form_is_the_product_expansion():
    for label in ALL_LABELS + labels_of_degree(5) + labels_of_degree(6):
        assert closed_form(label) == closed_form_with(label, 2 * label[0] + label[1] + 5), label


def test_closed_form_transforms_to_the_golden_images():
    # The closed form and the canonical section differ by a zero-image combination.
    for key, golden in GOLDEN.items():
        image = penrose_transform(CochainSection(closed_form(tuple(map(int, key.split(","))))))
        assert [p.to_string() for p in image.components] == golden["transform"], key


def assert_closed_form_round_trip(k):
    op = build_calibrated(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)))
    for label in labels_of_degree(k):
        section = CochainSection(closed_form(label))
        image = penrose_transform(section)
        assert _is_hwv_image(image), label  # hwv_test(section), read off its image
        assert label_of_hwv(section) == IrrepLabel(*label)
        assert is_monogenic(op, image), label


def test_closed_form_round_trip_degree_seven_labels():
    # Past `penrose hwv`'s degree limit of 6, where the raising solve grows costly.
    assert len(labels_of_degree(7)) == 10
    assert_closed_form_round_trip(7)


@pytest.mark.slow
def test_closed_form_round_trip_degree_eight_labels():
    assert len(labels_of_degree(8)) == 15
    assert_closed_form_round_trip(8)


def test_complete_rejects_negative_labels():
    with pytest.raises(PreconditionError):
        hwv_complete((0, -1, 0))


def test_completed_vectors_have_independent_images():
    from test_transform import transform_is_injective_on

    sections = [hwv_complete(label) for label in ALL_LABELS if sum(label) <= 2]
    assert len(sections) >= 5
    assert transform_is_injective_on(sections)
