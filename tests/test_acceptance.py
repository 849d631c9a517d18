"""Acceptance suite: one test and one reported pass/fail line per criterion.

All arithmetic is exact, so every tolerance below is literal equality.
Criterion 8's final clause (the completed (0,0,1) vector equals the bundled
four-term reference section term-for-term) is asserted faithfully as stated
and is expected to fail: that section is not annihilated by the E12 raising
under the action table it ships with, so the clause contradicts the same
criterion's hwv_test requirement.  The full analysis lives in the calibration
report and the repository notes; nothing is rescaled to force it green.
"""

import json
import random
from fractions import Fraction

import pytest

from monogenic.calibration import (
    build_calibrated,
    find_calibration,
    reference_monogenic_spinors,
    third_item_discrepancy,
)
from monogenic.charts import (
    BASE,
    CORRESPONDENCE,
    TWISTOR,
    Z_VARS,
    ZETA_VARS,
    correspondence_substitution,
    term_data,
)
from monogenic.cli import main
from monogenic.cochain import (
    Certificate,
    CochainSection,
    g0_action,
    triviality_certificate,
    weight_of_monomial,
)
from monogenic.dirac import graded_kernel_dim, is_monogenic
from monogenic.hwv import closed_form, hwv_complete, hwv_test
from monogenic.laurent import LaurentPoly
from monogenic.repn import decompose_Mk, label_of_hwv
from monogenic.transform import penrose_transform, spinor_action

from chart_geometry import frame_gram, twistor_frame
from cochain_oracle import (
    CARTAN_BASIS,
    ROOT_SHIFTS,
    TRIGGERS,
    cartan_action,
    closed_form_scalars,
    dominant_row1_free_cases,
    multiplicity_free_check,
    pair,
    raising_chain,
)


def report(number, text):
    print(f"criterion {number:2d}: PASS - {text}")


mono = CochainSection.monomial


@pytest.fixture(scope="module")
def operator():
    config, _ = find_calibration()
    return build_calibrated(config)


def test_c01_constant_spinor_example():
    field = penrose_transform(mono(poles=(1, 1, 1)))
    assert field.components[0] == LaurentPoly.constant(BASE, 1)
    assert all(p.is_zero() for p in field.components[1:])
    report(1, "transform of the basic pole section is the constant spinor (1,0,0,0)")


def test_c02_degree_two_decomposition(operator):
    table = decompose_Mk(2)
    dims = sorted(desc.dimension for _, desc in table)
    assert dims == [4, 36, 180]
    assert sum(dims) == 220
    assert graded_kernel_dim(operator, 2) == 220
    report(2, "degree-2 summands 180/36/4 with total 220 == exact nullspace dimension")


def test_c03_low_degree_cross_check(operator):
    assert graded_kernel_dim(operator, 0) == 4
    weyl_total = sum(desc.dimension for _, desc in decompose_Mk(1))
    assert weyl_total == 40
    assert graded_kernel_dim(operator, 1) == 40
    report(3, "degree 0 and 1 kernels (4 and 40) match the dimension formulas")


def test_c04_calibration():
    config, attempts = find_calibration()
    assert (config.epsilon, config.clifford_norm) == (1, Fraction(1))
    assert attempts[0]["reference_monogenic"] == [True, True, True]
    op = build_calibrated(config)
    for s in reference_monogenic_spinors():
        assert is_monogenic(op, s)
    # machine-readable report: the bundled pair disagrees in the first
    # component only; everything stays monogenic.
    rep = third_item_discrepancy(op)
    assert rep["reference_is_monogenic"] and rep["companion_transform_is_monogenic"]
    assert rep["completed_transform_is_monogenic"]
    companion_rows = rep["companion_transform_vs_reference"]
    assert companion_rows[0]["matches"] is False
    assert all(row["matches"] for row in companion_rows[1:])
    report(4, "epsilon=+1, norm=1 puts all three reference spinors in the kernel; "
              "third-item discrepancy report emitted")


def test_c05_transform_lands_in_the_kernel(operator):
    rng = random.Random(515151)
    checked = 0
    while checked < 100:
        z = {}
        for _ in range(rng.randint(0, 4)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        if sum(z.values()) > 4:
            continue
        section = mono(
            s0=rng.randint(0, 2),
            z=z,
            poles=tuple(rng.randint(-1, 4) for _ in range(3)),
            coeff=Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
        )
        assert is_monogenic(operator, penrose_transform(section))
        checked += 1
    report(5, f"{checked} pseudo-random sections transform into exact kernel elements")


BLOCKERS = {
    "E23": ("z21", "z22"),
    "E32": ("z11", "z12"),
    "E34": ("z31", "z32"),
    "E43": ("z21", "z22"),
    "A12": ("z22", "z32"),
}


def random_monomial(rng):
    z = {}
    for _ in range(rng.randint(0, 4)):
        v = rng.choice(Z_VARS)
        z[v] = z.get(v, 0) + 1
    return mono(s0=rng.randint(0, 3), z=z, poles=tuple(rng.randint(-4, 4) for _ in range(3)))


def test_c06_weight_and_action_consistency():
    rng = random.Random(606060)
    for _ in range(200):
        f = random_monomial(rng)
        w = weight_of_monomial(f)
        for gl2_diag, sl4_diag in CARTAN_BASIS:
            eigenvalue = pair(w, gl2_diag, sl4_diag)
            assert cartan_action(f, gl2_diag, sl4_diag) == CochainSection(f.body.scale(eigenvalue))
    for root, (gl2_shift, gl4_shift) in ROOT_SHIFTS.items():
        checked = 0
        while checked < 25:
            f = random_monomial(rng)
            _, z, poles = term_data(f.body.sole_term()[0])
            z = dict(zip(Z_VARS, z))
            if any(z.get(v) for v in BLOCKERS[root]):
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
    report(6, "200 Cartan eigenvalue checks and 125 root-shift checks hold exactly")


def test_c07_lemma_coefficients():
    cases = list(dominant_row1_free_cases())
    assert len(cases) >= 20
    for z, poles in cases:
        r1, r2, r3 = poles
        chained, (a, b, c) = raising_chain(mono(z=z, poles=poles))
        ca, cb, cc = closed_form_scalars(z, poles)
        assert (a, b, c) == (ca, cb, cc) and c != 0
        # signed closed-form variants agree in absolute value
        assert abs(a) == abs((-1) ** (r3 - 1) * ca)
        assert abs(b) == abs((-1) ** (r2 + r3 - 2) * cb)
        lead = LaurentPoly.monomial(
            BASE, {f"x2_{name[1:]}": e for name, e in z.items()}
        ).sole_term()[0]
        assert penrose_transform(chained).components[0].coefficient(lead) == c
    report(7, f"chain scalars match the closed forms (factor s2+s3+5-r included) and "
              f"the transform leading term equals C on {len(cases)} dominant choices")


ALL_LABELS = [
    (a, b, l)
    for k in range(5)
    for l in range(k // 2 + 1)
    for a in range((k - 2 * l) // 2 + 1)
    for b in (k - 2 * l - 2 * a,)
]


def reference_third_section():
    total = mono(s0=1, poles=(1, 1, 1)).body
    for z, poles, sign in (
        ({"z22": 1, "z31": 1}, (2, 1, 1), -1),
        ({"z21": 1, "z32": 1}, (2, 1, 1), 1),
        ({"z11": 1, "z32": 1}, (1, 2, 1), -1),
        ({"z12": 1, "z31": 1}, (1, 2, 1), 1),
        ({"z12": 1, "z21": 1}, (1, 1, 2), -1),
        ({"z11": 1, "z22": 1}, (1, 1, 2), 1),
    ):
        total = total + mono(z=z, poles=poles, coeff=sign).body
    return CochainSection(total)


def test_c08_hwv_uniqueness_and_round_trip():
    completed = {}
    for label in ALL_LABELS:
        section = hwv_complete(label)
        completed[label] = section
        assert hwv_test(section)
        out = label_of_hwv(section)
        assert (out.a, out.b, out.l) == label
    print("criterion  8: sub-clause PASS - 14 labels complete, pass hwv_test and round-trip")
    computed = completed[(0, 0, 1)]
    reference = reference_third_section()
    if computed == reference:
        print("criterion  8: sub-clause PASS - (0,0,1) equals the reference section")
    else:
        difference = CochainSection(computed.body - reference.body)
        print("criterion  8: sub-clause FAIL - (0,0,1) differs from the reference section")
        print("  computed:   " + computed.body.to_string())
        print("  reference:  " + reference.body.to_string())
        print("  difference: " + difference.body.to_string())
        form = closed_form((0, 0, 1))
        (quadratic,) = {abs(c) for exps, c in form.terms.items() if term_data(exps)[0] == 0}
        print("  note: the reference section fails the E12 class condition"
              " (see penrose-calibration-report.json and the repository notes);"
              f" its quadratic coefficients are 1, the unique solution's 1/(2a + b + 5) = {quadratic}")
        raised = spinor_action("E12", penrose_transform(reference))
        print("  spinor side: rho(E12) T(reference) is " + ("zero" if raised.is_zero() else "nonzero"))
    assert computed == reference, (
        "hwv_complete((0,0,1)) does not reproduce the reference section term-for-term: "
        "that section is not an E12-highest class under the stated action table"
    )
    report(8, "all labels complete, pass hwv_test, round-trip, and (0,0,1) matches")


def test_c09_multiplicity_free():
    assert multiplicity_free_check(12)
    report(9, "summand weights are pairwise distinct through degree 12")


def test_c10_triviality():
    assert penrose_transform(mono(z={"z31": 2}, poles=(1, 1, 3))).is_zero()
    rng = random.Random(101010)
    for _ in range(50):
        z = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        poles = [rng.randint(0, 3) for _ in range(3)]
        poles[rng.randrange(3)] = -rng.randint(1, 3)
        section = mono(s0=rng.randint(0, 2), z=z, poles=tuple(poles))
        assert triviality_certificate(section) is Certificate.TRIVIAL_NEGATIVE_POLE
        assert penrose_transform(section).is_zero()
    report(10, "the quadratic example and 50 negative-pole monomials have zero class")


def test_c11_chart_soundness():
    values = {name: LaurentPoly.variable(CORRESPONDENCE, name) for name in ZETA_VARS}
    values.update(correspondence_substitution())
    gram = frame_gram(twistor_frame(values))
    assert gram.is_zero()
    assert gram.alphabet == CORRESPONDENCE and len(CORRESPONDENCE) == 16
    report(11, "the substituted 10x5 frame satisfies G^T H G = 0 in all 16 variables")


def test_c12_cli_byte_stability(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["calibrate", "--format", "json"]) == 0
    capsys.readouterr()
    examples = [
        ("transform", "--section", "zeta1^-1*zeta2^-1*zeta3^-1"),
        ("decompose", "--degree", "2"),
        ("check-monogenic", "--spinor", "1;0;0;0"),
    ]
    for argv in examples:
        runs = []
        for _ in range(2):
            assert main([*argv, "--format", "json"]) == 0
            runs.append(capsys.readouterr().out.encode())
        assert runs[0] == runs[1]
        json.loads(runs[0])
    report(12, "the three documented command examples emit byte-stable JSON")
