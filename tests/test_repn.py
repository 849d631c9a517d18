"""Dimension formulas, the graded decomposition table and label readout."""

from fractions import Fraction
from itertools import product

import pytest

from monogenic.cochain import CochainSection
from monogenic.hwv import hwv_complete
from monogenic.laurent import PreconditionError
from monogenic.repn import (
    IrrepLabel,
    decompose_Mk,
    dim_gl2,
    dim_sl4,
    label_of_hwv,
    module_descriptor,
)

from cochain_oracle import multiplicity_free_check


def test_dim_gl2():
    half = Fraction(1, 2)
    assert dim_gl2((5 * half, 5 * half)) == 1
    assert dim_gl2((9 * half, 5 * half)) == 3
    assert dim_gl2((7 * half, 5 * half)) == 2
    with pytest.raises(PreconditionError):
        dim_gl2((5 * half, 9 * half))


def test_dim_sl4():
    assert dim_sl4((1, 0, 0, 0)) == 4
    assert dim_sl4((3, 2, 0, 0)) == 60
    assert dim_sl4((3, 1, 1, 0)) == 36
    assert dim_sl4((2, 1, 0, 0)) == 20
    assert dim_sl4((0, 0, 0, 0)) == 1
    # The oracle: prod over the positive roots alpha of <lambda + rho, alpha> / <rho, alpha>.
    for p, q, r in product(range(21), repeat=3):
        weyl = (Fraction(1 + p) * (1 + q) * (1 + r) * (1 + Fraction(p + q, 2))
                * (1 + Fraction(q + r, 2)) * (1 + Fraction(p + q + r, 3)))
        assert dim_sl4((p + q + r, q + r, r, 0)) == weyl
    for weight in ((0, 1, 0, 0), (2, 1, 2, 0), (3, 3, 1, 2)):  # one rise at each position
        with pytest.raises(PreconditionError, match="not weakly decreasing"):
            dim_sl4(weight)


def test_decompose_degree_two():
    table = decompose_Mk(2)
    dims = {(lab.a, lab.b, lab.l): desc.dimension for lab, desc in table}
    assert dims == {(0, 2, 0): 180, (1, 0, 0): 36, (0, 0, 1): 4}
    assert sum(dims.values()) == 220
    # sorted by (l, a, b)
    assert [(lab.l, lab.a, lab.b) for lab, _ in table] == sorted(
        (lab.l, lab.a, lab.b) for lab, _ in table
    )


def test_decompose_degrees_zero_and_one():
    (zero,) = decompose_Mk(0)
    assert (zero[0].a, zero[0].b, zero[0].l) == (0, 0, 0)
    assert zero[1].dimension == 4
    (one,) = decompose_Mk(1)
    assert (one[0].a, one[0].b, one[0].l) == (0, 1, 0)
    assert one[1].dimension == 40
    assert one[1].gl2_weight == (Fraction(7, 2), Fraction(5, 2))


def test_descriptor_weights():
    desc = module_descriptor(IrrepLabel(0, 2, 0))
    assert desc.gl2_weight == (Fraction(9, 2), Fraction(5, 2))
    assert desc.sl4_weight == (3, 2, 0, 0)
    assert desc.dimension == 180


def test_multiplicity_free():
    assert multiplicity_free_check(0)
    assert multiplicity_free_check(2)
    assert multiplicity_free_check(12)


def test_label_of_hwv_examples():
    lab = label_of_hwv(CochainSection.monomial(z={"z11": 2}, poles=(1, 1, 1)))
    assert (lab.a, lab.b, lab.l) == (0, 2, 0)
    det = CochainSection(
        CochainSection.monomial(z={"z11": 1, "z22": 1}, poles=(1, 1, 1)).body
        + CochainSection.monomial(z={"z12": 1, "z21": 1}, poles=(1, 1, 1), coeff=-1).body
    )
    lab = label_of_hwv(det)
    assert (lab.a, lab.b, lab.l) == (1, 0, 0)
    lab = label_of_hwv(hwv_complete((0, 0, 1)))
    assert (lab.a, lab.b, lab.l) == (0, 0, 1)


def test_label_of_hwv_rejects_bad_leading_terms():
    with pytest.raises(PreconditionError):
        label_of_hwv(CochainSection.monomial(z={"z12": 1}, poles=(1, 1, 1)))
    with pytest.raises(PreconditionError):
        label_of_hwv(CochainSection.monomial(z={"z11": 1}, poles=(2, 1, 1)))


def test_labels_validate():
    with pytest.raises(PreconditionError):
        IrrepLabel(-1, 0, 0)
    assert IrrepLabel(1, 2, 1) in [label for label, _ in decompose_Mk(6)]
