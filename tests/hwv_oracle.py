"""Test oracle: highest weight vectors by exact linear algebra, and the closed form by products.

The engine writes each highest weight vector in closed form
(`monogenic.hwv.closed_form`) and reduces it to its canonical class member
(`monogenic.hwv.hwv_complete`) modulo Cech coboundaries.  This module keeps
the route that needs no formula: every candidate monomial of the label's
weight is transformed, its image is raised by the four positive simple roots
on the spinor side, and one exact nullspace of the raising rows plus one unit
row per pinned candidate must be one-dimensional.  That dimension is the
uniqueness the closed form relies on.  It also keeps the reduction that
needs no coboundary: the closed form reduced at the candidates whose images
the earlier candidates' images span.  A second construction of the closed
form, with N a parameter, expands h_j as a sum over multisets of the three
minors.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

from monogenic.charts import BASE, TWISTOR
from monogenic.cochain import POSITIVE_SIMPLE_ROOTS, CochainSection
from monogenic.hwv import _is_hwv_image, _stacked_rows, candidate_exponents, closed_form
from monogenic.laurent import InternalCheckError, LaurentPoly, exact_nullspace, rref
from monogenic.repn import IrrepLabel, leading_term
from monogenic.transform import SpinorField, penrose_transform, spinor_action


def complete_by_solve(label):
    """(section, image) of the canonical highest weight vector of `label`, by the raising solve.

    The candidates are read in ascending order, and candidate c is pinned
    when column n-1-c is no pivot of the candidate image rows with their
    columns reversed: the later candidates' images span its own.  Asserts
    that the solutions vanishing at the pinned candidates form exactly one line.
    """
    a, b, l = label
    exponents = sorted(candidate_exponents(a, b, l))
    n = len(exponents)
    images = [penrose_transform(CochainSection.from_terms({e: 1})) for e in exponents]
    raised = [[spinor_action(root, image) for image in images] for root in POSITIVE_SIMPLE_ROOTS]
    raising_rows = [row for fields in raised for row in _stacked_rows(fields)]
    image_rows = _stacked_rows(images)
    _, pivots = rref([{n - 1 - c: v for c, v in row.items()} for row in image_rows])
    pinned = set(range(n)).difference(n - 1 - p for p in pivots)
    classes = exact_nullspace(raising_rows + [{c: 1} for c in pinned], n_cols=n)
    assert len(classes) == 1, f"label {label}: class dimension {len(classes)}, expected 1"
    representative = classes[0]
    lead = representative[exponents.index(leading_term(a, b, l)[0])]
    representative = [v / lead for v in representative]
    section = CochainSection(LaurentPoly(TWISTOR, dict(zip(exponents, representative))))
    image = combination((c, field) for c, field in zip(representative, images) if c)
    return section, image


def complete_by_images(label):
    """(section, image) of the canonical highest weight vector of `label`, summed from the candidate images.

    Every candidate is transformed, and one `rref` of their image rows, with
    the candidates in descending order, pins the candidates whose image the
    earlier candidates' images span (its non-pivots).  With R the reduced
    image rows and h the closed form's coefficients, the representative is
    R_p . h at each pivot p and zero at the pinned candidates, so its image is
    that of the closed form.
    """
    a, b, l = label
    IrrepLabel(a, b, l)  # raises PreconditionError on a negative entry
    exponents, form = candidate_exponents(a, b, l), closed_form(label)
    if not form.terms.keys() <= set(exponents):
        raise InternalCheckError(f"label {label}: a closed-form term lies outside the weight space")

    images = [penrose_transform(CochainSection.from_terms({e: 1})) for e in exponents]
    reduced, pivots = rref(_stacked_rows(images))
    h = [form.coefficient(e) for e in exponents]
    at_pivot = {p: sum(v * h[c] for c, v in row.items()) for row, p in zip(reduced, pivots)}
    body = LaurentPoly(TWISTOR, {exponents[p]: v for p, v in at_pivot.items()})
    # The z0-top part must be exactly Delta^a z11^b/(zeta1 zeta2 zeta3), leading coefficient one.
    if body.coefficient_of(("z0",), (l,)) != leading_term(a, b, l)[1]:
        raise InternalCheckError(f"label {label}: leading term has the wrong shape")
    image = combination((v, images[p]) for p, v in at_pivot.items() if v)
    if not _is_hwv_image(image):
        raise InternalCheckError(f"label {label}: the certificate fails (image zero or not raising-closed)")
    return CochainSection(body), image


def combination(pairs):
    """The linear combination sum c * field over (c, field) pairs, merged once per component."""
    pairs = list(pairs)
    return SpinorField(tuple(
        LaurentPoly.sum(BASE, (field.components[m].scale(c) for c, field in pairs)) for m in range(4)
    ))


def closed_form_with(label, n):
    """Delta^a z11^b sum_j c_j z0^(l-j) h_j(q1, q2, q3) / (zeta1 zeta2 zeta3) with N = `n`.

    c_j = l!/(l-j)! / (N (N+1) ... (N+j-1)), and h_j sums the products of j
    minors q_i = (z_j1 z_k2 - z_j2 z_k1) / zeta_i, (i, j, k) cyclic, over
    multisets.  At N = 2a + b + 5 this is `monogenic.hwv.closed_form`.
    """
    a, b, l = label

    def term(coeff, powers):
        return LaurentPoly.monomial(TWISTOR, powers, coeff)

    q = [
        term(1, {f"z{j}1": 1, f"z{k}2": 1, f"zeta{i}": -1})
        + term(-1, {f"z{j}2": 1, f"z{k}1": 1, f"zeta{i}": -1})
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    ]
    one = term(1, {})
    total = LaurentPoly.zero(TWISTOR)
    for j in range(l + 1):
        c = Fraction(prod(range(l - j + 1, l + 1)), prod(range(n, n + j)))
        h = LaurentPoly.sum(TWISTOR, (prod(m, start=one) for m in combinations_with_replacement(q, j)))
        total = total + term(c, {"z0": l - j}) * h
    return total * leading_term(a, b, l)[1]
