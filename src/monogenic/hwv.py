"""Highest weight vectors in the third cohomology, tested and completed exactly.

A section is a highest weight vector when its class is nonzero and every
positive simple raising (A12, E12, E23, E34) sends it to a class-zero section;
class vanishing is decided through the transform.  The transform carries each
raising of a section to the first-order operator rho(E) on its image
(`transform.spinor_action`, certified once), so only the section is
transformed and the raisings act on its image.

Completion: the weight of the sought vector pins a finite monomial candidate
space (z0 degree at most l, pole orders determined by the row sums), and the
raising conditions become an exact linear system over it.  Each candidate, a
distinct monomial, is transformed once, and its raising rows are read off
rho(E) applied to its image.  The solution is
unique only at the level of classes: the candidate space contains combinations
whose image vanishes, and with it every raised image (rho(E) is linear).
Candidate c leads such a combination exactly when its image lies in the span
of the later candidates' images, that is when column c is not a pivot of the
image rows read with their columns reversed.  Each class holds exactly one
raising solution that vanishes at these pinned candidates, so one nullspace,
of the raising rows plus a unit row per pinned candidate, gives the canonical
representative, normalized so the designated leading monomial
z0^l z11^(a+b) z22^a / (zeta1 zeta2 zeta3) has coefficient one.
"""

from __future__ import annotations

from .charts import TWISTOR, term_exponents
from .cochain import POSITIVE_SIMPLE_ROOTS, CochainSection
from .dirac import _compositions
from .laurent import (
    Exponents,
    InternalCheckError,
    LaurentPoly,
    exact_nullspace,
    rref,
)
from .repn import IrrepLabel, leading_term
from .transform import SpinorField, penrose_transform, spinor_action
from .transform import spinor_coefficient_rows as _stacked_rows


def hwv_test(section: CochainSection) -> bool:
    """Nonzero class annihilated (as a class) by all positive simple raisings."""
    return _is_hwv_image(penrose_transform(section))


def _is_hwv_image(image: SpinorField) -> bool:
    """`hwv_test` of a section, read off its transform `image`."""
    return not image.is_zero() and all(
        spinor_action(root, image).is_zero() for root in POSITIVE_SIMPLE_ROOTS
    )


def candidate_exponents(a: int, b: int, l: int) -> list[Exponents]:
    """Monomial exponent vectors sharing the weight of the (a, b, l) leading term.

    For z0 degree s0 = l - t the z degree is 2a + b + 2t with column sums
    (a+b+t, a+t), and the pole orders are then forced by the row sums:
    r = (a+b+1+t-s1, a+1+t-s2, 1+t-s3).
    """
    out = []
    for s0 in range(l, -1, -1):
        t = l - s0
        for col1 in _compositions(a + b + t, 3):
            for col2 in _compositions(a + t, 3):
                rows = [c1 + c2 for c1, c2 in zip(col1, col2)]
                poles = (a + b + 1 + t - rows[0], a + 1 + t - rows[1], 1 + t - rows[2])
                z = tuple(v for pair in zip(col1, col2) for v in pair)  # z11, z12, z21, ...
                out.append(term_exponents(s0, z, poles))
    return sorted(set(out))


def hwv_complete(label: tuple[int, int, int]) -> CochainSection:
    """The canonical highest weight vector with leading term z0^l D^a z11^b/(zzz).

    Raises InternalCheckError if the linear system fails to have a unique
    class-level solution (which would falsify the uniqueness statement the
    construction relies on).
    """
    return _complete_with_image(label)[0]


def _complete_with_image(label: tuple[int, int, int]) -> tuple[CochainSection, SpinorField]:
    """`hwv_complete` and the transform of its section.

    The image is sum_e c_e T(candidate_e) over the representative's
    coefficients, from the candidate images the completion already has, so
    the section is not transformed again.
    """
    a, b, l = label
    IrrepLabel(a, b, l)  # raises PreconditionError on a negative entry

    exponents = candidate_exponents(a, b, l)
    candidates = [CochainSection.from_terms({e: 1}) for e in exponents]

    n = len(candidates)
    images = [penrose_transform(cand) for cand in candidates]
    raised_images = [[spinor_action(root, image) for root in POSITIVE_SIMPLE_ROOTS] for image in images]
    # Candidate c is pinned when the later candidates' images span its own: column
    # n-1-c is then no pivot of the image rows with their columns reversed.
    image_rows = _stacked_rows([[image] for image in images])
    _, pivots = rref([{n - 1 - c: v for c, v in row.items()} for row in image_rows], n)
    pinned = set(range(n)).difference(n - 1 - p for p in pivots)
    classes = exact_nullspace(_stacked_rows(raised_images) + [{c: 1} for c in pinned], n_cols=n)
    if len(classes) != 1:
        raise InternalCheckError(
            f"label {label}: solution space has class dimension {len(classes)}, expected 1"
        )
    representative = classes[0]

    lead_exps, expected_top = leading_term(a, b, l)
    lead_coeff = representative[exponents.index(lead_exps)]
    if not lead_coeff:
        raise InternalCheckError(f"label {label}: leading coefficient vanished")
    representative = [v / lead_coeff for v in representative]

    body = LaurentPoly(TWISTOR, dict(zip(exponents, representative)))
    section = CochainSection(body)

    # The z0-top part must be exactly Delta^a z11^b/(zeta1 zeta2 zeta3).
    if body.degree_in("z0") != l:
        raise InternalCheckError(f"label {label}: z0 degree is not {l}")
    if body.coefficient_of(("z0",), (l,)) != expected_top:
        raise InternalCheckError(f"label {label}: leading term has the wrong shape")
    image = SpinorField.combination((c, field) for c, field in zip(representative, images) if c)
    return section, image
