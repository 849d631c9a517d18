"""Highest weight vectors in the third cohomology, tested and written in closed form.

A section is a highest weight vector when its class is nonzero and every
positive simple raising (A12, E12, E23, E34) sends it to a class-zero section;
class vanishing is decided through the transform.  The transform carries each
raising of a section to the first-order operator rho(E) on its image
(`transform.spinor_action`, certified once), so only the section is
transformed and the raisings act on its image.

Closed form: with N = 2a + b + 5, Delta = z11 z22 - z12 z21 and q_i the minor
(z_j1 z_k2 - z_j2 z_k1) / zeta_i for (i, j, k) cyclic,

    H(a, b, l) = Delta^a z11^b sum_j c_j z0^(l-j) h_j(q1, q2, q3) / (zeta1 zeta2 zeta3),

c_j = [l!/(l-j)!] / [N (N+1) ... (N+j-1)] and h_j the complete homogeneous
symmetric polynomial of degree j.  H lies in its label's weight space, a
finite space of candidate monomials listed in descending order.  A candidate
is pinned when the images of the candidates before it span its own, that is
when its column is no pivot of the reduced image rows.  The canonical vector
is the member of H's class that vanishes at the pinned candidates.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .charts import TWISTOR, term_exponents
from .cochain import POSITIVE_SIMPLE_ROOTS, CochainSection
from .laurent import Exponents, InternalCheckError, LaurentPoly, _compositions, rref
from .repn import IrrepLabel, leading_term
from .transform import SpinorField, penrose_transform, spinor_action


def hwv_test(section: CochainSection) -> bool:
    """Nonzero class annihilated (as a class) by all positive simple raisings."""
    return _is_hwv_image(penrose_transform(section))


def _is_hwv_image(image: SpinorField) -> bool:
    """`hwv_test` of a section, read off its transform `image`."""
    return not image.is_zero() and all(
        spinor_action(root, image).is_zero() for root in POSITIVE_SIMPLE_ROOTS
    )


def _stacked_rows(columns: Sequence[SpinorField]) -> list[dict[int, Fraction]]:
    """Exact coefficient matrix of one spinor field per column, as sparse rows.

    One row {column: coefficient} per (component, monomial) that occurs, in order of first occurrence.
    """
    rows: dict[tuple[int, Exponents], dict[int, Fraction]] = {}
    for col, field in enumerate(columns):
        for m, p in enumerate(field.components):
            for e, c in p.terms.items():
                rows.setdefault((m, e), {})[col] = c
    return list(rows.values())


def candidate_exponents(a: int, b: int, l: int) -> list[Exponents]:
    """Monomial exponent vectors sharing the weight of the (a, b, l) leading term, descending.

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
    return sorted(out, reverse=True)


def closed_form(label: tuple[int, int, int]) -> LaurentPoly:
    """H(a, b, l) of the module docstring: a highest weight vector of the label, with no solve."""
    a, b, l = label
    q1, q2, q3 = (LaurentPoly.monomial(TWISTOR, {f"z{j}1": 1, f"z{k}2": 1, f"zeta{i}": -1})
                  - LaurentPoly.monomial(TWISTOR, {f"z{j}2": 1, f"z{k}1": 1, f"zeta{i}": -1})
                  for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    n, c, terms = 2 * a + b + 5, Fraction(1), []
    for j in range(l + 1):
        z0 = LaurentPoly.monomial(TWISTOR, {"z0": l - j}, c)
        terms += [z0 * q1 ** i1 * q2 ** i2 * q3 ** i3 for i1, i2, i3 in _compositions(j, 3)]
        c = c * (l - j) / (n + j)
    return LaurentPoly.sum(TWISTOR, terms) * leading_term(a, b, l)[1]


def hwv_complete(label: tuple[int, int, int]) -> CochainSection:
    """The canonical highest weight vector with leading term z0^l D^a z11^b/(zzz).

    It is the closed form reduced to its pinned representative, whose leading
    coefficient is one.  Raises InternalCheckError when the closed form leaves
    the weight space, the leading term has the wrong shape or the image fails
    the certificate `_is_hwv_image`.
    """
    return _complete_with_image(label)[0]


def _complete_with_image(label: tuple[int, int, int]) -> tuple[CochainSection, SpinorField]:
    """`hwv_complete` and the transform of its section, summed from the candidate images.

    With R the reduced image rows and h the closed form's coefficients, the
    representative is R_p . h at each pivot p and zero at the pinned
    candidates, so its image is that of the closed form.
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
    image = SpinorField.combination((v, images[p]) for p, v in at_pivot.items() if v)
    if not _is_hwv_image(image):
        raise InternalCheckError(f"label {label}: the certificate fails (image zero or not raising-closed)")
    return CochainSection(body), image
