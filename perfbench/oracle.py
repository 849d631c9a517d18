"""An independent residue transform, to check the transform workload's answers.

It shares no code with the engine: polynomials are plain dicts over the base
variables and the zetas, and the incidence bindings are typed out below (as the
engine computed them when this benchmark was defined).  So a change to the
engine's substitution, multiplication or residue extraction cannot change what
this module computes.  It is about as slow as the engine, so the workload
checks a fixed share of its sections with it.
"""

from __future__ import annotations

from fractions import Fraction

X_VARS = (
    "x12",
    "x1_11", "x1_12", "x1_21", "x1_22", "x1_31", "x1_32",
    "x2_11", "x2_12", "x2_21", "x2_22", "x2_31", "x2_32",
)
VARS = X_VARS + ("zeta1", "zeta2", "zeta3")
_INDEX = {name: i for i, name in enumerate(VARS)}

# Each binding is a sum of (coefficient, product of variables) terms.
_BINDING_TEXT = {
    "z0": "-1 x1_11 x1_22 zeta3, 1 x1_11 x1_32 zeta2, 1 x1_12 x1_21 zeta3, -1 x1_12 x1_31 zeta2,"
          " -1 x1_21 x1_32 zeta1, 1 x1_22 x1_31 zeta1, -1/2 x1_11 x2_12, 1/2 x1_12 x2_11,"
          " -1/2 x1_21 x2_22, 1/2 x1_22 x2_21, -1/2 x1_31 x2_32, 1/2 x1_32 x2_31, 1 x12",
    "z11": "1 x1_21 zeta3, -1 x1_31 zeta2, 1 x2_11",
    "z12": "1 x1_22 zeta3, -1 x1_32 zeta2, 1 x2_12",
    "z21": "-1 x1_11 zeta3, 1 x1_31 zeta1, 1 x2_21",
    "z22": "-1 x1_12 zeta3, 1 x1_32 zeta1, 1 x2_22",
    "z31": "1 x1_11 zeta2, -1 x1_21 zeta1, 1 x2_31",
    "z32": "1 x1_12 zeta2, -1 x1_22 zeta1, 1 x2_32",
}


def _parse(text: str) -> dict[tuple, Fraction]:
    poly = {}
    for term in text.split(","):
        coeff, *names = term.split()
        exps = [0] * len(VARS)
        for name in names:
            exps[_INDEX[name]] += 1
        poly[tuple(exps)] = Fraction(coeff)
    return poly


BINDINGS = {name: _parse(text) for name, text in _BINDING_TEXT.items()}


def _mul(a: dict, b: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(i + j for i, j in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def transform(s0: int, z: dict[str, int], poles: tuple[int, int, int], coeff: Fraction):
    """The four components of the image of coeff * z0^s0 prod z^z / zeta^poles.

    Component m is the zeta^(-1,-1,-1) coefficient of the substituted section
    times (1, zeta1, zeta2, zeta3)[m], as {x exponent tuple: coefficient}.
    """
    product = {(0,) * len(VARS): Fraction(coeff)}
    for name, power in [("z0", s0), *z.items()]:
        for _ in range(power):
            product = _mul(product, BINDINGS[name])
    components = []
    for m in range(4):
        # The zeta exponent of a term must cancel the poles minus one, less the weight.
        want = tuple(r - 1 - (1 if m == k + 1 else 0) for k, r in enumerate(poles))
        components.append(
            {e[: len(X_VARS)]: c for e, c in product.items() if e[len(X_VARS):] == want}
        )
    return components


def matches(image, base_names: tuple[str, ...], expected) -> bool:
    """True iff an engine spinor field equals the oracle's components."""
    slots = [base_names.index(name) for name in X_VARS]
    for poly, want in zip(image.components, expected):
        got = {tuple(e[i] for i in slots): c for e, c in poly.terms.items()}
        if got != want:
            return False
    return True
