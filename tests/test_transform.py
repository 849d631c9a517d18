"""The residue transform: worked examples against an independent oracle,
linearity, grading, vanishing, injectivity and the spinor-side raisings."""

import functools
import operator
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monogenic import cochain, transform
from monogenic.charts import BASE, CORRESPONDENCE, TWISTOR, Z_VARS, ZETA_VARS, correspondence_substitution
from monogenic.cochain import (
    POSITIVE_SIMPLE_ROOTS,
    Certificate,
    CochainSection,
    g0_action,
    triviality_certificate,
)
from monogenic.laurent import InternalCheckError, LaurentPoly, PreconditionError, exact_nullspace
from monogenic.transform import (
    SpinorField,
    _certify_transform_equivariance,
    penrose_transform,
    spinor_action,
)
from monogenic.hwv import _stacked_rows

from graded_algebra import weighted_degree


def transform_is_injective_on(sections):
    # True iff no nonzero rational combination of the sections has zero image.
    rows = _stacked_rows([penrose_transform(section) for section in sections])
    return not exact_nullspace(rows, n_cols=len(sections))


# ------------------------------------------------------------ independent oracle
# A from-scratch residue evaluator sharing no code with the package: dict-based
# polynomials over the 16 variables below, bindings typed out explicitly.
ORACLE_VARS = (
    "x12",
    "x1_11", "x1_12", "x1_21", "x1_22", "x1_31", "x1_32",
    "x2_11", "x2_12", "x2_21", "x2_22", "x2_31", "x2_32",
    "zeta1", "zeta2", "zeta3",
)
_IDX = {name: i for i, name in enumerate(ORACLE_VARS)}


def _mono(coeff=1, **powers):
    exps = [0] * len(ORACLE_VARS)
    for name, e in powers.items():
        exps[_IDX[name]] += e
    return {tuple(exps): Fraction(coeff)}


def _add(*polys):
    out = {}
    for p in polys:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = tuple(map(operator.add, e1, e2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


ORACLE_BINDINGS = {
    "z11": _add(_mono(x2_11=1), _mono(zeta3=1, x1_21=1), _mono(-1, zeta2=1, x1_31=1)),
    "z12": _add(_mono(x2_12=1), _mono(zeta3=1, x1_22=1), _mono(-1, zeta2=1, x1_32=1)),
    "z21": _add(_mono(x2_21=1), _mono(-1, zeta3=1, x1_11=1), _mono(zeta1=1, x1_31=1)),
    "z22": _add(_mono(x2_22=1), _mono(-1, zeta3=1, x1_12=1), _mono(zeta1=1, x1_32=1)),
    "z31": _add(_mono(x2_31=1), _mono(zeta2=1, x1_11=1), _mono(-1, zeta1=1, x1_21=1)),
    "z32": _add(_mono(x2_32=1), _mono(zeta2=1, x1_12=1), _mono(-1, zeta1=1, x1_22=1)),
    "z0": _add(
        _mono(x12=1),
        *[_mono(Fraction(1, 2), **{f"x2_{a}1": 1, f"x1_{a}2": 1}) for a in (1, 2, 3)],
        *[_mono(Fraction(-1, 2), **{f"x1_{a}1": 1, f"x2_{a}2": 1}) for a in (1, 2, 3)],
        _mono(zeta1=1, x1_31=1, x1_22=1),
        _mono(-1, zeta1=1, x1_21=1, x1_32=1),
        _mono(zeta2=1, x1_11=1, x1_32=1),
        _mono(-1, zeta2=1, x1_31=1, x1_12=1),
        _mono(zeta3=1, x1_21=1, x1_12=1),
        _mono(-1, zeta3=1, x1_11=1, x1_22=1),
    ),
    "zeta1": _mono(zeta1=1),
    "zeta2": _mono(zeta2=1),
    "zeta3": _mono(zeta3=1),
}


@functools.lru_cache(maxsize=None)
def _binding_power(name, e):
    # Shared between calls: callers only read the result.
    return _mono(1) if e == 0 else _mul(_binding_power(name, e - 1), ORACLE_BINDINGS[name])


# Component m is the residue of the substituted section times (1, zeta1, zeta2,
# zeta3)[m], that is its coefficient of zeta^((-1,-1,-1) - e_m).
_RESIDUE_POLES = {(-1, -1, -1): 0, (-2, -1, -1): 1, (-1, -2, -1): 2, (-1, -1, -2): 3}
_ZETA_SLOTS = [_IDX[n] for n in ("zeta1", "zeta2", "zeta3")]


def oracle_transform(section: CochainSection) -> list[dict]:
    images = []
    for exps, coeff in section.body.terms.items():
        term = _mono(coeff)
        for name, e in zip(TWISTOR.names, exps):
            if e > 0:
                term = _mul(term, _binding_power(name, e))
            elif e < 0:
                term = _mul(term, _mono(1, **{name: e}))
        images.append(term)
    components = [{} for _ in _RESIDUE_POLES]
    for exps, coeff in _add(*images).items():
        m = _RESIDUE_POLES.get(tuple(exps[i] for i in _ZETA_SLOTS))
        if m is not None:
            key = list(exps)
            for i in _ZETA_SLOTS:
                key[i] = 0
            components[m][tuple(key)] = coeff
    return components


def spinor_to_oracle(field: SpinorField) -> list[dict]:
    out = []
    for p in field.components:
        comp = {}
        for exps, coeff in p.terms.items():
            key = [0] * len(ORACLE_VARS)
            for name, e in zip(BASE.names, exps):
                key[_IDX[name]] = e
            comp[tuple(key)] = coeff
        out.append(comp)
    return out


mono = CochainSection.monomial


def base_poly(powers, coeff=1):
    return LaurentPoly.monomial(BASE, powers, coeff)


# ----------------------------------------------------------------- worked cases
def test_constant_spinor():
    field = penrose_transform(mono(poles=(1, 1, 1)))
    assert field.components[0] == LaurentPoly.constant(BASE, 1)
    assert all(p.is_zero() for p in field.components[1:])


def test_z11_squared_image():
    field = penrose_transform(mono(z={"z11": 2}, poles=(1, 1, 1)))
    assert field.components[0] == base_poly({"x2_11": 2})
    assert all(p.is_zero() for p in field.components[1:])


def test_z11_image():
    field = penrose_transform(mono(z={"z11": 1}, poles=(1, 1, 1)))
    assert field.components[0] == base_poly({"x2_11": 1})
    assert all(p.is_zero() for p in field.components[1:])


def test_transform_matches_oracle_on_samples():
    rng = random.Random(99)
    samples = [
        mono(poles=(1, 1, 1)),
        mono(s0=1, poles=(1, 1, 1)),
        mono(z={"z11": 1, "z22": 1}, poles=(1, 1, 2)),
        mono(z={"z31": 2}, poles=(1, 1, 3)),
        mono(s0=2, z={"z21": 1}, poles=(2, 1, 1)),
    ]
    for _ in range(25):
        z = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        samples.append(
            mono(
                s0=rng.randint(0, 2),
                z=z,
                poles=tuple(rng.randint(-2, 3) for _ in range(3)),
                coeff=Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
            )
        )
    for section in samples:
        assert spinor_to_oracle(penrose_transform(section)) == oracle_transform(section)


def third_item_reference_section():
    terms = {
        "z0 lead": mono(s0=1, poles=(1, 1, 1)),
        "n1": mono(z={"z22": 1, "z31": 1}, poles=(2, 1, 1), coeff=-1),
        "n2": mono(z={"z21": 1, "z32": 1}, poles=(2, 1, 1)),
        "m1": mono(z={"z11": 1, "z32": 1}, poles=(1, 2, 1), coeff=-1),
        "m2": mono(z={"z12": 1, "z31": 1}, poles=(1, 2, 1)),
        "k1": mono(z={"z12": 1, "z21": 1}, poles=(1, 1, 2), coeff=-1),
        "k2": mono(z={"z11": 1, "z22": 1}, poles=(1, 1, 2)),
    }
    return CochainSection(LaurentPoly.sum(TWISTOR, (part.body for part in terms.values())))


def test_third_item_transform_value():
    # The first component carries x12 with coefficient 1 (not 3) and three
    # times the reference bilinear; components 2-4 match the reference spinor.
    field = penrose_transform(third_item_reference_section())
    bilinear = LaurentPoly.zero(BASE)
    for i in (1, 2, 3):
        bilinear = bilinear + base_poly({f"x1_{i}1": 1, f"x2_{i}2": 1}, Fraction(3, 2))
        bilinear = bilinear - base_poly({f"x2_{i}1": 1, f"x1_{i}2": 1}, Fraction(3, 2))
    assert field.components[0] == base_poly({"x12": 1}) + bilinear
    assert field.components[1] == base_poly({"x2_21": 1, "x2_32": 1}) - base_poly(
        {"x2_31": 1, "x2_22": 1}
    )
    assert field.components[2] == base_poly({"x2_31": 1, "x2_12": 1}) - base_poly(
        {"x2_11": 1, "x2_32": 1}
    )
    assert field.components[3] == base_poly({"x2_11": 1, "x2_22": 1}) - base_poly(
        {"x2_21": 1, "x2_12": 1}
    )
    assert spinor_to_oracle(field) == oracle_transform(third_item_reference_section())


# -------------------------------------------------------------------- properties
def test_linearity():
    rng = random.Random(3)
    for _ in range(20):
        f = mono(
            z={rng.choice(Z_VARS): 1},
            poles=tuple(rng.randint(0, 2) for _ in range(3)),
        )
        g = mono(s0=rng.randint(0, 2), poles=tuple(rng.randint(0, 2) for _ in range(3)))
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
        combo = CochainSection(f.body.scale(a) + g.body.scale(b))
        lhs = penrose_transform(combo)
        rhs = SpinorField.combination([(a, penrose_transform(f)), (b, penrose_transform(g))])
        assert lhs.components == rhs.components


def test_bindings_carry_no_zeta_poles():
    # With test_every_binding_term_is_affine_in_zeta (test_charts.py), this
    # certifies the reach rule of the transform: the zetas
    # pass through unbound and no binding has a negative zeta exponent, so the
    # bindings of z0^s0 z^Z multiply to zeta exponents >= 0 summing to at most
    # s0 + |Z|, and a monomial zeta^-r needing more than that has zero image.
    bindings = correspondence_substitution()
    assert set(bindings) == {"z0", *Z_VARS}
    slots = [CORRESPONDENCE.index[name] for name in ZETA_VARS]
    for value in bindings.values():
        assert all(exps[i] >= 0 for exps in value.terms for i in slots)


# Sections of two to four terms z0^s0 z^Z zeta^-r with pole orders 1..4.
raising_sections = st.dictionaries(
    st.builds(
        lambda s0, z, poles: mono(s0=s0, z=dict(Counter(z)), poles=poles).body.sole_term()[0],
        st.integers(0, 2),
        st.lists(st.sampled_from(Z_VARS), max_size=3),
        st.tuples(*[st.integers(1, 4)] * 3),
    ),
    st.integers(-3, 3).filter(bool),
    min_size=2,
    max_size=4,
).map(CochainSection.from_terms)


@settings(max_examples=30, deadline=None)
@given(raising_sections)
def test_spinor_action_intertwines_the_transform(section):
    # The section-side action, transformed, is the oracle for rho.
    image = penrose_transform(section)
    for root in POSITIVE_SIMPLE_ROOTS:
        assert spinor_action(root, image) == penrose_transform(g0_action(root, section)), root


def test_spinor_action_on_a_worked_image():
    # T(z21 / zeta1 zeta2 zeta3) = (x2_21, 0, 0, 0); E23 raises z21 to z11 and
    # rho(E23) sends x2_21 to x2_11.  rho(E12) differentiates no x2 variable
    # and adds component 1, which is zero, so it kills the image.
    image = penrose_transform(mono(z={"z21": 1}, poles=(1, 1, 1)))
    assert image == SpinorField((base_poly({"x2_21": 1}),) + (LaurentPoly.zero(BASE),) * 3)
    assert spinor_action("E23", image) == penrose_transform(mono(z={"z11": 1}, poles=(1, 1, 1)))
    assert spinor_action("E12", image).is_zero()


@pytest.mark.parametrize("root", ["E21", "A21", "E13"])
def test_spinor_action_rejects_other_roots(root):
    with pytest.raises(PreconditionError):
        spinor_action(root, SpinorField.zero())


def test_equivariance_certificate_holds():
    _certify_transform_equivariance.__wrapped__()


# Oracle: rho of each positive simple root written out by hand, as {x_v: (x_u, c)} for the
# vector field sum c x_u d/dx_v, and its slot entry (m, nu): component m += component nu.
RHO_ORACLE = {
    "A12": ({f"x{b}_{i}2": (f"x{b}_{i}1", 1) for b in (1, 2) for i in (1, 2, 3)}, None),
    "E12": ({f"x1_3{j}": (f"x2_2{j}", 1) for j in (1, 2)}
            | {f"x1_2{j}": (f"x2_3{j}", -1) for j in (1, 2)}, (0, 1)),
    "E23": ({f"x2_2{j}": (f"x2_1{j}", 1) for j in (1, 2)}
            | {f"x1_1{j}": (f"x1_2{j}", -1) for j in (1, 2)}, (1, 2)),
    "E34": ({f"x2_3{j}": (f"x2_2{j}", 1) for j in (1, 2)}
            | {f"x1_2{j}": (f"x1_3{j}", -1) for j in (1, 2)}, (2, 3)),
}


def test_rho_is_the_oracle_table():
    # rho is derived from the base variables' table; the hand-written table is its oracle.
    assert transform._RHO == {
        root: ({v: base_poly({u: 1}, c) for v, (u, c) in field.items()}, slot)
        for root, (field, slot) in RHO_ORACLE.items()
    }


def _flip_one_sign(monkeypatch):
    field, slot = transform._RHO["E23"]
    monkeypatch.setitem(transform._RHO, "E23", (field | {"x1_11": -field["x1_11"]}, slot))


@pytest.mark.parametrize("mutant", [
    _flip_one_sign,
    lambda monkeypatch: monkeypatch.setitem(transform._RHO, "E12", (transform._RHO["E12"][0], None)),
    lambda monkeypatch: monkeypatch.setitem(cochain._TWISTS, "E12", cochain._TWISTS["E12"].scale(Fraction(4, 5))),
], ids=["flipped vector-field sign", "dropped slot entry", "E12 twist 4"])
def test_equivariance_certificate_rejects_mutants(monkeypatch, mutant):
    mutant(monkeypatch)
    with pytest.raises(InternalCheckError):
        _certify_transform_equivariance.__wrapped__()


def test_equivariance_certificate_runs_lazily_and_once():
    script = (
        "import monogenic.hwv; from monogenic.transform import _certify_transform_equivariance as c, "
        "spinor_action, SpinorField; before = c.cache_info().misses; "
        "spinor_action('A12', SpinorField.zero()); spinor_action('E12', SpinorField.zero()); "
        "print(before, c.cache_info().misses, c.cache_info().hits)"
    )
    from test_cli import child_env

    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert result.stdout.split() == ["0", "1", "1"], result.stderr


@st.composite
def reach_monomials(draw, past_bound=None):
    """Exponents of z0^s0 z^Z zeta^-r with s0 in 0..3 and |Z| <= 4.

    With past_bound None the pole orders are drawn from -2..7; otherwise they
    are >= 1 with sum(r_i - 1) = s0 + |Z| + 1 + past_bound, where the bound
    s0 + |Z| + 1 is the largest sum that reaches the residue.
    """
    s0 = draw(st.integers(0, 3))
    z = draw(st.lists(st.sampled_from(Z_VARS), max_size=4))
    if past_bound is None:
        poles = draw(st.tuples(*[st.integers(-2, 7)] * 3))
    else:
        poles = [1, 1, 1]
        for _ in range(s0 + len(z) + 1 + past_bound):
            poles[draw(st.sampled_from([i for i in range(3) if poles[i] < 7]))] += 1
    return mono(s0=s0, z=dict(Counter(z)), poles=tuple(poles)).body.sole_term()[0]


# One term on the reach bound, one just past it, and at most one free term.
mixed_sections = st.builds(
    lambda pinned, free, coeffs: CochainSection.from_terms(dict(zip(pinned + free, coeffs))),
    st.tuples(reach_monomials(past_bound=0), reach_monomials(past_bound=1)).map(list),
    st.lists(reach_monomials(), max_size=1),
    st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3),
)


@settings(max_examples=12, deadline=None)
@given(mixed_sections)
def test_reach_rule_keeps_every_nonzero_image(section):
    assert spinor_to_oracle(penrose_transform(section)) == oracle_transform(section)


def test_reach_rule_boundary_cases():
    zero = LaurentPoly.zero(BASE)
    # sum(r_i - 1) = 2 = s0 + |Z| + 1 attains the bound: zeta1's coefficient of z21.
    attained = mono(z={"z21": 1}, poles=(3, 1, 1))
    assert penrose_transform(attained) == SpinorField((zero, base_poly({"x1_31": 1}), zero, zero))
    past = mono(z={"z21": 1}, poles=(4, 1, 1))
    assert penrose_transform(past).is_zero()
    z0_case = mono(s0=1, poles=(2, 2, 1))
    assert not penrose_transform(z0_case).is_zero()
    sections = [attained, past, z0_case]
    expected = [oracle_transform(section) for section in sections]
    assert [spinor_to_oracle(penrose_transform(section)) for section in sections] == expected


def test_unreachable_sections_skip_the_substitution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("substitute ran on a section with no reachable term")

    monkeypatch.setattr(LaurentPoly, "substitute", refuse)
    section = CochainSection(
        mono(z={"z21": 1}, poles=(4, 1, 1)).body
        + mono(s0=2, poles=(-1, 3, 3), coeff=2).body
        + mono(s0=3, z={"z11": 2}, poles=(5, 5, 5)).body
    )
    assert penrose_transform(section) == SpinorField.zero()


def test_degree_homogeneity_of_images():
    rng = random.Random(4)
    for _ in range(40):
        z = {}
        for _ in range(rng.randint(0, 4)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        s0 = rng.randint(0, 2)
        f = mono(s0=s0, z=z, poles=tuple(rng.randint(0, 3) for _ in range(3)))
        field = penrose_transform(f)
        degrees = {weighted_degree(e) for p in field.components for e in p.terms}
        assert degrees <= {2 * s0 + sum(z.values())}


def test_class_vanishing_examples():
    assert penrose_transform(mono(z={"z31": 2}, poles=(1, 1, 3))).is_zero()
    assert not penrose_transform(mono(poles=(1, 1, 1))).is_zero()
    assert penrose_transform(mono(poles=(-1, -1, -1))).is_zero()  # zeta1 zeta2 zeta3, no poles


def test_negative_pole_certificates_transform_to_zero():
    rng = random.Random(12)
    for _ in range(50):
        z = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(Z_VARS)
            z[v] = z.get(v, 0) + 1
        poles = [rng.randint(0, 3) for _ in range(3)]
        poles[rng.randrange(3)] = -rng.randint(1, 3)
        f = mono(s0=rng.randint(0, 2), z=z, poles=tuple(poles))
        assert triviality_certificate(f) is Certificate.TRIVIAL_NEGATIVE_POLE
        assert penrose_transform(f).is_zero()


def test_injectivity_checks():
    f = mono(poles=(1, 1, 1))
    assert transform_is_injective_on([f])
    assert not transform_is_injective_on([f, CochainSection(f.body.scale(2))])
    assert transform_is_injective_on(
        [mono(z={"z11": 1}, poles=(1, 1, 1)), mono(z={"z21": 1}, poles=(1, 1, 1))]
    )


def test_weighted_degree_counts_x12_twice():
    p = base_poly({"x12": 1, "x1_11": 1})
    (exps,) = p.terms
    assert weighted_degree(exps) == 3
