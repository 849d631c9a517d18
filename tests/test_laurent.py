"""Exact polynomial substrate: ring axioms, substitution, extraction, derivatives, records."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monogenic.calibration import CalibrationConfig
from monogenic.charts import BASE, TWISTOR
from monogenic.cochain import CochainSection, Weight
from monogenic.dirac import DiracOperator
from monogenic.laurent import (
    Alphabet,
    AlphabetMismatch,
    LaurentPoly,
    PreconditionError,
)
from monogenic.repn import IrrepLabel, ModuleDescriptor
from monogenic.transform import SpinorField
from monogenic.weyl import WeylGenerator

AB = Alphabet(("x", "y"))
ZETAS = Alphabet(("zeta1", "zeta2", "zeta3"), negatives=("zeta1", "zeta2", "zeta3"))
MIXED = Alphabet(("u", "v", "zeta1"), negatives=("zeta1",))


def poly(alphabet, terms):
    return LaurentPoly(alphabet, terms)


def coefficients():
    return st.fractions(
        min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
    )


def mixed_polys():
    exps = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)
    )
    return st.dictionaries(exps, coefficients(), max_size=5).map(
        lambda terms: poly(MIXED, terms)
    )


def test_difference_of_squares():
    x = LaurentPoly.variable(AB, "x")
    one = LaurentPoly.constant(AB, 1)
    assert (x + one) * (x - one) == x * x - one


def test_additive_identity():
    p = poly(AB, {(2, 1): Fraction(3, 2), (0, 0): -1})
    assert p + LaurentPoly.zero(AB) == p


def test_laurent_cancellation():
    z = LaurentPoly.variable(ZETAS, "zeta1")
    zinv = LaurentPoly.variable(ZETAS, "zeta1", -1)
    assert zinv * z == LaurentPoly.constant(ZETAS, 1)


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatch):
        LaurentPoly.variable(AB, "x") + LaurentPoly.variable(ZETAS, "zeta1")


def test_negative_exponent_rejected_off_the_invertible_set():
    with pytest.raises(PreconditionError):
        LaurentPoly.variable(AB, "x", -1)
    with pytest.raises(PreconditionError):
        poly(MIXED, {(-1, 0, 0): 1})


def test_public_construction_is_canonical():
    zero_term = LaurentPoly(BASE, {BASE.zero_exponents(): Fraction(0)})
    assert zero_term == LaurentPoly.zero(BASE)
    assert zero_term.is_zero()
    assert zero_term.to_string() == "0"
    with pytest.raises(PreconditionError):
        LaurentPoly(BASE, {(-1,) + (0,) * (len(BASE) - 1): Fraction(1)})  # x12^-1


@given(mixed_polys(), mixed_polys(), mixed_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(mixed_polys())
@settings(max_examples=60, deadline=None)
def test_canonical_form_cancels(p):
    assert not (p + (-p)).terms


def naive_mul(a, b):
    # Independent dict-convolution oracle for products.
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(i + j for i, j in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


@given(mixed_polys(), mixed_polys())
@settings(max_examples=60, deadline=None)
def test_product_matches_convolution_oracle(p, q):
    assert (p * q).terms == naive_mul(p.terms, q.terms)


def test_substitute_expanded_square():
    # z11^2 with z11 bound to a three-term linear expression.
    src = Alphabet(("z11",))
    target = Alphabet(
        ("x2_11", "x1_21", "x1_31", "zeta2", "zeta3"), negatives=("zeta2", "zeta3")
    )
    binding = (
        LaurentPoly.variable(target, "x2_11")
        + LaurentPoly.monomial(target, {"zeta3": 1, "x1_21": 1})
        - LaurentPoly.monomial(target, {"zeta2": 1, "x1_31": 1})
    )
    result = LaurentPoly.variable(src, "z11", 2).substitute({"z11": binding}, target)
    assert result.terms == naive_mul(binding.terms, binding.terms)


def test_substitute_empty_bindings_is_identity():
    p = poly(MIXED, {(1, 2, -1): Fraction(7, 3)})
    assert p.substitute({}, MIXED) == p


def test_substitute_identity_binding_on_negative_exponent():
    zinv = LaurentPoly.variable(MIXED, "zeta1", -1)
    same = zinv.substitute({"zeta1": LaurentPoly.variable(MIXED, "zeta1")}, MIXED)
    assert same == zinv


def test_substitute_negative_exponent_needs_monomial():
    p = LaurentPoly.variable(MIXED, "zeta1", -1)
    binding = LaurentPoly.variable(MIXED, "u") + LaurentPoly.constant(MIXED, 1)
    with pytest.raises(PreconditionError):
        p.substitute({"zeta1": binding}, MIXED)


@given(mixed_polys(), mixed_polys())
@settings(max_examples=40, deadline=None)
def test_substitution_is_a_ring_homomorphism(p, q):
    target = MIXED
    bindings = {
        "u": LaurentPoly.variable(target, "v") + LaurentPoly.constant(target, 2),
        "v": LaurentPoly.monomial(target, {"u": 1, "zeta1": 1}),
        "zeta1": LaurentPoly.variable(target, "zeta1", -1),
    }
    lhs = (p * q).substitute(bindings, target)
    rhs = p.substitute(bindings, target) * q.substitute(bindings, target)
    assert lhs == rhs
    assert (p + q).substitute(bindings, target) == p.substitute(
        bindings, target
    ) + q.substitute(bindings, target)


def test_coefficient_extraction_examples():
    full = poly(ZETAS, {(-1, -1, -1): 1})
    assert full.coefficient_of(("zeta1", "zeta2", "zeta3"), (-1, -1, -1)) == (
        LaurentPoly.constant(ZETAS, 1)
    )
    p = poly(MIXED, {(1, 0, 0): 1, (0, 1, 1): 1})  # u + v*zeta1
    assert p.coefficient_of(("zeta1",), (0,)) == LaurentPoly.variable(MIXED, "u")
    q = poly(MIXED, {(1, 0, -2): 1})
    assert q.coefficient_of(("zeta1",), (-1,)).is_zero()


def test_coefficient_extraction_requires_distinct_vars():
    with pytest.raises(PreconditionError):
        poly(MIXED, {}).coefficient_of(("u", "u"), (0, 0))
    with pytest.raises(PreconditionError):
        poly(MIXED, {}).coefficient_of(("u", "v"), (0,))


@given(mixed_polys(), mixed_polys(), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_coefficient_of_product_is_convolution(p, q, e):
    lhs = (p * q).coefficient_of(("zeta1",), (e,))
    acc = LaurentPoly.zero(MIXED)
    for k in range(-6, 7):
        acc = acc + p.coefficient_of(("zeta1",), (k,)) * q.coefficient_of(
            ("zeta1",), (e - k,)
        )
    assert lhs == acc


def test_derivative_power_rule_on_negative_exponent():
    zinv = LaurentPoly.variable(ZETAS, "zeta1", -1)
    assert zinv.derivative("zeta1") == LaurentPoly.variable(ZETAS, "zeta1", -2).scale(-1)


def test_derivative_examples():
    p = poly(MIXED, {(2, 1, 0): 1})  # u^2 v
    assert p.derivative("u") == poly(MIXED, {(1, 1, 0): 2})
    assert p.derivative("zeta1").is_zero()


@given(mixed_polys(), mixed_polys())
@settings(max_examples=60, deadline=None)
def test_derivative_is_a_derivation(p, q):
    lhs = (p * q).derivative("u")
    assert lhs == p.derivative("u") * q + p * q.derivative("u")


def test_to_string_round_trips_layout():
    p = poly(MIXED, {(1, 0, -1): Fraction(3, 2), (0, 0, 0): -1})
    assert p.to_string() == "3/2 * u * zeta1^-1 - 1"


# ----------------------------------------------------------- one accumulator
BINDINGS = {
    "u": LaurentPoly.variable(MIXED, "v") + LaurentPoly.constant(MIXED, 2),
    "v": LaurentPoly.monomial(MIXED, {"u": 1, "zeta1": 1}),
    "zeta1": LaurentPoly.variable(MIXED, "zeta1", -1),
}
PARTIAL_BINDINGS = {"u": BINDINGS["u"] - LaurentPoly.variable(MIXED, "zeta1", 2)}


def assert_canonical(p):
    assert all(type(c) is Fraction and c for c in p.terms.values()), p.terms


def fold_sum(alphabet, polys):
    total = LaurentPoly.zero(alphabet)
    for p in polys:
        total = total + p
    return total


def substitute_by_fold(p, bindings, target):
    # The former substitution: one product per term, summed by `+`.
    total = LaurentPoly.zero(target)
    for exps, coeff in p.terms.items():
        term = LaurentPoly.constant(target, coeff)
        for name, e in zip(p.alphabet.names, exps):
            if name not in bindings:
                term = term * LaurentPoly.variable(target, name, e)
            elif e >= 0:
                term = term * bindings[name] ** e
            else:
                term = term * bindings[name].inverse_monomial() ** -e
        total = total + term
    return total


@given(st.lists(mixed_polys(), max_size=6))
@settings(max_examples=60, deadline=None)
def test_sum_is_the_left_fold_of_addition(polys):
    total = LaurentPoly.sum(MIXED, polys)
    assert total == fold_sum(MIXED, polys)
    assert_canonical(total)
    assert LaurentPoly.sum(MIXED, polys + [-p for p in reversed(polys)]).is_zero()


@given(st.lists(mixed_polys(), max_size=4), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_sum_rejects_mixed_alphabets(polys, at):
    polys.insert(min(at, len(polys)), LaurentPoly.variable(AB, "x"))
    with pytest.raises(AlphabetMismatch):
        LaurentPoly.sum(MIXED, polys)


@given(mixed_polys(), mixed_polys())
@settings(max_examples=40, deadline=None)
def test_substitute_matches_the_fold_oracle(p, q):
    for bindings in (BINDINGS, PARTIAL_BINDINGS):
        assert p.substitute(bindings, MIXED) == substitute_by_fold(p, bindings, MIXED)
        assert (p * q).substitute(bindings, MIXED) == substitute_by_fold(p * q, bindings, MIXED)


@given(mixed_polys(), mixed_polys(), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_results_are_canonical(p, q, e):
    results = [
        p + q,
        p - p,
        p * q,
        LaurentPoly.sum(MIXED, [p, q, -p]),
        p.substitute(BINDINGS, MIXED),
        (p * q).substitute(PARTIAL_BINDINGS, MIXED),
        p.derivative("u"),
        p.derivative("zeta1"),
        p.coefficient_of(("zeta1",), (e,)),
        (p * q).coefficient_of(("u", "zeta1"), (1, e)),
    ]
    for result in results:
        assert_canonical(result)


_HALF7 = (Fraction(7, 2), Fraction(7, 2))
_BASE0 = LaurentPoly.zero(BASE)
# (class, field values, repr as the frozen dataclasses printed it, values `_check` refuses, its error)
RECORDS = [
    (IrrepLabel, (1, 2, 1), "IrrepLabel(a=1, b=2, l=1)",
     (0, -1, 0), "label entries must be non-negative"),
    (ModuleDescriptor, (_HALF7, (1, 0, 0, 0), 4),
     "ModuleDescriptor(gl2_weight=(Fraction(7, 2), Fraction(7, 2)), sl4_weight=(1, 0, 0, 0), "
     "dimension=4)", None, None),
    (Weight, (_HALF7, (2, 1, 1, 1)), "Weight(gl2=(Fraction(7, 2), Fraction(7, 2)), gl4=(2, 1, 1, 1))",
     None, None),
    (CochainSection, (LaurentPoly.monomial(TWISTOR, {"z0": 1, "zeta1": -1, "zeta2": -1, "zeta3": -1}),),
     "CochainSection(body=LaurentPoly(z0 * zeta1^-1 * zeta2^-1 * zeta3^-1))",
     (_BASE0,), "cochain sections live over the twistor chart alphabet"),
    (SpinorField, ((_BASE0,) * 4,),
     "SpinorField(components=(LaurentPoly(0), LaurentPoly(0), LaurentPoly(0), LaurentPoly(0)))",
     ((LaurentPoly.zero(TWISTOR),) * 4,), "spinor components live over the base alphabet"),
    (DiracOperator, (((),), 2), "DiracOperator(plan=((),), scale=2)", None, None),
    (CalibrationConfig, (-1, Fraction(1, 2)), "CalibrationConfig(epsilon=-1, clifford_norm=Fraction(1, 2))",
     None, None),
    (WeylGenerator, (((1, -1),), (1, 0), (0, 1, 2, 3), -1),
     "WeylGenerator(variables=((1, -1),), halves=(1, 0), slots=(0, 1, 2, 3), output_sign=-1)", None, None),
]


@pytest.mark.parametrize("cls, values, text, bad, problem", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, values, text, bad, problem):
    names = cls.__slots__
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert record == cls(**dict(zip(names, values))) == cls(values[0], **dict(zip(names[1:], values[1:])))
    assert repr(record) == text
    for args, kwargs in [(values[:-1], {}), (values + (0,), {}), (values, {names[0]: values[0]}),
                         (values[:-1], {"other": values[-1]})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    # Equal only to a record of the same class: not to its field tuple, nor to another record.
    assert record != values and record.__eq__(values) is NotImplemented
    with pytest.raises(TypeError):
        iter(record)
    for other_cls, other_values, *_ in RECORDS:
        assert (record == other_cls(*other_values)) == (other_cls is cls)
    if cls in (CochainSection, SpinorField):  # their LaurentPoly fields are unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)
    for mutate in (lambda: setattr(record, names[0], values[0]), lambda: delattr(record, names[0]),
                   lambda: setattr(record, "other", 0)):
        with pytest.raises(AttributeError):
            mutate()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == text
    if bad is not None:
        with pytest.raises(PreconditionError, match=problem):
            cls(*bad)


@pytest.mark.parametrize("components", [(_BASE0,), (_BASE0,) * 5, [_BASE0] * 4], ids=["one", "five", "list"])
def test_spinor_field_is_a_tuple_of_four_components(components):
    with pytest.raises(PreconditionError, match="exactly four components"):
        SpinorField(components)
