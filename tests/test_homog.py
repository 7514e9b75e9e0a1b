"""Homogeneous polynomials, section ideals, constructor, trace replay."""

import dataclasses
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from goodrings import polyuniv as pu
from goodrings.core import (
    GoodRingsError,
    ParseError,
    PreconditionError,
    PrimitivePoint,
    BezoutCertificate,
    UnsupportedRingError,
    is_primitive,
    require_primitive,
)
from goodrings.homog import (
    ConstructionTrace,
    ExtensionStep,
    HomogeneousPolynomial,
    ProductTrace,
    WitnessSearchExhausted,
    construct_unit_valued,
    extend_unit_valued,
    ideal_slice_dimension,
    linear_form_for_point,
    monomial_exponents,
    replay_trace,
    section_ideal_generators,
)
from goodrings.rings import (
    Integers,
    IntegersMod,
    PrimeField,
    ProductRing,
    RationalPoly,
    parse_ring,
)

Z = Integers()
QT = RationalPoly()


def P(text, n_vars=2, ring=Z):
    return HomogeneousPolynomial.parse(ring, n_vars, text)


def test_monomial_exponents_order_and_count():
    assert list(monomial_exponents(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert len(list(monomial_exponents(3, 3))) == 10


def test_polynomial_arithmetic():
    f = P("x1^2-x1*x2+x2^2")
    g = P("x1^2+x2^2")
    assert f.add(g) == P("2*x1^2-x1*x2+2*x2^2")
    assert f.sub(f).is_zero
    assert f.mul(P("x1")) == P("x1^3-x1^2*x2+x1*x2^2")
    assert f.scale(-2) == P("-2*x1^2+2*x1*x2-2*x2^2")
    assert P("x1+x2").pow(2) == P("x1^2+2*x1*x2+x2^2")
    assert P("x1+x2").pow(0) == HomogeneousPolynomial.constant(Z, 2, 1)


def _pow_base(case):
    if case == "Z_linear":
        return Z, P("3*x1-2*x2")
    if case == "Z_21_terms":
        # every monomial of degree 5 in 3 variables
        terms = {e: (-1) ** i * (i + 1) for i, e in enumerate(monomial_exponents(3, 5))}
        return Z, HomogeneousPolynomial(Z, 3, 5, terms)
    if case == "Z/12":
        ring = IntegersMod(12)
        return ring, P("5*x1^2+7*x1*x2+3*x2^2", ring=ring)
    ring = parse_ring("GF(7)[T]")
    return ring, P("(T+1)*x1+3*x2+(2*T^2+5)*x3", n_vars=3, ring=ring)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("case", ["Z_linear", "Z_21_terms", "Z/12", "GF(7)[T]"])
def test_pow_is_the_n_fold_product(case, n):
    ring, base = _pow_base(case)
    expected = HomogeneousPolynomial.constant(ring, base.n_vars, ring.one())
    for _ in range(n):
        expected = expected.mul(base)
    power = base.pow(n)
    assert power == expected
    assert power.degree == n * base.degree


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("case", ["Z_21_terms", "Z/12", "GF(7)[T]"])
def test_pow_multiplies_by_the_base_n_minus_1_times(monkeypatch, case, n):
    ring, base = _pow_base(case)
    factors = []
    original = HomogeneousPolynomial.mul

    def counted(self, other):
        factors.append(other)
        return original(self, other)

    monkeypatch.setattr(HomogeneousPolynomial, "mul", counted)
    base.pow(n)
    assert len(factors) == max(n - 1, 0)
    assert all(f is base for f in factors)


def test_add_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        P("x1").add(P("x1^2"))


def test_zero_passthrough_addition():
    z = HomogeneousPolynomial.zero(Z, 2, 5)
    f = P("x1^2")
    assert z.add(f) == f
    assert f.add(z) == f
    assert z.is_zero


def test_eval():
    f = P("x1^2-x1*x2+x2^2")
    assert f.eval((1, 1)) == 1
    assert f.eval((2, 3)) == 4 - 6 + 9
    with pytest.raises(ValueError):
        f.eval((1, 2, 3))


def test_format_canonical():
    assert P("x2^2 + 2*x1*x2 - x1^2").format() == "-x1^2+2*x1*x2+x2^2"
    assert HomogeneousPolynomial.zero(Z, 2).format() == "0"
    assert P("-x1").format() == "-x1"
    assert HomogeneousPolynomial.constant(Z, 2, 7).format() == "7"


def test_format_parenthesizes_compound_coefficients():
    t_plus_1 = QT.parse_element("T+1")
    f = HomogeneousPolynomial.monomial(QT, 2, (1, 0), t_plus_1)
    assert f.format() == "(T+1)*x1"
    assert HomogeneousPolynomial.parse(QT, 2, f.format()) == f
    c = HomogeneousPolynomial.constant(QT, 2, t_plus_1)
    assert c.format() == "(T+1)"
    assert HomogeneousPolynomial.parse(QT, 2, c.format()) == c


def test_parse_rejects_mixed_degree():
    with pytest.raises(ParseError):
        P("x1^2+x2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        P("x3", n_vars=2)


def test_parse_accepts_any_term_order_and_merging():
    assert P("x2*x1 + x1*x2") == P("2*x1*x2")


# products with a factor x_i^lift: at lift 249 or 65529 the product's degree
# is 255 or 65535, the most an 8- or 16-bit exponent field holds (x_i^3 in
# both factors fills the field); one more and it needs the next wider field
_LIFTS = (0, 249, 250, 65529, 65530)


@st.composite
def _arithmetic_case(draw):
    ring = draw(st.sampled_from((Z, IntegersMod(12), IntegersMod(7))))
    n_vars = draw(st.sampled_from((2, 3)))
    coeff = st.integers(-9, 9).map(lambda c: c if ring is Z else c % ring.n)
    terms = st.dictionaries(
        st.sampled_from(list(monomial_exponents(n_vars, 3))), coeff, max_size=4
    )
    lift = [0] * n_vars
    lift[draw(st.integers(0, n_vars - 1))] = draw(st.sampled_from(_LIFTS))
    pt = tuple(draw(st.integers(-5, 5)) for _ in range(n_vars))
    if ring is not Z:
        pt = tuple(x % ring.n for x in pt)
    return ring, n_vars, draw(terms), draw(terms), tuple(lift), pt


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_arithmetic_case())
def test_arithmetic_commutes_with_evaluation(case):
    ring, n_vars, t1, t2, lift, pt = case
    f = HomogeneousPolynomial(ring, n_vars, 3, t1)
    g = HomogeneousPolynomial(ring, n_vars, 3, t2)
    assert f.add(g).eval(pt) == ring.add(f.eval(pt), g.eval(pt))
    h = g.mul(HomogeneousPolynomial.monomial(ring, n_vars, lift, ring.one()))
    product = f.mul(h)
    assert product.degree == 6 + sum(lift)
    assert product.eval(pt) == ring.mul(f.eval(pt), h.eval(pt))
    for poly in (h, product):
        for exps in poly.terms:
            assert type(exps) is tuple and len(exps) == n_vars
            assert all(type(e) is int and e >= 0 for e in exps)
            assert sum(exps) == poly.degree
    # the product term by term over exponent tuples, as the reference
    expected: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in h.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            expected[key] = ring.add(expected.get(key, ring.zero()), ring.mul(c1, c2))
    assert product == HomogeneousPolynomial(ring, n_vars, product.degree, expected)


@pytest.mark.parametrize(
    "exps",
    [(2,), (1, 1, 0), (3, -1), (1, 0), (1.5, 0.5)],
    ids=["short", "long", "negative", "wrong-degree", "non-integer"],
)
def test_constructor_rejects_malformed_exponents(exps):
    with pytest.raises(ValueError):
        HomogeneousPolynomial(Z, 2, 2, {exps: 1})
    with pytest.raises(ValueError):
        HomogeneousPolynomial(Z, 2, 2, {(1, 1): 1, exps: 1})


def test_mul_rejects_degree_past_64_bit_fields():
    big = HomogeneousPolynomial.monomial(Z, 2, (2**63, 0), 1)
    with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
        big.mul(big)
    top = big.mul(HomogeneousPolynomial.monomial(Z, 2, (2**63 - 1, 0), 1))
    assert top.terms == {(2**64 - 1, 0): 1}


def _poly_coefficients(field, values):
    return st.lists(values, max_size=3).map(lambda cs: pu.trim(field, tuple(cs)))


def _loc2_coefficients(ring):
    # a numerator over a denominator with no root in {0, 2, 4, 8, ...}
    num = _poly_coefficients(ring.field, st.fractions(-2, 2, max_denominator=3))
    den = st.sampled_from(["1", "T-1", "T^2+1", "3*T-1"])
    return st.tuples(num, den).map(
        lambda nd: ring.mul(
            (nd[0], (Fraction(1),)), ring.unit_inverse(ring.parse_element(nd[1]))
        )
    )


# coefficient strategies per ring, canonical elements only; the polynomial
# rings and locQ give compound coefficients, which format parenthesizes
ROUND_TRIP_COEFFICIENTS = {
    "Z": lambda ring: st.integers(-9, 9),
    "Z/12": lambda ring: st.integers(0, 11),
    "GF(3)[T]": lambda ring: _poly_coefficients(ring.field, st.integers(0, 2)),
    "Q[T]": lambda ring: _poly_coefficients(
        ring.field, st.fractions(-3, 3, max_denominator=4)
    ),
    "prod(Z,Z/5)": lambda ring: st.tuples(st.integers(-9, 9), st.integers(0, 4)),
    "locQ(2)": _loc2_coefficients,
}


@pytest.mark.parametrize("spec", list(ROUND_TRIP_COEFFICIENTS))
def test_format_parse_round_trip(spec):
    ring = parse_ring(spec)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2))
            .filter(lambda e: e[0] + e[1] <= 2)
            .map(lambda e: (e[0], e[1], 2 - e[0] - e[1])),
            ROUND_TRIP_COEFFICIENTS[spec](ring),
            max_size=5,
        )
    )
    def round_trip(terms):
        f = HomogeneousPolynomial(ring, 3, 2, terms)
        assert HomogeneousPolynomial.parse(ring, 3, f.format()) == f

    round_trip()


@pytest.mark.parametrize(
    "spec, literal, expected",
    [
        # a coefficient of a T-literal may be parenthesized once, as one of
        # a form may: ((1/2)*T) is the form coefficient (1/2)*T
        ("Q[T]", "((1/2)*T)*x1", "1/2*T*x1"),
        ("GF(3)[T]", "((2))*x2", "2*x2"),
        # T^0 alone is the empty product 1, as x1^0 is
        ("Q[T]", "T^0*x1", "x1"),
        ("locQ(2)", "(T^0)/(1)*x1", "x1"),
    ],
)
def test_parse_coefficient_grammar_is_the_term_grammar(spec, literal, expected):
    ring = parse_ring(spec)
    assert P(literal, ring=ring) == P(expected, ring=ring)


@pytest.mark.parametrize(
    "spec, literal, factor",
    [
        ("Z", "x1*y", "y"),
        ("Z", "*x1", ""),
        ("prod(Z,Z/5)", "(1,2,3)*x1", "(1,2,3)"),
        ("locQ(2)", "(1)/(T-2)*x1", "(1)/(T-2)"),
        # every term is read before the degrees are compared
        ("Z", "x1^2+x2+y", "y"),
    ],
)
def test_parse_names_the_bad_coefficient(spec, literal, factor):
    with pytest.raises(ParseError) as info:
        P(literal, ring=parse_ring(spec))
    assert str(info.value) == f"bad coefficient {factor!r} in {literal!r}"


# ---------------------------------------------------------------------------
# section ideals


def test_linear_form_for_point():
    pt = require_primitive(Z, (5, 2))
    form = linear_form_for_point(Z, pt)
    assert form.degree == 1
    assert form.eval((5, 2)) == 1


def test_linear_form_rejects_bad_certificate():
    fake = PrimitivePoint((5, 2), BezoutCertificate((1, 1)))
    with pytest.raises(PreconditionError):
        linear_form_for_point(Z, fake)


def test_section_ideal_generators():
    F2 = PrimeField(2)
    pt = require_primitive(F2, (1, 0, 0))
    ideal = section_ideal_generators(F2, pt)
    rendered = sorted(g.format() for g in ideal.generators)
    assert rendered == ["x2", "x3"]


def test_section_ideal_generators_vanish_at_point():
    pt = require_primitive(Z, (3, 5, 7))
    ideal = section_ideal_generators(Z, pt)
    assert len(ideal.generators) == 3
    for g in ideal.generators:
        assert g.eval((3, 5, 7)) == 0


def test_ideal_slice_dimension_examples():
    F2 = PrimeField(2)
    pt = require_primitive(F2, (1, 0, 0))
    gens = section_ideal_generators(F2, pt).generators
    assert ideal_slice_dimension(F2, gens, 1) == 2
    F3 = PrimeField(3)
    pt3 = require_primitive(F3, (1, 1, 1))
    gens3 = section_ideal_generators(F3, pt3).generators
    # degree-1 slice of the full evaluation kernel always has codimension 1
    assert ideal_slice_dimension(F3, gens3, 1) == 2


def test_ideal_slice_requires_prime_field():
    pt = require_primitive(Z, (1, 0, 0))
    gens = section_ideal_generators(Z, pt).generators
    with pytest.raises(UnsupportedRingError):
        ideal_slice_dimension(Z, gens, 1)


# ---------------------------------------------------------------------------
# the inductive constructor


def _points(ring, coords):
    return [require_primitive(ring, c) for c in coords]


def test_construct_classic_three_points():
    pts = _points(Z, [(1, 0), (0, 1), (1, 1)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly == P("x1^2-x1*x2+x2^2")
    assert replay_trace(Z, trace) == poly


def test_construct_single_point_is_its_linear_form():
    pts = _points(Z, [(5, 2)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly.degree == 1
    assert poly.eval((5, 2)) == 1
    assert trace.steps == ()


def test_construct_alpha_adjustment():
    # at the third extension the inherited degree 2 is short of k = 3, so
    # the witness exponent must be raised
    pts = _points(Z, [(1, 0), (0, 1), (1, 1), (2, 1)])
    poly, trace = construct_unit_valued(Z, pts)
    assert trace.steps[-1].alpha > 1
    for p in pts:
        assert poly.eval(p.coordinates) in (1, -1)
    assert replay_trace(Z, trace) == poly


def test_construct_projectively_repeated_point():
    # (-1, 0) is a unit multiple of (1, 0); the step degenerates gracefully
    pts = _points(Z, [(1, 0), (-1, 0)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly.eval((1, 0)) in (1, -1)
    assert poly.eval((-1, 0)) in (1, -1)
    assert replay_trace(Z, trace) == poly


def test_construct_three_vars():
    pts = _points(Z, [(2, 3, 5), (1, -1, 4), (0, 7, 2), (3, 3, 1)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly.degree >= 1
    for p in pts:
        assert poly.eval(p.coordinates) in (1, -1)
    assert replay_trace(Z, trace) == poly


def test_construct_large_coordinates_steered():
    pts = _points(Z, [(19, 7), (13, 17)])
    poly, trace = construct_unit_valued(Z, pts)
    for p in pts:
        assert poly.eval(p.coordinates) in (1, -1)
    assert replay_trace(Z, trace) == poly


def test_construct_over_rational_polynomials():
    a = QT.parse_element("T")
    b = QT.parse_element("T-1")
    one = QT.one()
    pts = _points(QT, [(a, b), (one, a)])
    poly, trace = construct_unit_valued(QT, pts)
    for p in pts:
        assert QT.is_unit(poly.eval(p.coordinates))
    assert replay_trace(QT, trace) == poly


def test_construct_exhausts_honestly_over_qt():
    # the second step needs a witness for a pair built from (T-1)(T-4) and
    # T-2, whose root evaluations have ratio -2: no bound will ever reach a
    # witness, so a small bound must surface as exhaustion, not as success
    q1 = QT.parse_element("T^2-5*T+4")
    q2 = QT.parse_element("T-2")
    pts = _points(QT, [(QT.zero(), QT.one()), (q1, q2)])
    with pytest.raises(WitnessSearchExhausted):
        construct_unit_valued(QT, pts, witness_bound=30)


def test_construct_keeps_the_witness_bound_on_steered_steps():
    # the second step is steered and its least witness power is N = 80
    pts = _points(Z, [(-8, -9), (-1, 8), (5, -6)])
    with pytest.raises(WitnessSearchExhausted) as info:
        construct_unit_valued(Z, pts, witness_bound=10)
    assert info.value.bound == 10
    with pytest.raises(WitnessSearchExhausted) as info:
        construct_unit_valued(Z, pts, witness_bound=79)
    assert info.value.bound == 79
    poly, trace = construct_unit_valued(Z, pts, witness_bound=80)
    assert trace.steps[-1].witness.N == 80
    assert replay_trace(Z, trace) == poly


def test_construct_rejects_duplicates():
    pts = _points(Z, [(1, 0), (1, 0)])
    with pytest.raises(PreconditionError):
        construct_unit_valued(Z, pts)


def test_construct_rejects_dimension_mismatch():
    pts = [
        require_primitive(Z, (1, 0)),
        require_primitive(Z, (1, 0, 0)),
    ]
    with pytest.raises(PreconditionError):
        construct_unit_valued(Z, pts)


def test_construct_rejects_single_coordinate():
    with pytest.raises(PreconditionError):
        construct_unit_valued(Z, _points(Z, [(1,)]))


def test_construct_rejects_empty():
    with pytest.raises(PreconditionError):
        construct_unit_valued(Z, [])


def test_extend_rejects_non_unit_value():
    pts = _points(Z, [(1, 0)])
    poly = P("x1+x2")  # value 1 at (1,0) is fine, but use a bad base instead
    bad = P("2*x1")  # takes value 2 at the covered point
    with pytest.raises(PreconditionError):
        extend_unit_valued(Z, bad, pts, require_primitive(Z, (0, 1)))
    out, _ = extend_unit_valued(Z, poly, pts, require_primitive(Z, (0, 1)))
    assert out.eval((0, 1)) in (1, -1)


def test_extend_postcheck_raises_without_assert(monkeypatch):
    # the post-checks are explicit raises, so python -O keeps them
    monkeypatch.setattr(HomogeneousPolynomial, "add", lambda self, other: self)
    pts = _points(Z, [(1, 0)])
    with pytest.raises(GoodRingsError):
        extend_unit_valued(Z, P("x1"), pts, require_primitive(Z, (0, 1)))


def _count_evals(monkeypatch) -> Counter:
    seen: Counter = Counter()
    alive = []  # keeps every evaluated polynomial, so no id is reused
    original = HomogeneousPolynomial.eval

    def counted(self, coords):
        alive.append(self)
        seen[id(self), tuple(coords)] += 1
        return original(self, coords)

    monkeypatch.setattr(HomogeneousPolynomial, "eval", counted)
    return seen


def test_each_polynomial_is_evaluated_once_per_point(monkeypatch):
    pts = _points(Z, [(2, 3, 5), (1, -1, 4), (0, 7, 2), (3, 3, 1)])
    seen = _count_evals(monkeypatch)
    poly, trace = construct_unit_valued(Z, pts)
    assert seen and max(seen.values()) == 1
    seen.clear()
    assert replay_trace(Z, trace) == poly
    assert seen and max(seen.values()) == 1


# ---------------------------------------------------------------------------
# replay hardening: every recorded field is actually checked


def _traced_instance():
    pts = _points(Z, [(2, 3, 5), (1, -1, 4), (0, 7, 2)])
    return construct_unit_valued(Z, pts)


def _tamper_last_step(trace, **changes):
    step = dataclasses.replace(trace.steps[-1], **changes)
    return dataclasses.replace(trace, steps=trace.steps[:-1] + (step,))


def test_replay_rejects_tampered_cofactor():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    c, w = step.cofactors[0]
    bad = _tamper_last_step(
        trace, cofactors=((c + 1, w),) + step.cofactors[1:]
    )
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_minors():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    (idx, val), *rest = step.minors[0]
    bad_minors = ((((idx), val + 1),) + tuple(rest),) + step.minors[1:]
    bad = _tamper_last_step(trace, minors=bad_minors)
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_result():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    bad = _tamper_last_step(trace, result=step.result.scale(-1))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_witness():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    w = dataclasses.replace(step.witness, lam=Z.add(step.witness.lam, 1))
    bad = _tamper_last_step(trace, witness=w)
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_filler_exponent():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    bad = _tamper_last_step(trace, filler_exponent=step.filler_exponent + 1)
    # the message names the field in which the record differs from its rebuild
    with pytest.raises(GoodRingsError, match="trace replay failed.*filler_exponent"):
        replay_trace(Z, bad)


def test_replay_rejects_reordered_covered_points():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    shuffled = (step.covered[1], step.covered[0]) + step.covered[2:]
    bad = _tamper_last_step(trace, covered=shuffled)
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_swapped_base_form():
    poly, trace = _traced_instance()
    bad = dataclasses.replace(trace, base_form=trace.base_form.scale(-1))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_values():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    bad = _tamper_last_step(trace, values=step.values[:-1] + (-step.values[-1],))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)
    short = _tamper_last_step(trace, values=step.values[:-1])
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, short)


def test_replay_rejects_tampered_combiners():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    first = step.combiners[0]
    bad = _tamper_last_step(
        trace, combiners=((first[0] + 1,) + first[1:],) + step.combiners[1:]
    )
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)
    # one combiner per minor: a trailing extra one is not ignored
    longer = _tamper_last_step(
        trace, combiners=(first + (1,),) + step.combiners[1:]
    )
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, longer)


def test_replay_rejects_tampered_forms():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    bad = _tamper_last_step(
        trace, forms=(step.forms[0].scale(-1),) + step.forms[1:]
    )
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


@pytest.mark.parametrize("shift", ["zero", "plus_one"])
def test_replay_rejects_tampered_alpha(shift):
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    alpha = 0 if shift == "zero" else step.alpha + 1
    bad = _tamper_last_step(trace, alpha=alpha)
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_linear_form():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    bad = _tamper_last_step(trace, linear_form=step.linear_form.scale(-1))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_new_point():
    poly, trace = _traced_instance()
    bad = _tamper_last_step(trace, new_point=require_primitive(Z, (1, 1, 1)))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


@pytest.mark.parametrize("field", ["minors", "cofactors", "combiners", "forms"])
@pytest.mark.parametrize("change", ["extra", "short"])
def test_replay_requires_one_entry_per_covered_point(field, change):
    # each per-point tuple of a step has exactly one entry per covered point:
    # an extra trailing entry is not ignored, and a short tuple is a replay
    # failure rather than an IndexError
    poly, trace = _traced_instance()
    entries = getattr(trace.steps[-1], field)
    entries = entries + entries[-1:] if change == "extra" else entries[:-1]
    bad = _tamper_last_step(trace, **{field: entries})
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def _malformed(step, case):
    if case == "cofactor_not_a_pair":
        return {"cofactors": (step.cofactors[0] + (0,),) + step.cofactors[1:]}
    if case == "minor_not_a_pair":
        return {"minors": ((7,) + step.minors[0][1:],) + step.minors[1:]}
    if case == "combiner_not_a_tuple":
        return {"combiners": (7,) + step.combiners[1:]}
    return {"alpha": "1"}


@pytest.mark.parametrize(
    "case",
    ["cofactor_not_a_pair", "minor_not_a_pair", "combiner_not_a_tuple", "alpha_not_an_int"],
)
def test_replay_rejects_malformed_step_entries(case):
    # a malformed entry is a replay failure, not a ValueError or TypeError
    poly, trace = _traced_instance()
    bad = _tamper_last_step(trace, **_malformed(trace.steps[-1], case))
    with pytest.raises(GoodRingsError, match="trace replay failed"):
        replay_trace(Z, bad)


@pytest.mark.parametrize("case", ["new_point_dimension", "step_not_a_step"])
def test_replay_rejects_malformed_steps(case):
    # a malformed step is a replay failure, not a ValueError or AttributeError
    poly, trace = construct_unit_valued(Z, _points(Z, [(1, 0), (0, 1)]))
    if case == "new_point_dimension":
        bad = _tamper_last_step(trace, new_point=require_primitive(Z, (0, 1, 0)))
    else:
        bad = dataclasses.replace(trace, steps=(7,))
    with pytest.raises(GoodRingsError, match="trace replay failed"):
        replay_trace(Z, bad)


@pytest.mark.parametrize(
    "record, field",
    [
        pytest.param(record, f.name, id=f"{record.__name__}.{f.name}")
        for record in (ExtensionStep, ConstructionTrace, ProductTrace)
        for f in dataclasses.fields(record)
    ],
)
def test_replay_rejects_a_field_that_is_not_a_value(record, field):
    # any field of any record replaced by a foreign object is a replay
    # failure, not an AttributeError or TypeError
    if record is ProductTrace:
        ring, trace = _product_instance()
    else:
        ring, (poly, trace) = Z, _traced_instance()
    tamper = _tamper_last_step if record is ExtensionStep else dataclasses.replace
    bad = tamper(trace, **{field: object()})
    with pytest.raises(GoodRingsError, match="trace replay failed"):
        replay_trace(ring, bad)


def _junk_element(trace, case):
    step = trace.steps[-1]
    pt = step.new_point
    if case == "base_certificate":
        base = dataclasses.replace(trace.base_point, certificate=object())
        return dataclasses.replace(trace, base_point=base)
    if case == "new_point_certificate":
        return _tamper_last_step(trace, new_point=dataclasses.replace(pt, certificate=object()))
    if case == "new_point_coordinate":
        coords = (object(),) + pt.coordinates[1:]
        return _tamper_last_step(trace, new_point=dataclasses.replace(pt, coordinates=coords))
    if case == "cofactor":
        return _tamper_last_step(trace, cofactors=((object(), 1),) + step.cofactors[1:])
    return _tamper_last_step(trace, witness=dataclasses.replace(step.witness, lam=object()))


@pytest.mark.parametrize(
    "case",
    ["base_certificate", "new_point_certificate", "new_point_coordinate", "cofactor", "witness_lam"],
)
def test_replay_rejects_a_junk_element_inside_a_record(case):
    # a foreign object one level down, inside a point, a pair or a witness,
    # is a replay failure too, not a TypeError or AttributeError
    poly, trace = _traced_instance()
    with pytest.raises(GoodRingsError, match="trace replay failed: malformed record"):
        replay_trace(Z, _junk_element(trace, case))


# ---------------------------------------------------------------------------
# product rings: one construction per factor, recombined at the lcm degree


def _component(factor, n):
    if factor is Z:
        coords = st.tuples(*[st.integers(-4, 4)] * n)
    else:
        coords = st.tuples(*[st.integers(0, factor.n - 1)] * n)
    return coords.filter(lambda c: is_primitive(factor, c) is not None)


@st.composite
def _product_case(draw):
    ring = draw(
        st.sampled_from(
            [ProductRing((Z, IntegersMod(m))) for m in (5, 6)]
            + [ProductRing((IntegersMod(m), PrimeField(p))) for m, p in ((4, 3), (6, 5))]
        )
    )
    n = draw(st.sampled_from((2, 3)))
    # up to three components per factor for up to five points, so that
    # points often share a component
    pools = [
        draw(st.lists(_component(f, n), min_size=2, max_size=3, unique=True))
        for f in ring.factors
    ]
    picks = st.tuples(*[st.sampled_from(pool) for pool in pools])
    chosen = draw(st.lists(picks, min_size=2, max_size=5))
    return ring, [tuple(zip(*parts)) for parts in dict.fromkeys(chosen)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_product_case())
def test_product_construction_is_unit_valued_and_replays(case):
    ring, coords = case
    pts = _points(ring, coords)
    poly, trace = construct_unit_valued(ring, pts)
    assert isinstance(trace, ProductTrace)
    for c, v in zip(coords, trace.values):
        assert poly.eval(c) == v
        assert ring.is_unit(v)
    for i, factor_trace in enumerate(trace.factor_traces):
        distinct = list(dict.fromkeys(tuple(x[i] for x in c) for c in coords))
        assert [p.coordinates for p in factor_trace.points] == distinct
    degrees = [replay_trace(f, t).degree for f, t in zip(ring.factors, trace.factor_traces)]
    assert poly.degree == trace.lcm == lcm(*degrees)
    assert replay_trace(ring, trace) == poly


def test_nested_product_construction():
    ring = parse_ring("prod(prod(Z,Z/5),GF(3))")
    coords = [
        (((1, 1), 1), ((0, 0), 0)),
        (((0, 1), 0), ((1, 0), 1)),
        (((1, 2), 1), ((1, 1), 1)),
        (((1, 0), 2), ((0, 1), 1)),
    ]
    pts = _points(ring, coords)
    poly, trace = construct_unit_valued(ring, pts)
    inner = trace.factor_traces[0]
    assert isinstance(inner, ProductTrace)
    assert isinstance(inner.factor_traces[0], ConstructionTrace)
    for p in pts:
        assert ring.is_unit(poly.eval(p.coordinates))
    assert replay_trace(ring, trace) == poly


def _product_instance():
    # the Z components need degree 2, the Z/5 components degree 1: L = 2
    ring = parse_ring("prod(Z,Z/5)")
    coords = [((1, 1), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (1, 0))]
    poly, trace = construct_unit_valued(ring, _points(ring, coords))
    assert trace.lcm == 2
    return ring, trace


def _tampered_product(ring, trace, case):
    if case == "factor_trace":
        z_trace = trace.factor_traces[0]
        alpha = z_trace.steps[-1].alpha + 1
        return dataclasses.replace(
            trace,
            factor_traces=(_tamper_last_step(z_trace, alpha=alpha),)
            + trace.factor_traces[1:],
        )
    if case == "foreign_factor_trace":
        # a valid trace, but of other points than the Z components
        _, other = construct_unit_valued(Z, _points(Z, [(1, 0), (2, 1), (1, 1)]))
        return dataclasses.replace(
            trace, factor_traces=(other,) + trace.factor_traces[1:]
        )
    if case == "factor_step_not_a_step":
        z_trace = dataclasses.replace(trace.factor_traces[0], steps=(7,))
        return dataclasses.replace(
            trace, factor_traces=(z_trace,) + trace.factor_traces[1:]
        )
    if case == "lcm":
        return dataclasses.replace(trace, lcm=2 * trace.lcm)
    if case == "missing_component":
        # the Z/5 component (2, 1) is in no factor trace
        extra = require_primitive(ring, ((1, 2), (0, 1)))
        return dataclasses.replace(trace, points=trace.points[:-1] + (extra,))
    if case == "uncertified_point":
        # the Z/5 component (1, 0) of the last point repeats the first's, so
        # only the product certificate check sees its broken certificate
        last = trace.points[-1]
        cert = BezoutCertificate(tuple((u[0], 0) for u in last.certificate.coefficients))
        bad = PrimitivePoint(last.coordinates, cert)
        return dataclasses.replace(trace, points=trace.points[:-1] + (bad,))
    if case == "extra_factor":
        return dataclasses.replace(
            trace, factor_traces=trace.factor_traces + trace.factor_traces[-1:]
        )
    if case == "missing_factor":
        return dataclasses.replace(trace, factor_traces=trace.factor_traces[:-1])
    if case == "result":
        return dataclasses.replace(trace, result=trace.result.add(trace.result))
    if case == "values":
        return dataclasses.replace(trace, values=trace.values[::-1][:2])
    return dataclasses.replace(trace, points=(trace.points[0], 7))


@pytest.mark.parametrize(
    "case",
    [
        "factor_trace",
        "foreign_factor_trace",
        "factor_step_not_a_step",
        "lcm",
        "missing_component",
        "uncertified_point",
        "extra_factor",
        "missing_factor",
        "result",
        "values",
        "point_not_a_point",
    ],
)
def test_replay_rejects_tampered_product_trace(case):
    ring, trace = _product_instance()
    bad = _tampered_product(ring, trace, case)
    with pytest.raises(GoodRingsError, match="trace replay failed"):
        replay_trace(ring, bad)


def test_replay_rejects_a_product_trace_over_another_ring():
    ring, trace = _product_instance()
    for other in (Z, parse_ring("prod(Z,Z/5,Z/5)")):
        with pytest.raises(GoodRingsError, match="trace replay failed"):
            replay_trace(other, trace)
