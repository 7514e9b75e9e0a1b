"""Homogeneous polynomials, section ideals, constructor, trace replay."""

import copy
import dataclasses
import pickle
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from goodrings import homog
from goodrings import polyuniv as pu
from goodrings.cli import _parse_points
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
    ideal_slice_dimension,
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
from goodrings.witness import find_good_witness, verify_witness

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
    assert f.mul(P("x1")) == P("x1^3-x1^2*x2+x1*x2^2")
    assert P("x1+x2").pow(2) == P("x1^2+2*x1*x2+x2^2")
    assert P("x1+x2").pow(0) == HomogeneousPolynomial.constant(Z, 2, 1)


def test_constant_and_linear_need_a_variable():
    # both skip the exponent checks of the constructor, but not this one;
    # nor does monomial_exponents recurse without end below one variable
    with pytest.raises(ValueError, match="at least one variable"):
        HomogeneousPolynomial.linear(Z, [])
    for n_vars in (0, -1):
        with pytest.raises(ValueError, match="at least one variable"):
            list(monomial_exponents(n_vars, 2))
    with pytest.raises(ValueError, match="at least one variable"):
        HomogeneousPolynomial.constant(Z, 0, 3)
    assert HomogeneousPolynomial.linear(Z, [0, 2, 0]).terms == {(0, 1, 0): 2}
    assert HomogeneousPolynomial.constant(Z, 2, 0).is_zero


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


def test_pow_rejects_negative():
    with pytest.raises(ValueError, match="negative polynomial power"):
        P("x1+x2").pow(-1)


def test_add_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        P("x1").add(P("x1^2"))


@pytest.mark.parametrize(
    "op, other",
    [("mul", P("x1", ring=IntegersMod(5))), ("add", P("x1+x3", n_vars=3))],
    ids=["mul-other-ring", "add-other-arity"],
)
def test_arithmetic_rejects_another_polynomial_ring(op, other):
    with pytest.raises(ValueError, match="different polynomial rings"):
        getattr(P("x1"), op)(other)


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


_EVAL_RINGS = (
    Z,
    IntegersMod(1),
    IntegersMod(12),
    PrimeField(7),
    ProductRing([Z, IntegersMod(6)]),
)


def _eval_element(ring):
    if isinstance(ring, ProductRing):
        return st.tuples(*(_eval_element(f) for f in ring.factors))
    if isinstance(ring, IntegersMod):
        return st.integers(-9, 9).map(lambda x: x % ring.n)
    return st.integers(-9, 9)


@st.composite
def _eval_case(draw):
    ring = draw(st.sampled_from(_EVAL_RINGS))
    n_vars = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 6))
    monomials = list(monomial_exponents(n_vars, degree))
    # up to every monomial, so both sides of the dense/sparse rule occur
    exps = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=len(monomials)))
    terms = {e: draw(_eval_element(ring)) for e in exps}
    pt = tuple(draw(_eval_element(ring)) for _ in range(n_vars))
    return HomogeneousPolynomial(ring, n_vars, degree, terms), pt


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_eval_case())
@example((HomogeneousPolynomial.zero(Z, 3, 4), (0, -1, 2)))
@example((HomogeneousPolynomial.constant(IntegersMod(12), 3, 5), (0, 0, 0)))
def test_eval_matches_the_sum_of_powered_terms(case):
    poly, pt = case
    ring = poly.ring
    expected = ring.zero()
    for exps, c in poly.terms.items():
        term = c
        for x, e in zip(pt, exps):
            term = ring.mul(term, ring.pow(x, e))
        expected = ring.add(expected, term)
    assert poly.eval(pt) == expected


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
    [(2,), (1, 1, 0), (3, -1), (1, 0), (1.5, 0.5), (2, False)],
    ids=["short", "long", "negative", "wrong-degree", "non-integer", "bool"],
)
def test_constructor_rejects_malformed_exponents(exps):
    with pytest.raises(ValueError):
        HomogeneousPolynomial(Z, 2, 2, {exps: 1})
    with pytest.raises(ValueError):
        HomogeneousPolynomial(Z, 2, 2, {(1, 1): 1, exps: 1})


@pytest.mark.parametrize("n_vars, degree", [(0, 0), (2, -1)], ids=["no-variable", "negative-degree"])
def test_constructor_rejects_bad_shape(n_vars, degree):
    with pytest.raises(ValueError):
        HomogeneousPolynomial(Z, n_vars, degree, {})


def test_mul_rejects_degree_past_64_bit_fields():
    big = HomogeneousPolynomial.monomial(Z, 2, (2**63, 0), 1)
    with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
        big.mul(big)
    top = big.mul(HomogeneousPolynomial.monomial(Z, 2, (2**63 - 1, 0), 1))
    assert top.terms == {(2**64 - 1, 0): 1}


def _reference_product(f, g):
    """f * g term by term over exponent tuples, zero sums dropped."""
    ring, acc = f.ring, {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = ring.add(acc.get(key, ring.zero()), ring.mul(c1, c2))
    return HomogeneousPolynomial(ring, f.n_vars, f.degree + g.degree, acc)


def _kept_keys_are_the_terms(poly) -> bool:
    codec, keys = poly._keys
    return {codec.unpack(k.to_bytes(codec.size, "little")): c for k, c in keys.items()} == poly.terms


_KERNEL_RINGS = (Z, IntegersMod(12), ProductRing([Z, IntegersMod(6)]))


@st.composite
def _kernel_case(draw):
    ring = draw(st.sampled_from(_KERNEL_RINGS))
    n_vars = draw(st.integers(1, 5))

    def form():
        degree = draw(st.integers(0, 4))
        monomials = list(monomial_exponents(n_vars, degree))
        exps = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=8))
        # zero coefficients included: the constructor drops them
        return HomogeneousPolynomial(ring, n_vars, degree, {e: draw(_eval_element(ring)) for e in exps})

    return form(), form(), form()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_case())
@example((P("x1+x2"), P("x1-x2"), P("x1^2+x2^2")))  # the cross terms cancel
def test_mul_matches_the_reference_product(case):
    f, g, h = case
    for left, right in ((f, g), (g, f), (f, f)):
        product = left.mul(right)
        assert product == _reference_product(left, right)
        assert product.degree == left.degree + right.degree
        if not product.is_zero:
            assert _kept_keys_are_the_terms(product)
    # products of products: kept keys on one side, on both, and a square
    fg, gh = f.mul(g), g.mul(h)
    assert fg.mul(h) == _reference_product(_reference_product(f, g), h)
    assert fg.mul(gh) == _reference_product(_reference_product(f, g), _reference_product(g, h))
    assert fg.mul(fg) == _reference_product(_reference_product(f, g), _reference_product(f, g))


def _reference_power(base, n):
    power = HomogeneousPolynomial.constant(base.ring, base.n_vars, base.ring.one())
    for _ in range(n):
        power = _reference_product(power, base)
    return power


@pytest.mark.parametrize(
    "ring, text",
    [
        (Z, "3*x1^15-x1^7*x2^8+2*x2^15"),
        (IntegersMod(12), "3*x1^15+11*x1^7*x2^8+2*x2^15"),
        (ProductRing([Z, IntegersMod(6)]), "(3,1)*x1^15+(-1,5)*x1^7*x2^8+(2,2)*x2^15"),
    ],
    ids=["Z", "Z/12", "prod(Z,Z/6)"],
)
def test_pow_chains_across_the_8_to_16_bit_key_fields(monkeypatch, ring, text):
    # degree 15 * 17 = 255 is the last product with 8-bit fields; the next
    # one, of degree 270, needs 16 bits and must refuse the kept 8-bit keys
    base = P(text, ring=ring)
    chain = []
    mul = HomogeneousPolynomial.mul

    def recorded(self, other):
        chain.append(mul(self, other))
        return chain[-1]

    monkeypatch.setattr(HomogeneousPolynomial, "mul", recorded)
    power = base.pow(18)
    assert [p.degree for p in chain][-3:] == [240, 255, 270]
    assert chain[-2]._keys[0].size == 2 and chain[-1]._keys[0].size == 4
    assert power == _reference_power(base, 18)
    assert all(_kept_keys_are_the_terms(p) for p in chain)


def test_operands_from_two_chains_multiply_as_the_reference():
    f = P("2*x1^3-x1*x2^2+5*x3^3", n_vars=3)
    g = P("x1^2-3*x2*x3+x3^2", n_vars=3)
    h = P("x1^100-7*x2^50*x3^50+x3^100", n_vars=3)
    f10, g4, h3 = f.pow(10), g.pow(4), h.pow(3)  # degrees 30, 8 and 300
    ref_f10, ref_g4, ref_h3 = (_reference_power(b, n) for b, n in ((f, 10), (g, 4), (h, 3)))
    # both kept keys read under one 8-bit codec
    assert f10.mul(g4) == _reference_product(ref_f10, ref_g4)
    assert g4.mul(f10) == _reference_product(ref_g4, ref_f10)
    # 16-bit kept keys read, and 8-bit ones refused and packed again
    assert h3._keys[0].size == 6
    assert f10.mul(h3) == _reference_product(ref_f10, ref_h3)
    assert h3.mul(f10) == _reference_product(ref_h3, ref_f10)


def _kept_and_fresh():
    """A product carrying kept keys, and the same polynomial built from its
    terms by the constructor, which carries none."""
    product = P("2*x1^2-x1*x2+3*x2^2").pow(4)
    assert product._keys is not None
    fresh = HomogeneousPolynomial(Z, 2, product.degree, product.terms)
    assert fresh._keys is None
    return product, fresh


@pytest.mark.parametrize("check", ["pickle", "deepcopy", "copy", "eq", "repr", "format"])
def test_kept_keys_change_no_copy_comparison_or_text(check):
    product, fresh = _kept_and_fresh()
    if check == "pickle":
        assert pickle.dumps(product) == pickle.dumps(fresh)
        again = pickle.loads(pickle.dumps(product))
        assert again == product and again._keys is None
        assert again.mul(again) == product.mul(product)
    elif check in ("deepcopy", "copy"):
        again = getattr(copy, check)(product)
        assert again == product and again._keys is None
        assert again.mul(product) == product.mul(product)
    elif check == "eq":
        assert product == fresh and fresh == product
        assert product != product.mul(P("x1"))
    elif check == "repr":
        assert repr(product) == repr(fresh)
    else:
        assert product.format() == fresh.format()


# the benchmark's 12 heavy construct point sets over Z, as literals
_HEAVY_POINTS = [
    [(-4, 19, -13, -4), (8, 14, -2, 15), (-16, 18, -11, 4), (4, 1, -11, -1), (-12, -7, -9, 18)],
    [(10, -1, -16), (8, -13, 7), (18, 20, 5), (7, -14, -16), (14, -17, 12)],
    [(14, 15, 0), (14, -9, -9), (5, -1, 0), (3, 3, 4)],
    [(14, 8, 19), (-3, 17, -6), (-5, 4, 20), (14, 13, 5), (-19, -8, 18)],
    [(-20, 17, -6), (3, -1, -14), (0, 17, 14), (0, -20, -11)],
    [(15, -14, 3), (-5, 8, -13), (-14, 1, -8), (-5, 15, -1), (2, 17, 17)],
    [(19, 5, -2), (20, -17, 20), (-17, -12, 15), (-13, 11, 7), (-3, -13, 11)],
    [(13, 15, 18), (16, -15, -4), (-6, 11, -20), (6, -1, -14), (0, -12, -17)],
    [(5, 11, -7, -5), (-10, -18, 6, 15), (14, 10, -16, 17)],
    [(1, -17, -10), (-10, -13, 10), (19, -5, -19), (6, 18, 5), (-9, 14, 0)],
    [(-1, -17, -11), (3, 4, 6), (-1, 18, 16), (-2, 19, 0), (-8, -13, 0)],
    [(17, -5, -1), (4, 20, -17), (-11, 6, -7), (4, 11, -5), (7, -9, -3)],
]


def test_the_heavy_constructions_do_the_same_products(monkeypatch):
    # the benchmark's work limit counts len * len per mul call from outside
    # mul; a faster kernel must make the same calls on operands of the
    # same size
    work = Counter()
    mul = HomogeneousPolynomial.mul

    def counted(self, other):
        work["calls"] += 1
        work["term_pairs"] += len(self.terms) * len(other.terms)
        return mul(self, other)

    monkeypatch.setattr(HomogeneousPolynomial, "mul", counted)
    for coords in _HEAVY_POINTS:
        _, trace = construct_unit_valued(Z, [require_primitive(Z, c) for c in coords])
        replay_trace(Z, trace)
    assert work == {"calls": 494, "term_pairs": 389_594}


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 1, 0, 0): -3},
        {(0, 0, 0, 0, 1): 2, (0, 1, 0, 0, 0): -1},
        {(0, 0, 1, 0, 0): 1, (1, 0, 0, 0, 0): -2, (0, 0, 0, 0, 1): 3},
        {(0, 0, 0, 1, 0): -1, (1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2, (0, 0, 0, 0, 1): -5},
        {(1, 0, 0, 0, 0): 7, (0, 1, 0, 0, 0): -1, (0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): -3, (0, 0, 0, 0, 1): 2},
    ],
    ids=["support-1", "support-2", "support-3", "support-4", "support-5"],
)
@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_int_linear_power_is_the_repeated_product(terms, n):
    form = HomogeneousPolynomial(Z, 5, 1, terms)
    power = form.pow(n)
    assert power == _reference_power(form, n)
    assert power.degree == n
    assert len(power.terms) == comb(n + len(terms) - 1, len(terms) - 1)


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


def test_ideal_slice_rejects_degree_zero_and_nonlinear_generators():
    F3 = PrimeField(3)
    gens = section_ideal_generators(F3, require_primitive(F3, (1, 1, 1))).generators
    with pytest.raises(ValueError, match="at least 1"):
        ideal_slice_dimension(F3, gens, 0)
    with pytest.raises(ValueError, match="degree-1 forms"):
        ideal_slice_dimension(F3, [P("x1^2+x2*x3", n_vars=3, ring=F3)], 2)


def test_ideal_slice_dimension_of_no_generators_is_zero():
    assert ideal_slice_dimension(PrimeField(3), [], 2) == 0


# ---------------------------------------------------------------------------
# the inductive constructor


def _points(ring, coords):
    return [require_primitive(ring, c) for c in coords]


# 1*5 + 1*2 = 7: the certificate does not verify
_FAKE_POINT = PrimitivePoint((5, 2), BezoutCertificate((1, 1)))


def test_construct_classic_three_points():
    pts = _points(Z, [(1, 0), (0, 1), (1, 1)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly == P("x1^2-x1*x2+x2^2")
    assert replay_trace(Z, trace) == poly


def test_construct_single_point_is_its_linear_form():
    pts = _points(Z, [(5, 2)])
    poly, trace = construct_unit_valued(Z, pts)
    assert poly == HomogeneousPolynomial.linear(Z, pts[0].certificate.coefficients)
    assert poly.degree == 1
    assert poly.eval((5, 2)) == 1
    assert trace.steps == ()
    assert replay_trace(Z, trace) == poly


def test_construct_doubles_N_when_the_degree_is_short():
    # at the second and third extensions the inherited degree is k - 1 and
    # the pair is good at N = 1, so each step takes N = 2
    pts = _points(Z, [(1, 0), (0, 1), (1, 1), (2, 1)])
    poly, trace = construct_unit_valued(Z, pts)
    assert [s.witness.N for s in trace.steps] == [1, 2, 2]
    assert poly.degree == 4
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


def test_construct_rejects_a_failing_certificate():
    with pytest.raises(PreconditionError, match="certificate does not verify"):
        construct_unit_valued(Z, [require_primitive(Z, (1, 0)), _FAKE_POINT])


def _hand_built_trace(case, ring, pts):
    """A trace over pts that construct_unit_valued would not make."""
    if case == "repeated-point":
        # the step at the repeated point is built by _step itself, on the
        # constructor's own choices, past construct's point check
        poly, trace = construct_unit_valued(Z, pts[:2])
        witness = homog._least_witness(Z, 2, poly.degree, 100)
        step, _, values = homog._step(
            Z, poly, pts[:2], trace.values, pts[2], homog._combination, witness
        )
        return dataclasses.replace(trace, steps=trace.steps + (step,), values=values)
    # otherwise the choices of a valid construction over as many points
    _, trace = construct_unit_valued(Z, _points(Z, [(1, 0), (0, 1)][: len(pts)]))
    if isinstance(ring, ProductRing):
        return ProductTrace(tuple(pts), (trace, trace), trace.values)
    steps = tuple(
        dataclasses.replace(s, new_point=p) for s, p in zip(trace.steps, pts[1:])
    )
    return dataclasses.replace(trace, base_point=pts[0], steps=steps)


@pytest.mark.parametrize(
    "case, ring, pts",
    [
        ("repeated-point", Z, _points(Z, [(1, 0), (0, 1), (1, 0)])),
        (
            "extra-component",
            parse_ring("prod(Z,Z/5)"),
            [PrimitivePoint(((1, 1, 7), (0, 0)), BezoutCertificate(((1, 1), (0, 0))))],
        ),
        ("bare-tuple", Z, [(1, 0), (0, 1)]),
        ("dimension-mismatch", Z, _points(Z, [(1, 0), (0, 1, 0)])),
        ("failing-certificate", Z, [require_primitive(Z, (1, 0)), _FAKE_POINT]),
        ("foreign-certificate", Z, [PrimitivePoint((1, 0), object())]),
    ],
)
def test_construct_and_replay_refuse_the_same_point_sets(case, ring, pts):
    # one point check serves both sides: what construct refuses as a
    # precondition, replay refuses in a hand-built trace
    with pytest.raises(PreconditionError):
        construct_unit_valued(ring, pts)
    with pytest.raises(GoodRingsError, match="trace replay failed"):
        replay_trace(ring, _hand_built_trace(case, ring, pts))


def test_extend_postcheck_raises_without_assert(monkeypatch):
    # the post-checks are explicit raises, so python -O keeps them
    monkeypatch.setattr(HomogeneousPolynomial, "add", lambda self, other: self)
    with pytest.raises(GoodRingsError):
        construct_unit_valued(Z, _points(Z, [(1, 0), (0, 1)]))


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


@pytest.mark.parametrize(
    "spec, points",
    [
        ("Z", "(2,3,5);(1,-1,4);(0,7,2);(3,3,1)"),
        ("Z/12", "(1,0);(0,1);(1,1);(5,7)"),
        ("GF(3)[T]", "(1,0);(0,1);(T,1);(1,T+1)"),
        ("Q[T]", "(1,0);(0,1);(T,1)"),
        ("locQ(3)", "(1,0);(0,1);(T-3,1);(1,T)"),
    ],
    ids=["Z", "Z/12", "GF(3)[T]", "Q[T]", "locQ(3)"],
)
def test_each_polynomial_is_evaluated_once_per_point(monkeypatch, spec, points):
    # a step evaluates only P(q), as a = prod B_t(q) is read off the minors,
    # and the final polynomial is evaluated once per point: 2k + 1 calls
    # over k + 1 points, on construct and replay alike
    ring = parse_ring(spec)
    pts = _parse_points(ring, points)
    seen = _count_evals(monkeypatch)
    poly, trace = construct_unit_valued(ring, pts)
    assert seen and max(seen.values()) == 1
    assert sum(seen.values()) == 2 * len(pts) - 1
    seen.clear()
    assert replay_trace(ring, trace) == poly
    assert seen and max(seen.values()) == 1
    assert sum(seen.values()) == 2 * len(pts) - 1


def _reachable(obj):
    """obj and everything reachable from it through dataclass fields and
    tuples."""
    stack = [obj]
    while stack:
        x = stack.pop()
        yield x
        if dataclasses.is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, tuple):
            stack.extend(x)


@pytest.mark.parametrize(
    "spec, coords",
    [
        ("Z", [(2, 3, 5), (1, -1, 4), (0, 7, 2)]),
        ("Z/12", [(1, 0), (0, 1), (1, 1), (5, 7)]),
        ("prod(Z,Z/5)", [((1, 1), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (1, 0))]),
    ],
)
def test_a_trace_records_choices_and_no_polynomial(spec, coords):
    # the forms, the step results and the final polynomial are all derived
    # by replay, so none of them is stored in the trace
    ring = parse_ring(spec)
    poly, trace = construct_unit_valued(ring, _points(ring, coords))
    reached = list(_reachable(trace))
    assert any(isinstance(x, ExtensionStep) for x in reached)
    assert not any(isinstance(x, HomogeneousPolynomial) for x in reached)
    assert replay_trace(ring, trace) == poly


def test_trace_record_fields():
    def names(record):
        return tuple(f.name for f in dataclasses.fields(record))

    assert names(ExtensionStep) == (
        "new_point", "combiners", "witness",
    )
    assert names(ConstructionTrace) == ("base_point", "steps", "values")
    assert names(ProductTrace) == ("points", "factor_traces", "values")


# ---------------------------------------------------------------------------
# replay hardening: every recorded field is actually checked


def _traced_instance():
    pts = _points(Z, [(2, 3, 5), (1, -1, 4), (0, 7, 2)])
    return construct_unit_valued(Z, pts)


def _tamper_last_step(trace, **changes):
    step = dataclasses.replace(trace.steps[-1], **changes)
    return dataclasses.replace(trace, steps=trace.steps[:-1] + (step,))


def test_replay_rejects_tampered_witness():
    poly, trace = _traced_instance()
    step = trace.steps[-1]
    w = dataclasses.replace(step.witness, lam=Z.add(step.witness.lam, 1))
    bad = _tamper_last_step(trace, witness=w)
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_reordered_points():
    # the covered points are the base point and the earlier new points, in
    # order: swapping the base point with the first new point breaks replay
    poly, trace = _traced_instance()
    first = trace.steps[0]
    swapped = dataclasses.replace(first, new_point=trace.base_point)
    bad = dataclasses.replace(
        trace, base_point=first.new_point, steps=(swapped,) + trace.steps[1:]
    )
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_swapped_base_point():
    # another primitive point with a valid certificate is still not the base
    poly, trace = _traced_instance()
    bad = dataclasses.replace(trace, base_point=require_primitive(Z, (1, 1, 1)))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_values():
    poly, trace = _traced_instance()
    values = trace.values
    bad = dataclasses.replace(trace, values=values[:-1] + (-values[-1],))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)
    short = dataclasses.replace(trace, values=values[:-1])
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


def _gf3t_instance():
    # every step has nonzero minors and a witness with lam != 0, over an
    # integral domain reached by the bezout path
    ring = parse_ring("GF(3)[T]")
    one, zero, t = ring.one(), ring.zero(), ring.parse_element("T")
    return ring, construct_unit_valued(ring, _points(ring, [(one, zero), (t, one), (zero, one)]))


def test_replay_rejects_tampered_combiner():
    # u_ij + 1 moves B_t(q) by the minor p_i*q_j - p_j*q_i, which is nonzero
    # here, so a = prod B_t(q) moves and the recorded witness stops verifying
    ring, (_, trace) = _gf3t_instance()
    for s, step in enumerate(trace.steps):
        q = step.new_point.coordinates
        for t, (p, us) in enumerate(zip(trace.points, step.combiners)):
            minor = ring.sub(ring.mul(p.coordinates[0], q[1]), ring.mul(p.coordinates[1], q[0]))
            assert minor != ring.zero()
            bumped = (ring.add(us[0], ring.one()),) + us[1:]
            combiners = step.combiners[:t] + (bumped,) + step.combiners[t + 1:]
            steps = list(trace.steps)
            steps[s] = dataclasses.replace(step, combiners=combiners)
            bad = dataclasses.replace(trace, steps=tuple(steps))
            with pytest.raises(GoodRingsError, match="trace replay failed: step witness"):
                replay_trace(ring, bad)


def _corrupt_step_result(monkeypatch, step: int, delta) -> list:
    """Patch add, whose one caller is _step's R, to add delta to the x1^d
    coefficient of the step-th result; returns the list of results made so
    far, which the caller clears to start counting again."""
    made = []
    add = HomogeneousPolynomial.add

    def corrupted(self, other):
        result = add(self, other)
        made.append(result)
        if len(made) == step:
            ring, terms = result.ring, dict(result.terms)
            key = (result.degree,) + (0,) * (result.n_vars - 1)
            terms[key] = ring.add(terms.get(key, ring.zero()), delta)
            result = HomogeneousPolynomial(ring, result.n_vars, result.degree, terms)
        return result

    monkeypatch.setattr(HomogeneousPolynomial, "add", corrupted)
    return made


@pytest.mark.parametrize("case", ["Z", "GF(3)[T]"])
def test_the_final_check_refuses_a_corrupted_intermediate_result(case, monkeypatch):
    # the corrupted x1^d term vanishes at the last point (0, 1), so the last
    # step's P(q) and witness are untouched and only the one check of the
    # final polynomial's values can see the change at the covered points
    if case == "Z":
        ring, corrupt_step, delta = Z, 2, 1
        pts = _points(Z, [(1, 0), (1, 2), (3, 1), (0, 1)])
        _, trace = construct_unit_valued(Z, pts)
    else:
        ring, (_, trace) = _gf3t_instance()
        pts, corrupt_step, delta = trace.points, 1, ring.parse_element("T")
    assert len(trace.steps) == corrupt_step + 1
    made = _corrupt_step_result(monkeypatch, corrupt_step, delta)
    with pytest.raises(GoodRingsError, match="predicted unit values"):
        construct_unit_valued(ring, pts)
    made.clear()
    with pytest.raises(GoodRingsError, match="trace replay failed: the result does not take"):
        replay_trace(ring, trace)


@pytest.mark.parametrize("shift", ["zero", "plus_one"])
def test_replay_rejects_tampered_N(shift):
    poly, trace = _traced_instance()
    w = trace.steps[-1].witness
    N = 0 if shift == "zero" else w.N + 1
    bad = _tamper_last_step(trace, witness=dataclasses.replace(w, N=N))
    with pytest.raises(GoodRingsError, match="trace replay failed: step witness does not verify"):
        replay_trace(Z, bad)


def test_replay_refuses_a_witness_too_small_for_the_filler(monkeypatch):
    # the last step takes N = 2 at m = 1; the least witness at N = 1
    # verifies for its pair, but P^1 leaves the filler W^e a negative e
    found = []

    def find(ring, a, b, bound):
        outcome = find_good_witness(ring, a, b, bound=bound)
        found.append((a, b, outcome.witness))
        return outcome

    monkeypatch.setattr(homog, "find_good_witness", find)
    poly, trace = construct_unit_valued(Z, _points(Z, [(1, 0), (0, 1), (1, 1), (2, 1)]))
    a, pq, least = found[-1]
    assert (trace.steps[-1].witness.N, least.N) == (2, 1)
    assert verify_witness(Z, a, pq, least)
    bad = _tamper_last_step(trace, witness=least)
    with pytest.raises(GoodRingsError, match="witness power too small for the filler"):
        replay_trace(Z, bad)


def test_replay_rejects_tampered_new_point():
    poly, trace = _traced_instance()
    bad = _tamper_last_step(trace, new_point=require_primitive(Z, (1, 1, 1)))
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


@pytest.mark.parametrize("field", ["combiners"])
@pytest.mark.parametrize("change", ["extra", "short"])
def test_replay_requires_one_entry_per_covered_point(field, change):
    # a step's combiners hold exactly one entry per covered point: an extra
    # trailing entry is not ignored, and a short tuple is a replay failure
    # rather than an IndexError
    poly, trace = _traced_instance()
    entries = getattr(trace.steps[-1], field)
    entries = entries + entries[-1:] if change == "extra" else entries[:-1]
    bad = _tamper_last_step(trace, **{field: entries})
    with pytest.raises(GoodRingsError, match="replay"):
        replay_trace(Z, bad)


def _malformed(step, case):
    if case == "combiner_not_a_tuple":
        return {"combiners": (7,) + step.combiners[1:]}
    return {"witness": dataclasses.replace(step.witness, N=str(step.witness.N))}


@pytest.mark.parametrize(
    "case",
    ["combiner_not_a_tuple", "N_not_an_int"],
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
    return _tamper_last_step(trace, witness=dataclasses.replace(step.witness, lam=object()))


@pytest.mark.parametrize(
    "case",
    ["base_certificate", "new_point_certificate", "new_point_coordinate", "witness_lam"],
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
    assert poly.degree == lcm(*degrees)
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
    assert poly.degree == 2
    return ring, trace


def _tampered_product(ring, trace, case):
    if case == "factor_trace":
        z_trace = trace.factor_traces[0]
        w = z_trace.steps[-1].witness
        return dataclasses.replace(
            trace,
            factor_traces=(_tamper_last_step(z_trace, witness=dataclasses.replace(w, N=w.N + 1)),)
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
    if case == "values":
        return dataclasses.replace(trace, values=trace.values[::-1][:2])
    return dataclasses.replace(trace, points=(trace.points[0], 7))


@pytest.mark.parametrize(
    "case",
    [
        "factor_trace",
        "foreign_factor_trace",
        "factor_step_not_a_step",
        "missing_component",
        "uncertified_point",
        "extra_factor",
        "missing_factor",
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


def test_a_nested_product_failure_is_worded_once():
    # the tampered witness sits two products down; the message names the
    # failure once, with the replay prefix once
    ring = parse_ring("prod(prod(Z,Z/5),GF(3))")
    coords = [
        (((1, 1), 1), ((0, 1), 0)),
        (((0, 1), 0), ((1, 0), 1)),
        (((1, 1), 1), ((1, 0), 1)),
    ]
    _, trace = construct_unit_valued(ring, _points(ring, coords))
    inner = trace.factor_traces[0]
    z_trace = inner.factor_traces[0]
    lam = z_trace.steps[-1].witness.lam
    w = dataclasses.replace(z_trace.steps[-1].witness, lam=Z.add(lam, 1))
    inner = dataclasses.replace(
        inner, factor_traces=(_tamper_last_step(z_trace, witness=w),) + inner.factor_traces[1:]
    )
    bad = dataclasses.replace(trace, factor_traces=(inner,) + trace.factor_traces[1:])
    with pytest.raises(GoodRingsError) as info:
        replay_trace(ring, bad)
    assert str(info.value) == "trace replay failed: step witness does not verify"


@pytest.mark.parametrize("side", ["construct", "replay"])
def test_a_product_result_that_is_not_unit_valued_is_refused(side, monkeypatch):
    # each factor polynomial's pow gives the zero form, so the recombined
    # values have zero components and are no units; only the product
    # check sees it
    ring, trace = _product_instance()
    name = "construct_unit_valued" if side == "construct" else "_replay"
    build = getattr(homog, name)

    def factor(f, *args):
        made = build(f, *args)
        poly = made[0] if side == "construct" else made
        poly.pow = lambda e: HomogeneousPolynomial.zero(f, poly.n_vars, poly.degree * e)
        return made

    monkeypatch.setattr(homog, name, factor)
    with pytest.raises(GoodRingsError, match="the result is not unit-valued"):
        if side == "construct":
            construct_unit_valued(ring, trace.points)
        else:
            replay_trace(ring, trace)


def test_least_witness_is_m_or_two_at_m_one(monkeypatch):
    searched = []

    def find(ring, a, b, bound):
        searched.append((a, b))
        return find_good_witness(ring, a, b, bound=bound)

    monkeypatch.setattr(homog, "find_good_witness", find)
    # (5, 2) has m = 2 (4 = -1 mod 5): N = m even at degree k - 1
    w = homog._least_witness(Z, 3, 2, 100)(5, 2)
    assert (w.N, w.lam, w.epsilon) == (2, -1, -1)
    # (5, 4) has m = 1 (4 = -1 mod 5): N = m at degree k
    w = homog._least_witness(Z, 3, 3, 100)(5, 4)
    assert (w.N, w.lam, w.epsilon) == (1, -1, -1)
    # and N = 2 at degree k - 1, with the (lam, eps) of the least witness
    # for (5, 4^2), found with no second scan
    w = homog._least_witness(Z, 3, 2, 100)(5, 4)
    squared = find_good_witness(Z, 5, 16).witness
    assert (w.N, w.lam, w.epsilon) == (2, squared.lam, squared.epsilon) == (2, -3, 1)
    assert verify_witness(Z, 5, 4, w)
    assert searched == [(5, 2), (5, 4), (5, 4)]


def _step_pairs(ring, trace):
    """Per step of a ConstructionTrace: (a, P(q), degree of P, k, witness),
    with P rebuilt as the construction over the first k points and a =
    prod_t sum u_ij*m_ij from the recorded combiners and the minors."""
    pts = trace.points
    n = len(pts[0].coordinates)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, step in enumerate(trace.steps, 1):
        poly, _ = construct_unit_valued(ring, pts[:k])
        q = step.new_point.coordinates
        a = ring.one()
        for p, us in zip(pts[:k], step.combiners):
            c = p.coordinates
            b = ring.zero()
            for (i, j), u in zip(pairs, us):
                b = ring.add(b, ring.mul(u, ring.sub(ring.mul(c[i], q[j]), ring.mul(c[j], q[i]))))
            a = ring.mul(a, b)
        yield a, poly.eval(q), poly.degree, k, step.witness


@pytest.mark.parametrize(
    "spec, points",
    [
        ("Z", "(1,0);(0,1);(1,1);(2,1)"),
        ("Z", "(2,-5);(3,-1);(1,-2);(1,-3)"),
        ("Z", "(1,0);(0,1);(1,1);(1,-1);(2,1)"),
        ("Z/12", "(1,0);(0,1);(1,1);(5,7)"),
        ("GF(3)[T]", "(1,0);(0,1);(T,1);(1,T+1)"),
        ("Q[T]", "(1,0);(0,1);(T,1)"),
        ("prod(Z,Z/5)", "((1,1),(0,0));((0,1),(1,0));((1,1),(1,0));((2,3),(1,1))"),
    ],
)
def test_each_step_takes_the_least_N_or_two_at_m_one(spec, points):
    # the good exponents of (a, P(q)) are mZ, and the filler needs
    # N*deg P >= k: the step takes N = m, or N = 2 where m = 1 falls short
    # at deg P = k - 1
    ring = parse_ring(spec)
    _, trace = construct_unit_valued(ring, _parse_points(ring, points))
    if isinstance(ring, ProductRing):
        cases = list(zip(ring.factors, trace.factor_traces))
    else:
        cases = [(ring, trace)]
    for r, t in cases:
        for a, pq, degree, k, w in _step_pairs(r, t):
            assert verify_witness(r, a, pq, w)
            m = find_good_witness(r, a, pq).witness.N
            assert w.N == m or (w.N, m, degree) == (2, 1, k - 1)
            assert w.N * degree >= k
