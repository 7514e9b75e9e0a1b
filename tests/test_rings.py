"""Ring instances: axioms, grammars, certificates, residue contracts."""

import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from goodrings import core
from goodrings import polyuniv as pu
from goodrings import rings
from goodrings.core import InfiniteRingError, LimitExceededError, ParseError, Ring
from goodrings.rings import (
    Integers,
    IntegersMod,
    LocalizedRationalPoly,
    PolyOverPrimeField,
    PrimeField,
    ProductRing,
    RationalPoly,
    UnivariatePolyRing,
    parse_ring,
)

Z = Integers()
Z12 = IntegersMod(12)
F5 = PrimeField(5)
F3T = PolyOverPrimeField(3)
QT = RationalPoly()
PROD = ProductRing((IntegersMod(4), PrimeField(5)))
LOC2 = LocalizedRationalPoly(2)


def z_elements():
    return st.integers(-40, 40)


def z12_elements():
    return st.integers(0, 11)


def f3t_elements():
    return st.lists(st.integers(0, 2), max_size=4).map(
        lambda cs: pu.trim(F3T.field, tuple(cs))
    )


def qt_elements():
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    return st.lists(rationals, max_size=3).map(
        lambda cs: pu.trim(QT.field, tuple(cs))
    )


def prod_elements():
    return st.tuples(st.integers(0, 3), st.integers(0, 4))


def loc2_elements(ring=LOC2):
    # numerators are free; denominators must avoid roots in {0, p, p^2, ...}
    # for p = 2 and p = 3
    num = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3)
    den = st.sampled_from(["1", "T-1", "T+1", "T^2+1", "3*T-1"])

    def build(pair):
        cs, d = pair
        numerator = pu.trim(QT.field, tuple(cs))
        return ring.mul(
            (numerator, (Fraction(1),)),
            ring.unit_inverse(ring.parse_element(d)),
        )

    return st.tuples(num, den).map(build)


RING_CASES = [
    (Z, z_elements()),
    (Z12, z12_elements()),
    (F5, st.integers(0, 4)),
    (F3T, f3t_elements()),
    (QT, qt_elements()),
    (PROD, prod_elements()),
    (LOC2, loc2_elements()),
]


@pytest.mark.parametrize("ring,elems", RING_CASES, ids=lambda c: getattr(c, "spec_string", lambda: "")() if hasattr(c, "spec_string") else "")
def test_ring_axioms(ring, elems):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems, elems, elems)
    def laws(x, y, z):
        assert ring.add(x, y) == ring.add(y, x)
        assert ring.mul(x, y) == ring.mul(y, x)
        assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, ring.add(y, z)) == ring.add(
            ring.mul(x, y), ring.mul(x, z)
        )
        assert ring.add(x, ring.zero()) == x
        assert ring.mul(x, ring.one()) == x
        assert ring.add(x, ring.neg(x)) == ring.zero()

    laws()


@pytest.mark.parametrize("ring,elems", RING_CASES, ids=lambda c: getattr(c, "spec_string", lambda: "")() if hasattr(c, "spec_string") else "")
def test_format_parse_round_trip(ring, elems):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems)
    def round_trip(x):
        assert ring.parse_element(ring.format_element(x)) == x

    round_trip()


@pytest.mark.parametrize("ring,elems", RING_CASES, ids=lambda c: getattr(c, "spec_string", lambda: "")() if hasattr(c, "spec_string") else "")
def test_unit_inverse_contract(ring, elems):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems)
    def inverse(x):
        inv = ring.unit_inverse(x)
        if inv is not None:
            assert ring.mul(x, inv) == ring.one()

    inverse()


@pytest.mark.parametrize("ring,elems", RING_CASES, ids=lambda c: getattr(c, "spec_string", lambda: "")() if hasattr(c, "spec_string") else "")
def test_bezout_and_residue_contracts(ring, elems):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems, elems)
    def contracts(a, x):
        coeffs = ring.bezout((a, x))
        if coeffs is not None:
            acc = ring.add(ring.mul(coeffs[0], a), ring.mul(coeffs[1], x))
            assert acc == ring.one()
        r = ring.reduce_mod(a, x)
        assert ring.reduce_mod(a, r) == r
        # the reduction changes x by a multiple of a
        diff = ring.sub(x, r)
        if a != ring.zero():
            assert ring.divide_exact(diff, a) is not None
        eps = ring.unit_residue_witness(a, r)
        if eps is not None:
            # eps lies in the class r + aA and is a unit
            assert ring.divide_exact(ring.sub(eps, r), a) is not None
            assert ring.is_unit(eps)

    contracts()


@pytest.mark.parametrize("ring,elems", RING_CASES, ids=lambda c: getattr(c, "spec_string", lambda: "")() if hasattr(c, "spec_string") else "")
def test_divide_exact_contract(ring, elems):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems, elems)
    def division(x, z):
        y = ring.mul(x, z)
        q = ring.divide_exact(y, x)
        if x == ring.zero():
            # only multiples of zero are divisible by zero
            assert q is None or y == ring.zero()
        else:
            assert q is not None
            assert ring.mul(x, q) == y

    division()


# ---------------------------------------------------------------------------
# ring-specific behavior


def test_integers_spec_and_units():
    assert Z.spec_string() == "Z"
    assert Z.unit_inverse(1) == 1
    assert Z.unit_inverse(-1) == -1
    assert Z.unit_inverse(2) is None
    assert Z.unit_quotient(0) == (2, 1)


def test_integers_reduce_is_least_nonnegative():
    assert Z.reduce_mod(7, 23) == 2
    assert Z.reduce_mod(-7, 23) == 2
    assert Z.reduce_mod(0, 23) == 23


def test_zero_ring_is_legal():
    one = IntegersMod(1)
    assert len(list(one.elements())) == 1
    assert one.zero() == one.one()
    assert one.is_unit(0)


def test_integers_mod_reduce_uses_ideal_gcd():
    # the ideal 8*(Z/12) equals 4*(Z/12)
    assert Z12.reduce_mod(8, 11) == 11 % 4


def test_integers_mod_divide_exact_refuses_a_non_multiple():
    # 4*(Z/12) = {0, 4, 8} does not hold 3
    assert IntegersMod(12).divide_exact(3, 4) is None


def test_integers_mod_unit_lift_prefers_one_then_minus_one_then_least():
    for n in range(1, 60):
        ring = IntegersMod(n)
        for a in range(n):
            g = gcd(a, n)
            for r in range(g):
                members = range(r, n, g)
                units = [u for u in members if gcd(u, n) == 1]
                eps = ring.unit_residue_witness(a, r)
                if not units:
                    assert eps is None, (n, a, r)
                    continue
                for expected in (1 % n, n - 1, min(units)):
                    if expected in members:
                        break
                assert eps == expected, (n, a, r)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_poly_over_gf_parse_format():
    x = F3T.parse_element("T^2+2*T+1")
    assert x == (1, 2, 1)
    assert F3T.format_element(x) == "T^2+2*T+1"
    assert F3T.parse_element("2") == (2,)
    assert F3T.format_element(F3T.zero()) == "0"


def test_poly_over_gf_rejects_fractions():
    with pytest.raises(ParseError):
        F3T.parse_element("1/2*T")


def test_rational_poly_parse_format():
    x = QT.parse_element("T^2-3/2*T+1")
    assert x == (Fraction(1), Fraction(-3, 2), Fraction(1))
    assert QT.format_element(x) == "T^2-3/2*T+1"
    assert QT.parse_element("-T") == (Fraction(0), Fraction(-1))


@pytest.mark.parametrize(
    "ring, literal, expected",
    [
        # T^0 alone is the empty product 1
        (F3T, "T^0", "1"),
        (QT, "T^2-T^0", "T^2-1"),
        (LOC2, "T^0", "1"),
        # a coefficient may be parenthesized once, as in a form
        (QT, "(1/2)*T", "1/2*T"),
        (QT, "(-1)*T^2", "-T^2"),
        (F3T, "(2)", "2"),
        (LOC2, "(2)", "2"),
    ],
)
def test_polynomial_literal_follows_the_term_grammar(ring, literal, expected):
    assert ring.parse_element(literal) == ring.parse_element(expected)


@pytest.mark.parametrize(
    "ring, literal",
    [(QT, "((2))*T"), (QT, "(T)"), (F3T, "(T+1)*T"), (QT, "(1/0)*T"), (QT, "T*")],
)
def test_polynomial_literal_rejects_bad_coefficients(ring, literal):
    with pytest.raises(ParseError, match="bad coefficient"):
        ring.parse_element(literal)


@pytest.mark.parametrize(
    "literal, message", [("", "empty polynomial literal"), ("T+-1", "malformed term")]
)
def test_polynomial_literal_rejects_empty_and_malformed_terms(literal, message):
    with pytest.raises(ParseError, match=message):
        QT.parse_element(literal)


@pytest.mark.parametrize("ring", [F3T, QT, LOC2])
def test_polynomial_literal_exponent_limit(ring):
    # the exponent sets the dense list's length: the limit itself parses,
    # and one past it, alone or summed over factors, is refused
    limit = rings._T_EXPONENT_LIMIT
    ring.parse_element(f"T^{limit - 1}*T")
    for text in (f"T^{limit + 1}", f"T^{limit}*T"):
        with pytest.raises(LimitExceededError, match=f"T-exponent {limit + 1} is above the limit {limit}"):
            ring.parse_element(text)


def test_rational_poly_bezout():
    a = QT.parse_element("T^2-T")
    b = QT.parse_element("T-2")
    coeffs = QT.bezout((a, b))
    assert coeffs is not None
    total = QT.add(QT.mul(coeffs[0], a), QT.mul(coeffs[1], b))
    assert total == QT.one()
    assert QT.bezout((a, QT.parse_element("T"))) is None


def test_q_t_and_locq_bezout_refuse_a_common_factor_without_cofactors(monkeypatch):
    # the integer gcd finds the common factor (over locQ(p), one with a root
    # in {0} u {p^k}), so no extended Euclid runs; a coprime tuple still gets
    # its certificate from the chain
    calls, xgcd = [], pu.xgcd
    monkeypatch.setattr(pu, "xgcd", lambda *args: calls.append(args) or xgcd(*args))
    for texts in [("T^2-T", "T"), ("0", "0"), ("0", "3*T+3"), ("T^3-T", "T^2+T", "2*T^2-2")]:
        assert QT.bezout(tuple(QT.parse_element(t) for t in texts)) is None, texts
    assert calls == []
    locq = LocalizedRationalPoly(2)
    for texts in [("T^2-2*T", "(T-2)/(T+1)"), ("0", "T-4"), ("T^3-16*T", "(T^2-8*T+16)/(T-1)")]:
        assert locq.bezout(tuple(locq.parse_element(t) for t in texts)) is None, texts
    assert calls == []
    # a common factor T - 1 is a unit of locQ(2): a certificate still comes
    for ring, texts in [(QT, ("T^3-T", "T^2+T", "T^2+1")), (locq, ("T^2-1", "(T-1)/(T+3)"))]:
        xs = tuple(ring.parse_element(t) for t in texts)
        coeffs = ring.bezout(xs)
        total = ring.zero()
        for c, x in zip(coeffs, xs):
            total = ring.add(total, ring.mul(c, x))
        assert total == ring.one()
    assert calls


def test_polynomial_rings_share_one_class():
    assert isinstance(F3T, UnivariatePolyRing)
    assert isinstance(QT, UnivariatePolyRing)
    assert not isinstance(F3T, RationalPoly)
    assert isinstance(parse_ring("Q[T]"), RationalPoly)
    assert F3T.spec_string() == "GF(3)[T]"
    # the spec is the field's spec with [T]; subclasses only choose the field
    assert UnivariatePolyRing(PrimeField(5)).spec_string() == "GF(5)[T]"
    assert QT.spec_string() == QT.field.spec_string() + "[T]" == "Q[T]"
    # every coefficient field is a ring of the package
    assert isinstance(F3T.field, PrimeField) and F3T.field.characteristic == 3
    assert isinstance(QT.field, Ring) and isinstance(LOC2.field, Ring)
    assert QT.field.characteristic == 0
    assert F3T.unit_quotient(()) == (2, 1)
    assert QT.unit_quotient(()) == (None, 1)
    assert F3T.quotient_size((1, 0, 1)) == 9
    assert QT.quotient_size((1, 0, 1)) is None


@pytest.mark.parametrize(
    "ring, text",
    [(QT, "(T+1"), (QT, "T+1)"), (F3T, "(T"), (LOC2, "(T)/(T+1")],
)
def test_polynomial_literal_rejects_unbalanced_parentheses(ring, text):
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        ring.parse_element(text)


def test_product_parse_format():
    x = PROD.parse_element("(3,4)")
    assert x == (3, 4)
    assert PROD.format_element(x) == "(3,4)"
    assert len(list(PROD.elements())) == 20
    assert PROD.is_unit((1, 2))
    assert not PROD.is_unit((2, 2))


def test_product_of_no_rings_is_refused():
    with pytest.raises(ValueError, match="product of no rings"):
        ProductRing([])


def test_localized_units_and_parse():
    # T - 1 avoids {0} and all powers of 2, so it is invertible
    u = LOC2.parse_element("T-1")
    assert LOC2.is_unit(u)
    t = LOC2.parse_element("T")
    assert not LOC2.is_unit(t)
    two = LOC2.parse_element("(T)/(T-3)")
    assert LOC2.format_element(two) == "(T)/(T-3)"
    assert not LOC2.is_unit(LOC2.parse_element("T-4"))
    assert LOC2.is_unit(LOC2.parse_element("T-3"))


def test_localized_rejects_bad_denominator():
    with pytest.raises(ParseError):
        LOC2.parse_element("(1)/(T-2)")
    with pytest.raises(ParseError):
        LOC2.parse_element("(1)/(0)")


def test_localized_rejects_a_second_slash():
    with pytest.raises(ParseError, match="malformed localized element"):
        LOC2.parse_element("(1)/(T+1)/(3)")


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("(T)/3", "malformed localized element"),
        ("(1)/(T+1)/(3)", "malformed localized element"),
        ("(T+1)/(T)", "denominator not in the multiplicative set"),
        ("(1)/(0)", "zero denominator"),
        ("(T-1)", "bad coefficient"),
        ("T/2", "bad coefficient"),
        ("(T)(T)", "bad coefficient"),
        ("(T^2-1)/(2*T-2)", "(1/2*T+1/2)/(1)"),
        ("( T + 1 ) / ( 3 )", "(1/3*T+1/3)/(1)"),
    ],
)
def test_localized_literal_table(text, outcome):
    # every literal shape, each read once: the shown form of an accepted
    # literal, the message of a rejected one
    if outcome.startswith("("):
        assert LOC2.format_element(LOC2.parse_element(text)) == outcome
    else:
        with pytest.raises(ParseError, match=re.escape(outcome)):
            LOC2.parse_element(text)


def _locq_triples(p):
    ring = LocalizedRationalPoly(p)
    elems = loc2_elements(ring)
    return st.tuples(st.just(ring), elems, elems, elems)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(_locq_triples))
def test_localized_results_are_canonical(case):
    # S is closed under products and factors, so every result's reduced
    # denominator stays in S with no check in the ring itself
    ring, x, y, z = case
    results = [
        ring.add(x, y),
        ring.mul(x, y),
        ring.neg(x),
        ring.unit_inverse(x),
        ring.divide_exact(x, y),
        *(ring.bezout((x, y, z)) or ()),
    ]
    for r in results:
        if r is None:
            continue
        num, den = r
        assert num == pu.trim(ring.field, num)
        assert den[-1] == 1 and ring._in_S(den)
        assert pu.xgcd(ring.field, num, den)[0] == (Fraction(1),)


def test_localized_reduced_is_canonical():
    # random fractions, half with a planted common factor and half with a
    # monic den: the reduced form keeps the value, with den monic and
    # gcd(num, den) = 1
    rng = random.Random(11)

    def poly(degree):  # the zero polynomial at degree -1
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
        return tuple(cs[:-1]) + (cs[-1] or Fraction(1),) if cs else ()

    for _ in range(300):
        common = poly(rng.randint(1, 3)) if rng.random() < 0.5 else (Fraction(1),)
        num = pu.mul(QT.field, common, poly(rng.randint(-1, 5)))
        den = pu.mul(QT.field, common, poly(rng.randint(0, 5)))
        if rng.random() < 0.5:
            den = pu.scale(QT.field, 1 / den[-1], den)
        rnum, rden = LOC2._reduced(num, den)
        assert rden[-1] == 1
        assert pu.xgcd(QT.field, rnum, rden)[0] == (Fraction(1),)
        assert pu.mul(QT.field, rnum, den) == pu.mul(QT.field, num, rden)


# classes of locQ with no unit: the numerator of x shares a root in
# {0} u {p^k} with that of a
_LOCQ_NO_UNIT = [
    (3, "T^3-12*T^2+27*T", "T^2+5*T"),
    (2, "T^4-6*T^3+8*T^2", "7/3*T^3+T"),
    (5, "(1/7)*T^5-T^4+T^3+2*T^2", "T^4-T^2"),
]


def test_localized_lift_proves_a_class_has_no_unit():
    cases = []
    for p, a, x in _LOCQ_NO_UNIT:
        ring = LocalizedRationalPoly(p)
        a = ring.parse_element(a)
        cases.append((ring, a, ring.reduce_mod(a, ring.parse_element(x))))
    start = time.perf_counter()
    for _ in range(10):
        for ring, a, r in cases:
            assert ring.unit_residue_witness(a, r) is None
    # a proof, not a walk over hundreds of scalar candidates
    assert time.perf_counter() - start < 0.5


def test_localized_lift_tries_scalars_in_order():
    a = LOC2.parse_element("T^3")
    r = LOC2.reduce_mod(a, LOC2.parse_element("88/3*T^2-208*T+896/3"))
    for c in (0, 1, -1):
        assert not LOC2.is_unit(LOC2.add(r, LOC2.mul(LOC2.parse_element(str(c)), a)))
    eps = LOC2.unit_residue_witness(a, r)
    assert eps == LOC2.add(r, LOC2.mul(LOC2.parse_element("2"), a))
    assert LOC2.format_element(eps) == "(2*T^3+88/3*T^2-208*T+896/3)/(1)"


def _value(f, z):
    return sum(c * z**i for i, c in enumerate(f))


def _has_root_in_F(f, p):
    # a root z has |z| < 1 + max |c_i / c_n| (Cauchy), so finitely many p^k
    bound = 1 + max(abs(c / f[-1]) for c in f)
    powers = itertools.takewhile(lambda w: w <= bound, (p**k for k in itertools.count(1)))
    return any(_value(f, w) == 0 for w in (0, *powers))


def _linear_product(zs):
    f = (Fraction(1),)
    for z in zs:
        f = pu.mul(QT.field, f, (Fraction(-z), Fraction(1)))
    return f


@st.composite
def _locq_lift_case(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    forbidden = [0] + [p**k for k in range(1, 7)]
    zs = draw(st.lists(st.sampled_from(forbidden), max_size=4))
    # roots outside F, some of them near a p^k
    decoys = draw(st.lists(st.sampled_from([1, -p, -p**4, p + 1, p**5 + 1, Fraction(1, p)]), max_size=2))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    h = draw(st.lists(small, min_size=1, max_size=3).filter(lambda cs: cs[-1] != 0))
    h = tuple(h)
    assume(not _has_root_in_F(h, p))
    # a scale with a denominator, so that c0 needs the lcm of the denominators
    scale = draw(small.filter(bool)) / draw(st.integers(1, 7))
    num_a = pu.scale(QT.field, scale, pu.mul(QT.field, h, _linear_product(zs + decoys)))
    den = draw(st.sampled_from(["1", "T-1", "T^2+1", "3*T-1"]))
    num_x = pu.trim(QT.field, tuple(draw(st.lists(small, max_size=4))))
    mode = draw(st.sampled_from(["free", "shared", "other"]))
    if mode == "shared" and zs:
        num_x = pu.mul(QT.field, num_x, (Fraction(-draw(st.sampled_from(zs))), Fraction(1)))
    others = [w for w in forbidden if w not in zs]
    if mode == "other" and len(zs) >= 2 and others:
        # a residue that is no unit by itself, for it vanishes at w: the
        # lift must try c != 0
        cs = draw(st.lists(small, min_size=1, max_size=len(zs) - 1))
        w = draw(st.sampled_from(others))
        num_x = pu.mul(QT.field, pu.trim(QT.field, tuple(cs)), (Fraction(-w), Fraction(1)))
        den = "1"
    ring = LocalizedRationalPoly(p)
    x = ring.mul((num_x, (Fraction(1),)), ring.unit_inverse(ring.parse_element(den)))
    return ring, zs, (num_a, (Fraction(1),)), x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_locq_lift_case())
def test_localized_lift_is_exact(case):
    ring, zs, a, x = case
    assert ring._z_part(a[0]) == _linear_product(zs)
    assert ring._in_S(a[0]) == (not _has_root_in_F(a[0], ring.p))
    r = ring.reduce_mod(a, x)
    eps = ring.unit_residue_witness(a, r)
    if any(_value(r[0], z) == 0 for z in zs):
        assert eps is None
    else:
        assert eps is not None and ring.is_unit(eps)
        assert ring.divide_exact(ring.sub(eps, r), a) is not None


def _ring_with_element(ring, elems):
    return elems.map(lambda a: (ring, a))


def _sized(make, sizes, draw_element):
    return st.sampled_from(sizes).flatmap(
        lambda n: _ring_with_element(make(n), draw_element(n))
    )


def _fp_poly_elements(p):
    return st.lists(st.integers(0, p - 1), max_size=4).map(
        lambda cs: pu.trim(PrimeField(p), tuple(cs))
    )


RING_FAMILIES = st.one_of(
    _ring_with_element(Z, z_elements()),
    _sized(IntegersMod, list(range(1, 41)), lambda n: st.integers(0, n - 1)),
    _sized(PrimeField, [2, 3, 5, 7, 97], lambda p: st.integers(0, p - 1)),
    _sized(PolyOverPrimeField, [2, 3, 5], _fp_poly_elements),
    _ring_with_element(QT, qt_elements()),
    _sized(LocalizedRationalPoly, [2, 3], lambda p: loc2_elements(LocalizedRationalPoly(p))),
    _ring_with_element(PROD, prod_elements()),
    _ring_with_element(
        ProductRing((Z, IntegersMod(6))),
        st.tuples(z_elements(), st.integers(0, 5)),
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RING_FAMILIES)
def test_class_of_one_holds_a_unit(ring_and_a):
    # the witness scan multiplies by b, a unit mod aA, so a residue can only
    # repeat after the class of 1 came back; this is why the scan needs no
    # cycle check, and it holds because every ring finds a unit there
    ring, a = ring_and_a
    assert ring.unit_residue_witness(a, ring.reduce_mod(a, ring.one())) is not None


@pytest.mark.parametrize(
    "spec,error",
    [
        ("GF(7)", None),
        ("GF(7)[T]", None),
        ("locQ(3)", None),
        ("prod(GF(5),locQ(2))", None),
        ("GF(4)", "4 is not prime (at position 3)"),
        ("GF(9)[T]", "9 is not prime (at position 3)"),
        ("locQ(6)", "6 is not prime (at position 5)"),
    ],
)
def test_ring_spec_tests_each_prime_once(monkeypatch, spec, error):
    calls = []
    real = rings._is_prime
    monkeypatch.setattr(rings, "_is_prime", lambda n: calls.append(n) or real(n))
    if error is None:
        parse_ring(spec)
    else:
        with pytest.raises(ParseError) as info:
            parse_ring(spec)
        assert str(info.value) == error
    assert len(calls) == spec.count("GF(") + spec.count("locQ(")


def test_parse_ring_grammar():
    assert parse_ring("Z").spec_string() == "Z"
    assert parse_ring("Z/15").spec_string() == "Z/15"
    assert parse_ring("GF(7)").spec_string() == "GF(7)"
    assert parse_ring("GF(2)[T]").spec_string() == "GF(2)[T]"
    assert parse_ring("Q[T]").spec_string() == "Q[T]"
    assert parse_ring("prod(Z/2,GF(3))").spec_string() == "prod(Z/2,GF(3))"
    assert parse_ring("locQ(3)").spec_string() == "locQ(3)"
    nested = parse_ring("prod(Z,prod(Z/2,Q[T]))")
    assert nested.spec_string() == "prod(Z,prod(Z/2,Q[T]))"


@pytest.mark.parametrize(
    "bad",
    ["", "Z/", "Z/0", "GF(4)", "GF(", "prod()", "prod(Z", "Q[T] extra", "locQ(6)", "R"],
)
def test_parse_ring_rejects(bad):
    with pytest.raises(ParseError):
        parse_ring(bad)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(rings._is_prime(n) == by_trial_division(n) for n in range(-3, 20000))
    # psi_12 is a strong pseudoprime to every prime base up to 37; base 41
    # shows it composite
    assert not rings._is_prime(318665857834031151167461)
    assert rings._is_prime(2**61 - 1)


def _strong_probable_prime(n, a) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _prime_by_every_base(n) -> bool:
    """Miller-Rabin over all 13 bases: the test before it stopped at the
    first t bases that decide n."""
    if n < 2:
        return False
    if any(n % p == 0 for p in core._PRIME_BASES):
        return n in core._PRIME_BASES
    return all(_strong_probable_prime(n, a) for a in core._PRIME_BASES)


@pytest.mark.parametrize("t", range(1, 13))
def test_psi_t_fools_the_first_t_bases_but_not_is_prime(t):
    psi = core._PSI[t - 1]
    assert all(_strong_probable_prime(psi, a) for a in core._PRIME_BASES[:t])
    assert not rings._is_prime(psi)


def test_is_prime_agrees_with_every_base_around_each_psi():
    """Across each switch from t to t + 1 bases, and on random odd numbers
    of every size below the limit."""
    rng = random.Random(38)
    ns = [n for psi in core._PSI[:-1] for n in range(psi - 200, psi + 200)]
    ns += [rng.randrange(2 ** (k - 1), 2**k) | 1 for k in range(12, 82) for _ in range(20)]
    ns = [n for n in ns if n < core._PRIMALITY_LIMIT]
    assert [rings._is_prime(n) for n in ns] == [_prime_by_every_base(n) for n in ns]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_prime_powers_split_n_into_coprime_prime_powers(n):
    powers, rest = rings._trial_factors(n, n)
    assert rest == 1
    primes = [p for p, _ in powers]
    assert primes == sorted(set(primes))
    assert all(rings._is_prime(p) and k >= 1 for p, k in powers)
    # distinct primes, so the prime powers are pairwise coprime
    assert all(gcd(p**k, q**j) == 1 for (p, k), (q, j) in itertools.combinations(powers, 2))
    assert prod(p**k for p, k in powers) == n


@pytest.mark.parametrize(
    "n, powers",
    [
        (1, []),
        (2, [(2, 1)]),
        (97, [(97, 1)]),
        (2**61 - 1, [(2**61 - 1, 1)]),
        (2**20, [(2, 20)]),
        (1000003**3, [(1000003, 3)]),
    ],
)
def test_prime_powers_keep_primes_and_prime_powers_whole(n, powers):
    assert rings._trial_factors(n, n) == (powers, 1)


def test_prime_powers_past_the_primality_limit():
    # the primality test is asked only about cofactors below its limit
    big = rings._PRIMALITY_LIMIT - 168  # the largest prime below it
    assert rings._trial_factors(12 * big, 12 * big) == ([(2, 2), (3, 1), (big, 1)], 1)
    assert rings._trial_factors(10**30, 10**30) == ([(2, 30), (5, 30)], 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=2000))
def test_trial_factors_stop_at_the_trial_bound(n, trial):
    powers, rest = rings._trial_factors(n, trial)
    assert prod(p**k for p, k in powers) * rest == n
    primes = [p for p, _ in powers]
    assert primes == sorted(set(primes))
    assert all(rings._is_prime(p) and k >= 1 for p, k in powers)
    # a part left over has no divisor the trial reached, and is no prime
    assert rest == 1 or not (
        rings._is_prime(rest)
        or any(rest % d == 0 for d in range(2, min(trial, isqrt(rest)) + 1))
    )
    assert trial < isqrt(n) or rest == 1


@pytest.mark.parametrize("ring", [Z, IntegersMod(1), Z12, F5], ids=lambda r: r.spec_string())
def test_builtin_pow_agrees_with_square_and_multiply(ring):
    for x in range(-7, 13) if ring is Z else ring.elements():
        for n in range(9):
            assert ring.pow(x, n) == Ring.pow(ring, x, n)
        assert ring.pow(x, 0) == ring.one()
        with pytest.raises(ValueError):
            ring.pow(x, -1)


def test_integers_mod_units_count_is_the_coprime_count():
    for n in range(1, 501):
        assert IntegersMod(n).unit_quotient(0) == (sum(gcd(x, n) == 1 for x in range(n)), 1)


@pytest.mark.parametrize("spec", ["GF({p})", "GF({p})[T]", "locQ({p})", "prod(Z,GF({p}))"])
def test_ring_spec_rejects_a_prime_past_the_primality_limit(spec):
    # 2**89 - 1 is prime, but past the bound where Miller-Rabin over the
    # first 13 prime bases is exact; the spec is refused, naming the bound
    with pytest.raises(ParseError, match=str(rings._PRIMALITY_LIMIT)):
        parse_ring(spec.format(p=2**89 - 1))
    parse_ring(spec.format(p=rings._PRIMALITY_LIMIT - 168))  # the largest prime below it


def test_infinite_enumeration_raises():
    with pytest.raises(InfiniteRingError):
        Z.elements()
    with pytest.raises(InfiniteRingError):
        list(QT.elements())
    assert Z.quotient_size(0) is None


def test_product_residue_enumeration():
    # (Z/4 x GF(5)) / (2, 0) is Z/2 x GF(5): one unit residue times four
    assert PROD.quotient_size((2, 0)) == 2 * 5
    assert PROD.unit_quotient((2, 0)) == (1 * 4, 1)


def _t_roots(roots) -> tuple:
    """The monic product of T - z over the roots."""
    f = (Fraction(1),)
    for z in roots:
        f = pu.mul(QT.field, f, (Fraction(-z), Fraction(1)))
    return f


def _qt_elements():
    # 0, constants, and products of T, T - 1, T - 2 and T + 1, so that
    # tuples share a factor often
    roots = st.lists(st.sampled_from([0, 1, 2, -1]), max_size=3)
    scale = st.sampled_from([Fraction(0), Fraction(1), Fraction(3)])
    return st.tuples(scale, roots.map(_t_roots)).map(lambda t: pu.scale(QT.field, *t))


def _locq_elements(ring):
    # numerators with roots at 0, 1, p, p^2 and -3, the roots 0 and p^k
    # outside S, over denominators 1, T + 1 and T^2 + 3, which are in S
    roots = st.lists(st.sampled_from([0, 1, ring.p, ring.p**2, -3]), max_size=3)
    scale = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)])
    dens = st.sampled_from([(1,), (1, 1), (3, 0, 1)]).map(lambda cs: tuple(map(Fraction, cs)))
    return st.tuples(scale, roots.map(_t_roots), dens).map(
        lambda t: ring._reduced(pu.scale(ring.field, t[0], t[1]), t[2])
    )


_F7T = PolyOverPrimeField(7)
_LOC3 = LocalizedRationalPoly(3)
_Z_SHARED = st.integers(-12, 12).map(lambda n: 6 * n) | st.integers(-30, 30)
_UNIT_IDEAL_CASES = [
    (Z, _Z_SHARED),
    (Z12, z12_elements()),
    (_F7T, st.lists(st.integers(0, 6), max_size=3).map(lambda cs: pu.trim(_F7T.field, cs))),
    (QT, _qt_elements()),
    (LOC2, _locq_elements(LOC2)),
    (_LOC3, _locq_elements(_LOC3)),
    (ProductRing((Z, QT)), st.tuples(_Z_SHARED, _qt_elements())),
    (ProductRing((QT, LOC2)), st.tuples(_qt_elements(), _locq_elements(LOC2))),
    (ProductRing((Z12, _LOC3)), st.tuples(z12_elements(), _locq_elements(_LOC3))),
]


@pytest.mark.parametrize(
    "ring, elems", _UNIT_IDEAL_CASES, ids=[ring.spec_string() for ring, _ in _UNIT_IDEAL_CASES]
)
def test_generates_unit_ideal_is_bezouts_answer(ring, elems):
    # tuples of length 1 to 3; both answers must come up on every ring
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(elems, min_size=1, max_size=3))
    def check(xs):
        answer = ring.generates_unit_ideal(tuple(xs))
        assert answer == (ring.bezout(tuple(xs)) is not None)
        seen.add(answer)

    check()
    assert seen == {True, False}
