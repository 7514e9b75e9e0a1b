"""Rational roots of Q-polynomials against a divisor-enumeration reference,
powers modulo a polynomial against repeated multiplication, and the
cofactor-free gcd against the extended one and, over Q, against Euclid on
Fractions."""

import random
from fractions import Fraction
from functools import partial
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from goodrings import polyuniv as pu
from goodrings.rings import PrimeField, RationalPoly, Rationals, _int_xgcd

Q = Rationals()


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _reference_roots(f: tuple) -> list[Fraction]:
    """The rational root theorem by brute force: every root p/q of the
    cleared-denominator body has p dividing its constant term and q its
    leading one."""
    v = next(i for i, c in enumerate(f) if c != 0)
    body = f[v:]
    den = lcm(*(c.denominator for c in body))
    ints = [int(c * den) for c in body]
    roots = {Fraction(0)} if v else set()
    if len(body) > 1:
        for p in _divisors(abs(ints[0])):
            for q in _divisors(abs(ints[-1])):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if pu.eval_at(Q, body, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _product(factors) -> tuple:
    f = (Fraction(1),)
    for fac in factors:
        f = pu.mul(Q, f, fac)
    return f


_ratios = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))


@st.composite
def _rootless(draw) -> tuple:
    """A Q-polynomial of degree >= 2 with no rational root: either positive
    definite (even powers, positive coefficients) or T^k - c with c a
    positive integer that is not a k-th power, whose real root is
    irrational."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(_ratios, min_size=2, max_size=3))
        f = [Fraction(0)] * (2 * len(coeffs) - 1)
        f[::2] = coeffs
        return tuple(f)
    k = draw(st.integers(2, 3))
    c = draw(st.integers(2, 12).filter(lambda c: round(c ** (1 / k)) ** k != c))
    return (Fraction(-c),) + (Fraction(0),) * (k - 1) + (Fraction(1),)


@st.composite
def _polynomial(draw) -> tuple:
    """(f, planted roots): products of (q*T - p)^e, T^v and rootless
    factors, times a nonzero rational scalar."""
    roots = draw(
        st.lists(
            st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
            max_size=3,
            unique=True,
        )
    )
    factors = []
    for r in roots:
        e = draw(st.integers(1, 2))
        factors += [(Fraction(-r.numerator), Fraction(r.denominator))] * e
    v = draw(st.integers(0, 2))
    factors += [(Fraction(0), Fraction(1))] * v
    factors += draw(st.lists(_rootless(), max_size=2))
    scalar = draw(_ratios) * draw(st.sampled_from((1, -1)))
    f = pu.scale(Q, scalar, _product(factors))
    planted = set(roots) | ({Fraction(0)} if v else set())
    return f, sorted(planted)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polynomial())
def test_rational_roots_match_the_divisor_reference(case):
    f, planted = case
    found = pu.rational_roots(Q, f)
    assert found == _reference_roots(f)
    assert found == planted


def test_rational_roots_of_a_constant():
    assert pu.rational_roots(Q, (Fraction(7, 3),)) == []
    with pytest.raises(ValueError):
        pu.rational_roots(Q, ())


def test_rational_roots_near_ten_to_the_25():
    # far past a divisor scan: the roots are checked by substitution only
    big = 10**25 + 13
    small = Fraction(-(10**25 + 7), 10**12 + 1)
    f = _product(
        [
            (Fraction(-big), Fraction(1)),
            (Fraction(-big), Fraction(1)),
            (Fraction(-small.numerator), Fraction(small.denominator)),
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1)),
        ]
    )
    found = pu.rational_roots(Q, pu.scale(Q, Fraction(2, 7), f))
    assert found == [small, Fraction(0), Fraction(big)]
    assert all(pu.eval_at(Q, f, r) == 0 for r in found)


def test_powmod_is_the_reduced_power():
    field = PrimeField(3)
    m = (2, 0, 1, 1)  # T^3 + T^2 + 2
    for f in [(), (1,), (0, 1), (2, 1, 0, 1, 2)]:
        acc = (1,)
        for n in range(12):
            assert pu.powmod(field, f, n, m) == pu.divmod_poly(field, acc, m)[1]
            acc = pu.mul(field, acc, f)


def test_divmod_by_the_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        pu.divmod_poly(Q, (Fraction(1),), ())


def _random_poly(rng, field, degree: int) -> tuple:
    """A polynomial of the given degree (zero at -1) with a nonzero leading
    coefficient: small fractions over Q, residues over GF(p)."""
    if field is Q:
        coeff = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    else:
        coeff = lambda: rng.randrange(field.characteristic)
    if degree < 0:
        return ()
    lead = 0
    while lead == 0:
        lead = coeff()
    return tuple(coeff() for _ in range(degree)) + (lead,)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7), Q], ids=["GF(2)", "GF(7)", "Q"])
def test_monic_gcd_is_the_extended_gcd(field):
    # degrees 0-8, half the pairs with a planted common factor of degree 0-3;
    # the zero and the constant operands come up at degrees -1 and 0
    rng = random.Random(7)
    zero, one = (), (field.one(),)
    pairs = [(zero, zero), (zero, one), (one, zero), (one, one)]
    for _ in range(300):
        c = _random_poly(rng, field, rng.randint(0, 3)) if rng.random() < 0.5 else one
        top = 8 - pu.deg(c)
        f = pu.mul(field, c, _random_poly(rng, field, rng.randint(-1, top)))
        g = pu.mul(field, c, _random_poly(rng, field, rng.randint(-1, top)))
        pairs.append((f, g))
    seen = set()
    for f, g in pairs:
        d = pu.monic_gcd(field, f, g)
        assert d == pu.xgcd(field, f, g)[0]
        seen.add(pu.deg(d))
    assert {-1, 0, 1, 2, 3} <= seen


def _fraction_euclid(f: tuple, g: tuple) -> tuple:
    """The monic gcd by Euclid's algorithm on Fractions, each divisor made
    monic first: the reference for the integer gcd over Q."""
    f, g = list(f), list(g)
    while g:
        g = [c / g[-1] for c in g]
        r = f[:]
        while len(r) >= len(g):
            top, shift = r[-1], len(r) - len(g)
            for i, c in enumerate(g):
                r[shift + i] -= top * c
            while r and r[-1] == 0:
                r.pop()
        f, g = g, r
    return tuple(c / f[-1] for c in f)


def _q_pairs(rng) -> list:
    """Q-polynomial pairs: zero and constant operands, dense pairs of degree
    up to 30 with a planted common factor of degree 0-10 half the time, and
    pairs of degree up to 200 whose first Euclid step leaves degree at most
    20, so the reference stays fast there. Coefficients carry denominators
    up to 4 and either sign, the leading one included."""
    zero, two = (), (Fraction(2),)
    pairs = [(zero, zero), (zero, two), (two, zero), (two, two), (zero, (Fraction(-1, 3), Fraction(-5, 2)))]
    for _ in range(150):
        c = _random_poly(rng, Q, rng.randint(1, 10)) if rng.random() < 0.5 else (Fraction(1),)
        top = 30 - pu.deg(c)
        f = pu.mul(Q, c, _random_poly(rng, Q, rng.randint(-1, top)))
        g = pu.mul(Q, c, _random_poly(rng, Q, rng.randint(-1, top)))
        pairs.append((f, g))
    for _ in range(20):
        c = _random_poly(rng, Q, rng.randint(0, 10))
        g = pu.mul(Q, c, _random_poly(rng, Q, rng.randint(90, 190 - pu.deg(c))))
        q = _random_poly(rng, Q, rng.randint(0, 200 - pu.deg(g)))
        r = pu.mul(Q, c, _random_poly(rng, Q, rng.randint(-1, 10)))
        pairs.append((pu.add(Q, pu.mul(Q, q, g), r), g))
    return pairs


def test_monic_gcd_over_q_is_the_fraction_euclid():
    rng = random.Random(11)
    degrees = set()
    for f, g in _q_pairs(rng):
        d = pu.monic_gcd(Q, f, g)
        assert d == _fraction_euclid(f, g), (f, g)
        assert all(type(c) is Fraction for c in d)
        degrees.add(pu.deg(d))
    assert set(range(-1, 11)) <= degrees


def test_monic_gcd_over_q_of_one_high_degree_pair():
    # the degree-1000 pair of hang row 9, whose gcd is T
    qt = RationalPoly()
    f, g = qt.parse_element("7*T^1000+3/4*T"), qt.parse_element("3/4*T+2*T^100+5*T^3")
    assert pu.monic_gcd(Q, f, g) == (Fraction(0), Fraction(1))


def _two_cofactor_euclid(div, mul, sub, normal, zero, one, f, g) -> tuple:
    """(d, s, t) by the extended Euclid that carries both cofactor
    sequences, the reference for the one-cofactor loops: div gives the
    quotient, and normal(r) the unit that normalizes the last remainder r."""
    r0, r1, s0, s1, t0, t1 = f, g, one, zero, zero, one
    while r1 != zero:
        q = div(r0, r1)
        r0, r1 = r1, sub(r0, mul(q, r1))
        s0, s1 = s1, sub(s0, mul(q, s1))
        t0, t1 = t1, sub(t0, mul(q, t1))
    c = normal(r0)
    return mul(c, r0), mul(c, s0), mul(c, t0)


_INT = st.integers(-(10**30), 10**30) | st.integers(-3, 3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_INT, _INT, st.integers(-50, 50) | st.integers(0, 1))
def test_int_xgcd_is_the_two_cofactor_euclid(a, b, common):
    # zero, unit and negative operands, and a planted common factor
    a, b = a * common, b * common
    expected = _two_cofactor_euclid(
        lambda x, y: x // y, lambda x, y: x * y, lambda x, y: x - y,
        lambda r: -1 if r < 0 else 1, 0, 1, a, b,
    )
    assert _int_xgcd(a, b) == expected


def _field_polys(field):
    coeff = (
        st.fractions(min_value=-9, max_value=9, max_denominator=4)
        if field is Q
        else st.integers(0, field.characteristic - 1)
    )
    return st.lists(coeff, max_size=8).map(lambda cs: pu.trim(field, cs))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7), Q], ids=["GF(2)", "GF(7)", "Q"])
def test_xgcd_is_the_two_cofactor_euclid(field):
    # zero and constant operands at lengths 0 and 1; a planted common factor
    # of degree 0 to 3 makes the gcd nontrivial
    polys = _field_polys(field)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(polys, polys, polys.filter(lambda c: len(c) <= 4))
    def check(f, g, common):
        f, g = pu.mul(field, common, f), pu.mul(field, common, g)
        expected = _two_cofactor_euclid(
            lambda x, y: pu.divmod_poly(field, x, y)[0],
            partial(pu.mul, field),
            partial(pu.sub, field),
            lambda r: (field.unit_inverse(r[-1]),) if r else (field.one(),),
            (), (field.one(),), f, g,
        )
        assert pu.xgcd(field, f, g) == expected

    check()
