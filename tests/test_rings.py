"""Ring instances: axioms, grammars, certificates, residue contracts."""

import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from goodrings import polyuniv as pu
from goodrings import rings
from goodrings.core import InfiniteRingError, ParseError, Ring
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
    assert Z.units_count() == 2


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


def test_rational_poly_bezout():
    a = QT.parse_element("T^2-T")
    b = QT.parse_element("T-2")
    coeffs = QT.bezout((a, b))
    assert coeffs is not None
    total = QT.add(QT.mul(coeffs[0], a), QT.mul(coeffs[1], b))
    assert total == QT.one()
    assert QT.bezout((a, QT.parse_element("T"))) is None


def test_polynomial_rings_share_one_class():
    assert isinstance(F3T, UnivariatePolyRing)
    assert isinstance(QT, UnivariatePolyRing)
    assert not isinstance(F3T, RationalPoly)
    assert isinstance(parse_ring("Q[T]"), RationalPoly)
    assert F3T.spec_string() == "GF(3)[T]"
    # every coefficient field is a ring of the package
    assert isinstance(F3T.field, PrimeField) and F3T.field.characteristic == 3
    assert isinstance(QT.field, Ring) and isinstance(LOC2.field, Ring)
    assert QT.field.characteristic == 0
    assert F3T.units_count() == 2
    assert QT.units_count() is None
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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_prime_powers_split_n_into_coprime_prime_powers(n):
    powers = rings._prime_powers(n)
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
    assert rings._prime_powers(n) == powers


def test_prime_powers_past_the_primality_limit():
    # the primality test is asked only about cofactors below its limit
    big = rings._PRIMALITY_LIMIT - 168  # the largest prime below it
    assert rings._prime_powers(12 * big) == [(2, 2), (3, 1), (big, 1)]
    assert rings._prime_powers(10**30) == [(2, 30), (5, 30)]


def test_integers_mod_units_count_is_the_coprime_count():
    for n in range(1, 501):
        assert IntegersMod(n).units_count() == sum(gcd(x, n) == 1 for x in range(n))


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
    with pytest.raises(InfiniteRingError):
        Z.quotient_residues(0)


def test_product_residue_enumeration():
    residues = list(PROD.quotient_residues((2, 0)))
    assert len(residues) == 2 * 5
