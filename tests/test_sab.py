"""The adjoined-idempotent-line algebra and the witness/polynomial bridge."""

import pytest
from hypothesis import given, settings, strategies as st

from goodrings.core import ParseError, PreconditionError, require_primitive
from goodrings.homog import HomogeneousPolynomial
from goodrings.rings import Integers, IntegersMod, RationalPoly, parse_ring
from goodrings.sab import (
    SabAlgebra,
    SabElement,
    polynomial_to_witness,
    witness_to_polynomial,
)
from goodrings.witness import Witness, find_good_witness, verify_witness

Z = Integers()
QT = RationalPoly()


def test_theta_squared_is_a_theta():
    for a in (-3, 0, 2, 7):
        alg = SabAlgebra(Z, a)
        th = alg.theta()
        assert alg.mul(th, th) == SabElement(0, a)


def test_one_minus_theta_is_self_inverse_for_a_two():
    alg = SabAlgebra(Z, 2)
    z = SabElement(1, -1)
    assert alg.mul(z, z) == alg.one()
    assert alg.is_unit(z) == z


def test_one_plus_theta_is_not_a_unit_for_a_five():
    alg = SabAlgebra(Z, 5)
    assert alg.is_unit(SabElement(1, 1)) is None


def test_embed_is_multiplicative():
    alg = SabAlgebra(Z, 4)
    for x in (-2, 3):
        for y in (5, -1):
            assert alg.mul(alg.embed(x), alg.embed(y)) == alg.embed(x * y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(-4, 4),
    *(st.integers(-9, 9) for _ in range(6)),
)
def test_algebra_laws_over_integers(a, x1, y1, x2, y2, x3, y3):
    alg = SabAlgebra(Z, a)
    z1, z2, z3 = SabElement(x1, y1), SabElement(x2, y2), SabElement(x3, y3)
    assert alg.mul(z1, z2) == alg.mul(z2, z1)
    assert alg.mul(alg.mul(z1, z2), z3) == alg.mul(z1, alg.mul(z2, z3))
    assert alg.mul(z1, alg.add(z2, z3)) == alg.add(
        alg.mul(z1, z2), alg.mul(z1, z3)
    )
    assert alg.mul(z1, alg.one()) == z1


def test_unit_law_matches_brute_force_over_small_modular_rings():
    for n in (2, 3, 4, 6):
        base = IntegersMod(n)
        for a in range(n):
            alg = SabAlgebra(base, a)
            carrier = list(alg.elements())
            for z in carrier:
                inv = alg.is_unit(z)
                brute = any(
                    alg.mul(z, w) == alg.one() for w in carrier
                )
                assert (inv is not None) == brute
                if inv is not None:
                    assert alg.mul(z, inv) == alg.one()


def test_dual_number_case_a_zero():
    alg = SabAlgebra(IntegersMod(5), 0)
    th = alg.theta()
    assert alg.mul(th, th) == alg.zero()
    for y in range(5):
        assert alg.is_unit(SabElement(1, y)) is not None
    assert alg.is_unit(SabElement(0, 1)) is None


def test_format_parse_round_trip():
    alg = SabAlgebra(Z, 3)
    z = SabElement(-7, 4)
    assert alg.format_element(z) == "(-7) + (4)*th"
    assert alg.parse_element(alg.format_element(z)) == z


def test_format_parse_round_trip_with_compound_base():
    alg = SabAlgebra(QT, QT.parse_element("T"))
    z = SabElement(QT.parse_element("T+1"), QT.parse_element("1/2*T"))
    text = alg.format_element(z)
    assert alg.parse_element(text) == z


def test_parse_rejects_malformed_elements():
    alg = SabAlgebra(Z, 2)
    for bad in ("1 + 2*th", "(1) - (2)*th", "(1) + (2)", "((1) + (2)*th"):
        with pytest.raises(ParseError):
            alg.parse_element(bad)


# ---------------------------------------------------------------------------
# witness <-> polynomial bridge


def _witness(ring, a, b):
    outcome = find_good_witness(ring, a, b)
    assert isinstance(outcome, Witness)
    return outcome.witness


def test_bridge_forward_classic_pair():
    cert = require_primitive(Z, (5, 2)).certificate
    w = _witness(Z, 5, 2)
    poly = witness_to_polynomial(Z, 5, 2, cert, w)
    assert poly == HomogeneousPolynomial.parse(Z, 2, "-x1^2+2*x1*x2+x2^2")
    assert poly.eval((0, 1)) == 1
    assert poly.eval((5, 2)) == w.epsilon


def test_bridge_forward_degree_one():
    cert = require_primitive(Z, (4, 3)).certificate
    w = _witness(Z, 4, 3)
    poly = witness_to_polynomial(Z, 4, 3, cert, w)
    assert poly == HomogeneousPolynomial.parse(Z, 2, "-x1+x2")


def test_bridge_forward_zero_first_coordinate():
    cert = require_primitive(Z, (0, 1)).certificate
    w = _witness(Z, 0, 1)
    poly = witness_to_polynomial(Z, 0, 1, cert, w)
    assert poly == HomogeneousPolynomial.parse(Z, 2, "x2")


def test_bridge_reverse_classic_pair():
    poly = HomogeneousPolynomial.parse(Z, 2, "-x1^2+2*x1*x2+x2^2")
    w = polynomial_to_witness(Z, 5, 2, poly)
    assert (w.N, w.lam, w.epsilon) == (2, -1, -1)


def test_bridge_reverse_works_for_any_unit_valued_polynomial():
    # not of the constructed shape, but the extraction rule still applies
    poly = HomogeneousPolynomial.parse(Z, 2, "x1^2-x1*x2+x2^2")
    w = polynomial_to_witness(Z, 1, 1, poly)
    assert (w.N, w.lam, w.epsilon) == (2, 0, 1)
    assert verify_witness(Z, 1, 1, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_bridge_round_trip_over_integers(a, b):
    import math

    if math.gcd(a, b) != 1:
        return
    pt = require_primitive(Z, (a, b))
    w = _witness(Z, a, b)
    poly = witness_to_polynomial(Z, a, b, pt.certificate, w)
    back = polynomial_to_witness(Z, a, b, poly)
    assert (back.N, back.lam, back.epsilon) == (w.N, w.lam, w.epsilon)
    assert poly.degree == w.N


def test_bridge_over_rational_polynomials():
    a = QT.parse_element("T^2-T")
    b = QT.parse_element("T-1/2")
    pt = require_primitive(QT, (a, b))
    w = _witness(QT, a, b)
    poly = witness_to_polynomial(QT, a, b, pt.certificate, w)
    back = polynomial_to_witness(QT, a, b, poly)
    assert back.lam == w.lam and back.N == w.N
    assert back.epsilon == w.epsilon


def _per_term_reading(ring, a, b, poly):
    """(N, lam, eps) with lam = a0^-1 * sum(c * a^(i-1) * b^j) over the
    terms c*X^i*Y^j of poly with i >= 1, one term at a time."""
    a0_inv = ring.unit_inverse(poly.terms[(0, poly.degree)])
    total = ring.zero()
    for (i, j), c in poly.terms.items():
        if i:
            total = ring.add(total, ring.mul(c, ring.mul(ring.pow(a, i - 1), ring.pow(b, j))))
    return poly.degree, ring.mul(a0_inv, total), ring.mul(a0_inv, poly.eval((a, b)))


@pytest.mark.parametrize(
    "spec, pairs, coeffs",
    [
        ("Z/12", [("4", "3"), ("6", "5"), ("9", "2")], ["5", "7", "2", "11", "6"]),
        ("GF(7)", [("3", "5"), ("0", "2"), ("6", "6")], ["4", "1", "6", "2"]),
        ("GF(5)[T]", [("T^2+2", "T+2"), ("T", "T+1"), ("3", "T")], ["T+3", "2", "4*T^2"]),
        ("prod(Z,Z/6)", [("(2,3)", "(3,2)"), ("(5,4)", "(2,1)")], ["(3,5)", "(-1,2)", "(0,4)"]),
    ],
)
def test_bridge_reverse_reads_the_per_term_formula(spec, pairs, coeffs):
    # P0 from a witness, then P = P0^2 + X*(b*X - a*Y)*R: the added part
    # vanishes at (0, 1) and (a, b), so P stays unit-valued there while its
    # X-part gains every term of R
    ring = parse_ring(spec)
    cs = [ring.parse_element(c) for c in coeffs]
    x_var = HomogeneousPolynomial.monomial(ring, 2, (1, 0), ring.one())
    for a_text, b_text in pairs:
        a, b = ring.parse_element(a_text), ring.parse_element(b_text)
        pt = require_primitive(ring, (a, b))
        p0 = witness_to_polynomial(ring, a, b, pt.certificate, _witness(ring, a, b))
        d = 2 * p0.degree - 2
        r_terms = {(k, d - k): cs[k % len(cs)] for k in range(d + 1)}
        r = HomogeneousPolynomial(ring, 2, d, r_terms)
        vanishing = x_var.mul(HomogeneousPolynomial.linear(ring, (b, ring.neg(a))))
        for poly in (p0, p0.pow(2).add(vanishing.mul(r))):
            w = polynomial_to_witness(ring, a, b, poly)
            assert (w.N, w.lam, w.epsilon) == _per_term_reading(ring, a, b, poly)


def test_bridge_forward_rejects_bad_certificate():
    from goodrings.core import BezoutCertificate

    w = _witness(Z, 5, 2)
    with pytest.raises(PreconditionError):
        witness_to_polynomial(Z, 5, 2, BezoutCertificate((1, 1)), w)


def test_bridge_forward_rejects_bad_witness():
    import dataclasses

    cert = require_primitive(Z, (5, 2)).certificate
    w = dataclasses.replace(_witness(Z, 5, 2), lam=7)
    with pytest.raises(PreconditionError):
        witness_to_polynomial(Z, 5, 2, cert, w)


def test_bridge_reverse_rejects_wrong_arity():
    poly = HomogeneousPolynomial.parse(Z, 3, "x1+x2+x3")
    with pytest.raises(PreconditionError):
        polynomial_to_witness(Z, 5, 2, poly)


def test_bridge_reverse_rejects_constants():
    poly = HomogeneousPolynomial.constant(Z, 2, 1)
    with pytest.raises(PreconditionError):
        polynomial_to_witness(Z, 5, 2, poly)


def test_bridge_reverse_rejects_non_unit_values():
    with pytest.raises(PreconditionError):
        polynomial_to_witness(Z, 5, 2, HomogeneousPolynomial.parse(Z, 2, "2*x2"))
    with pytest.raises(PreconditionError):
        # value at (2, 3) is 3, not a unit over the integers
        polynomial_to_witness(Z, 2, 3, HomogeneousPolynomial.parse(Z, 2, "x2"))


def test_bridge_reverse_evaluates_only_the_x_part(monkeypatch):
    # P(0, 1) is the coefficient of Y^d, and P(a, b) = P(0, 1)*b^d + a*Q(a, b)
    # for the X-part Q: one evaluation, of Q
    calls = []
    original = HomogeneousPolynomial.eval

    def counted(self, coords):
        calls.append(self.format())
        return original(self, coords)

    monkeypatch.setattr(HomogeneousPolynomial, "eval", counted)
    poly = HomogeneousPolynomial.parse(Z, 2, "-x1^2+2*x1*x2+x2^2")
    w = polynomial_to_witness(Z, 5, 2, poly)
    assert (w.N, w.lam, w.epsilon) == (2, -1, -1)
    assert calls == ["-x1+2*x2"]
