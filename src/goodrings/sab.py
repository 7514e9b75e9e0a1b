"""The rank-two algebra B_a = A + A*th with th^2 = a*th, and the bridge
between good-point witnesses and bivariate homogeneous polynomials.

B_a is deliberately not a Ring instance: it carries arithmetic and a unit
law, nothing else. Units are decided by the two evaluation maps th -> 0 and
th -> a for necessity and a closed-form inverse for sufficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BezoutCertificate,
    ParseError,
    PreconditionError,
    Ring,
    ensure,
    verify_certificate,
)
from .homog import HomogeneousPolynomial
from .rings import _split_top_level
from .witness import GoodPointWitness, verify_witness


@dataclass(frozen=True)
class SabElement:
    """x + y*th in the basis (1, th); equality is componentwise."""

    x: object
    y: object


class SabAlgebra:
    """A + A*th with th*th = a*th, over an exact base ring."""

    def __init__(self, base: Ring, a):
        self.base = base
        self.a = a

    def zero(self) -> SabElement:
        return SabElement(self.base.zero(), self.base.zero())

    def one(self) -> SabElement:
        return SabElement(self.base.one(), self.base.zero())

    def theta(self) -> SabElement:
        return SabElement(self.base.zero(), self.base.one())

    def embed(self, x) -> SabElement:
        return SabElement(x, self.base.zero())

    def add(self, z1: SabElement, z2: SabElement) -> SabElement:
        base = self.base
        return SabElement(base.add(z1.x, z2.x), base.add(z1.y, z2.y))

    def mul(self, z1: SabElement, z2: SabElement) -> SabElement:
        """(x1 + y1*th)(x2 + y2*th) = x1*x2 + (x1*y2 + y1*x2 + a*y1*y2)*th."""
        base = self.base
        x = base.mul(z1.x, z2.x)
        y = base.add(
            base.add(base.mul(z1.x, z2.y), base.mul(z1.y, z2.x)),
            base.mul(self.a, base.mul(z1.y, z2.y)),
        )
        return SabElement(x, y)

    def is_unit(self, z: SabElement) -> Optional[SabElement]:
        """The inverse of z when it is a unit, else None.

        z = x + y*th is a unit iff x and x + y*a are units; the inverse is
        x^-1 - y*x^-1*s^-1*th with s = x + y*a. Multiplied out, the product's
        th-part is y*x^-1*s^-1*(s - x - a*y) = 0 and its 1-part is x*x^-1 = 1.
        """
        base = self.base
        # z at th -> 0 and at th -> a; both substitutions kill th*(th - a)
        x_inv = base.unit_inverse(z.x)
        if x_inv is None:
            return None
        s_inv = base.unit_inverse(base.add(z.x, base.mul(z.y, self.a)))
        if s_inv is None:
            return None
        return SabElement(x_inv, base.neg(base.mul(z.y, base.mul(x_inv, s_inv))))

    def elements(self):
        for x in self.base.elements():
            for y in self.base.elements():
                yield SabElement(x, y)

    def format_element(self, z: SabElement) -> str:
        base = self.base
        return f"({base.format_element(z.x)}) + ({base.format_element(z.y)})*th"

    def parse_element(self, text: str) -> SabElement:
        parts = _split_top_level(text.replace(" ", ""), "+")
        if len(parts) != 2:
            raise ParseError(f"expected one '+' between the components of {text!r}")
        x_text, y_text = parts
        if not y_text.endswith("*th"):
            raise ParseError(f"expected '*th' to close {text!r}")
        return SabElement(
            self.base.parse_element(_group_body(x_text)),
            self.base.parse_element(_group_body(y_text[:-3])),
        )

    def __repr__(self) -> str:
        return (
            f"<SabAlgebra over {self.base.spec_string()}, "
            f"a = {self.base.format_element(self.a)}>"
        )


def _group_body(s: str) -> str:
    """The text inside a parenthesized component '(...)'."""
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"expected a parenthesized component, got {s!r}")
    return s[1:-1]


# ---------------------------------------------------------------------------
# witness <-> bivariate homogeneous polynomial


def witness_to_polynomial(
    ring: Ring, a, b, cert: BezoutCertificate, w: GoodPointWitness
) -> HomogeneousPolynomial:
    """P(X, Y) := Y^N + lam*X*(a'*X + b'*Y)^(N-1) for cert (a', b').

    P is homogeneous of degree N with P(0, 1) = 1 and P(a, b) = eps.
    """
    if not verify_certificate(ring, (a, b), cert):
        raise PreconditionError("certificate does not verify for the pair")
    if not verify_witness(ring, a, b, w):
        raise PreconditionError("witness does not verify for the pair")
    y_var = HomogeneousPolynomial.monomial(ring, 2, (0, 1), ring.one())
    lam_x = HomogeneousPolynomial.monomial(ring, 2, (1, 0), w.lam)
    inner = HomogeneousPolynomial.linear(ring, cert.coefficients)
    poly = y_var.pow(w.N).add(lam_x.mul(inner.pow(w.N - 1)))
    ensure(poly.eval((ring.zero(), ring.one())) == ring.one(), "P(0, 1) is not 1")
    ensure(poly.eval((a, b)) == w.epsilon, "P(a, b) is not the witness unit")
    return poly


def polynomial_to_witness(
    ring: Ring, a, b, poly: HomogeneousPolynomial
) -> GoodPointWitness:
    """Read a witness off a bivariate homogeneous P that is unit-valued at
    (0, 1) and (a, b).

    P = a0*Y^d + X*Q with a0 = P(0, 1), the coefficient of Y^d, and Q the
    X-part, the terms of P that hold X at one power of X less. So b^d +
    lam*a = eps for N = d, lam = a0^-1 * Q(a, b) and eps = a0^-1 * P(a, b).
    Q(a, b) is the one evaluation: P(a, b) = a0*b^d + a*Q(a, b).
    """
    if poly.n_vars != 2:
        raise PreconditionError("the bridge polynomial must be bivariate")
    d = poly.degree
    if poly.is_zero or d < 1:
        raise PreconditionError("the bridge polynomial must have degree >= 1")
    a0 = poly.terms.get((0, d), ring.zero())
    a0_inv = ring.unit_inverse(a0)
    if a0_inv is None:
        raise PreconditionError("P(0, 1) must be a unit")
    x_part = {(i - 1, j): c for (i, j), c in poly.terms.items() if i}
    q_val = HomogeneousPolynomial(ring, 2, d - 1, x_part).eval((a, b))
    val = ring.add(ring.mul(a0, ring.pow(b, d)), ring.mul(a, q_val))
    if not ring.is_unit(val):
        raise PreconditionError("P(a, b) must be a unit")
    lam = ring.mul(a0_inv, q_val)
    eps = ring.mul(a0_inv, val)
    w = GoodPointWitness(d, lam, eps, ring.unit_inverse(eps))
    ensure(verify_witness(ring, a, b, w), "the witness read off P does not verify")
    return w
