"""Univariate polynomial arithmetic over exact coefficient fields.

Polynomials are tuples of coefficients, ascending by degree, with no
trailing zeros; () is the zero polynomial. The coefficient field is
passed explicitly so the same routines serve GF(p) and Q.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_FRACTION_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


class QField:
    """Rational numbers as a coefficient field."""

    characteristic = 0

    def parse(self, tok: str) -> Fraction:
        """An integer or fraction literal; ValueError otherwise."""
        if not _FRACTION_RE.match(tok):
            raise ValueError(tok)
        return Fraction(tok)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero in Q")
        return x / y

    def is_zero(self, x):
        return x == 0


class FpField:
    """Prime field GF(p); elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("field characteristic must be at least 2")
        self.p = self.characteristic = p

    def parse(self, tok: str) -> int:
        """An integer literal, reduced mod p; ValueError otherwise."""
        if not _INT_RE.match(tok):
            raise ValueError(tok)
        return int(tok) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, x):
        return x % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def div(self, x, y):
        if y % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return (x * pow(y, -1, self.p)) % self.p

    def is_zero(self, x):
        return x % self.p == 0


def trim(field, coeffs) -> tuple:
    cs = list(coeffs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def deg(poly: tuple) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly) - 1


def const(field, c) -> tuple:
    return trim(field, [field.coerce(c)])


def add(field, f: tuple, g: tuple) -> tuple:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero()
        b = g[i] if i < len(g) else field.zero()
        out.append(field.add(a, b))
    return trim(field, out)


def neg(field, f: tuple) -> tuple:
    return tuple(field.neg(c) for c in f)


def sub(field, f: tuple, g: tuple) -> tuple:
    return add(field, f, neg(field, g))


def mul(field, f: tuple, g: tuple) -> tuple:
    if not f or not g:
        return ()
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(field, out)


def scale(field, c, f: tuple) -> tuple:
    return trim(field, [field.mul(c, a) for a in f])


def eval_at(field, f: tuple, x):
    acc = field.zero()
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def divmod_poly(field, f: tuple, g: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder with deg(r) < deg(g)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [field.zero()] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    lead = g[-1]
    while len(r) >= len(g) and trim(field, r):
        r = list(trim(field, r))
        if len(r) < len(g):
            break
        c = field.div(r[-1], lead)
        k = len(r) - len(g)
        q[k] = field.add(q[k], c)
        for i, b in enumerate(g):
            r[k + i] = field.sub(r[k + i], field.mul(c, b))
        r.pop()
    return trim(field, q), trim(field, r)


def monic(field, f: tuple) -> tuple:
    if not f:
        return ()
    return scale(field, field.div(field.one(), f[-1]), f)


def xgcd(field, f: tuple, g: tuple) -> tuple[tuple, tuple, tuple]:
    """Extended gcd: returns (d, s, t) with s*f + t*g = d, d monic or zero."""
    r0, r1 = f, g
    s0, s1 = const(field, 1), ()
    t0, t1 = (), const(field, 1)
    while r1:
        q, r = divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if r0:
        c = field.div(field.one(), r0[-1])
        r0 = scale(field, c, r0)
        s0 = scale(field, c, s0)
        t0 = scale(field, c, t0)
    return r0, s0, t0


def rational_roots(f: tuple) -> list[Fraction]:
    """All rational roots of a Q-coefficient polynomial, ascending, without
    multiplicity. Uses the rational root bound on a cleared-denominator copy."""
    if not f:
        raise ValueError("zero polynomial has every rational root")
    field = QField()
    # strip X^v so the constant term is nonzero
    v = 0
    while v < len(f) and f[v] == 0:
        v += 1
    roots = set()
    if v > 0:
        roots.add(Fraction(0))
    body = f[v:]
    if len(body) > 1:
        den_lcm = 1
        for c in body:
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in body]
        a0, an = abs(ints[0]), abs(ints[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if eval_at(field, body, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    ds = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            ds.append(d)
            if d != n // d:
                ds.append(n // d)
        d += 1
    return sorted(ds)
