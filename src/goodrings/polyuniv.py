"""Univariate polynomial arithmetic over exact coefficient fields.

Polynomials are tuples of coefficients, ascending by degree, with no
trailing zeros; () is the zero polynomial. The coefficient field is a
core.Ring, passed explicitly, so the same routines serve GF(p) and Q;
they use only its ring operations, with division as multiplication by
unit_inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(field, coeffs) -> tuple:
    cs = list(coeffs)
    zero = field.zero()
    while cs and cs[-1] == zero:
        cs.pop()
    return tuple(cs)


def deg(poly: tuple) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly) - 1


def add(field, f: tuple, g: tuple) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] = field.add(out[i], b)
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
    zero = field.zero()
    inv_lead = field.unit_inverse(g[-1])
    q = [zero] * max(len(f) - len(g) + 1, 0)
    r = list(trim(field, f))
    while len(r) >= len(g):
        c = field.mul(r[-1], inv_lead)
        k = len(r) - len(g)
        q[k] = c
        # the top coefficient cancels exactly, so it is dropped unchanged
        for i in range(len(g) - 1):
            r[k + i] = field.sub(r[k + i], field.mul(c, g[i]))
        r.pop()
        while r and r[-1] == zero:
            r.pop()
    return trim(field, q), tuple(r)


def monic(field, f: tuple) -> tuple:
    if not f:
        return ()
    return scale(field, field.unit_inverse(f[-1]), f)


def xgcd(field, f: tuple, g: tuple) -> tuple[tuple, tuple, tuple]:
    """Extended gcd: returns (d, s, t) with s*f + t*g = d, d monic or zero."""
    r0, r1 = f, g
    s0, s1 = (field.one(),), ()
    t0, t1 = (), (field.one(),)
    while r1:
        q, r = divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if r0:
        c = field.unit_inverse(r0[-1])
        r0 = scale(field, c, r0)
        s0 = scale(field, c, s0)
        t0 = scale(field, c, t0)
    return r0, s0, t0


def rational_roots(field, f: tuple) -> list[Fraction]:
    """All rational roots of a polynomial over the rationals field, ascending,
    without multiplicity. Uses the rational root bound on a
    cleared-denominator copy."""
    if not f:
        raise ValueError("zero polynomial has every rational root")
    zero = field.zero()
    # strip X^v so the constant term is nonzero
    v = 0
    while v < len(f) and f[v] == zero:
        v += 1
    roots = set()
    if v > 0:
        roots.add(zero)
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
                    if eval_at(field, body, cand) == zero:
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
