"""Independent checks of goodrings answers.

Nothing here calls the package: every answer is rechecked with plain int
and Fraction arithmetic and with parsers for the package's output text, so
no answer is checked by the code that produced it.

A ring is described by a small tuple instead of a package object:
("Z",), ("mod", n) for Z/n and GF(p), ("prod", (factor, ...)).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

Z = ("Z",)


def mod(n: int) -> tuple:
    return ("mod", n)


class CheckFailed(Exception):
    """An answer the checker rejects."""


def ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# elementwise arithmetic on described rings


def r_eq(ring, x, y) -> bool:
    if ring[0] == "Z":
        return x == y
    if ring[0] == "mod":
        return (x - y) % ring[1] == 0
    return all(r_eq(f, a, b) for f, a, b in zip(ring[1], x, y))


def r_add(ring, x, y):
    if ring[0] == "prod":
        return tuple(r_add(f, a, b) for f, a, b in zip(ring[1], x, y))
    return x + y


def r_mul(ring, x, y):
    if ring[0] == "prod":
        return tuple(r_mul(f, a, b) for f, a, b in zip(ring[1], x, y))
    if ring[0] == "mod":
        return x * y % ring[1]
    return x * y


def r_pow(ring, x, e: int):
    if ring[0] == "prod":
        return tuple(r_pow(f, a, e) for f, a in zip(ring[1], x))
    if ring[0] == "mod":
        return pow(x, e, ring[1])
    return x**e


def r_is_unit(ring, x) -> bool:
    if ring[0] == "Z":
        return x in (1, -1)
    if ring[0] == "mod":
        return gcd(x, ring[1]) == 1
    return all(r_is_unit(f, a) for f, a in zip(ring[1], x))


def r_parse(ring, text: str):
    """Parse the package's element text for Z, Z/n, GF(p) and their products."""
    if ring[0] == "prod":
        ensure(text.startswith("(") and text.endswith(")"), f"not a tuple: {text!r}")
        parts = text[1:-1].split(",")
        ensure(len(parts) == len(ring[1]), f"wrong arity: {text!r}")
        return tuple(r_parse(f, p) for f, p in zip(ring[1], parts))
    ensure(re.fullmatch(r"-?[0-9]+", text) is not None, f"not an integer: {text!r}")
    value = int(text)
    if ring[0] == "mod":
        ensure(0 <= value < ring[1], f"{value} is not a canonical residue mod {ring[1]}")
    return value


def int_bezout(x: int, y: int) -> tuple:
    """(s, t) with s*x + t*y == 1 for coprime x, y."""
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    ensure(abs(r0) == 1, f"{x} and {y} are not coprime")
    return s0 * r0, t0 * r0


# ---------------------------------------------------------------------------
# minimal witnesses on Z, Z/n, GF(p) and their products, by brute force


def _class_eps(ring, a, r):
    """The preferred unit in the class r + aA, or None when it has none.

    Preference: +1, then -1, then the least unit. On Z/n the ideal aA is
    gcd(a, n)Z/n, and a class holds a unit exactly when its residue is prime
    to gcd(a, n), since units of Z/n map onto the units of Z/g.
    """
    if ring[0] == "Z":
        m = abs(a)
        if m == 0:
            return r if r in (1, -1) else None
        for eps in (1, -1):
            if (r - eps) % m == 0:
                return eps
        return None
    if ring[0] == "mod":
        n = ring[1]
        g = gcd(a, n)
        if gcd(r % g, g) != 1:
            return None
        if g == n:  # the class is the single residue r
            return r % n
        for eps in (1 % n, (n - 1) % n):
            if (eps - r) % g == 0:
                return eps
        u = r % g
        while gcd(u, n) != 1:
            u += g
        return u
    parts = [_class_eps(f, m, v) for f, m, v in zip(ring[1], a, r)]
    return None if any(p is None for p in parts) else tuple(parts)


def _residue(ring, a, x):
    """x reduced modulo the ideal aA, so powers stay small."""
    if ring[0] == "prod":
        return tuple(_residue(f, m, v) for f, m, v in zip(ring[1], a, x))
    m = abs(a) if ring[0] == "Z" else ring[1]
    return x % m if m else x


def min_witness(ring, a, b, bound: int):
    """(N, eps) of the least N <= bound whose class b^N + aA holds a unit,
    or None."""
    power = _residue(ring, a, b)
    for n in range(1, bound + 1):
        eps = _class_eps(ring, a, power)
        if eps is not None:
            return n, eps
        power = _residue(ring, a, r_mul(ring, power, b))
    return None


def check_witness_payload(ring, a, b, payload: dict, bound: int) -> None:
    """Recheck a witness payload: minimal N, preferred eps, and
    b^N + lam*a == eps with eps a unit."""
    n_found = payload["N"]
    lam = r_parse(ring, payload["lambda"])
    eps = r_parse(ring, payload["epsilon"])
    expected = min_witness(ring, a, b, bound)
    ensure(expected is not None, "a witness was reported where none exists")
    ensure(n_found == expected[0], f"N = {n_found}, the least N is {expected[0]}")
    ensure(r_eq(ring, eps, expected[1]), f"eps = {eps}, preferred is {expected[1]}")
    ensure(r_is_unit(ring, eps), "eps is not a unit")
    lhs = r_add(ring, r_pow(ring, b, n_found), r_mul(ring, lam, a))
    ensure(r_eq(ring, lhs, eps), "b^N + lam*a != eps")


# ---------------------------------------------------------------------------
# univariate polynomials: ascending coefficient lists


def p_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def p_add(f: list, g: list) -> list:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return p_trim(out)


def p_mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return p_trim(out)


def p_pow(f: list, e: int, p: int = 0) -> list:
    """f^e, with coefficients reduced mod p when p is given."""
    acc = [1]
    for _ in range(e):
        acc = p_mul(acc, f)
        if p:
            acc = p_reduce(acc, p)
    return acc


def p_eval(f: list, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def p_reduce(f: list, p: int) -> list:
    return p_trim([c % p for c in f])


def p_rem_mod(f: list, g: list, p: int) -> list:
    """Remainder of f by g over GF(p)."""
    r = p_reduce(f, p)
    inv = pow(g[-1], -1, p)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        k = len(r) - len(g)
        for i, d in enumerate(g):
            r[k + i] = (r[k + i] - c * d) % p
        p_trim(r)
    return r


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def parse_poly_t(text: str) -> list:
    """Parse the package's polynomial-in-T text into Fraction coefficients."""
    ensure(text != "", "empty polynomial text")
    if text == "0":
        return []
    coeffs: dict = {}
    terms = _TERM_RE.findall(text)
    ensure("".join(terms) == text, f"bad polynomial text {text!r}")
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        factors = body.split("*")
        ensure(body != "" and len(factors) <= 2, f"bad term {term!r} in {text!r}")
        coeff, exp = Fraction(1), 0
        if len(factors) == 2 or not factors[0].startswith("T"):
            ensure(re.fullmatch(r"[0-9]+(/[0-9]+)?", factors[0]) is not None, f"bad term {term!r}")
            coeff = Fraction(factors[0])
        if factors[-1].startswith("T"):
            m = re.fullmatch(r"T(?:\^([0-9]+))?", factors[-1])
            ensure(m is not None, f"bad term {term!r} in {text!r}")
            exp = int(m.group(1)) if m.group(1) else 1
        ensure(exp not in coeffs, f"repeated exponent in {text!r}")
        coeffs[exp] = sign * coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return p_trim(out)


def format_poly_t(f: list) -> str:
    """Polynomial-in-T text in a form the package parses."""
    if not f:
        return "0"
    out = ""
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        var = "" if e == 0 else ("T" if e == 1 else f"T^{e}")
        body = f"{c}*{var}" if var and c != 1 else (var or str(c))
        out += sign + body
    return out.lstrip("+")


def parse_loc(text: str) -> tuple:
    """Split '(num)/(den)' into two Fraction polynomials."""
    ensure(text.startswith("(") and text.endswith(")"), f"bad fraction {text!r}")
    parts = text[1:-1].split(")/(")
    ensure(len(parts) == 2, f"bad fraction {text!r}")
    return parse_poly_t(parts[0]), parse_poly_t(parts[1])


def in_loc_set(f: list, p: int) -> bool:
    """True when f has no root in {0} or among the powers p^k, k >= 1.

    Any root z satisfies |z| <= 1 + max|f_i / f_lead|, so only finitely many
    powers need testing.
    """
    if not f or f[0] == 0:
        return False
    limit = 1 + max(abs(c / f[-1]) for c in f)
    z = p
    while z <= limit:
        if p_eval(f, z) == 0:
            return False
        z *= p
    return True


# ---------------------------------------------------------------------------
# homogeneous polynomials printed by the package, integer coefficients


def parse_homog(text: str) -> dict:
    """Parse 'c*x1^i*x2^j+...' into {exponent tuple: int} (two variables)."""
    terms = _TERM_RE.findall(text)
    ensure("".join(terms) == text and text, f"bad polynomial {text!r}")
    out: dict = {}
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        coeff = sign
        exps = [0, 0]
        for factor in term.lstrip("+-").split("*"):
            m = re.fullmatch(r"x([12])(?:\^([0-9]+))?", factor)
            if m:
                exps[int(m.group(1)) - 1] += int(m.group(2)) if m.group(2) else 1
            else:
                ensure(re.fullmatch(r"[0-9]+", factor) is not None, f"bad factor {factor!r}")
                coeff *= int(factor)
        key = tuple(exps)
        ensure(key not in out, f"repeated monomial in {text!r}")
        out[key] = coeff
    return out


def eval_terms(ring, terms: dict, point) -> object:
    """Value of sum(c * prod(x_i^e_i)) at point, over a described ring."""
    powers: dict = {}
    total = None
    for exps, c in terms.items():
        term = c
        for i, e in enumerate(exps):
            if e:
                key = (i, e)
                if key not in powers:
                    powers[key] = r_pow(ring, point[i], e)
                term = r_mul(ring, term, powers[key])
        total = term if total is None else r_add(ring, total, term)
    return total
