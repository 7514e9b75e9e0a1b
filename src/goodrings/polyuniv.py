"""Univariate polynomial arithmetic over exact coefficient fields.

Polynomials are tuples of coefficients, ascending by degree, with no
trailing zeros; () is the zero polynomial. The coefficient field is a
core.Ring, passed explicitly, so the same routines serve GF(p) and Q;
they use only its ring operations, with division as multiplication by
unit_inverse. The exceptions work on integer coefficients over Q:
monic_gcd's primitive PRS and the root lifting of rational_roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .core import _is_prime, power


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


def powmod(field, f: tuple, n: int, m: tuple) -> tuple:
    """f^n mod m for n >= 0: core.power with every product reduced mod m."""
    def mulmod(x: tuple, y: tuple) -> tuple:
        return divmod_poly(field, mul(field, x, y), m)[1]

    return power(mulmod, divmod_poly(field, (field.one(),), m)[1], f, n)


def xgcd(field, f: tuple, g: tuple) -> tuple[tuple, tuple, tuple]:
    """Extended gcd: (d, s, t) with s*f + t*g = d, d monic or zero. Euclid
    tracks s alone, as t = (d - s*f)/g exactly, () when g = () (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 1.3.6)."""
    r0, r1 = f, g
    s0, s1 = (field.one(),), ()
    while r1:
        q, r = divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
    if r0:
        c = field.unit_inverse(r0[-1])
        r0 = scale(field, c, r0)
        s0 = scale(field, c, s0)
    t = divmod_poly(field, sub(field, r0, mul(field, s0, f)), g)[0] if g else ()
    return r0, s0, t


def monic_gcd(field, f: tuple, g: tuple) -> tuple:
    """xgcd(field, f, g)[0]: 1 at once when f or g is a nonzero constant
    (von zur Gathen & Gerhard, ch. 3).

    Over GF(p) this is xgcd itself, the one Euclid loop. Over the rationals
    it is the primitive PRS on integer coefficients, with no cofactors
    (Collins, J. ACM 1967; Brown, J. ACM 1971): with the denominators
    cleared, each pseudo-remainder is divided by its content, so the
    coefficients stay as small as the gcd's, where Euclid over Fractions
    grows them; the last nonzero one, made monic, is the gcd.
    """
    if len(f) == 1 or len(g) == 1:
        return (field.one(),)
    if field.characteristic:
        return xgcd(field, f, g)[0]
    f, g = _integer_part(f), _integer_part(g)
    while g:
        if len(g) == 1:
            return (Fraction(1),)
        f, g = g, _primitive(_pseudo_remainder(f, g))
    return tuple(Fraction(c, f[-1]) for c in f)


def _integer_part(f: tuple) -> list:
    """The primitive integer multiple of a rational polynomial."""
    den = lcm(*(c.denominator for c in f))
    return _primitive([c.numerator * (den // c.denominator) for c in f])


def _primitive(cs: list) -> list:
    """An integer polynomial divided by the gcd of its coefficients."""
    content = gcd(*cs)
    return cs if content <= 1 else [c // content for c in cs]


def _pseudo_remainder(f: list, g: list) -> list:
    """A nonzero integer multiple of f mod g over Q, for integer polynomials
    f and nonzero g: each step scales the running remainder only by the part
    of lc(g) that its top coefficient lacks, and then cancels that top."""
    r, n, lead = list(f), len(g), g[-1]
    while len(r) >= n:
        top = r.pop()
        k = gcd(top, lead)
        top, scale = top // k, lead // k
        if scale != 1:
            r = [c * scale for c in r]
        shift = len(r) - n + 1
        for i in range(n - 1):
            if g[i]:
                r[shift + i] -= top * g[i]
        while r and not r[-1]:
            r.pop()
    return r


def rational_roots(field, f: tuple) -> list[Fraction]:
    """All rational roots of a polynomial over the rationals field, ascending,
    without multiplicity.

    The roots are found by lifting roots modulo a small prime (Loos, SIAM J.
    Comput. 1983; von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15). With X^v stripped, g = f / gcd(f, f') is squarefree with the
    same nonzero roots. Scaled to coprime integer coefficients c0 .. cn, g
    has each root p/q (lowest terms, q > 0) with |p| <= |c0| and q <= |cn|.
    At the least prime l not dividing cn where every root of g mod l is
    simple, each rational root reduces to its own root mod l. Newton's
    iteration lifts that root to l^k > 2|c0||cn|, where p/q is the only
    fraction within the bounds, and a half-run extended Euclid reads it back.
    A candidate is kept only if f vanishes at it exactly.
    """
    if not f:
        raise ValueError("zero polynomial has every rational root")
    zero = field.zero()
    # strip X^v so the constant term is nonzero
    v = 0
    while v < len(f) and f[v] == zero:
        v += 1
    roots = [zero] if v > 0 else []
    body = f[v:]
    if len(body) > 1:
        g, _ = divmod_poly(field, body, monic_gcd(field, body, _derivative(body)))
        cs = _integer_part(g)
        c0, cn = abs(cs[0]), abs(cs[-1])
        dcs = _derivative(cs)
        ell, residues = _simple_root_prime(cs, dcs)
        for x in residues:
            m = ell
            while m <= 2 * c0 * cn:
                m *= m
                x = (x - _eval_mod(cs, x, m) * pow(_eval_mod(dcs, x, m), -1, m)) % m
            cand = _fraction_from_residue(x, m, c0)
            if eval_at(field, body, cand) == zero:
                roots.append(cand)
    return sorted(roots)


def _derivative(f) -> tuple:
    return tuple(i * c for i, c in enumerate(f))[1:]


def _eval_mod(cs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _simple_root_prime(cs: list, dcs: tuple) -> tuple[int, list[int]]:
    """The least prime l not dividing the leading coefficient at which every
    root of cs mod l is simple, with those roots."""
    for ell in count(2):
        if cs[-1] % ell == 0 or not _is_prime(ell):
            continue
        residues = [r for r in range(ell) if _eval_mod(cs, r, ell) == 0]
        if all(_eval_mod(dcs, r, ell) for r in residues):
            return ell, residues


def _fraction_from_residue(x: int, m: int, num_bound: int) -> Fraction:
    """r/t from the first row of the extended Euclid on (m, x) whose
    remainder r = t*x mod m is at most num_bound. When some p/q = x mod m
    in lowest terms has |p| <= num_bound and 0 < q <= m / (num_bound + 1),
    this is it (von zur Gathen and Gerhard, Theorem 5.26)."""
    r0, r1 = m, x
    t0, t1 = 0, 1
    while r1 > num_bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    return Fraction(r1, t1)
