"""Concrete ring instances and the ring-spec / element-literal grammars.

Ring specs: Z | Z/<n> | GF(<p>) | GF(<p>)[T] | Q[T] | prod(<spec>,...) | locQ(<p>).
Element literals: integers; rationals a/b; polynomials in T such as T^2-3/2*T+1;
tuples (e1,e2,...); localized elements (<poly>)/(<poly>). Formatting inverts
parsing on canonical forms.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, prod
from typing import Iterator, Optional, Sequence

from . import polyuniv as pu
from .core import InfiniteRingError, ParseError, Ring, ensure

_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_FRACTION_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def _int_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _int_chain(xs: Sequence[int]) -> tuple[int, list[int]]:
    """Running extended gcd over a list: (g, coeffs) with sum(c*x) = g >= 0."""
    g = 0
    coeffs: list[int] = []
    for x in xs:
        g2, s, t = _int_xgcd(g, x)
        coeffs = [c * s for c in coeffs]
        coeffs.append(t)
        g = g2
    return g, coeffs


def _poly_chain(field, fs: Sequence[tuple]) -> tuple[tuple, list[tuple]]:
    """Running extended gcd over polynomials: (g, coeffs) with
    sum(c*f) = g, g monic or zero."""
    g: tuple = ()
    coeffs: list[tuple] = []
    for f in fs:
        g2, s, t = pu.xgcd(field, g, f)
        coeffs = [pu.mul(field, c, s) for c in coeffs]
        coeffs.append(t)
        g = g2
    return g, coeffs


# Miller-Rabin over the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson & Webster, Strong
# pseudoprimes to twelve prime bases, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above
    _PRIMALITY_LIMIT, where the bases no longer decide primality."""
    if n >= _PRIMALITY_LIMIT:
        raise ValueError(
            f"{n} is too large: primality is decided only below {_PRIMALITY_LIMIT}"
        )
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (p, k) with p^k exactly dividing n >= 1, ascending in p; []
    for n = 1. Trial division, which stops once the cofactor is 1 or a prime
    that _is_prime recognises below _PRIMALITY_LIMIT."""
    powers, d = [], 2
    while n > 1 and not (n < _PRIMALITY_LIMIT and _is_prime(n)):
        while n % d and d * d <= n:
            d += 1
        if n % d:
            break  # no factor up to sqrt(n): the cofactor is prime
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        powers.append((d, k))
    if n > 1:
        powers.append((n, 1))
    return powers


def _top_level_cuts(text: str, seps: str) -> list[int]:
    """Indices of the characters of seps that lie outside all parentheses.
    Raises ParseError when the parentheses do not balance."""
    cuts = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", i)
        elif ch in seps and depth == 0:
            cuts.append(i)
    if depth != 0:
        raise ParseError("unbalanced parentheses", len(text) - 1)
    return cuts


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on sep at parenthesis depth 0."""
    bounds = [-1, *_top_level_cuts(text, sep), len(text)]
    return [text[i + 1 : j] for i, j in zip(bounds, bounds[1:])]


def _signed_terms(text: str) -> list[str]:
    """Split a sum at its depth-0 signs; each term keeps its sign, and a
    sign in leading position starts the first term."""
    bounds = [0, *(i for i in _top_level_cuts(text, "+-") if i), len(text)]
    return [text[i:j] for i, j in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# the term grammar, shared by polynomials in T and forms in x1..xn


def parse_terms(text: str, ring: Ring, n_vars: int, power) -> dict:
    """Parse a sum of signed terms, each a '*'-product of coefficients in
    ring and variable powers, into {exponent tuple: coefficient} with like
    terms merged. power(factor) returns (variable index, exponent) when the
    factor is a power of one of the n_vars variables, else None; every other
    factor is a coefficient, parenthesized or not."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    terms: dict = {}
    for term in _signed_terms(s):
        body = term[1:] if term[0] in "+-" else term
        if not body:
            raise ParseError(f"malformed term in {text!r}")
        exps = [0] * n_vars
        coeff = ring.one()
        for factor in _split_top_level(body, "*"):
            var = power(factor)
            if var is None:
                coeff = ring.mul(coeff, _coefficient(ring, factor, text))
            else:
                exps[var[0]] += var[1]
        if term[0] == "-":
            coeff = ring.neg(coeff)
        key = tuple(exps)
        terms[key] = ring.add(terms.get(key, ring.zero()), coeff)
    return terms


def _coefficient(ring: Ring, factor: str, text: str):
    """A coefficient factor of text: an element literal of ring, bare or in
    one pair of parentheses."""
    literals = [factor]
    if factor.startswith("(") and factor.endswith(")"):
        literals.append(factor[1:-1])
    for literal in literals:
        try:
            return ring.parse_element(literal)
        except (ParseError, ZeroDivisionError):
            pass
    raise ParseError(f"bad coefficient {factor!r} in {text!r}")


def format_terms(pairs) -> str:
    """The text of a sum of (monomial text, coefficient text) pairs in
    print order, zero coefficients left out: coefficient 1 is elided, -1
    becomes a leading '-', and a compound coefficient (one with a sign
    between terms) is parenthesized. No pairs give "0"."""
    out = ""
    for mono, cs in pairs:
        rest = cs[1:]
        if ("+" in rest or "-" in rest) and len(_signed_terms(cs)) > 1:
            cs = f"({cs})"
        if not mono:
            piece = cs
        elif cs == "1":
            piece = mono
        elif cs == "-1":
            piece = "-" + mono
        else:
            piece = f"{cs}*{mono}"
        out += piece if not out or piece.startswith("-") else "+" + piece
    return out or "0"


_T_POWER = re.compile(r"^T(\^([0-9]+))?$")


def _t_power(factor: str):
    m = _T_POWER.match(factor)
    return (0, int(m.group(2) or 1)) if m else None


def _poly_parse_T(text: str, field) -> tuple:
    """Parse a polynomial literal in T into an ascending coefficient tuple."""
    terms = parse_terms(text, field, 1, _t_power)
    out = [field.zero()] * (max(terms)[0] + 1)
    for (e,), c in terms.items():
        out[e] = c
    return pu.trim(field, out)


def _poly_format_T(poly: tuple, field) -> str:
    zero = field.zero()
    return format_terms(
        ("" if e == 0 else "T" if e == 1 else f"T^{e}", field.format_element(c))
        for e, c in reversed(list(enumerate(poly)))
        if c != zero
    )


# ---------------------------------------------------------------------------
# the integers


class Integers(Ring):
    """Arbitrary-precision integers."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def unit_inverse(self, x):
        return x if x in (1, -1) else None

    def bezout(self, xs):
        g, coeffs = _int_chain(xs)
        return tuple(coeffs) if g == 1 else None

    def reduce_mod(self, a, x):
        return x % abs(a) if a else x

    def unit_residue_witness(self, a, r):
        m = abs(a)
        if m == 0:
            return r if r in (1, -1) else None
        for eps in (1, -1):
            if (r - eps) % m == 0:
                return eps
        return None

    def divide_exact(self, y, x):
        if x == 0:
            return 0 if y == 0 else None
        q, rem = divmod(y, x)
        return q if rem == 0 else None

    def units_count(self):
        return 2

    def quotient_size(self, a):
        return abs(a) if a else None

    def quotient_residues(self, a):
        if a == 0:
            raise InfiniteRingError("Z/0 is infinite")
        return iter(range(abs(a)))

    def parse_element(self, text):
        t = text.replace(" ", "")
        if not _INT_RE.match(t):
            raise ParseError(f"not an integer literal: {text!r}")
        return int(t)

    def format_element(self, x):
        return str(x)

    def spec_string(self):
        return "Z"


# ---------------------------------------------------------------------------
# Z/n and GF(p)


class IntegersMod(Ring):
    """Residues mod n >= 1, least nonnegative representatives. n = 1 is the
    zero ring, where 0 is a unit."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("modulus must be at least 1")
        self.n = n

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def add(self, x, y):
        return (x + y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def sub(self, x, y):
        return (x - y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def unit_inverse(self, x):
        if gcd(x, self.n) != 1:
            return None
        return pow(x, -1, self.n)

    def bezout(self, xs):
        g, coeffs = _int_chain(list(xs) + [self.n])
        if g != 1:
            return None
        return tuple(c % self.n for c in coeffs[:-1])

    def reduce_mod(self, a, x):
        return x % gcd(a, self.n)

    def unit_residue_witness(self, a, r):
        n = self.n
        g = gcd(a, n)
        c = r % g
        # the class c + gZ holds a unit mod n exactly when gcd(c, g) = 1
        if gcd(c, g) != 1:
            return None
        # prefer +1, then -1, then the least unit of the class
        for eps in itertools.chain((1 % n, n - 1), itertools.count(c, g)):
            if eps % g == c and gcd(eps, n) == 1:
                return eps

    def divide_exact(self, y, x):
        # x = 0 gives g = n, y = 0 and pow(0, -1, 1) = 0, so z = 0
        n = self.n
        g = gcd(x, n)
        if y % g:
            return None
        return ((y // g) * pow(x // g, -1, n // g)) % n

    def elements(self):
        return iter(range(self.n))

    def units_count(self):
        # Euler's phi: p^(k-1) * (p-1) units mod each prime power p^k
        return prod(p ** (k - 1) * (p - 1) for p, k in _prime_powers(self.n))

    def quotient_size(self, a):
        # reduce_mod(a, x) is x mod gcd(a, n): the residues are range(gcd(a, n))
        return gcd(a, self.n)

    def quotient_residues(self, a):
        return iter(range(gcd(a, self.n)))

    def parse_element(self, text):
        t = text.replace(" ", "")
        if not _INT_RE.match(t):
            raise ParseError(f"not an integer literal: {text!r}")
        return int(t) % self.n

    def format_element(self, x):
        return str(x)

    def spec_string(self):
        return f"Z/{self.n}"


class PrimeField(IntegersMod):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)

    @property
    def characteristic(self) -> int:
        return self.n

    def spec_string(self):
        return f"GF({self.n})"


class Rationals(Ring):
    """The rational numbers as Fractions: the coefficient field of Q[T] and
    locQ(p), not a ring spec of its own."""

    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def unit_inverse(self, x):
        return 1 / x if x else None

    def parse_element(self, text):
        """An integer or fraction literal."""
        if not _FRACTION_RE.match(text):
            raise ParseError(f"not a rational literal: {text!r}")
        return Fraction(text)

    def format_element(self, x):
        return str(x)

    def spec_string(self):
        return "Q"


# ---------------------------------------------------------------------------
# univariate polynomials over a field: GF(p)[T] and Q[T]


class UnivariatePolyRing(Ring):
    """Univariate polynomials in T over an exact coefficient field:
    ascending coefficient tuples with no trailing zeros, () the zero
    polynomial.

    The field is a Ring with a characteristic p: PrimeField(p) or the
    Rationals. It supplies the coefficient arithmetic and grammar. With
    p > 0 every quotient by a nonzero polynomial is finite; with p = 0
    only the quotients by units are. Subclasses name the ring."""

    def __init__(self, field):
        self.field = field

    def zero(self):
        return ()

    def one(self):
        return (self.field.one(),)

    def add(self, x, y):
        return pu.add(self.field, x, y)

    def neg(self, x):
        return pu.neg(self.field, x)

    def mul(self, x, y):
        return pu.mul(self.field, x, y)

    def unit_inverse(self, x):
        if len(x) != 1:
            return None
        return (self.field.unit_inverse(x[0]),)

    def bezout(self, xs):
        g, coeffs = _poly_chain(self.field, xs)
        return tuple(coeffs) if g == self.one() else None

    def reduce_mod(self, a, x):
        if not a:
            return x
        _, r = pu.divmod_poly(self.field, x, a)
        return r

    def unit_residue_witness(self, a, r):
        if len(a) == 1:
            # every class is the whole ring; land on 1
            return self.one()
        return r if len(r) == 1 else None

    def divide_exact(self, y, x):
        if not x:
            return () if not y else None
        q, rem = pu.divmod_poly(self.field, y, x)
        return q if not rem else None

    def units_count(self):
        p = self.field.characteristic
        return p - 1 if p else None

    def quotient_size(self, a):
        p = self.field.characteristic
        if len(a) == 1:
            return 1
        if not a or not p:
            return None
        return p ** pu.deg(a)

    def quotient_residues(self, a):
        if self.quotient_size(a) is None:
            return super().quotient_residues(a)
        # the residues are the polynomials of degree below deg(a)
        tups = itertools.product(range(self.field.characteristic), repeat=pu.deg(a))
        return (pu.trim(self.field, tup) for tup in tups)

    def parse_element(self, text):
        return _poly_parse_T(text, self.field)

    def format_element(self, x):
        return _poly_format_T(x, self.field)


class PolyOverPrimeField(UnivariatePolyRing):
    """Univariate polynomials over GF(p)."""

    def __init__(self, p: int):
        super().__init__(PrimeField(p))

    def spec_string(self):
        return f"GF({self.field.characteristic})[T]"


class RationalPoly(UnivariatePolyRing):
    """Univariate polynomials over Q: ascending Fraction tuples."""

    def __init__(self):
        super().__init__(Rationals())

    def spec_string(self):
        return "Q[T]"


# ---------------------------------------------------------------------------
# finite products


class ProductRing(Ring):
    """Componentwise product of factor rings; elements are tuples."""

    def __init__(self, factors: Sequence[Ring]):
        if not factors:
            raise ValueError("product of no rings")
        self.factors = tuple(factors)

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def _per_factor(self, method: str, *args) -> Optional[tuple]:
        """The tuple of each factor's method on its components of args, or
        None as soon as one factor gives None."""
        parts = []
        for f, *components in zip(self.factors, *args):
            part = getattr(f, method)(*components)
            if part is None:
                return None
            parts.append(part)
        return tuple(parts)

    def unit_inverse(self, x):
        return self._per_factor("unit_inverse", x)

    def bezout(self, xs):
        per_factor = []
        for i, f in enumerate(self.factors):
            cert = f.bezout([x[i] for x in xs])
            if cert is None:
                return None
            per_factor.append(cert)
        return tuple(tuple(cert[j] for cert in per_factor) for j in range(len(xs)))

    def reduce_mod(self, a, x):
        return tuple(f.reduce_mod(m, v) for f, m, v in zip(self.factors, a, x))

    def unit_residue_witness(self, a, r):
        return self._per_factor("unit_residue_witness", a, r)

    def divide_exact(self, y, x):
        return self._per_factor("divide_exact", y, x)

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def units_count(self):
        counts = self._per_factor("units_count")
        return None if counts is None else prod(counts)

    def quotient_size(self, a):
        sizes = self._per_factor("quotient_size", a)
        return None if sizes is None else prod(sizes)

    def quotient_residues(self, a):
        its = [f.quotient_residues(m) for f, m in zip(self.factors, a)]
        return itertools.product(*its)

    def parse_element(self, text):
        t = text.replace(" ", "")
        if not (t.startswith("(") and t.endswith(")")):
            raise ParseError(f"tuple literal must be parenthesized: {text!r}")
        parts = _split_top_level(t[1:-1], ",")
        if len(parts) != len(self.factors):
            raise ParseError(
                f"expected {len(self.factors)} components, got {len(parts)}"
            )
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))

    def format_element(self, x):
        return "(" + ",".join(f.format_element(c) for f, c in zip(self.factors, x)) + ")"

    def spec_string(self):
        return "prod(" + ",".join(f.spec_string() for f in self.factors) + ")"


# ---------------------------------------------------------------------------
# Q[T] localized away from {0} and the powers of p

# the unit lift tries eps = r + c*a over this many scalar candidates c
_LOCQ_SHIFT_CANDIDATES = 400


class LocalizedRationalPoly(Ring):
    """Fractions num/den of rational polynomials with den in the
    multiplicative set S of polynomials with no root in {0} union {p^k, k>=1}.
    Canonical form: den monic, gcd(num, den) = 1. S is closed under products
    and factors, so a product of denominators in S, reduced, stays in S."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.field = Rationals()

    # -- canonical form helpers

    def _is_forbidden_value(self, z: Fraction) -> bool:
        if z == 0:
            return True
        if z.denominator != 1 or z < self.p:
            return False
        m = int(z)
        while m % self.p == 0:
            m //= self.p
        return m == 1

    def _in_S(self, f: tuple) -> bool:
        if not f:
            return False
        if f[0] == 0:
            return False
        return not any(
            self._is_forbidden_value(z) for z in pu.rational_roots(self.field, f)
        )

    def _reduced(self, num: tuple, den: tuple) -> tuple:
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (Fraction(1),))
        g, _, _ = pu.xgcd(self.field, num, den)
        if pu.deg(g) >= 1:
            num, _ = pu.divmod_poly(self.field, num, g)
            den, _ = pu.divmod_poly(self.field, den, g)
        inv_lead = self.field.unit_inverse(den[-1])
        return pu.scale(self.field, inv_lead, num), pu.scale(self.field, inv_lead, den)

    def _z_part(self, f: tuple) -> tuple:
        """Monic product of (T - z)^e over the roots z of f lying in
        {0} union {p^k}."""
        v = 0
        while v < len(f) and f[v] == 0:
            v += 1
        g = tuple([Fraction(0)] * v + [Fraction(1)])
        body = f[v:]
        if pu.deg(body) >= 1:
            for z in pu.rational_roots(self.field, body):
                if z != 0 and self._is_forbidden_value(z):
                    lin = (-z, Fraction(1))
                    while True:
                        q, r = pu.divmod_poly(self.field, body, lin)
                        if r:
                            break
                        body = q
                        g = pu.mul(self.field, g, lin)
        return g

    # -- ring operations

    def zero(self):
        return ((), (Fraction(1),))

    def one(self):
        return ((Fraction(1),), (Fraction(1),))

    def add(self, x, y):
        (n1, d1), (n2, d2) = x, y
        num = pu.add(
            self.field,
            pu.mul(self.field, n1, d2),
            pu.mul(self.field, n2, d1),
        )
        return self._reduced(num, pu.mul(self.field, d1, d2))

    def neg(self, x):
        return (pu.neg(self.field, x[0]), x[1])

    def mul(self, x, y):
        (n1, d1), (n2, d2) = x, y
        return self._reduced(
            pu.mul(self.field, n1, n2), pu.mul(self.field, d1, d2)
        )

    def unit_inverse(self, x):
        num, den = x
        if not self._in_S(num):
            return None
        return self._reduced(den, num)

    def bezout(self, xs):
        g, coeffs = _poly_chain(self.field, [x[0] for x in xs])
        if not self._in_S(g):
            return None
        # sum c_i * num_i = g, so sum (c_i d_i / g) x_i = 1; g is in S
        return tuple(
            self._reduced(pu.mul(self.field, c, x[1]), g)
            for c, x in zip(coeffs, xs)
        )

    def reduce_mod(self, a, x):
        if a == self.zero():
            return x
        g = self._z_part(a[0])
        num, den = x
        gg, s, _ = pu.xgcd(self.field, den, g)
        ensure(gg == (Fraction(1),), "denominator not invertible mod the ideal")
        _, res = pu.divmod_poly(
            self.field, pu.mul(self.field, num, s), g
        )
        return (res, (Fraction(1),))

    def _scalar_candidates(self) -> Iterator[Fraction]:
        yield Fraction(0)
        produced = 1
        s = 2
        while produced < _LOCQ_SHIFT_CANDIDATES:
            for den in range(1, s):
                num = s - den
                if gcd(num, den) != 1:
                    continue
                yield Fraction(num, den)
                yield Fraction(-num, den)
                produced += 2
                if produced >= _LOCQ_SHIFT_CANDIDATES:
                    return
            s += 1

    def unit_residue_witness(self, a, r):
        if a == self.zero():
            return r if self.unit_inverse(r) is not None else None
        if self.unit_inverse(a) is not None:
            return self.one()
        # bounded deterministic search over eps = r + c*a, c a scalar
        for c in self._scalar_candidates():
            eps = self.add(r, self.mul(((c,) if c else (), (Fraction(1),)), a))
            if self.unit_inverse(eps) is not None:
                return eps
        return None

    def divide_exact(self, y, x):
        if x == self.zero():
            return self.zero() if y == self.zero() else None
        num, den = self._reduced(
            pu.mul(self.field, y[0], x[1]),
            pu.mul(self.field, y[1], x[0]),
        )
        if not self._in_S(den):
            return None
        return (num, den)

    def quotient_size(self, a):
        # A/aA is the zero ring when a is a unit, and infinite otherwise
        return 1 if self._in_S(a[0]) else None

    def quotient_residues(self, a):
        if self.quotient_size(a) == 1:
            return iter([self.zero()])
        return super().quotient_residues(a)

    def parse_element(self, text):
        t = text.replace(" ", "")
        if t.startswith("("):
            parts = _split_top_level(t, "/")
            if (
                len(parts) == 2
                and parts[0].startswith("(")
                and parts[0].endswith(")")
                and parts[1].startswith("(")
                and parts[1].endswith(")")
            ):
                num = _poly_parse_T(parts[0][1:-1], self.field)
                den = _poly_parse_T(parts[1][1:-1], self.field)
                if not den:
                    raise ParseError("zero denominator")
                num, den = self._reduced(num, den)
                if not self._in_S(den):
                    raise ParseError(
                        f"denominator not in the multiplicative set: {text!r}"
                    )
                return (num, den)
            if len(parts) != 1:
                raise ParseError(f"malformed localized element: {text!r}")
        num = _poly_parse_T(t, self.field)
        return (num, (Fraction(1),))

    def format_element(self, x):
        num, den = x
        return (
            "("
            + _poly_format_T(num, self.field)
            + ")/("
            + _poly_format_T(den, self.field)
            + ")"
        )

    def spec_string(self):
        return f"locQ({self.p})"


# ---------------------------------------------------------------------------
# ring-spec parser


def parse_ring(spec: str) -> Ring:
    s = spec.strip()
    ring, pos = _parse_ring_at(s, 0)
    if pos != len(s):
        raise ParseError(f"unexpected trailing text in ring spec {spec!r}", pos)
    return ring


def _scan_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ParseError("expected an integer in ring spec", i)
    return int(s[i:j]), j


def _expect(s: str, i: int, token: str) -> int:
    if not s.startswith(token, i):
        raise ParseError(f"expected {token!r} in ring spec", i)
    return i + len(token)


def _construct(make, n: int, position: int) -> Ring:
    """make(n), with the constructor's own check of n (a prime, a modulus
    of at least 1) reported as a ParseError at the position of n."""
    try:
        return make(n)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def _parse_ring_at(s: str, i: int) -> tuple[Ring, int]:
    if s.startswith("prod(", i):
        i += len("prod(")
        factors = []
        while True:
            ring, i = _parse_ring_at(s, i)
            factors.append(ring)
            if i < len(s) and s[i] == ",":
                i += 1
                continue
            i = _expect(s, i, ")")
            return ProductRing(factors), i
    if s.startswith("locQ(", i):
        start = i + len("locQ(")
        p, j = _scan_int(s, start)
        j = _expect(s, j, ")")
        return _construct(LocalizedRationalPoly, p, start), j
    if s.startswith("GF(", i):
        start = i + len("GF(")
        p, j = _scan_int(s, start)
        j = _expect(s, j, ")")
        if s.startswith("[T]", j):
            return _construct(PolyOverPrimeField, p, start), j + 3
        return _construct(PrimeField, p, start), j
    if s.startswith("Q[T]", i):
        return RationalPoly(), i + 4
    if s.startswith("Z/", i):
        start = i + 2
        n, j = _scan_int(s, start)
        return _construct(IntegersMod, n, start), j
    if s.startswith("Z", i):
        return Integers(), i + 1
    raise ParseError(f"unrecognized ring spec {s!r}", i)
