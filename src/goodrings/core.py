"""Ring protocol, Bezout certificates, and primitive points.

Every ring exposes exact arithmetic on canonical, hashable elements, so two
are equal exactly when they compare equal with ==; a ring is finite exactly
when elements() enumerates it, and an infinite one raises InfiniteRingError
there. Residue canonicity matters: reduce_mod(a, x) must return equal
representatives exactly when x and y agree modulo the ideal aA, since
unit_residue_witness decides a class from its representative. Ring's
quotient_size and unit_quotient give the answers of a ring whose only finite
quotients are by units; a ring with other finite quotients overrides them
with closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class GoodRingsError(Exception):
    """Base class for errors raised by this package."""


def ensure(cond: bool, message: str) -> None:
    """Raise GoodRingsError(message) unless cond holds. Unlike assert, the
    check also runs under python -O."""
    if not cond:
        raise GoodRingsError(message)


class ParseError(GoodRingsError):
    """Malformed ring spec or element text."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotPrimitiveError(GoodRingsError):
    """The given coordinates do not generate the unit ideal."""


class PreconditionError(GoodRingsError):
    """An input violates a documented precondition of the operation."""


class InfiniteRingError(GoodRingsError):
    """An enumeration or size was requested from an infinite ring."""


class UnsupportedRingError(GoodRingsError):
    """The operation has no implementation for this ring."""


class LimitExceededError(GoodRingsError):
    """The size of a computation, known before it starts, is past a fixed limit."""


@dataclass(frozen=True)
class BezoutCertificate:
    """Coefficients u with sum(u[i] * x[i]) == 1 for some generating tuple x."""

    coefficients: tuple


@dataclass(frozen=True)
class PrimitivePoint:
    """Coordinates together with a certificate that they generate (1)."""

    coordinates: tuple
    certificate: BezoutCertificate

    def __len__(self) -> int:
        return len(self.coordinates)


def power(mul, one, x, n: int):
    """x^n for n >= 0 by square and multiply from one, squaring x only while
    bits of n remain: popcount(n) + n.bit_length() - 1 calls to mul, n >= 1."""
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return acc


# _PSI[t-1] is psi_t, the least strong pseudoprime to the first t prime bases
# (OEIS A014233; Jaeschke, On strong pseudoprimes to several bases, 1993;
# Sorenson & Webster, Strong pseudoprimes to twelve prime bases, 2015), so
# Miller-Rabin over the first t bases is exact below psi_t. psi_13 is the
# bound past which the 13 bases no longer decide primality.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_PRIMALITY_LIMIT = _PSI[-1]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first t bases, t the least with
    n < psi_t; raises ValueError at or above _PRIMALITY_LIMIT, where the
    bases no longer decide primality."""
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
    for a, psi in zip(_PRIME_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


class Ring:
    """Abstract commutative ring with certified unit-ideal tests.

    Subclasses provide canonical hashable element representations, compared
    with ==, and the primitive operations; sub and pow are derived, pow
    through power on mul. elements() enumerates a finite ring and raises
    InfiniteRingError on an infinite one.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def pow(self, x, n: int):
        if n < 0:
            raise ValueError("negative ring power")
        return power(self.mul, self.one(), x, n)

    def unit_inverse(self, x) -> Optional[object]:
        """Inverse of x when x is a unit, else None."""
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        return self.unit_inverse(x) is not None

    def bezout(self, xs: Sequence) -> Optional[tuple]:
        """Coefficients u with sum(u[i]*xs[i]) == 1, or None if the xs do
        not generate the unit ideal."""
        raise NotImplementedError

    def generates_unit_ideal(self, xs: Sequence) -> bool:
        """Whether bezout(xs) is not None, for a caller that reads no coefficients."""
        return self.bezout(xs) is not None

    def reduce_mod(self, a, x):
        """Canonical representative of x modulo the principal ideal aA."""
        raise NotImplementedError

    def unit_residue_witness(self, a, r) -> Optional[object]:
        """Given a canonical residue r mod aA, return a unit eps in the class
        r + aA, or None when no unit lies in the class. Exact on every ring:
        None is a proof, never a search that gave up."""
        raise NotImplementedError

    def divide_exact(self, y, x) -> Optional[object]:
        """Some z with x*z == y, or None when y is not a multiple of x."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise InfiniteRingError(f"cannot enumerate {self.spec_string()}")

    def quotient_size(self, a) -> Optional[int]:
        """Size of A/aA, or None when infinite or unknown."""
        return None

    def unit_quotient(self, a) -> tuple[Optional[int], int]:
        """(carrier, order) of (A/aA)^x / image(A^x): the number of units of
        A/aA (None when infinite) and the group's size. Defined at a = 0 and
        wherever quotient_size(a) is not None."""
        return (None if a == self.zero() else 1), 1

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, x) -> str:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Ring {self.spec_string()}>"


def bezout(ring: Ring, xs: Sequence) -> Optional[BezoutCertificate]:
    coeffs = ring.bezout(tuple(xs))
    if coeffs is None:
        return None
    return BezoutCertificate(tuple(coeffs))


def verify_certificate(ring: Ring, xs: Sequence, cert: BezoutCertificate) -> bool:
    if len(cert.coefficients) != len(xs):
        return False
    acc = ring.zero()
    for u, x in zip(cert.coefficients, xs):
        acc = ring.add(acc, ring.mul(u, x))
    return acc == ring.one()


def is_primitive(ring: Ring, coords: Sequence) -> Optional[PrimitivePoint]:
    """A PrimitivePoint when the coordinates generate (1), else None."""
    cert = bezout(ring, coords)
    if cert is None:
        return None
    return PrimitivePoint(tuple(coords), cert)


def not_primitive(ring: Ring, coords: Sequence) -> NotPrimitiveError:
    """The error that says the coordinates do not generate (1)."""
    shown = ", ".join(ring.format_element(c) for c in coords)
    return NotPrimitiveError(f"({shown}) does not generate the unit ideal in {ring.spec_string()}")


def require_primitive(ring: Ring, coords: Sequence) -> PrimitivePoint:
    pt = is_primitive(ring, coords)
    if pt is None:
        raise not_primitive(ring, coords)
    return pt
