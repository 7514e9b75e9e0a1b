"""Ring protocol, Bezout certificates, and primitive points.

Every ring exposes exact arithmetic on canonical, hashable elements, so two
are equal exactly when they compare equal with ==; a ring is finite exactly
when elements() enumerates it, and an infinite one raises InfiniteRingError
there. Residue canonicity matters: reduce_mod(a, x) must return equal
representatives exactly when x and y agree modulo the ideal aA, since
quotient_residues lists each class once by that representative and
unit_residue_witness decides its class from it. Ring's units_count,
quotient_size and quotient_residues give the infinite-ring answers; a ring
with finite quotients overrides them with closed forms.
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


class Ring:
    """Abstract commutative ring with certified unit-ideal tests.

    Subclasses provide canonical hashable element representations, compared
    with ==, and the primitive operations; sub and pow are derived. elements()
    enumerates a finite ring and raises InfiniteRingError on an infinite one.
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
        acc = self.one()
        base = x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def unit_inverse(self, x) -> Optional[object]:
        """Inverse of x when x is a unit, else None."""
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        return self.unit_inverse(x) is not None

    def bezout(self, xs: Sequence) -> Optional[tuple]:
        """Coefficients u with sum(u[i]*xs[i]) == 1, or None if the xs do
        not generate the unit ideal."""
        raise NotImplementedError

    def reduce_mod(self, a, x):
        """Canonical representative of x modulo the principal ideal aA."""
        raise NotImplementedError

    def unit_residue_witness(self, a, r) -> Optional[object]:
        """Given a canonical residue r mod aA, return a unit eps in the class
        r + aA, or None when no unit lies in the class."""
        raise NotImplementedError

    def divide_exact(self, y, x) -> Optional[object]:
        """Some z with x*z == y, or None when y is not a multiple of x."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise InfiniteRingError(f"cannot enumerate {self.spec_string()}")

    def units_count(self) -> Optional[int]:
        """Number of units, or None when not known to be finite."""
        return None

    def quotient_size(self, a) -> Optional[int]:
        """Size of A/aA, or None when infinite or unknown."""
        return None

    def quotient_residues(self, a) -> Iterator:
        """Canonical representatives of A/aA, deterministic order."""
        raise InfiniteRingError(
            f"cannot enumerate a quotient of {self.spec_string()}"
        )

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


def require_primitive(ring: Ring, coords: Sequence) -> PrimitivePoint:
    pt = is_primitive(ring, coords)
    if pt is None:
        shown = ", ".join(ring.format_element(c) for c in coords)
        raise NotPrimitiveError(f"({shown}) does not generate the unit ideal in {ring.spec_string()}")
    return pt
