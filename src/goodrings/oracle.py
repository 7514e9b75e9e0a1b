"""Brute-force oracles for the test suite.

Everything here recomputes answers from first principles: modular powers by
repeated multiplication, unit sets by exhaustive product tables, kernel
dimensions by substituting into each monomial and row-reducing. No search,
reduction, or certificate code is shared with the modules under validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .core import (
    InfiniteRingError,
    NotPrimitiveError,
    PreconditionError,
    Ring,
    UnsupportedRingError,
)
from .rings import IntegersMod, ProductRing
from .sab import SabAlgebra, SabElement


@dataclass(frozen=True)
class OracleReport:
    instance: str
    oracle_answer: object
    library_answer: object
    agree: bool


def compare(instance: str, oracle_answer, library_answer) -> OracleReport:
    return OracleReport(
        instance, oracle_answer, library_answer, oracle_answer == library_answer
    )


def oracle_min_witness_Z(a: int, b: int) -> Optional[tuple]:
    """Minimal (N, lam, eps) with b^N + lam*a in {1, -1}, or None.

    Scans N = 1..phi(|a|) keeping b^N mod |a| by repeated multiplication;
    the power sequence is periodic with period dividing phi(|a|), so a miss
    within the scan is a miss forever. Prefers eps = +1 on a simultaneous
    hit. Requires a != 0 and gcd(a, b) = 1.
    """
    if a == 0:
        raise PreconditionError("the scan oracle needs a nonzero first entry")
    if gcd(a, b) != 1:
        raise NotPrimitiveError(f"({a}, {b}) is not primitive over the integers")
    m = abs(a)
    phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
    r = 1 % m
    for n in range(1, phi + 1):
        r = (r * (b % m)) % m
        if r == 1 % m:
            eps = 1
        elif r == (m - 1) % m:
            eps = -1
        else:
            continue
        lam, rem = divmod(eps - b**n, a)
        assert rem == 0
        return n, lam, eps
    return None


def _raw_ops(carrier) -> tuple:
    """(elements, zero, one, add, mul, to_library) over plain ints/tuples;
    add is None over A + A*th, which no carrier takes as its base."""
    if isinstance(carrier, IntegersMod):
        n = carrier.n
        return (
            list(range(n)),
            0,
            1 % n,
            lambda x, y: (x + y) % n,
            lambda x, y: (x * y) % n,
            lambda x: x,
        )
    if isinstance(carrier, ProductRing):
        parts = [_raw_ops(f) for f in carrier.factors]
        elements = [tuple(e) for e in itertools.product(*(p[0] for p in parts))]
        zero = tuple(p[1] for p in parts)
        one = tuple(p[2] for p in parts)

        def add(x, y, parts=parts):
            return tuple(p[3](a, b) for p, a, b in zip(parts, x, y))

        def mul(x, y, parts=parts):
            return tuple(p[4](a, b) for p, a, b in zip(parts, x, y))

        return elements, zero, one, add, mul, lambda x: x
    if isinstance(carrier, SabAlgebra):
        belts, bzero, bone, badd, bmul, bto = _raw_ops(carrier.base)
        a = carrier.a
        elements = [(x, y) for x in belts for y in belts]

        def mul(z1, z2, a=a):
            x1, y1 = z1
            x2, y2 = z2
            return (
                bmul(x1, x2),
                badd(badd(bmul(x1, y2), bmul(y1, x2)), bmul(a, bmul(y1, y2))),
            )

        def to_library(z, bto=bto):
            return SabElement(bto(z[0]), bto(z[1]))

        return elements, (bzero, bzero), (bone, bzero), None, mul, to_library
    if isinstance(carrier, Ring):  # every finite Ring is handled above
        raise InfiniteRingError("the unit-set oracle needs a finite carrier")
    raise UnsupportedRingError(
        f"no raw arithmetic for {type(carrier).__name__}"
    )


def oracle_unit_set(carrier) -> set:
    """All invertible elements, by trying every product against 1."""
    elements, _zero, one, _add, mul, to_library = _raw_ops(carrier)
    units = set()
    for z in elements:
        if any(mul(z, w) == one for w in elements):
            units.add(to_library(z))
    return units


def _rank_gauss(rows: list, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_kernel_span(p: int, point: tuple, degree: int) -> int:
    """Dimension of {homogeneous Q of the given degree in three variables
    with Q(a0*T, a1*T, a2*T) = 0} over GF(p).

    Each basis monomial is substituted honestly: X0^e0*X1^e1*X2^e2 turns
    into (a0^e0*a1^e1*a2^e2) * T^(e0+e1+e2). The kernel dimension is the
    nullity of the resulting monomials-by-T-coefficients matrix.
    """
    if len(point) != 3:
        raise PreconditionError("the kernel oracle works on three coordinates")
    a0, a1, a2 = (c % p for c in point)
    if a0 == a1 == a2 == 0:
        raise NotPrimitiveError("the zero point is not primitive")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    monomials = [
        (e0, e1, degree - e0 - e1)
        for e0 in range(degree, -1, -1)
        for e1 in range(degree - e0, -1, -1)
    ]
    rows = []
    for e0, e1, e2 in monomials:
        row = [0] * (degree + 1)
        row[e0 + e1 + e2] = (
            pow(a0, e0, p) * pow(a1, e1, p) * pow(a2, e2, p)
        ) % p
        rows.append(row)
    return len(monomials) - _rank_gauss(rows, p)
