"""Good-point witness search, verification, refutation, and unit quotients.

A witness for a pair (a, b) is (N, lam, eps, eps_inv) with b^N + lam*a = eps
a unit; the pair is good when such data exists. Searches are exact: a Refuted
outcome carries a machine-checkable reason, and Exhausted is an admission
that the bound ran out, never a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Optional, Union

from . import polyuniv as pu
from .core import (
    LimitExceededError,
    PreconditionError,
    Ring,
    UnsupportedRingError,
    ensure,
    not_primitive,
)
from .rings import IntegersMod, ProductRing, RationalPoly, _trial_factors

_DEFAULT_BOUND = 10000


@dataclass(frozen=True)
class GoodPointWitness:
    N: int
    lam: object
    epsilon: object
    epsilon_inverse: object


@dataclass(frozen=True)
class RationalEvaluation:
    """A rational root of a where b evaluates off the unit circle of Z."""

    root: Fraction
    value: Fraction
    reason: str


@dataclass(frozen=True)
class RatioCriterion:
    """Root evaluations of b whose ratio is not +/-1, blocking any witness."""

    roots: tuple
    ratio: Fraction


@dataclass(frozen=True)
class Witness:
    witness: GoodPointWitness


@dataclass(frozen=True)
class Refuted:
    evidence: RatioCriterion


@dataclass(frozen=True)
class Exhausted:
    bound: int


SearchOutcome = Union[Witness, Refuted, Exhausted]


def verify_witness(ring: Ring, a, b, w: GoodPointWitness) -> bool:
    """Check b^N + lam*a == eps and eps*eps_inv == 1. Pure recomputation."""
    if not isinstance(w.N, int) or w.N < 1:
        return False
    if ring.mul(w.epsilon, w.epsilon_inverse) != ring.one():
        return False
    return ring.add(ring.pow(b, w.N), ring.mul(w.lam, a)) == w.epsilon


def _witness_at(ring: Ring, a, b, N: int, eps) -> Witness:
    """The verified witness b^N + lam*a = eps for a unit eps in the class of
    b^N mod aA. With a = 0 this is N = 1, eps = b: 0/0 divides to zero."""
    inv = ring.unit_inverse(eps)
    lam = ring.divide_exact(ring.sub(eps, ring.pow(b, N)), a)
    ensure(inv is not None and lam is not None, "the unit lift did not divide out")
    w = GoodPointWitness(N, lam, eps, inv)
    ensure(verify_witness(ring, a, b, w), "the found witness does not verify")
    return Witness(w)


def find_good_witness(
    ring: Ring, a, b, bound: int = _DEFAULT_BOUND
) -> Union[Witness, Exhausted]:
    """Scan N = 1..bound for a unit in the class of b^N mod aA.

    Returns the minimal-N witness (unit_residue_witness is exact), or
    Exhausted. A witness is its own primitivity proof: b^N + lam*a a unit
    gives aA + bA = A. So NotPrimitiveError is raised by generates_unit_ideal
    asked only when N = 1 finds no unit, or at bound 0; a class that holds
    a unit is primitive, so a pair that is not finds none at N = 1.
    At a = 0, reduce_mod gives b, a unit as (0, b) is primitive, so N = 1
    and eps = b once bound >= 1. The scan needs no cycle check: b is a unit
    mod aA, so a residue that repeats after i steps means b^i = 1 mod aA,
    and the scan already met the class of 1, which holds the unit 1, at
    N = i. A negative bound raises ValueError.
    """
    if bound < 0:
        raise ValueError(f"the witness bound must be at least 0, not {bound}")
    r = ring.one()
    for N in range(1, bound + 1):
        r = ring.reduce_mod(a, ring.mul(b, r))
        eps = ring.unit_residue_witness(a, r)
        if eps is not None:
            return _witness_at(ring, a, b, N, eps)
        if N == 1 and not ring.generates_unit_ideal((a, b)):
            raise not_primitive(ring, (a, b))
    if bound == 0 and not ring.generates_unit_ideal((a, b)):
        raise not_primitive(ring, (a, b))
    return Exhausted(bound=bound)


@dataclass(frozen=True)
class UnitQuotientReport:
    """(A/aA)^x / image(A^x): its order and carrier, or why it is unknown."""

    status: str  # "finite" | "unknown"
    order: Optional[int] = None
    carrier: Optional[int] = None
    reason: Optional[str] = None


# unit_quotient_group factors only quotients of at most this many residues,
# and at a = 0 runs _trial_factors on a Z/n factor's n with trial = this
_QUOTIENT_LIMIT = 20000
# check_good_ring_exhaustive checks rings whose factors hold at most this many
# pairs in all; GF(997), 994,009 pairs, takes about 0.3 s on a 2-core machine
_PAIR_LIMIT = 1000000


def _unfactored(ring: Ring) -> Optional[Ring]:
    """A factor Z/n of ring whose n _trial_factors up to _QUOTIENT_LIMIT
    leaves with a part other than 1, or None."""
    if isinstance(ring, ProductRing):
        return next(filter(None, map(_unfactored, ring.factors)), None)
    hard = isinstance(ring, IntegersMod) and _trial_factors(ring.n, _QUOTIENT_LIMIT)[1] > 1
    return ring if hard else None


def unit_quotient_group(ring: Ring, a) -> UnitQuotientReport:
    """The group (A/aA)^x / image(A^x) from the ring's closed form: finite at
    a = 0 and when A/aA has at most _QUOTIENT_LIMIT residues, else unknown.
    A pair (a, b) is good when some b^N lands in the group's identity. At
    a = 0 with no size, the closed form counts the units of each Z/n factor
    by _trial_factors on n, which the limit bounds there: a part left over
    makes the group unknown."""
    size = ring.quotient_size(a)
    if size is not None and size > _QUOTIENT_LIMIT:
        return UnitQuotientReport(
            "unknown",
            reason=f"quotient has {size} residues, above the limit {_QUOTIENT_LIMIT}",
        )
    if size is None and a != ring.zero():
        return UnitQuotientReport(
            "unknown",
            reason=f"the quotient of {ring.spec_string()} by this element is not enumerable",
        )
    if size is None and (hard := _unfactored(ring)) is not None:
        return UnitQuotientReport(
            "unknown",
            reason=f"the factor {hard.spec_string()} does not factor by trial "
            f"division up to the limit {_QUOTIENT_LIMIT}",
        )
    carrier, order = ring.unit_quotient(a)
    return UnitQuotientReport("finite", order=order, carrier=carrier)


@dataclass(frozen=True)
class GoodRingReport:
    pairs_checked: int
    all_good: bool
    max_N_seen: int
    failures: tuple


def check_good_ring_exhaustive(ring: Ring) -> GoodRingReport:
    """Test every pair (a, b) in A^2 of a finite ring for goodness.

    Every primitive pair is good at N = 1, the least N there is, and
    _prove_pairs checks its identity b + lam*a = eps, so failures is always
    empty. A product's pair is good at N = 1 when each component pair is:
    the tuple of their witnesses is its witness. So a product is checked one
    factor at a time, once every factor is known to be finite: elements()
    raises InfiniteRingError on an infinite one. Z/n is the product of its
    Z/p^k by the Chinese remainder theorem, so it is checked by those
    prime-power factors, in sum p^(2k) pairs, not n^2. That sum is counted
    from the factors' sizes before any element is listed, and a sum above
    _PAIR_LIMIT raises LimitExceededError. Every factor checked is a Z/m:
    elements() enumerates only Z/m among the rings a product can hold, and
    _factors refuses any other finite factor with UnsupportedRingError. So
    the proof runs on its ints, with the gcd and inverse of each a computed
    once.
    """
    factors = _factors(ring)
    sizes = [f.n for f in factors]
    pairs = sum(size * size for size in sizes)
    if pairs > _PAIR_LIMIT:
        raise LimitExceededError(
            f"checking {ring.spec_string()} takes {pairs} factor pairs, "
            f"above the limit {_PAIR_LIMIT}"
        )
    for f in factors:
        _prove_pairs(f)
    return GoodRingReport(prod(size * size for size in sizes), True, 1, ())


def _factors(ring: Ring) -> list:
    """A product's factors with nested products flattened, and each Z/n split
    into its Z/p^k when n has two or more prime factors.

    Every flattened factor is asked for elements() first, so an infinite one
    raises InfiniteRingError before any Z/n is trial-divided; a finite one
    that is not a Z/n raises UnsupportedRingError. The product
    itself is not: its elements() would materialise its factors' elements.
    Z/n is split by _trial_factors with trial = isqrt(_PAIR_LIMIT). A prime
    above that bound already makes Z/p^k alone hold more than _PAIR_LIMIT
    pairs, so the ring is refused either way. A decided prime becomes a
    factor, so that the refusal counts the pairs exactly; a part left over
    raises LimitExceededError at once rather than be factored.
    """
    flat, nested = [], [ring]
    while nested:
        f = nested.pop()
        if isinstance(f, ProductRing):
            nested.extend(reversed(f.factors))
        else:
            f.elements()  # raises InfiniteRingError on an infinite factor
            if not isinstance(f, IntegersMod):
                raise UnsupportedRingError(
                    f"the exhaustive check proves pairs of Z/n, not of {f.spec_string()}"
                )
            flat.append(f)
    trial, factors = isqrt(_PAIR_LIMIT), []
    for f in flat:
        powers, rest = _trial_factors(f.n, trial)
        if rest > 1:
            raise LimitExceededError(
                f"checking {f.spec_string()} takes more factor pairs than "
                f"the limit {_PAIR_LIMIT}: its factor {rest} has no prime "
                f"factor up to {trial}"
            )
        factors += [IntegersMod(p**k) for p, k in powers] if len(powers) > 1 else [f]
    return factors


def _prove_pairs(ring: IntegersMod) -> None:
    """Check that every primitive pair of Z/m is good at N = 1, and that
    every other pair is not primitive.

    Per a, _class_lams gives each class of b mod aA that holds a unit eps,
    with the lam of each member b; here each member checks that
    b + lam*a = eps, recomputed: with the inverse of eps, that is the
    member's witness (1, lam, eps, eps^-1). This is exact: (1) if
    b + lam*a is a unit then aA + bA = A, so a class that holds a unit is
    primitive; (2) aA + bA depends only on b + aA, so one ideal test decides a
    class with no unit; (3) on a finite ring a primitive class always holds
    a unit (a finite ring is semilocal, so it has stable range one; on Z/m
    the class c + gZ holds a unit iff gcd(c, g) = 1, iff gcd(a, b, m) = 1),
    so the ensures never fire, and a counterexample would fail loudly
    rather than be skipped.
    """
    m = ring.n
    for a in range(m):
        for eps, members, lams in _class_lams(ring, a):
            ok = {(b + lam * a) % m for b, lam in zip(members, lams)} == {eps}
            ensure(ok, "the unit lift does not give b + lam*a = eps")


def _class_lams(ring: IntegersMod, a: int):
    """Yield (eps, members, lams) for each class of b mod aA in Z/m that
    holds a unit eps: its members b, and lam = (eps - b)/a for each.

    aA = gZ/mZ with g = gcd(a, m), so the classes are r + gZ for r < g, and
    lam = ((eps - b)/g) * inv with inv the inverse of a/g mod m/g; g and
    inv are computed once per a. unit_residue_witness runs once per class.
    A unit eps is checked once to have an inverse. That it lies in its class
    is left to each member's identity in _prove_pairs: were eps = r + y mod
    g with 0 < y < g, this lam would give b + lam*a = eps - y, not eps. A
    class with no unit is checked with one generates_unit_ideal on its
    first member r, which must find (a, r) not primitive.
    """
    m, one = ring.n, ring.one()
    g = gcd(a, m)
    inv = pow(a // g, -1, m // g)  # a = 0: g = m, and pow(0, -1, 1) = 0
    for r in range(g):
        eps = ring.unit_residue_witness(a, r)
        if eps is None:
            ensure(not ring.generates_unit_ideal((a, r)), "a primitive class holds no unit")
            continue
        eps_inv = ring.unit_inverse(eps)
        ok = eps_inv is not None and ring.mul(eps, eps_inv) == one
        ensure(ok, "the class unit has no inverse")
        members = range(r, m, g)
        yield eps, members, [(eps - b) % m // g * inv % m for b in members]


def decide_good_point_rational_split(ring: Ring, a, b) -> SearchOutcome:
    """Decide goodness of a Q[T] pair whose first entry is squarefree and
    splits over Q.

    The root evaluations of b decide everything: all ratios 1 give N = 1,
    ratios in {1, -1} give N = 2, anything else refutes. They also decide
    primitivity, checked after the split: a split squarefree a is coprime
    to b iff b vanishes at no root, so a zero value, a common root, raises
    NotPrimitiveError. A constant a is decided by find_good_witness at N = 1.
    """
    if not isinstance(ring, RationalPoly):
        raise UnsupportedRingError("the rational-split decision works over Q[T]")
    if len(a) <= 1:
        return find_good_witness(ring, a, b, bound=1)
    field = ring.field
    # the roots are distinct: a is squarefree and split iff there are deg(a)
    roots = pu.rational_roots(field, a)
    if len(roots) != pu.deg(a):
        raise PreconditionError(
            "the coefficient polynomial must be squarefree with all roots rational"
        )
    vals = [pu.eval_at(field, b, th) for th in roots]
    if field.zero() in vals:
        raise not_primitive(ring, (a, b))
    base = vals[0]
    N = 1
    for v in vals:
        ratio = v / base
        if ratio == 1:
            continue
        if ratio == -1:
            N = 2
            continue
        return Refuted(RatioCriterion(roots=tuple(roots), ratio=ratio))
    return _witness_at(ring, a, b, N, (base**N,))


def refute_integer_poly_point(ring: Ring, a, b) -> Optional[RationalEvaluation]:
    """Refutation for integer-coefficient pairs: a rational root of a where
    |b| is not 1 rules out any witness over the integer polynomial ring.
    None is inconclusive, not a claim of goodness."""
    if not isinstance(ring, RationalPoly):
        raise UnsupportedRingError(
            "integer-coefficient refutation uses the Q[T] representation"
        )
    for coeff in (*a, *b):
        if coeff.denominator != 1:
            raise PreconditionError("both polynomials must have integer coefficients")
    # necessary primitivity checks: coprimality over Q[T], joint content 1
    if not ring.generates_unit_ideal((a, b)):
        raise not_primitive(ring, (a, b))
    content = gcd(*map(int, (*a, *b)))
    if content != 1:
        raise PreconditionError(
            f"coefficients share the integer factor {content}, so the pair "
            "cannot generate the unit ideal over the integers"
        )
    if len(a) <= 1:
        return None
    for th in pu.rational_roots(ring.field, a):
        val = pu.eval_at(ring.field, b, th)
        if val != 1 and val != -1:
            return RationalEvaluation(
                root=th,
                value=val,
                reason=(
                    f"b({th}) = {val} has absolute value different from 1, and "
                    "evaluation at a root of a sends every b^N + lam*a there"
                ),
            )
    return None
