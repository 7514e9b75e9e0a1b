"""Good-point witness search, verification, refutation, and unit quotients.

A witness for a pair (a, b) is (N, lam, eps, eps_inv) with b^N + lam*a = eps
a unit; the pair is good when such data exists. Searches are exact: a Refuted
outcome carries a machine-checkable reason, and Exhausted is an admission
that the bound ran out, never a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from . import polyuniv as pu
from .core import (
    InfiniteRingError,
    NotPrimitiveError,
    PreconditionError,
    Ring,
    UnsupportedRingError,
    ensure,
    require_primitive,
)
from .rings import ProductRing, RationalPoly


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
    if not ring.eq(ring.mul(w.epsilon, w.epsilon_inverse), ring.one()):
        return False
    lhs = ring.add(ring.pow(b, w.N), ring.mul(w.lam, a))
    return ring.eq(lhs, w.epsilon)


def _witness_at(ring: Ring, a, b, N: int, eps) -> Witness:
    """The verified witness b^N + lam*a = eps for a unit eps in the class of
    b^N mod aA. With a = 0 this is N = 1, eps = b: 0/0 divides to zero."""
    inv = ring.unit_inverse(eps)
    lam = ring.divide_exact(ring.sub(eps, ring.pow(b, N)), a)
    ensure(inv is not None and lam is not None, "the unit lift did not divide out")
    w = GoodPointWitness(N, lam, eps, inv)
    ensure(verify_witness(ring, a, b, w), "the found witness does not verify")
    return Witness(w)


def find_good_witness(ring: Ring, a, b, bound: int = 10000) -> Union[Witness, Exhausted]:
    """Scan N = 1..bound for a unit in the class of b^N mod aA.

    Returns the minimal-N witness or Exhausted. The scan needs no cycle
    check: b is a unit mod aA, so a residue that repeats after i steps
    means b^i = 1 mod aA, and the scan already met the class of 1, which
    holds the unit 1, at N = i.
    """
    require_primitive(ring, (a, b))
    if ring.eq(a, ring.zero()):
        return _witness_at(ring, a, b, 1, b)
    r = ring.one()
    for N in range(1, bound + 1):
        r = ring.reduce_mod(a, ring.mul(b, r))
        eps = ring.unit_residue_witness(a, r)
        if eps is not None:
            return _witness_at(ring, a, b, N, eps)
    return Exhausted(bound=bound)


@dataclass(frozen=True)
class UnitQuotientReport:
    status: str  # "finite" | "infinite" | "unknown"
    order: Optional[int] = None
    carrier: Optional[int] = None
    generator: Optional[object] = None
    reason: Optional[str] = None


def unit_quotient_group(ring: Ring, a, limit: int = 20000) -> UnitQuotientReport:
    """The group (A/aA)^x / image(A^x), when the quotient is enumerable.

    carrier is the number of unit residues, certified through bezout
    against a; order divides it by the number of those whose class holds a
    unit of A, the test the witness scan applies to b^N.
    """
    if ring.eq(a, ring.zero()):
        # reduction mod (0) is the identity, so the units map onto themselves
        return UnitQuotientReport("finite", order=1, carrier=ring.units_count())
    size = ring.quotient_size(a)
    if size is None:
        return UnitQuotientReport(
            "unknown",
            reason=f"the quotient of {ring.spec_string()} by this element is not enumerable",
        )
    if size > limit:
        return UnitQuotientReport(
            "unknown",
            reason=f"quotient has {size} residues, above the limit {limit}",
        )
    carrier = image = 0
    for r in ring.quotient_residues(a):
        if ring.bezout((r, a)) is not None:
            carrier += 1
            image += ring.unit_residue_witness(a, r) is not None
    ensure(image and carrier % image == 0, "unit image must be a subgroup")
    return UnitQuotientReport("finite", order=carrier // image, carrier=carrier)


@dataclass(frozen=True)
class GoodRingReport:
    pairs_checked: int
    all_good: bool
    max_N_seen: int
    failures: tuple


def check_good_ring_exhaustive(ring: Ring) -> GoodRingReport:
    """Test every pair (a, b) in A^2 of a finite ring for goodness.

    find_good_witness tests each pair for primitivity and verifies the
    witness it returns. Its scan cannot exhaust at the bound |A|: a = 0 is
    answered before it, and otherwise b is a unit mod aA, so within
    ord(b) <= |A/aA| <= |A| steps it meets the class of 1, which holds the
    unit 1. So failures is always empty. A product's pair is primitive
    exactly when each component pair is, and then its good exponents are
    the intersection of theirs, a subgroup of Z: its least N is the lcm of
    theirs. So a product is checked one factor at a time.
    """
    if not ring.is_finite():
        raise InfiniteRingError(
            f"exhaustive check would not terminate on {ring.spec_string()}"
        )
    pairs, least_ns = _least_exponents(ring)
    return GoodRingReport(pairs, True, max(least_ns, default=0), ())


def _least_exponents(ring: Ring) -> tuple:
    """A finite ring's pair count and its primitive pairs' least Ns."""
    if isinstance(ring, ProductRing):
        pairs, least_ns = 1, {1}
        for factor in ring.factors:
            factor_pairs, factor_ns = _least_exponents(factor)
            pairs *= factor_pairs
            least_ns = {lcm(n, m) for n in least_ns for m in factor_ns}
        return pairs, least_ns
    elts = list(ring.elements())
    bound = ring.size()
    least_ns = set()
    for a in elts:
        for b in elts:
            try:
                outcome = find_good_witness(ring, a, b, bound=bound)
            except NotPrimitiveError:
                continue
            ensure(isinstance(outcome, Witness), "a finite ring's scan exhausted at |A|")
            least_ns.add(outcome.witness.N)
    return len(elts) ** 2, least_ns


def decide_good_point_rational_split(ring: Ring, a, b) -> SearchOutcome:
    """Decide goodness of a Q[T] pair whose first entry is squarefree and
    splits over Q.

    The root evaluations of b decide everything: all ratios 1 give N = 1,
    ratios in {1, -1} give N = 2, anything else refutes.
    """
    if not isinstance(ring, RationalPoly):
        raise UnsupportedRingError("the rational-split decision works over Q[T]")
    require_primitive(ring, (a, b))
    if not a:
        return _witness_at(ring, a, b, 1, b)
    if len(a) == 1:
        return _witness_at(ring, a, b, 1, ring.one())
    field = ring.field
    roots = pu.rational_roots(field, a)
    lin_prod: tuple = (Fraction(1),)
    for th in roots:
        lin_prod = pu.mul(field, lin_prod, (-th, Fraction(1)))
    if lin_prod != pu.monic(field, a):
        raise PreconditionError(
            "the coefficient polynomial must be squarefree with all roots rational"
        )
    vals = [pu.eval_at(field, b, th) for th in roots]
    ensure(all(v != 0 for v in vals), "a primitive pair cannot share a root")
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
    require_primitive(ring, (a, b))
    content = 0
    for coeff in (*a, *b):
        content = gcd(content, int(coeff))
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
