"""Homogeneous polynomials and the inductive unit-valued constructor.

A construction run leaves a full trace: the minor values, the combination
certificates, the degree-1 forms, the witness used at each extension, and
each intermediate result with its values at the points covered so far.
replay_trace recomputes every identity from the raw data, so a trace is
evidence rather than a narration; it rechecks the recorded values against
its own evaluations and never reads them in place of one.

Over a product ring the construction runs once per factor, and the trace
holds one trace per factor; see _construct_product.

Each step polynomial is evaluated once per point. A step's values at the
covered points carry over to the next step, whose post-check
R(p) = P(p)^(alpha*N) needs them.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, fields
from math import comb, gcd, lcm
from typing import Iterator, Sequence

from .core import (
    BezoutCertificate,
    GoodRingsError,
    ParseError,
    PreconditionError,
    PrimitivePoint,
    Ring,
    UnsupportedRingError,
    ensure,
    verify_certificate,
)
from .rings import Integers, PrimeField, ProductRing, format_terms, parse_terms
from .rings import _int_chain, _int_xgcd
from .witness import (
    Exhausted,
    GoodPointWitness,
    find_good_witness,
    verify_witness,
)

_VAR_RE = re.compile(r"^x([0-9]+)(\^([0-9]+))?$")

# exponent fields of a packed monomial key, narrowest first: (bits, struct code)
_KEY_FIELDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


@functools.cache
def _key_struct(n_vars: int, code: str) -> struct.Struct:
    return struct.Struct(f"<{n_vars}{code}")


def _key_codec(n_vars: int, degree: int) -> struct.Struct:
    """The struct that packs n_vars exponents into little-endian unsigned
    fields of the narrowest width holding every value up to degree."""
    for bits, code in _KEY_FIELDS:
        if degree < 1 << bits:
            return _key_struct(n_vars, code)
    raise ValueError(
        f"product degree {degree} exceeds the packed exponent limit 2**64 - 1"
    )


def monomial_exponents(n_vars: int, degree: int) -> Iterator[tuple]:
    """All exponent tuples of the given total degree, lex descending."""
    if n_vars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomial_exponents(n_vars - 1, degree - e):
            yield (e,) + rest


class HomogeneousPolynomial:
    """Homogeneous polynomial in x1..xn with exact ring coefficients.

    terms maps exponent tuples summing to the degree to nonzero
    coefficients. No terms is the zero polynomial, a distinct sentinel that
    compares equal across degrees.
    """

    def __init__(self, ring: Ring, n_vars: int, degree: int, terms: dict):
        if n_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        zero = ring.zero()
        for exps, c in terms.items():
            exps = tuple(exps)
            if (
                len(exps) != n_vars
                or any(not isinstance(e, int) or e < 0 for e in exps)
                or sum(exps) != degree
            ):
                raise ValueError(
                    f"exponents {exps} do not fit degree {degree} in {n_vars} variables"
                )
            if c != zero:
                clean[exps] = c
        self.ring = ring
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean

    @classmethod
    def _from_trusted(
        cls, ring: Ring, n_vars: int, degree: int, terms: dict
    ) -> "HomogeneousPolynomial":
        """Build from exponent tuples this class made itself: copies or
        sums of keys that already passed __init__, the multinomial
        exponents of _int_linear_power, or the keys of factor polynomials
        of one degree merged by _recombine.

        Such keys have the right length, no negative entry and the right
        degree by construction, so checking them again would prove nothing
        while costing a pass over every term of every product. Zero
        coefficients are still dropped.
        """
        zero = ring.zero()
        poly = object.__new__(cls)
        poly.ring = ring
        poly.n_vars = n_vars
        poly.degree = degree
        poly.terms = {e: c for e, c in terms.items() if c != zero}
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def zero(cls, ring: Ring, n_vars: int, degree: int = 0) -> "HomogeneousPolynomial":
        return cls(ring, n_vars, degree, {})

    @classmethod
    def constant(cls, ring: Ring, n_vars: int, c) -> "HomogeneousPolynomial":
        return cls(ring, n_vars, 0, {(0,) * n_vars: c})

    @classmethod
    def monomial(cls, ring: Ring, n_vars: int, exps, coeff) -> "HomogeneousPolynomial":
        exps = tuple(exps)
        return cls(ring, n_vars, sum(exps), {exps: coeff})

    @classmethod
    def linear(cls, ring: Ring, coeffs: Sequence) -> "HomogeneousPolynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = c
        return cls(ring, n, 1, terms)

    def _require_compatible(self, other: "HomogeneousPolynomial") -> None:
        if (
            self.n_vars != other.n_vars
            or self.ring.spec_string() != other.ring.spec_string()
        ):
            raise ValueError("polynomials live in different polynomial rings")

    def add(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._require_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        ring = self.ring
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in merged:
                merged[exps] = ring.add(merged[exps], c)
            else:
                merged[exps] = c
        return HomogeneousPolynomial._from_trusted(
            ring, self.n_vars, self.degree, merged
        )

    def neg(self) -> "HomogeneousPolynomial":
        ring = self.ring
        return HomogeneousPolynomial._from_trusted(
            ring,
            self.n_vars,
            self.degree,
            {e: ring.neg(c) for e, c in self.terms.items()},
        )

    def sub(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self.add(other.neg())

    def scale(self, c) -> "HomogeneousPolynomial":
        ring = self.ring
        return HomogeneousPolynomial._from_trusted(
            ring,
            self.n_vars,
            self.degree,
            {e: ring.mul(c, v) for e, v in self.terms.items()},
        )

    def mul(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        """The product, accumulated over packed monomial keys.

        Each exponent tuple becomes one int with a little-endian unsigned
        field per variable (after Monagan & Pearce, Sparse polynomial
        multiplication and division in Maple 14, 2009). The field width is
        the narrowest of 8, 16, 32 and 64 bits that holds the product's
        degree. A factor's exponents are at most its degree, so each field
        of a sum of two keys is at most the product's degree: adding keys
        never carries into the next field, and the sum is the key of the
        product monomial. A product of degree 2**64 or more raises
        ValueError rather than wrap a field.
        """
        self._require_compatible(other)
        degree = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return HomogeneousPolynomial.zero(self.ring, self.n_vars, degree)
        codec = _key_codec(self.n_vars, degree)
        pack = codec.pack
        from_bytes = int.from_bytes
        left = [(from_bytes(pack(*e), "little"), c) for e, c in self.terms.items()]
        right = [(from_bytes(pack(*e), "little"), c) for e, c in other.terms.items()]
        ring = self.ring
        acc: dict = {}
        if isinstance(ring, Integers):
            get = acc.get
            for k1, c1 in left:
                for k2, c2 in right:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        else:
            for k1, c1 in left:
                for k2, c2 in right:
                    key = k1 + k2
                    prod = ring.mul(c1, c2)
                    if key in acc:
                        acc[key] = ring.add(acc[key], prod)
                    else:
                        acc[key] = prod
        unpack, size = codec.unpack, codec.size
        terms = {unpack(k.to_bytes(size, "little")): c for k, c in acc.items()}
        return HomogeneousPolynomial._from_trusted(ring, self.n_vars, degree, terms)

    def pow(self, n: int) -> "HomogeneousPolynomial":
        """self^n, with two strategies.

        An integer linear form is expanded by the multinomial theorem. Any
        other base is multiplied into the running product n - 1 times; n = 0
        gives the constant 1. Repeated squaring is not used: on sparse and
        multivariate bases its dense intermediates cost more than
        multiplying by the base (Fateman, On the computation of powers of
        sparse polynomials, 1974). On the construct benchmark's passing
        operations, repeated multiplication does 7 to 10% fewer term pairs
        than square-and-multiply, and pure squaring passes the work limit on
        one heavy operation that repeated multiplication completes.
        """
        if n < 0:
            raise ValueError("negative polynomial power")
        if (
            n > 1
            and self.degree == 1
            and not self.is_zero
            and isinstance(self.ring, Integers)
        ):
            return self._int_linear_power(n)
        if n == 0:
            return HomogeneousPolynomial.constant(self.ring, self.n_vars, self.ring.one())
        acc = self
        for _ in range(n - 1):
            acc = acc.mul(self)
        return acc

    def _int_linear_power(self, n: int) -> "HomogeneousPolynomial":
        """(c_1 x_1 + ... )^n by the multinomial theorem; integers only."""
        support = [
            (idx, c)
            for idx, c in (
                (e.index(1), c) for e, c in self.terms.items()
            )
        ]
        acc: dict = {}
        for split in monomial_exponents(len(support), n):
            coeff = 1
            rest = n
            key = [0] * self.n_vars
            for (idx, c), e in zip(support, split):
                coeff *= comb(rest, e) * c**e
                rest -= e
                key[idx] = e
            acc[tuple(key)] = coeff
        return HomogeneousPolynomial._from_trusted(self.ring, self.n_vars, n, acc)

    def eval(self, coords: Sequence):
        if len(coords) != self.n_vars:
            raise ValueError("wrong number of coordinates")
        ring = self.ring
        if isinstance(ring, Integers):
            caches: list = [{0: 1, 1: x} for x in coords]
            total = 0
            for exps, c in self.terms.items():
                term = c
                for cache, x, e in zip(caches, coords, exps):
                    if e:
                        p = cache.get(e)
                        if p is None:
                            p = x**e
                            cache[e] = p
                        term *= p
                total += term
            return total
        total = ring.zero()
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(coords, exps):
                if e:
                    term = ring.mul(term, ring.pow(x, e))
            total = ring.add(total, term)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.ring.spec_string() == other.ring.spec_string()
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"<HomogeneousPolynomial {self.format()} over {self.ring.spec_string()}>"

    def format(self) -> str:
        """Canonical text in the term grammar of rings.format_terms, terms
        in graded-lex descending order."""
        return format_terms(
            (
                "*".join(
                    f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(exps)
                    if e
                ),
                self.ring.format_element(self.terms[exps]),
            )
            for exps in sorted(self.terms, reverse=True)
        )

    @classmethod
    def parse(cls, ring: Ring, n_vars: int, text: str) -> "HomogeneousPolynomial":
        """Parse the term grammar of rings.parse_terms in x1..xn; accepts
        any term order and whitespace."""
        if text.replace(" ", "") == "0":
            return cls.zero(ring, n_vars)

        def power(factor: str):
            m = _VAR_RE.match(factor)
            if not m:
                return None
            if not 1 <= int(m.group(1)) <= n_vars:
                raise ParseError(f"variable {factor!r} out of range")
            return int(m.group(1)) - 1, int(m.group(3) or 1)

        terms = parse_terms(text, ring, n_vars, power)
        degrees = {sum(exps) for exps in terms}
        if len(degrees) > 1:
            raise ParseError(f"terms of mixed total degree in {text!r}")
        return cls(ring, n_vars, degrees.pop(), terms)


def linear_form_for_point(ring: Ring, point: PrimitivePoint) -> HomogeneousPolynomial:
    """The degree-1 form with the certificate coefficients. Its value at the
    point is sum(u_i*x_i), which verify_certificate has just checked is 1."""
    if not verify_certificate(ring, point.coordinates, point.certificate):
        raise PreconditionError("primitivity certificate does not verify")
    return HomogeneousPolynomial.linear(ring, point.certificate.coefficients)


@dataclass(frozen=True)
class SectionIdeal:
    point: PrimitivePoint
    generators: tuple


def section_ideal_generators(ring: Ring, point: PrimitivePoint) -> SectionIdeal:
    """Degree-1 forms a_i*x_j - a_j*x_i over index pairs i < j, dropping
    forms that are identically zero."""
    coords = point.coordinates
    n = len(coords)
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [ring.zero()] * n
            coeffs[j] = coords[i]
            coeffs[i] = ring.neg(coords[j])
            form = HomogeneousPolynomial.linear(ring, coeffs)
            if not form.is_zero:
                gens.append(form)
    return SectionIdeal(point, tuple(gens))


def _rank_mod_p(rows: list, p: int) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
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
        if rank == len(rows):
            break
    return rank


def ideal_slice_dimension(ring: Ring, generators: Sequence, degree: int) -> int:
    """Dimension of the degree-d slice of the ideal spanned by degree-1
    forms, over a prime field."""
    if not isinstance(ring, PrimeField):
        raise UnsupportedRingError("slice dimension is computed over GF(p)")
    if degree < 1:
        raise ValueError("the slice degree must be at least 1")
    gens = list(generators)
    if not gens:
        return 0
    n = gens[0].n_vars
    basis = list(monomial_exponents(n, degree))
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for gen in gens:
        if gen.degree != 1:
            raise ValueError("generators must be degree-1 forms")
        for mono in monomial_exponents(n, degree - 1):
            shifted = gen.mul(
                HomogeneousPolynomial.monomial(ring, n, mono, ring.one())
            )
            row = [0] * len(basis)
            for exps, c in shifted.terms.items():
                row[index[exps]] = c
            rows.append(row)
    return _rank_mod_p(rows, ring.n)


# ---------------------------------------------------------------------------
# inductive constructor


class WitnessSearchExhausted(GoodRingsError):
    """An extension step could not find its witness within the scan bound."""

    def __init__(self, bound: int):
        super().__init__(f"witness search exhausted at bound {bound}")
        self.bound = bound


@dataclass(frozen=True)
class ExtensionStep:
    new_point: PrimitivePoint
    covered: tuple  # points already covered, in order, defining the index t
    minors: tuple  # per t: tuple of ((i, j), minor value), i < j lex
    cofactors: tuple  # per t: (c, w) with 1 = P(q)*c + w*B_t(q)
    combiners: tuple  # per t: the u coefficients, aligned with minors
    forms: tuple  # per t: the degree-1 form B_t
    alpha: int
    witness: GoodPointWitness  # for the pair (prod B_t(q), P(q)^alpha)
    linear_form: HomogeneousPolynomial  # W with W(q) = 1
    filler_exponent: int  # N*alpha*deg(P) - k
    result: HomogeneousPolynomial
    values: tuple  # result's values at covered + (new_point,), in that order


@dataclass(frozen=True)
class ConstructionTrace:
    base_point: PrimitivePoint
    base_form: HomogeneousPolynomial
    steps: tuple

    @property
    def points(self) -> tuple:
        return (self.base_point,) + tuple(s.new_point for s in self.steps)

    @property
    def values(self) -> tuple:
        """The result's values at points, in order; the base form takes the
        value 1 at the base point."""
        return self.steps[-1].values if self.steps else (self.base_form.ring.one(),)


@dataclass(frozen=True)
class ProductTrace:
    """A construction over a ProductRing, one factor at a time."""

    points: tuple  # the product points, in input order
    factor_traces: tuple  # per factor: the trace over the distinct components
    lcm: int  # L, the lcm of the factor degrees and the result's degree
    result: HomogeneousPolynomial
    values: tuple  # result's values at points, in order


def _minors(ring: Ring, pc: tuple, q: tuple, pairs: list) -> tuple:
    """The 2x2 minors pc[i]*q[j] - pc[j]*q[i] over the index pairs."""
    return tuple(
        ring.sub(ring.mul(pc[i], q[j]), ring.mul(pc[j], q[i])) for i, j in pairs
    )


def _is_tuple_of(x, length: int) -> bool:
    return isinstance(x, tuple) and len(x) == length


def _step(
    ring: Ring, poly, covered, values, new_point, identity, witness, check
) -> ExtensionStep:
    """The one builder of an ExtensionStep: from P and its unit values at
    the covered points, R = (P^alpha)^N + lam * prod(B_t) * W^e, unit-valued
    at covered + (new_point,), and the step record.

    The step's two choices are callables, each called once its input is
    known: identity(ring, P(q), minors) returns the cofactors (c, w) with 1
    = P(q)*c + w*B_t(q) and the combiners u of B_t; witness(a, P(q)) returns
    alpha and a witness for (a, P(q)^alpha), a = prod B_t(q). The
    constructor passes its own choices, replay the recorded ones. Failed
    identities go to check(cond, message). W(q) is the sum that both
    callers' certificate check of new_point has verified, so W(q) = 1 needs
    no check here, nor does B_t(p_t) = sum u_ij*(p_i*p_j - p_j*p_i) = 0.
    The record keeps R's own values, new_point's last.
    """
    n = poly.n_vars
    k = len(covered)
    q = new_point.coordinates
    pq = poly.eval(q)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    minors = [_minors(ring, p.coordinates, q, pairs) for p in covered]
    cofactors, combiners = identity(ring, pq, minors)
    check(
        _is_tuple_of(cofactors, k)
        and _is_tuple_of(combiners, k)
        and all(_is_tuple_of(cw, 2) for cw in cofactors)
        and all(_is_tuple_of(us, len(pairs)) for us in combiners),
        "one cofactor pair and one combiner per minor for each covered point",
    )
    forms = []
    prod_b = HomogeneousPolynomial.constant(ring, n, ring.one())
    a_val = ring.one()
    for pt, (c_t, w_t), us in zip(covered, cofactors, combiners):
        pc = pt.coordinates
        lin = [ring.zero()] * n
        for (i, j), u in zip(pairs, us):
            lin[j] = ring.add(lin[j], ring.mul(u, pc[i]))
            lin[i] = ring.sub(lin[i], ring.mul(u, pc[j]))
        form = HomogeneousPolynomial.linear(ring, lin)
        v = form.eval(q)
        combination = ring.add(ring.mul(pq, c_t), ring.mul(w_t, v))
        check(combination == ring.one(), "combination identity broken")
        forms.append(form)
        prod_b = prod_b.mul(form)
        a_val = ring.mul(a_val, v)

    alpha, w = witness(a_val, pq)
    e = w.N * alpha * poly.degree - k
    check(e >= 0, "witness power too small for the filler")
    w_form = HomogeneousPolynomial.linear(ring, new_point.certificate.coefficients)
    head = poly.pow(alpha * w.N)
    tail = prod_b.mul(w_form.pow(e)).scale(w.lam)
    result = head.add(tail)
    at_q = result.eval(q)
    check(at_q == w.epsilon, "the result does not take the witness unit at q")
    point_values = []
    for p, v in zip(covered, values):
        expected = ring.pow(v, alpha * w.N)
        value = result.eval(p.coordinates)
        check(
            value == expected and ring.is_unit(expected),
            "the result is not the unit P(p)^(alpha*N) at a covered point",
        )
        point_values.append(value)
    point_values.append(at_q)
    return ExtensionStep(
        new_point=new_point,
        covered=tuple(covered),
        minors=tuple(tuple(zip(pairs, m)) for m in minors),
        cofactors=cofactors,
        combiners=combiners,
        forms=tuple(forms),
        alpha=alpha,
        witness=w,
        linear_form=w_form,
        filler_exponent=e,
        result=result,
        values=tuple(point_values),
    )


def _combination(ring: Ring, pq, minors: list) -> tuple:
    """The constructor's combination identities, per covered point: the
    cofactors (c, w) with 1 = P(q)*c + w*B_t(q) and the combiners u."""
    if ring.is_unit(pq):
        # q is projectively on top of the covered set as far as P can see;
        # take the trivial identity 1 = P(q) * P(q)^-1 and zero forms
        inv = ring.unit_inverse(pq)
        return ((inv, ring.zero()),) * len(minors), tuple(
            tuple(ring.zero() for _ in m) for m in minors
        )
    if isinstance(ring, Integers):
        # steer every target to the minor gcd itself: the witness then
        # runs modulo prod(g_t), which keeps both the scan and the final
        # degree small, unlike targets of the shape 1 - P(q)^n whose
        # pairwise common factors blow the reachable exponent up
        chains = [_int_chain(m) for m in minors]
        if all(g > 0 and gcd(g, pq) == 1 for g, _ in chains):
            return (
                tuple(_int_xgcd(pq, g)[1:] for g, _ in chains),
                tuple(tuple(cs) for _, cs in chains),
            )
    cofactors, combiners = [], []
    for m in minors:
        coeffs = ring.bezout((pq,) + m)
        if coeffs is None:
            raise GoodRingsError(
                "could not certify 1 in (P(q), minors); the covered-point "
                "precondition does not hold"
            )
        cofactors.append((coeffs[0], ring.one()))
        combiners.append(tuple(coeffs[1:]))
    return tuple(cofactors), tuple(combiners)


def _least_witness(ring: Ring, k: int, degree: int, bound: int):
    """The constructor's witness choice for a step over k covered points
    from a polynomial of the given degree: the least witness for (a,
    P(q)^alpha) with alpha = 1, raised to the least alpha with N*alpha*
    degree >= k when N is too small for the filler."""

    def choose(a, pq) -> tuple:
        alpha = 1
        for _ in range(64):
            outcome = find_good_witness(ring, a, ring.pow(pq, alpha), bound=bound)
            if isinstance(outcome, Exhausted):
                raise WitnessSearchExhausted(outcome.bound)
            w = outcome.witness
            if w.N * alpha * degree >= k:
                return alpha, w
            alpha = -(-k // (w.N * degree))
        raise GoodRingsError("witness exponent adjustment failed to settle")

    return choose


def extend_unit_valued(
    ring: Ring,
    poly: HomogeneousPolynomial,
    covered: Sequence[PrimitivePoint],
    new_point: PrimitivePoint,
    witness_bound: int = 10000,
) -> tuple:
    """One inductive step: from P unit-valued on the covered points, build R
    unit-valued on covered + new, together with the step record.

    R = (P^alpha)^N + lam * prod(B_t) * W^e, where the B_t are degree-1
    forms vanishing at their covered point, (N, lam, eps) is a witness for
    (prod B_t(q), P(q)^alpha), W(q) = 1, and e pads the degree.
    """
    pts = list(covered)
    k = len(pts)
    if k == 0:
        raise PreconditionError("at least one covered point is required")
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError("the polynomial must be homogeneous of degree >= 1")
    if not verify_certificate(
        ring, new_point.coordinates, new_point.certificate
    ):
        raise PreconditionError("primitivity certificate does not verify")
    n = poly.n_vars
    if len(new_point.coordinates) != n or any(len(p) != n for p in pts):
        raise PreconditionError("points and polynomial disagree on dimension")
    values = [poly.eval(p.coordinates) for p in pts]
    if not all(ring.is_unit(v) for v in values):
        raise PreconditionError("the polynomial is not unit-valued on a covered point")
    witness = _least_witness(ring, k, poly.degree, witness_bound)
    step = _step(ring, poly, pts, values, new_point, _combination, witness, ensure)
    return step.result, step


def construct_unit_valued(
    ring: Ring, points: Sequence[PrimitivePoint], witness_bound: int = 10000
) -> tuple:
    """Build a homogeneous polynomial taking unit values at all the given
    primitive points, plus the full construction trace: a ProductTrace over
    a ProductRing, which is built one factor at a time, else a
    ConstructionTrace.

    Each step is _step run on the constructor's own choices, as in
    extend_unit_valued, on the values at the covered points carried over
    from the step before. Each is a unit: the base form takes the value 1
    at the base point, _step's post-check requires R's value at a covered
    point to be a unit, and R's value at the new point is the witness unit
    eps.
    """
    pts = list(points)
    if not pts:
        raise PreconditionError("at least one point is required")
    n = len(pts[0].coordinates)
    if n < 2:
        raise PreconditionError("points need at least two coordinates")
    seen = set()
    for p in pts:
        if len(p.coordinates) != n:
            raise PreconditionError("points must share one dimension")
        if not verify_certificate(ring, p.coordinates, p.certificate):
            raise PreconditionError("primitivity certificate does not verify")
        if p.coordinates in seen:
            shown = ", ".join(ring.format_element(c) for c in p.coordinates)
            raise PreconditionError(f"duplicate point ({shown})")
        seen.add(p.coordinates)
    if isinstance(ring, ProductRing):
        return _construct_product(ring, pts, witness_bound)
    base = pts[0]
    base_form = current = linear_form_for_point(ring, base)
    steps = []
    values = (ring.one(),)  # linear_form_for_point checked the base value
    for k, q in enumerate(pts[1:], 1):
        witness = _least_witness(ring, k, current.degree, witness_bound)
        step = _step(ring, current, pts[:k], values, q, _combination, witness, ensure)
        steps.append(step)
        current, values = step.result, step.values
    return current, ConstructionTrace(base, base_form, tuple(steps))


def _component_points(points, i: int) -> tuple:
    """The distinct i-th components of the product points in first-seen
    order, each with the i-th component of its certificate."""
    seen: dict = {}
    for p in points:
        coords = tuple(x[i] for x in p.coordinates)
        if coords not in seen:
            cert = tuple(u[i] for u in p.certificate.coefficients)
            seen[coords] = PrimitivePoint(coords, BezoutCertificate(cert))
    return tuple(seen.values())


def _recombine(ring: ProductRing, n: int, factor_polys) -> HomogeneousPolynomial:
    """The polynomial over the product with component polynomials
    P_i^(L/d_i), L = lcm(d_i); the powers go through pow, so through mul."""
    degree = lcm(*(p.degree for p in factor_polys))
    powers = [p.pow(degree // p.degree) for p in factor_polys]
    zeros = [f.zero() for f in ring.factors]
    keys = set().union(*(p.terms for p in powers))
    terms = {
        e: tuple(p.terms.get(e, z) for p, z in zip(powers, zeros)) for e in keys
    }
    return HomogeneousPolynomial._from_trusted(ring, n, degree, terms)


def _construct_product(ring: ProductRing, pts: list, witness_bound: int) -> tuple:
    """Property (**) of the source paper for a finite product, one factor
    at a time.

    A point of A_1 x ... x A_r is primitive exactly when each of its
    components is, since a Bezout certificate splits by component. If P_i
    is unit-valued at the distinct components in A_i and has degree d_i,
    then with L = lcm(d_i) the polynomial with coefficients
    (P_1^(L/d_1), ..., P_r^(L/d_r)) is homogeneous of degree L and
    unit-valued at every product point. A factor that is itself a product
    recurses through construct_unit_valued.
    """
    polys, traces = [], []
    for i, factor in enumerate(ring.factors):
        poly, trace = construct_unit_valued(
            factor, _component_points(pts, i), witness_bound
        )
        polys.append(poly)
        traces.append(trace)
    trace = _product_trace(ring, tuple(pts), polys, tuple(traces), ensure)
    return trace.result, trace


def _product_trace(ring: ProductRing, pts: tuple, polys, traces, check) -> ProductTrace:
    """The one builder of a ProductTrace: the recombination of the factor
    polynomials and its values at the points, each checked to be a unit."""
    result = _recombine(ring, len(pts[0].coordinates), polys)
    values = tuple(result.eval(p.coordinates) for p in pts)
    check(all(ring.is_unit(v) for v in values), "the result is not unit-valued")
    return ProductTrace(pts, traces, result.degree, result, values)


def _splits(p, n: int, r: int) -> bool:
    """True when p is a point of n coordinates over an r-factor product,
    with a certificate of the same shape."""
    return (
        isinstance(p, PrimitivePoint)
        and isinstance(p.certificate, BezoutCertificate)
        and _is_tuple_of(p.coordinates, n)
        and _is_tuple_of(p.certificate.coefficients, n)
        and all(_is_tuple_of(x, r) for x in p.coordinates + p.certificate.coefficients)
    )


def _check_record(rebuilt, recorded, check) -> None:
    """Require a rebuilt record to equal the recorded one, field by field
    with ==; the message names the fields that differ."""
    if rebuilt != recorded:
        differ = [
            f.name
            for f in fields(rebuilt)
            if getattr(rebuilt, f.name) != getattr(recorded, f.name)
        ]
        check(False, f"the record differs from its rebuild in {', '.join(differ)}")


def _replay_product(ring: Ring, trace: ProductTrace, check) -> HomogeneousPolynomial:
    """Replay each factor trace on its factor ring, then rebuild the
    product record from the replayed polynomials and compare it with the
    recorded one."""
    check(
        isinstance(ring, ProductRing)
        and _is_tuple_of(trace.factor_traces, len(ring.factors)),
        "one factor trace per factor of a product ring",
    )
    pts = trace.points
    check(isinstance(pts, tuple) and pts, "no product points")
    n = len(getattr(pts[0], "coordinates", ()))
    check(
        all(
            _splits(p, n, len(ring.factors))
            and verify_certificate(ring, p.coordinates, p.certificate)
            for p in pts
        ),
        "a product point is malformed or its certificate does not verify",
    )
    polys = []
    for i, (factor, factor_trace) in enumerate(zip(ring.factors, trace.factor_traces)):
        # replay first: it rejects a trace whose points cannot be read
        polys.append(replay_trace(factor, factor_trace))
        check(
            factor_trace.points == _component_points(pts, i),
            "a factor trace does not cover the distinct components of the points",
        )
    rebuilt = _product_trace(ring, pts, polys, trace.factor_traces, check)
    _check_record(rebuilt, trace, check)
    return rebuilt.result


def replay_trace(ring: Ring, trace) -> HomogeneousPolynomial:
    """Recompute every identity in a construction trace from its raw data.

    Returns the final polynomial on success and raises GoodRingsError at the
    first mismatch. Nothing is trusted: each step is rebuilt by the
    constructor's own step builder, run on the step's recorded choices (the
    cofactors and combiners, alpha and a witness that must verify), and the
    rebuilt step must equal the recorded one field for field. Its point
    values come from replay's own evaluations, which carry over from step to
    step as they do in construct_unit_valued. A ProductTrace replays each
    factor trace on its factor ring, which must cover exactly the distinct
    components of the product points, and rebuilds the product record.
    A foreign element inside a record fails as a malformed record.
    """

    def check(cond: bool, message: str) -> None:
        ensure(cond, f"trace replay failed: {message}")

    try:
        if isinstance(trace, ProductTrace):
            return _replay_product(ring, trace, check)
        check(isinstance(trace, ConstructionTrace), "not a construction trace")
        base = trace.base_point
        check(
            isinstance(base, PrimitivePoint)
            and verify_certificate(ring, base.coordinates, base.certificate),
            "base point malformed or its certificate invalid",
        )
        poly = HomogeneousPolynomial.linear(ring, base.certificate.coefficients)
        check(trace.base_form == poly, "base form does not match its certificate")
        check(isinstance(trace.steps, tuple), "the steps are not a tuple")
        covered = [base]
        values = (ring.one(),)  # the base form's value is the certificate sum
        for step in trace.steps:
            check(isinstance(step, ExtensionStep), "a step is not an ExtensionStep")
            q_pt = step.new_point
            check(
                isinstance(q_pt, PrimitivePoint)
                and len(q_pt.coordinates) == poly.n_vars
                and verify_certificate(ring, q_pt.coordinates, q_pt.certificate),
                "extension point malformed or its certificate invalid",
            )

            def recorded_witness(a, pq) -> tuple:
                alpha, w = step.alpha, step.witness
                check(
                    isinstance(alpha, int) and alpha >= 1, "alpha must be a positive integer"
                )
                check(
                    isinstance(w, GoodPointWitness)
                    and verify_witness(ring, a, ring.pow(pq, alpha), w),
                    "step witness does not verify",
                )
                return alpha, w

            rebuilt = _step(
                ring, poly, covered, values, q_pt,
                lambda *_: (step.cofactors, step.combiners), recorded_witness, check,
            )
            _check_record(rebuilt, step, check)
            poly, values = rebuilt.result, rebuilt.values
            covered.append(q_pt)
        return poly
    except (TypeError, AttributeError) as err:
        raise GoodRingsError(f"trace replay failed: malformed record ({err})") from err
