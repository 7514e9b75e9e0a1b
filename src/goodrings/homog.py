"""Homogeneous polynomials and the inductive unit-valued constructor.

A construction run leaves a trace of its choices and nothing more: the
base point, then per extension the new point, the combiners and the
witness (N, lam, eps, eps^-1), and at the end the result's values at the
points. The minors, the forms, every intermediate polynomial and its
values follow from these choices. Construct and replay share one point
check, _check_points, one step loop, _build, and over a product ring one
recombination of the factors' polynomials, _recombine, whose trace holds
one trace per factor. replay_trace runs them on the recorded choices where
construct_unit_valued makes its own, which rechecks every identity the
constructor checked. A trace is evidence rather than a narration: replay
requires the recorded values to equal its own and never reads them in
place of one. The steps predict the values at the points, and only the
final polynomial is evaluated at all of them.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass
from math import comb, lcm
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
from .rings import _chain, _int_xgcd
from .witness import (
    _DEFAULT_BOUND,
    Exhausted,
    GoodPointWitness,
    _witness_at,
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
    _check_n_vars(n_vars)
    if n_vars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomial_exponents(n_vars - 1, degree - e):
            yield (e,) + rest


def _check_n_vars(n_vars: int) -> None:
    if n_vars < 1:
        raise ValueError("a polynomial needs at least one variable")


class HomogeneousPolynomial:
    """Homogeneous polynomial in x1..xn with exact ring coefficients.

    terms maps exponent tuples summing to the degree to nonzero
    coefficients. No terms is the zero polynomial, a distinct sentinel that
    compares equal across degrees.
    """

    _keys = None  # (codec, terms by packed key), kept by mul on its product

    def __init__(self, ring: Ring, n_vars: int, degree: int, terms: dict):
        _check_n_vars(n_vars)
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        zero = ring.zero()
        for exps, c in terms.items():
            exps = tuple(exps)
            if (
                len(exps) != n_vars
                or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps)
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
        sums of keys that already passed __init__, the keys of constant
        and linear, or the keys of the factor polynomials' powers to one
        degree L that _recombine merges into tuple coefficients.

        Such keys have the right length, no negative entry and the right
        degree by construction, so checking them again would prove nothing
        while costing a pass over every term of every product. Zero
        coefficients are still dropped.
        """
        zero = ring.zero()
        return cls._make(ring, n_vars, degree, {e: c for e, c in terms.items() if c != zero})

    @classmethod
    def _make(cls, ring: Ring, n_vars: int, degree: int, terms: dict) -> "HomogeneousPolynomial":
        """_from_trusted for terms that hold no zero coefficient either: the
        products of mul, which drops zeros as it unpacks its keys, and the
        multinomial terms of _int_linear_power."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.n_vars = n_vars
        poly.degree = degree
        poly.terms = terms
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def zero(cls, ring: Ring, n_vars: int, degree: int = 0) -> "HomogeneousPolynomial":
        return cls(ring, n_vars, degree, {})

    @classmethod
    def constant(cls, ring: Ring, n_vars: int, c) -> "HomogeneousPolynomial":
        _check_n_vars(n_vars)
        return cls._from_trusted(ring, n_vars, 0, {(0,) * n_vars: c})

    @classmethod
    def monomial(cls, ring: Ring, n_vars: int, exps, coeff) -> "HomogeneousPolynomial":
        exps = tuple(exps)
        return cls(ring, n_vars, sum(exps), {exps: coeff})

    @classmethod
    def linear(cls, ring: Ring, coeffs: Sequence) -> "HomogeneousPolynomial":
        n = len(coeffs)
        _check_n_vars(n)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = c
        return cls._from_trusted(ring, n, 1, terms)

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

        The product keeps its packed keys, tagged with their codec, so the
        next product of pow's chain acc * P packs only P: an operand's kept
        keys are read when its codec is the product's, and any other operand
        is packed once. The shorter operand drives the outer loop.
        """
        self._require_compatible(other)
        degree = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return HomogeneousPolynomial.zero(self.ring, self.n_vars, degree)
        codec = _key_codec(self.n_vars, degree)
        left = self._packed(codec)
        right = left if other is self else other._packed(codec)
        if len(left) > len(right):
            left, right = right, left
        outer, inner = left.items(), right.items()
        ring = self.ring
        acc: dict = {}
        if isinstance(ring, Integers):
            get = acc.get
            for k1, c1 in outer:
                for k2, c2 in inner:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        else:
            for k1, c1 in outer:
                for k2, c2 in inner:
                    key = k1 + k2
                    prod = ring.mul(c1, c2)
                    if key in acc:
                        acc[key] = ring.add(acc[key], prod)
                    else:
                        acc[key] = prod
        unpack, size = codec.unpack, codec.size
        zero = ring.zero()
        terms = {unpack(k.to_bytes(size, "little")): c for k, c in acc.items() if c != zero}
        if len(terms) < len(acc):
            acc = {k: c for k, c in acc.items() if c != zero}
        product = HomogeneousPolynomial._make(ring, self.n_vars, degree, terms)
        product._keys = codec, acc
        return product

    def _packed(self, codec: struct.Struct) -> dict:
        """The terms keyed by their exponents packed under codec: the keys
        kept when mul built this polynomial under the same codec, else
        packed now."""
        kept = self._keys
        if kept is not None and kept[0] is codec:
            return kept[1]
        pack, from_bytes = codec.pack, int.from_bytes
        return {from_bytes(pack(*e), "little"): c for e, c in self.terms.items()}

    def __getstate__(self) -> dict:
        # kept keys are a cache, and their codec does not pickle
        state = dict(self.__dict__)
        state.pop("_keys", None)
        return state

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
        """(c_1 x_i1 + ... + c_k x_ik)^n by the multinomial theorem; integers
        only. Each c_t^j is read from one table of running products
        c_t^0..c_t^n. The exponent splits run lex descending: the first k - 2
        exponents by recursion, and the last two, (j, r - j), in one loop
        that carries the binomial C(r, j) from one term to the next."""
        support = [e.index(1) for e in self.terms]
        key = [0] * self.n_vars
        if len(support) == 1:
            key[support[0]] = n
            (c,) = self.terms.values()
            return HomogeneousPolynomial._make(self.ring, self.n_vars, n, {tuple(key): c**n})
        tables = []
        for c in self.terms.values():
            table = [1]
            for _ in range(n):
                table.append(table[-1] * c)
            tables.append(table)
        acc: dict = {}
        (i1, i2), (t1, t2) = support[-2:], tables[-2:]

        def fill(t: int, rest: int, coeff: int) -> None:
            if t < len(support) - 2:
                table = tables[t]
                for e in range(rest, -1, -1):
                    key[support[t]] = e
                    fill(t + 1, rest - e, coeff * comb(rest, e) * table[e])
                return
            binom = 1
            for j in range(rest, -1, -1):
                key[i1] = j
                key[i2] = rest - j
                acc[tuple(key)] = coeff * binom * t1[j] * t2[rest - j]
                binom = binom * j // (rest - j + 1)

        fill(0, n, 1)
        return HomogeneousPolynomial._make(self.ring, self.n_vars, n, acc)

    def eval(self, coords: Sequence):
        """The value at coords, read from one power table per coordinate.

        Each term then costs a table lookup and a multiplication per
        variable. A form with more terms than its degree gets dense tables,
        a list of every power 0..degree built by one multiplication each.
        Any other form gets sparse tables, a dict over only the exponents
        that occur, each computed by ring.pow: a dense table of a short
        literal such as x2^100000 + x1^100000 would build every power below
        the degree, a cost quadratic in the degree.
        """
        if len(coords) != self.n_vars:
            raise ValueError("wrong number of coordinates")
        ring = self.ring
        terms = self.terms
        if not terms:
            return ring.zero()
        mul = ring.mul
        if self.degree < len(terms):
            tables = []
            for x in coords:
                table = [ring.one()]
                for _ in range(self.degree):
                    table.append(mul(table[-1], x))
                tables.append(table)
        else:
            tables = [
                {e: ring.pow(x, e) for e in set(column)}
                for x, column in zip(coords, zip(*terms))
            ]
        if isinstance(ring, Integers) and 2 <= self.n_vars <= 4:
            total = 0
            if self.n_vars == 2:
                t1, t2 = tables
                for (e1, e2), c in terms.items():
                    total += c * t1[e1] * t2[e2]
            elif self.n_vars == 3:
                t1, t2, t3 = tables
                for (e1, e2, e3), c in terms.items():
                    total += c * t1[e1] * t2[e2] * t3[e3]
            else:
                t1, t2, t3, t4 = tables
                for (e1, e2, e3, e4), c in terms.items():
                    total += c * t1[e1] * t2[e2] * t3[e3] * t4[e4]
            return total
        add = ring.add
        total = ring.zero()
        for exps, c in terms.items():
            for table, e in zip(tables, exps):
                if e:
                    c = mul(c, table[e])
            total = add(total, c)
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
    """The constructor's choices at one extension; replay derives the rest."""

    new_point: PrimitivePoint
    combiners: tuple  # per covered point: the u of B_t, one per index pair i < j
    witness: GoodPointWitness  # for the pair (prod B_t(q), P(q))


@dataclass(frozen=True)
class ConstructionTrace:
    base_point: PrimitivePoint
    steps: tuple
    values: tuple  # the result's values at points, in order

    @property
    def points(self) -> tuple:
        return (self.base_point,) + tuple(s.new_point for s in self.steps)


@dataclass(frozen=True)
class ProductTrace:
    """A construction over a ProductRing, one factor at a time."""

    points: tuple  # the product points, in input order
    factor_traces: tuple  # per factor: the trace over the distinct components
    values: tuple  # the result's values at points, in order


def _minors(ring: Ring, pc: tuple, q: tuple, pairs: list) -> tuple:
    """The 2x2 minors pc[i]*q[j] - pc[j]*q[i] over the index pairs."""
    return tuple(
        ring.sub(ring.mul(pc[i], q[j]), ring.mul(pc[j], q[i])) for i, j in pairs
    )


def _is_tuple_of(x, length: int) -> bool:
    return isinstance(x, tuple) and len(x) == length


def _step(ring: Ring, poly, covered, values, new_point, combination, witness) -> tuple:
    """The one extension step: from P and its unit values at the covered
    points, R = P^N + lam * prod(B_t) * W^e, unit-valued at covered +
    (new_point,). Returns the step's record, R, and R's predicted values at
    covered + (new_point,), new_point's last.

    The step's two choices are callables, each called once its input is
    known: combination(ring, P(q), minors) returns the combiners u of the
    B_t; witness(a, P(q)) returns a witness for (a, P(q)), a = prod B_t(q)
    = prod sum u_ij*m_ij, read off the minors. The constructor passes its
    own choices, replay the recorded ones, and the record holds just those
    choices: the minors, the forms B_t and W (built only for R, whose tail
    starts at the constant lam), the filler exponent e and R are rebuilt
    from them here, each time. P(q) is the only value read from a
    polynomial. A failed check raises GoodRingsError.

    R is not evaluated: B_t(p_t) = sum u_ij*(p_i*p_j - p_j*p_i) = 0 gives
    R(p_t) = P(p_t)^N, and W(q) = 1, the certificate sum that _check_points
    verified, gives R(q) = eps, units as the witness verified eps^-1.
    _build checks the final polynomial's values.
    """
    n = poly.n_vars
    k = len(covered)
    q = new_point.coordinates
    pq = poly.eval(q)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    minors = [_minors(ring, p.coordinates, q, pairs) for p in covered]
    combiners = combination(ring, pq, minors)
    ensure(
        _is_tuple_of(combiners, k) and all(_is_tuple_of(us, len(pairs)) for us in combiners),
        "one combiner per minor for each covered point",
    )
    a = ring.one()
    for ms, us in zip(minors, combiners):
        a = ring.mul(a, functools.reduce(ring.add, map(ring.mul, us, ms), ring.zero()))
    w = witness(a, pq)
    e = w.N * poly.degree - k
    ensure(e >= 0, "witness power too small for the filler")
    tail = HomogeneousPolynomial.constant(ring, n, w.lam)
    for pt, us in zip(covered, combiners):
        pc = pt.coordinates
        lin = [ring.zero()] * n
        for (i, j), u in zip(pairs, us):
            lin[j] = ring.add(lin[j], ring.mul(u, pc[i]))
            lin[i] = ring.sub(lin[i], ring.mul(u, pc[j]))
        tail = tail.mul(HomogeneousPolynomial.linear(ring, lin))
    w_form = HomogeneousPolynomial.linear(ring, new_point.certificate.coefficients)
    head = poly.pow(w.N)
    tail = tail.mul(w_form.pow(e))
    predicted = tuple(ring.pow(v, w.N) for v in values) + (w.epsilon,)
    return ExtensionStep(new_point, combiners, w), head.add(tail), predicted


def _combination(ring: Ring, pq, minors: list) -> tuple:
    """The constructor's combiners u of B_t, per covered point, chosen so
    that P(q) and B_t(q) generate A."""
    if ring.unit_inverse(pq) is not None:
        # q is projectively on top of the covered set as far as P can see;
        # P(q) alone generates A, so every B_t is the zero form
        return tuple(tuple(ring.zero() for _ in m) for m in minors)
    if isinstance(ring, Integers):
        # steer every target to the minor gcd g_t itself: the witness then
        # runs modulo prod(g_t), which keeps both the scan and the final
        # degree small, unlike targets of the shape 1 - P(q)^n whose
        # pairwise common factors blow the reachable exponent up. g_t > 0,
        # as P(q) is no unit, so q != -p_t, and q != p_t. L(p_t) = 1 for the
        # certificate form L of p_t gives q = L(q)*p_t mod g_t, and a prime
        # dividing g_t and L(q) would divide q, so P(q) = L(q)^d*P(p_t) is
        # prime to g_t: P(q) and B_t(q) = g_t generate Z.
        return tuple(tuple(_chain(_int_xgcd, ring.mul, 0, m)[1]) for m in minors)
    certificates = [ring.bezout((pq,) + m) for m in minors]
    # never fires: were P(q) and the minors of (p_t, q) in a maximal ideal
    # M, then q = lam*p_t mod M for a unit lam, as both points are
    # primitive, and P(q) = lam^d * P(p_t) mod M would be a unit
    ensure(
        None not in certificates,
        "could not certify 1 in (P(q), minors); the covered-point "
        "precondition does not hold",
    )
    return tuple(tuple(coeffs[1:]) for coeffs in certificates)


def _least_witness(ring: Ring, k: int, degree: int, bound: int):
    """The constructor's witness choice for a step over k covered points
    from a polynomial of the given degree: the least witness for (a, P(q)),
    at the N = m that the bounded scan finds, unless m*degree < k. The good
    exponents of (a, P(q)) form mZ, and the previous filler left degree >=
    k - 1, so then m = 1, degree = k - 1 >= 1, and N = 2 fills: P(q)^2 is
    in the class of a unit's square, whose lift needs no second scan."""

    def choose(a, pq) -> GoodPointWitness:
        outcome = find_good_witness(ring, a, pq, bound=bound)
        if isinstance(outcome, Exhausted):
            raise WitnessSearchExhausted(outcome.bound)
        if outcome.witness.N * degree >= k:
            return outcome.witness
        eps = ring.unit_residue_witness(a, ring.reduce_mod(a, ring.pow(pq, 2)))
        return _witness_at(ring, a, pq, 2, eps).witness

    return choose


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _check_points(ring: Ring, pts) -> None:
    """The one input check of construct and replay, raising
    PreconditionError: at least one point, each a PrimitivePoint, of one
    dimension n >= 2; over a ProductRing, one component per factor in every
    coordinate and certificate entry; certificates that verify; no point
    repeated."""
    _require(len(pts) > 0, "at least one point is required")
    _require(all(isinstance(p, PrimitivePoint) for p in pts), "points must be PrimitivePoints")
    n = len(pts[0].coordinates)
    _require(n >= 2, "points need at least two coordinates")
    _require(all(_is_tuple_of(p.coordinates, n) for p in pts), "points must share one dimension")
    if isinstance(ring, ProductRing):
        r = len(ring.factors)
        entries = [x for p in pts for x in p.coordinates + p.certificate.coefficients]
        _require(all(_is_tuple_of(x, r) for x in entries), f"every entry needs {r} components")
    seen = set()
    for p in pts:
        # a foreign certificate fails inside verify_certificate
        ok = verify_certificate(ring, p.coordinates, p.certificate)
        _require(ok, "primitivity certificate does not verify")
        if p.coordinates in seen:
            shown = ", ".join(ring.format_element(c) for c in p.coordinates)
            raise PreconditionError(f"duplicate point ({shown})")
        seen.add(p.coordinates)


def _build(ring: Ring, pts: tuple, choose) -> tuple:
    """The one step loop of construct and replay off a product ring: the
    polynomial unit-valued at pts, which passed _check_points, and its
    trace. It starts from the linear form of pts[0]'s certificate, of value
    1 there, and runs _step at each later point with the choices of
    choose(k, degree) for the k-th extension. The final polynomial must
    take the values the steps predicted, their claims R(p) = P(p)^N and
    R(q) = eps composed."""
    poly = HomogeneousPolynomial.linear(ring, pts[0].certificate.coefficients)
    values = (ring.one(),)  # the certificate sum, which _check_points verified
    steps = []
    for k, q in enumerate(pts[1:], 1):
        combination, witness = choose(k, poly.degree)
        step, poly, values = _step(ring, poly, pts[:k], values, q, combination, witness)
        steps.append(step)
    ok = all(poly.eval(p.coordinates) == v for p, v in zip(pts, values))
    ensure(ok, "the result does not take the predicted unit values at the points")
    return poly, ConstructionTrace(pts[0], tuple(steps), values)


def _recombine(ring: ProductRing, pts: tuple, parts) -> tuple:
    """Property (**) of the source paper for a finite product, for construct
    and replay alike. parts yields per factor A_i a P_i unit-valued at the
    distinct i-th components of pts, primitive as a certificate splits by
    component, and its trace. With d_i = deg P_i and L = lcm(d_i), the
    polynomial with coefficients (P_1^(L/d_1), ..., P_r^(L/d_r)) is
    homogeneous of degree L and unit-valued at every product point, which
    is checked. The powers go through pow, so through mul."""
    polys, traces = zip(*parts)
    degree = lcm(*(p.degree for p in polys))
    powers = [p.pow(degree // p.degree) for p in polys]
    zeros = [f.zero() for f in ring.factors]
    keys = set().union(*(p.terms for p in powers))
    terms = {e: tuple(p.terms.get(e, z) for p, z in zip(powers, zeros)) for e in keys}
    n = len(pts[0].coordinates)
    result = HomogeneousPolynomial._from_trusted(ring, n, degree, terms)
    values = tuple(result.eval(p.coordinates) for p in pts)
    ensure(all(ring.is_unit(v) for v in values), "the result is not unit-valued")
    return result, ProductTrace(pts, traces, values)


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


def construct_unit_valued(
    ring: Ring, points: Sequence[PrimitivePoint], witness_bound: int = _DEFAULT_BOUND
) -> tuple:
    """Build a homogeneous polynomial taking unit values at all the given
    primitive points, plus the trace of the construction's choices: a
    ProductTrace over a ProductRing, else a ConstructionTrace.

    Points that fail _check_points raise PreconditionError. Over a
    ProductRing, _recombine joins this function's results on each factor's
    components; over any other ring, _build runs on the constructor's own
    choices, _combination and _least_witness at each step. A negative
    witness_bound raises ValueError even where no witness search runs.
    """
    if witness_bound < 0:
        raise ValueError(f"the witness bound must be at least 0, not {witness_bound}")
    pts = tuple(points)
    try:
        _check_points(ring, pts)
    except (TypeError, AttributeError) as err:  # e.g. a foreign certificate
        raise PreconditionError(f"malformed point ({err})") from err
    if isinstance(ring, ProductRing):
        parts = (
            construct_unit_valued(f, _component_points(pts, i), witness_bound)
            for i, f in enumerate(ring.factors)
        )
        return _recombine(ring, pts, parts)
    return _build(
        ring, pts, lambda k, d: (_combination, _least_witness(ring, k, d, witness_bound))
    )


def _replay(ring: Ring, trace) -> HomogeneousPolynomial:
    """replay_trace's work, whose first mismatch raises GoodRingsError with
    the bare message; a factor trace replays through it too."""
    product = isinstance(trace, ProductTrace)
    ensure(product or isinstance(trace, ConstructionTrace), "not a construction trace")
    ensure(
        product == isinstance(ring, ProductRing),
        "a product ring takes a ProductTrace, and no other ring does",
    )
    if product:
        ensure(
            isinstance(trace.points, tuple)
            and _is_tuple_of(trace.factor_traces, len(ring.factors)),
            "a product trace needs a tuple of points and one trace per factor",
        )
    else:
        ensure(
            isinstance(trace.steps, tuple)
            and all(isinstance(s, ExtensionStep) for s in trace.steps),
            "the steps are not a tuple of ExtensionSteps",
        )
    pts = trace.points
    _check_points(ring, pts)

    def factor(i: int, f: Ring) -> tuple:
        factor_trace = trace.factor_traces[i]
        poly = _replay(f, factor_trace)  # first: it rejects unreadable points
        covers = factor_trace.points == _component_points(pts, i)
        ensure(covers, "a factor trace does not cover the components")
        return poly, factor_trace

    def recorded(k: int, _) -> tuple:
        # the recorded combiners, and the recorded witness once it verifies
        step = trace.steps[k - 1]

        def witness(a, pq) -> GoodPointWitness:
            w = step.witness
            ok = isinstance(w, GoodPointWitness) and verify_witness(ring, a, pq, w)
            ensure(ok, "step witness does not verify")
            return w

        return (lambda *_: step.combiners), witness

    if product:
        poly, rebuilt = _recombine(ring, pts, map(factor, range(len(ring.factors)), ring.factors))
    else:
        poly, rebuilt = _build(ring, pts, recorded)
    ensure(trace.values == rebuilt.values, "the recorded values are not the result's")
    return poly


def replay_trace(ring: Ring, trace) -> HomogeneousPolynomial:
    """Recompute every identity in a construction trace from its recorded
    choices, and return the final polynomial.

    Nothing is trusted: _replay runs the constructor's own point check and
    routines, _check_points and _build or _recombine, on the trace's points
    and recorded choices, and requires the recorded values to equal its
    own; a product's factor traces must cover the distinct components of
    the points. This is the one place that words a failure: the first
    mismatch at any depth raises GoodRingsError "trace replay failed: ...",
    and a foreign element inside a record fails as a malformed record.
    """
    try:
        return _replay(ring, trace)
    except GoodRingsError as err:
        raise GoodRingsError(f"trace replay failed: {err}") from err
    except (TypeError, AttributeError) as err:
        raise GoodRingsError(f"trace replay failed: malformed record ({err})") from err
