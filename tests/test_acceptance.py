"""End-to-end acceptance checks.

Each test prints one `[acceptance N] PASS/FAIL` line (run pytest with -s to
see them) and fails loudly when the underlying claim does not hold.
"""

import math
import random
import time
from fractions import Fraction

from goodrings.core import require_primitive
from goodrings.homog import (
    construct_unit_valued,
    ideal_slice_dimension,
    replay_trace,
    section_ideal_generators,
)
from goodrings.oracle import (
    oracle_kernel_span,
    oracle_min_witness_Z,
    oracle_unit_set,
)
from goodrings.rings import (
    Integers,
    IntegersMod,
    PrimeField,
    ProductRing,
    RationalPoly,
    parse_ring,
)
from goodrings.sab import (
    SabAlgebra,
    SabElement,
    polynomial_to_witness,
    sab_is_unit,
    sab_mul,
    witness_to_polynomial,
)
from goodrings.witness import (
    GoodPointWitness,
    Refuted,
    Witness,
    check_good_ring_exhaustive,
    decide_good_point_rational_split,
    find_good_witness,
    refute_integer_poly_point,
    unit_quotient_group,
    verify_witness,
)

Z = Integers()
QT = RationalPoly()


def _report(num, ok, detail=""):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"acceptance criterion {num} failed {detail}"


def test_acceptance_01_integer_sweep_matches_oracle():
    start = time.monotonic()
    checked = 0
    for a in range(61):
        for b in range(61):
            if math.gcd(a, b) != 1:
                continue
            outcome = find_good_witness(Z, a, b)
            assert isinstance(outcome, Witness), (a, b)
            w = outcome.witness
            assert verify_witness(Z, a, b, w), (a, b)
            if a == 0:
                assert w.N == 1
            else:
                assert (w.N, w.lam, w.epsilon) == oracle_min_witness_Z(a, b), (a, b)
            checked += 1
    elapsed = time.monotonic() - start
    _report(1, checked > 2000 and elapsed < 5.0, f"{checked} pairs in {elapsed:.2f}s")


def test_acceptance_02_exact_witness_values():
    expected = {(5, 2): (2, -1, -1), (7, 3): (3, -4, -1), (4, 3): (1, -1, -1)}
    ok = True
    for (a, b), triple in expected.items():
        w = find_good_witness(Z, a, b).witness
        ok = ok and (w.N, w.lam, w.epsilon) == triple
    _report(2, ok)


def _sample_instance(rng):
    n = rng.choice([2, 3, 4])
    # two variables force every later point against a single linear minor,
    # so the reachable witness moduli grow too fast past two points there
    k = rng.randint(1, 2) if n == 2 else rng.randint(1, 5)
    points, seen = [], set()
    while len(points) < k:
        coords = tuple(rng.randint(-20, 20) for _ in range(n))
        if coords in seen or math.gcd(*coords) != 1:
            continue
        seen.add(coords)
        points.append(require_primitive(Z, coords))
    return points


def test_acceptance_03_constructor_instances():
    rng = random.Random(20260821)
    start = time.monotonic()
    for _ in range(200):
        points = _sample_instance(rng)
        poly, trace = construct_unit_valued(Z, points)
        assert poly.degree >= 1
        for p in points:
            assert poly.eval(p.coordinates) in (1, -1), p.coordinates
        assert replay_trace(Z, trace) == poly
    elapsed = time.monotonic() - start
    _report(3, elapsed < 30.0, f"200 instances in {elapsed:.2f}s")


def test_acceptance_04_finite_rings_are_good():
    start = time.monotonic()
    ok = True
    for n in range(2, 31):
        report = check_good_ring_exhaustive(IntegersMod(n))
        ok = ok and report.all_good and report.pairs_checked == n * n
    for spec in ("prod(Z/2,Z/3)", "prod(Z/4,GF(5))"):
        report = check_good_ring_exhaustive(parse_ring(spec))
        ok = ok and report.all_good
    elapsed = time.monotonic() - start
    _report(4, ok and elapsed < 20.0, f"{elapsed:.2f}s")


def test_acceptance_05_rational_split_decision():
    a = QT.parse_element("T^2-T")
    refuted = decide_good_point_rational_split(QT, a, QT.parse_element("T-2"))
    ok = isinstance(refuted, Refuted) and refuted.evidence.ratio == Fraction(1, 2)

    witnessed = decide_good_point_rational_split(QT, a, QT.parse_element("T-1/2"))
    ok = ok and isinstance(witnessed, Witness)
    w = witnessed.witness
    ok = ok and w.N == 2
    ok = ok and w.lam == QT.parse_element("-1")
    ok = ok and w.epsilon == QT.parse_element("1/4")
    ok = ok and verify_witness(QT, a, QT.parse_element("T-1/2"), w)
    _report(5, ok)


def test_acceptance_06_integer_poly_refutation():
    ev = refute_integer_poly_point(QT, QT.parse_element("1-2*T"), QT.parse_element("T"))
    ok = (
        ev is not None
        and ev.root == Fraction(1, 2)
        and ev.value == Fraction(1, 2)
        and abs(ev.value) != 1
    )
    _report(6, ok)


def test_acceptance_07_bridge_round_trip():
    rng = random.Random(31415)
    done = 0
    while done < 100:
        a = rng.randint(-100, 100)
        b = rng.randint(-100, 100)
        if math.gcd(a, b) != 1:
            continue
        pt = require_primitive(Z, (a, b))
        w = find_good_witness(Z, a, b).witness
        poly = witness_to_polynomial(Z, a, b, pt.certificate, w)
        assert poly.eval((0, 1)) == 1
        assert poly.eval((a, b)) == w.epsilon
        back = polynomial_to_witness(Z, a, b, poly)
        assert verify_witness(Z, a, b, back)
        assert (back.N, back.lam, back.epsilon) == (w.N, w.lam, w.epsilon)
        assert poly.degree == w.N
        done += 1
    _report(7, done == 100)


def test_acceptance_08_algebra_units_match_oracle():
    start = time.monotonic()
    ok = True
    for n in range(1, 13):
        base = IntegersMod(n)
        for a in range(n):
            alg = SabAlgebra(base, a)
            th = alg.theta()
            ok = ok and sab_mul(alg, th, th) == SabElement(base.zero(), a)
            library_units = {
                z for z in alg.elements() if sab_is_unit(alg, z) is not None
            }
            ok = ok and oracle_unit_set(alg) == library_units
    elapsed = time.monotonic() - start
    _report(8, ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_acceptance_09_unit_quotient_orders():
    ok = True
    for m in range(2, 101):
        phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        signs = len({1 % m, (m - 1) % m})
        for a in (m, -m):
            report = unit_quotient_group(Z, a)
            ok = ok and report.status == "finite" and report.order == phi // signs
    ok = ok and unit_quotient_group(Z, 8).order == 2
    ok = ok and unit_quotient_group(Z, 7).order == 3
    _report(9, ok)


def test_acceptance_10_kernel_slice_dimensions():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        field = PrimeField(p)
        reps = (
            [(1, y, z) for y in range(p) for z in range(p)]
            + [(0, 1, z) for z in range(p)]
            + [(0, 0, 1)]
        )
        for coords in reps:
            gens = section_ideal_generators(field, require_primitive(field, coords))
            gen_tuple = gens.generators
            for degree in (1, 2, 3):
                lib = ideal_slice_dimension(field, gen_tuple, degree)
                ok = ok and lib == oracle_kernel_span(p, coords, degree)
    elapsed = time.monotonic() - start
    _report(10, ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_acceptance_11_stability_laws():
    rng = random.Random(2718)
    ok = True

    # quotient stability: an integer witness survives reduction mod n
    done = 0
    while done < 60:
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if math.gcd(a, b) != 1:
            continue
        w = find_good_witness(Z, a, b).witness
        n = rng.randint(2, 30)
        ring = IntegersMod(n)
        reduced = GoodPointWitness(
            w.N, w.lam % n, w.epsilon % n, ring.unit_inverse(w.epsilon % n)
        )
        ok = ok and verify_witness(ring, a % n, b % n, reduced)
        done += 1

    # product stability: factorwise witnesses combine with exponent N1*N2
    factor_pairs = [((5, 2), (7, 3)), ((4, 3), (5, 2)), ((7, 3), (9, 2))]
    for (a1, b1), (a2, b2) in factor_pairs:
        w1 = find_good_witness(Z, a1, b1).witness
        w2 = find_good_witness(Z, a2, b2).witness
        N = w1.N * w2.N
        lams, epss = [], []
        for (a, w) in ((a1, w1), (a2, w2)):
            m = N // w.N
            eps = w.epsilon**m
            c = Z.divide_exact((w.epsilon - w.lam * a) ** m - eps, a)
            lams.append(Z.neg(c))
            epss.append(eps)
        prod = ProductRing((Z, Z))
        combined = GoodPointWitness(
            N,
            tuple(lams),
            tuple(epss),
            prod.unit_inverse(tuple(epss)),
        )
        ok = ok and verify_witness(prod, (a1, a2), (b1, b2), combined)

    # and the direct product search agrees within the combined exponent
    prod = ProductRing((Z, Z))
    outcome = find_good_witness(prod, (5, 7), (2, 3), bound=100)
    ok = ok and isinstance(outcome, Witness)
    _report(11, ok)
