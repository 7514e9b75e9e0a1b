"""Witness search, verification, decisions, refutations, unit quotients."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from goodrings import cli
from goodrings import polyuniv as pu
from goodrings.core import (
    NotPrimitiveError,
    PreconditionError,
    UnsupportedRingError,
)
from goodrings.rings import (
    Integers,
    IntegersMod,
    LocalizedRationalPoly,
    PrimeField,
    ProductRing,
    RationalPoly,
    parse_ring,
)
from goodrings.witness import (
    Exhausted,
    GoodPointWitness,
    GoodRingReport,
    RatioCriterion,
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


def test_verify_witness_requires_positive_integer_exponent():
    w = GoodPointWitness(0, -1, -1, -1)
    assert not verify_witness(Z, 5, 2, w)
    w = GoodPointWitness(2, -1, -1, -1)
    assert verify_witness(Z, 5, 2, w)


def test_verify_witness_rejects_wrong_inverse():
    w = GoodPointWitness(2, -1, -1, 1)
    assert not verify_witness(Z, 5, 2, w)


def test_find_good_witness_examples():
    out = find_good_witness(Z, 5, 2)
    assert isinstance(out, Witness)
    assert (out.witness.N, out.witness.lam, out.witness.epsilon) == (2, -1, -1)
    out = find_good_witness(Z, 7, 3)
    assert (out.witness.N, out.witness.lam, out.witness.epsilon) == (3, -4, -1)
    out = find_good_witness(Z, 4, 3)
    assert (out.witness.N, out.witness.lam, out.witness.epsilon) == (1, -1, -1)


def test_find_good_witness_zero_first_entry():
    out = find_good_witness(Z, 0, -1)
    assert isinstance(out, Witness)
    assert out.witness.N == 1
    assert out.witness.lam == 0
    assert out.witness.epsilon == -1


def test_find_good_witness_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        find_good_witness(Z, 6, 4)


def test_witness_epsilon_prefers_plus_one():
    # modulo 2 the classes of 1 and -1 coincide; the tie goes to +1
    out = find_good_witness(Z, 2, 3)
    assert isinstance(out, Witness)
    assert out.witness.N == 1
    assert out.witness.epsilon == 1
    assert out.witness.lam == -1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_integers_witnesses_always_verify(a, b):
    from math import gcd

    if gcd(a, b) != 1:
        return
    out = find_good_witness(Z, a, b)
    assert isinstance(out, Witness)
    assert verify_witness(Z, a, b, out.witness)


def test_exhausted_when_bound_too_small():
    out = find_good_witness(Z, 7, 3, bound=2)
    assert out == Exhausted(bound=2)


def test_qt_search_exhausts_instead_of_refuting():
    a = QT.parse_element("T^2-T")
    b = QT.parse_element("T-2")
    out = find_good_witness(QT, a, b, bound=40)
    assert isinstance(out, Exhausted)


# ---------------------------------------------------------------------------
# rational-split decision


def test_decide_qt_refutes_ratio():
    a = QT.parse_element("T^2-T")
    out = decide_good_point_rational_split(QT, a, QT.parse_element("T-2"))
    assert isinstance(out, Refuted)
    assert isinstance(out.evidence, RatioCriterion)
    assert out.evidence.ratio == Fraction(1, 2)
    assert out.evidence.roots == (Fraction(0), Fraction(1))


def test_decide_qt_witness_n2():
    a = QT.parse_element("T^2-T")
    out = decide_good_point_rational_split(QT, a, QT.parse_element("T-1/2"))
    assert isinstance(out, Witness)
    w = out.witness
    assert w.N == 2
    assert w.lam == (Fraction(-1),)
    assert w.epsilon == (Fraction(1, 4),)
    assert verify_witness(QT, a, QT.parse_element("T-1/2"), w)


def test_decide_qt_witness_n1():
    out = decide_good_point_rational_split(
        QT, QT.parse_element("T"), QT.parse_element("T-1")
    )
    assert isinstance(out, Witness)
    assert out.witness.N == 1
    assert out.witness.lam == (Fraction(-1),)


def test_decide_qt_unit_coefficient():
    out = decide_good_point_rational_split(
        QT, QT.parse_element("3"), QT.parse_element("T")
    )
    assert isinstance(out, Witness)
    assert verify_witness(QT, QT.parse_element("3"), QT.parse_element("T"), out.witness)


def test_decide_qt_requires_split_squarefree():
    with pytest.raises(PreconditionError):
        decide_good_point_rational_split(
            QT, QT.parse_element("T^2+1"), QT.parse_element("T")
        )
    with pytest.raises(PreconditionError):
        decide_good_point_rational_split(
            QT, QT.parse_element("T^2"), QT.parse_element("T-1")
        )


def test_decide_qt_wrong_ring():
    with pytest.raises(UnsupportedRingError):
        decide_good_point_rational_split(Z, 5, 2)


# ---------------------------------------------------------------------------
# integer-coefficient refutation


def test_refute_integer_poly_example():
    ev = refute_integer_poly_point(QT, QT.parse_element("1-2*T"), QT.parse_element("T"))
    assert ev is not None
    assert ev.root == Fraction(1, 2)
    assert ev.value == Fraction(1, 2)


def test_refute_integer_poly_inconclusive():
    ev = refute_integer_poly_point(
        QT, QT.parse_element("T-2"), QT.parse_element("T-1")
    )
    assert ev is None


def test_refute_integer_poly_requires_integer_coefficients():
    with pytest.raises(PreconditionError):
        refute_integer_poly_point(
            QT, QT.parse_element("T-1/2"), QT.parse_element("T")
        )


def test_refute_integer_poly_requires_joint_content_one():
    with pytest.raises(PreconditionError):
        refute_integer_poly_point(
            QT, QT.parse_element("2*T"), QT.parse_element("2*T-2")
        )


# ---------------------------------------------------------------------------
# unit quotients and exhaustive goodness


def test_unit_quotient_examples():
    assert unit_quotient_group(Z, 8).order == 2
    assert unit_quotient_group(Z, 7).order == 3
    assert unit_quotient_group(Z, 1).order == 1
    report = unit_quotient_group(Z, 0)
    assert report.order == 1
    assert report.carrier == 2


def test_unit_quotient_carrier_counts_unit_residues():
    report = unit_quotient_group(Z, 8)
    assert report.carrier == 4  # 1, 3, 5, 7


@pytest.mark.parametrize(
    "ring, a",
    [
        (RationalPoly(), "2"),
        (LocalizedRationalPoly(2), "3"),
        (LocalizedRationalPoly(2), "T-5"),
    ],
)
def test_unit_quotient_by_a_unit_is_trivial(ring, a):
    x = ring.parse_element(a)
    assert ring.quotient_size(x) == 1
    assert list(ring.quotient_residues(x)) == [ring.zero()]
    report = unit_quotient_group(ring, x)
    assert (report.status, report.order, report.carrier) == ("finite", 1, 1)


def test_unit_quotient_unknown_over_qt_nonunit():
    report = unit_quotient_group(QT, QT.parse_element("T"))
    assert report.status == "unknown"


def _units(ring, window):
    """The units of A in window, by exhaustive inverse search; window must
    hold each unit's inverse too."""
    return [x for x in window if any(ring.mul(x, y) == ring.one() for y in window)]


def _brute_unit_quotient(ring, a, window, units):
    """(order, carrier) of (A/aA)^x / image(A^x) from ring arithmetic alone:
    the unit residues by exhaustive inverse search among the reductions of
    window, which must reach every residue, and the image as the reductions
    of the units of A."""
    one = ring.reduce_mod(a, ring.one())
    residues = {ring.reduce_mod(a, x) for x in window}
    unit_residues = [
        r for r in residues
        if any(ring.reduce_mod(a, ring.mul(r, s)) == one for s in residues)
    ]
    image = {ring.reduce_mod(a, u) for u in units}
    assert image <= set(unit_residues)
    return len(unit_residues) // len(image), len(unit_residues)


def _unit_quotient_cases():
    """(ring, moduli, window) for Z/n with 2 <= n <= 40 and prod(Z/4,GF(5)),
    each for every a, and GF(2)[T], GF(3)[T] for every a of degree 1 to 3."""
    for n in range(2, 41):
        yield IntegersMod(n), range(n), range(n)
    ring = parse_ring("prod(Z/4,GF(5))")
    yield ring, list(ring.elements()), list(ring.elements())
    for p in (2, 3):
        # the polynomials of degree at most 3 reach every residue mod such
        # an a; GF(p)[T] is a domain, so its units are the nonzero
        # constants, which the window holds with their inverses
        ring = parse_ring(f"GF({p})[T]")
        window = [pu.trim(ring.field, cs) for cs in itertools.product(range(p), repeat=4)]
        yield ring, [a for a in window if len(a) >= 2], window


def test_unit_quotient_group_matches_brute_force():
    mismatches = []
    for ring, moduli, window in _unit_quotient_cases():
        units = _units(ring, window)
        for a in moduli:
            report = unit_quotient_group(ring, a)
            got = (report.status, report.order, report.carrier)
            want = ("finite", *_brute_unit_quotient(ring, a, window, units))
            if got != want:
                mismatches.append((ring.spec_string(), a, got, want))
    assert mismatches == []


def test_unit_quotient_z12_mod_4():
    # (Z/12)/(4) = Z/4: both unit residues 1 and 3 are images of units of Z/12
    ring = IntegersMod(12)
    assert {ring.reduce_mod(4, u) for u in _units(ring, range(12))} == {1, 3}
    report = unit_quotient_group(ring, 4)
    assert (report.order, report.carrier) == (1, 2)


def test_unit_quotient_limit():
    report = unit_quotient_group(Z, 10**6)
    assert report.status == "unknown"


def test_check_good_ring_counts_all_pairs():
    report = check_good_ring_exhaustive(IntegersMod(6))
    assert report.pairs_checked == 36
    assert report.all_good
    assert report.failures == ()


def test_check_good_ring_product():
    ring = ProductRing((IntegersMod(2), PrimeField(3)))
    report = check_good_ring_exhaustive(ring)
    assert report.all_good


def _check_good_pair_by_pair(ring):
    """Reference check: find_good_witness on every pair of the ring itself,
    so a product's own bezout, reduce_mod, unit_residue_witness and
    divide_exact run on every product pair."""
    elts = list(ring.elements())
    max_n, failures = 0, []
    for a in elts:
        for b in elts:
            try:
                outcome = find_good_witness(ring, a, b, bound=len(elts))
            except NotPrimitiveError:
                continue
            if isinstance(outcome, Witness):
                max_n = max(max_n, outcome.witness.N)
            else:
                failures.append((a, b, outcome))
    return GoodRingReport(len(elts) ** 2, not failures, max_n, tuple(failures))


@pytest.mark.parametrize(
    "spec",
    [
        "prod(Z/1,Z/4)",
        "prod(Z/4)",
        "prod(prod(Z/2,Z/3),GF(5))",
        "prod(GF(2),GF(2),GF(2),Z/4)",
        "prod(Z/12,prod(Z/1,GF(7)))",
        "prod(Z/8,Z/9)",
        "Z/60",
        "Z/72",
    ],
)
def test_check_good_product_factorwise_matches_pair_by_pair(spec, monkeypatch):
    ring = parse_ring(spec)
    assert check_good_ring_exhaustive(ring) == _check_good_pair_by_pair(ring)
    argv = ["check-good", "--ring", spec]
    factorwise = cli.run(argv)
    monkeypatch.setattr(cli, "check_good_ring_exhaustive", _check_good_pair_by_pair)
    assert cli.run(argv) == factorwise


def test_check_good_integers_mod_by_prime_powers_matches_pair_by_pair():
    # Z/n is checked through its Z/p^k factors; the reference scans Z/n itself
    for n in range(1, 65):
        ring = IntegersMod(n)
        assert check_good_ring_exhaustive(ring) == _check_good_pair_by_pair(ring), n


def test_product_pair_witness_is_the_tuple_of_factor_witnesses():
    ring = parse_ring("prod(Z/8,Z/9)")
    for a in ring.elements():
        for b in ring.elements():
            try:
                w = find_good_witness(ring, a, b).witness
            except NotPrimitiveError:
                continue
            parts = [find_good_witness(f, x, y).witness for f, x, y in zip(ring.factors, a, b)]
            assert w == GoodPointWitness(
                lcm(*(p.N for p in parts)),
                tuple(p.lam for p in parts),
                tuple(p.epsilon for p in parts),
                tuple(p.epsilon_inverse for p in parts),
            )


def test_check_good_ring_rejects_infinite():
    from goodrings.core import InfiniteRingError

    with pytest.raises(InfiniteRingError):
        check_good_ring_exhaustive(Z)


def test_locq_witness_search():
    loc = LocalizedRationalPoly(2)
    a = loc.parse_element("T")
    b = loc.parse_element("T-1")
    out = find_good_witness(loc, a, b)
    assert isinstance(out, Witness)
    assert verify_witness(loc, a, b, out.witness)
