"""Witness search, verification, decisions, refutations, unit quotients."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from goodrings import cli
from goodrings import polyuniv as pu
from goodrings import witness
from goodrings.core import (
    GoodRingsError,
    LimitExceededError,
    NotPrimitiveError,
    PreconditionError,
    Ring,
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


# (ring, a, b, the NotPrimitiveError text), the texts as up-front Bezout
# tests gave them before the search checked primitivity only on need
_NON_PRIMITIVE = [
    ("Z", "6", "4", "(6, 4) does not generate the unit ideal in Z"),
    ("Z", "0", "2", "(0, 2) does not generate the unit ideal in Z"),
    ("Z/12", "4", "2", "(4, 2) does not generate the unit ideal in Z/12"),
    ("Z/12", "0", "3", "(0, 3) does not generate the unit ideal in Z/12"),
    ("GF(3)[T]", "T^2+T", "T", "(T^2+T, T) does not generate the unit ideal in GF(3)[T]"),
    ("GF(3)[T]", "T^2+2", "T^3+2*T", "(T^2+2, T^3+2*T) does not generate the unit ideal in GF(3)[T]"),
    ("Q[T]", "T^2-1", "2*T+2", "(T^2-1, 2*T+2) does not generate the unit ideal in Q[T]"),
    ("Q[T]", "0", "3/2*T^2+T", "(0, 3/2*T^2+T) does not generate the unit ideal in Q[T]"),
    ("Q[T]", "1/2*T^3-T", "T^2-2", "(1/2*T^3-T, T^2-2) does not generate the unit ideal in Q[T]"),
    ("locQ(2)", "T-2", "T^2-4", "((T-2)/(1), (T^2-4)/(1)) does not generate the unit ideal in locQ(2)"),
    (
        "locQ(3)", "T^2-9*T", "(T)/(T+1)",
        "((T^2-9*T)/(1), (T)/(T+1)) does not generate the unit ideal in locQ(3)",
    ),
    ("locQ(2)", "0", "T-4", "((0)/(1), (T-4)/(1)) does not generate the unit ideal in locQ(2)"),
    (
        "prod(Z,GF(5)[T])", "(2,T)", "(4,1)",
        "((2,T), (4,1)) does not generate the unit ideal in prod(Z,GF(5)[T])",
    ),
    (
        "prod(Z/6,Q[T])", "(1,T^2-T)", "(5,T-1)",
        "((1,T^2-T), (5,T-1)) does not generate the unit ideal in prod(Z/6,Q[T])",
    ),
    (
        "prod(prod(Z,Z/4),locQ(5))", "((1,2),T-5)", "((3,2),T^2-25)",
        "(((1,2),(T-5)/(1)), ((3,2),(T^2-25)/(1))) does not generate the unit "
        "ideal in prod(prod(Z,Z/4),locQ(5))",
    ),
]


@pytest.mark.parametrize("bound", [0, 1, None], ids=["bound-0", "bound-1", "default"])
@pytest.mark.parametrize("spec, a, b, message", _NON_PRIMITIVE)
def test_find_good_witness_refuses_a_non_primitive_pair_at_every_bound(spec, a, b, message, bound):
    # the scan looks at N = 1 first; a class with a unit is primitive, so
    # none turns up, and the Bezout test then names the pair
    ring = parse_ring(spec)
    x, y = ring.parse_element(a), ring.parse_element(b)
    kwargs = {} if bound is None else {"bound": bound}
    with pytest.raises(NotPrimitiveError) as info:
        find_good_witness(ring, x, y, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, a, b, N",
    [
        ("Z", "5", "4", 1),
        ("Z", "5", "2", 2),
        ("Z/12", "4", "7", 1),
        ("GF(3)[T]", "T^2+1", "T^2+2", 1),
        ("GF(3)[T]", "T^2+1", "T", 2),
        ("Q[T]", "T^2-1", "T^2+2", 1),
        ("Q[T]", "T^2-T", "2*T-1", 2),
        ("locQ(2)", "T-2", "T+1", 1),
        ("prod(Z,Q[T])", "(5,T^2)", "(4,T^2+3)", 1),
        ("prod(Z,Q[T])", "(5,T^2)", "(2,T^2+3)", 2),
    ],
)
def test_a_witness_at_n_1_is_its_own_primitivity_proof(spec, a, b, N, monkeypatch):
    # b + lam*a = eps a unit shows aA + bA = A, so primitivity is asked only
    # when N = 1 finds no unit, and then as a yes or no: a ring with its own
    # generates_unit_ideal builds no Bezout certificate at all
    ring = parse_ring(spec)
    asks, certs = [], []
    ask, bezout = ring.generates_unit_ideal, ring.bezout
    monkeypatch.setattr(ring, "generates_unit_ideal", lambda xs: asks.append(xs) or ask(xs))
    monkeypatch.setattr(ring, "bezout", lambda xs: certs.append(xs) or bezout(xs))
    x, y = ring.parse_element(a), ring.parse_element(b)
    out = find_good_witness(ring, x, y)
    assert out.witness.N == N
    assert len(asks) == (N > 1)
    overrides = type(ring).generates_unit_ideal is not Ring.generates_unit_ideal
    assert len(certs) == (0 if overrides else len(asks))


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
    # (T-1)^2 (T+2) splits but is not squarefree
    with pytest.raises(PreconditionError):
        decide_good_point_rational_split(
            QT, QT.parse_element("T^3-3*T+2"), QT.parse_element("T")
        )
    # (T-1)(T^2+1) is squarefree but does not split
    with pytest.raises(PreconditionError):
        decide_good_point_rational_split(
            QT, QT.parse_element("T^3-T^2+T-1"), QT.parse_element("T")
        )
    # a non-monic split squarefree a is accepted: 2(T-1)(T+1)
    a, b = QT.parse_element("2*T^2-2"), QT.parse_element("T")
    outcome = decide_good_point_rational_split(QT, a, b)
    assert isinstance(outcome, Witness)
    w = outcome.witness
    assert (w.N, w.lam, w.epsilon) == (2, (Fraction(-1, 2),), (Fraction(1),))
    assert verify_witness(QT, a, b, w)


def test_decide_qt_refuses_a_non_primitive_pair_with_split_a():
    # b vanishes at the root 0 of the split squarefree a: the Bezout test
    # runs and names the pair
    with pytest.raises(NotPrimitiveError):
        decide_good_point_rational_split(QT, QT.parse_element("T^2-T"), QT.parse_element("T"))


def test_decide_qt_checks_the_split_before_primitivity():
    # (T-1)(T^2+1) does not split; that precondition is checked first, so
    # the common factor T-1 is never looked for
    with pytest.raises(PreconditionError, match="squarefree with all roots rational"):
        decide_good_point_rational_split(
            QT, QT.parse_element("T^3-T^2+T-1"), QT.parse_element("T-1")
        )


def test_decide_qt_wrong_ring():
    with pytest.raises(UnsupportedRingError):
        decide_good_point_rational_split(Z, 5, 2)


# ---------------------------------------------------------------------------
# integer-coefficient refutation


def test_refute_integer_poly_wrong_ring():
    with pytest.raises(UnsupportedRingError):
        refute_integer_poly_point(Z, 2, 3)


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


@pytest.mark.parametrize(
    "decide, a, b",
    [
        (refute_integer_poly_point, "T^2-1", "T-1"),
        (refute_integer_poly_point, "0", "T^2+T"),
        (refute_integer_poly_point, "T^3-2*T", "3*T^2-6"),
        (decide_good_point_rational_split, "T^2-T", "T"),
        (decide_good_point_rational_split, "T^3-4*T", "T^2+T-6"),
    ],
)
def test_q_t_deciders_refuse_a_common_factor_without_a_bezout_chain(decide, a, b, monkeypatch):
    # refute-zt tests coprimality by the integer gcd, and decide-qt reads it
    # off a zero root value; both raise the text require_primitive gives
    x, y = QT.parse_element(a), QT.parse_element(b)

    def no_chain(*args):
        raise AssertionError("a Bezout chain ran")

    monkeypatch.setattr(pu, "xgcd", no_chain)
    with pytest.raises(NotPrimitiveError) as info:
        decide(QT, x, y)
    assert str(info.value) == f"({a}, {QT.format_element(y)}) does not generate the unit ideal in Q[T]"


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
    assert ring.unit_quotient(x) == (1, 1)
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
    the unit residues by search among the reductions of window, which must
    reach every residue, and the image as the reductions of the units of A.
    A finite ring's element is a unit or a zero divisor, so the search for
    each residue stops at its inverse or at a nonzero annihilator."""
    one, zero = ring.reduce_mod(a, ring.one()), ring.reduce_mod(a, ring.zero())
    residues = {ring.reduce_mod(a, x) for x in window}

    def is_unit(r):
        for s in residues:
            rs = ring.reduce_mod(a, ring.mul(r, s))
            if rs == one or (rs == zero and s != zero):
                return rs == one
        raise AssertionError("a residue is neither a unit nor a zero divisor")

    unit_residues = [r for r in residues if is_unit(r)]
    image = {ring.reduce_mod(a, u) for u in units}
    assert image <= set(unit_residues)
    return len(unit_residues) // len(image), len(unit_residues)


def _polys(ring, max_deg):
    """The polynomials of GF(p)[T] of degree at most max_deg, 0 included."""
    p = ring.field.characteristic
    return [pu.trim(ring.field, cs) for cs in itertools.product(range(p), repeat=max_deg + 1)]


def _unit_quotient_cases():
    """(ring, moduli, window) for Z with 1 <= |a| <= 60; Z/n with
    2 <= n <= 40, prod(Z/4,GF(5)) and prod(GF(2)[T],Z/3), each for every
    finite quotient; and GF(p)[T] for every a of degree 1 to 6 (p = 2), 3
    (p = 3) or 2 (p = 5)."""
    window = range(-60, 61)
    yield Integers(), [a for a in window if a], window
    for n in range(2, 41):
        yield IntegersMod(n), range(n), range(n)
    ring = parse_ring("prod(Z/4,GF(5))")
    yield ring, list(ring.elements()), list(ring.elements())
    for p, max_deg in ((2, 6), (3, 3), (5, 2)):
        # the polynomials of degree below max_deg reach every residue mod
        # such an a; GF(p)[T] is a domain, so its units are the nonzero
        # constants, which the window holds with their inverses
        ring = parse_ring(f"GF({p})[T]")
        moduli = [a for a in _polys(ring, max_deg) if len(a) >= 2]
        yield ring, moduli, _polys(ring, max_deg - 1)
    ring = parse_ring("prod(GF(2)[T],Z/3)")
    window = list(itertools.product(_polys(ring.factors[0], 2), range(3)))
    yield ring, [a for a in window if a[0]], window


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


_FACTORWISE_SPECS = [
    "prod(Z/1,Z/4)",
    "prod(Z/4)",
    "prod(prod(Z/2,Z/3),GF(5))",
    "prod(GF(2),GF(2),GF(2),Z/4)",
    "prod(Z/12,prod(Z/1,GF(7)))",
    "prod(Z/8,Z/9)",
    "Z/60",
    "Z/72",
    "Z/81",
    "Z/125",
    "Z/128",
]


@pytest.mark.parametrize("spec", _FACTORWISE_SPECS)
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


def test_check_good_asks_bezout_once_per_class_without_a_unit(monkeypatch):
    # no witness search runs, and bezout runs only to show that a class
    # holding no unit is not primitive: on a factor Z/m, the class c of b
    # mod g = gcd(a, m) holds no unit exactly when gcd(c, g) != 1
    def no_search(*args, **kwargs):
        raise AssertionError("check-good ran a witness search")

    calls, bezout = [], IntegersMod.bezout

    def counting(ring, xs):
        a, b = xs
        calls.append((id(ring), a, b % gcd(a, ring.n)))
        return bezout(ring, xs)

    monkeypatch.setattr(witness, "find_good_witness", no_search)
    monkeypatch.setattr(IntegersMod, "bezout", counting)
    for spec in [f"Z/{n}" for n in range(1, 65)] + _FACTORWISE_SPECS:
        ring = parse_ring(spec)
        expected = 0
        for factor in witness._factors(ring):
            m = factor.n
            for a in range(m):
                g = gcd(a, m)
                expected += sum(1 for c in range(g) if gcd(c, g) != 1)
        calls.clear()
        assert check_good_ring_exhaustive(ring).max_N_seen == 1
        assert len(calls) == len(set(calls)) == expected, spec


def test_prove_pairs_per_class_matches_find_good_witness_per_pair(monkeypatch):
    # the reference searches every pair; the per-class proof must hand its
    # check the identity b + lam*a = eps, N = 1, with the same eps for each
    # primitive pair, and no other pair, and on a finite ring every such N is 1
    checked, class_lams = {}, witness._class_lams

    def recording(ring, a):
        for eps, members, lams in class_lams(ring, a):
            for b, lam in zip(members, lams, strict=True):
                assert (a, b) not in checked
                checked[a, b] = 1, eps
                w = GoodPointWitness(1, lam, eps, ring.unit_inverse(eps))
                assert verify_witness(ring, a, b, w)
            yield eps, members, lams

    rings = [IntegersMod(n) for n in range(1, 121)]
    rings += [PrimeField(p) for p in range(2, 62) if all(p % q for q in range(2, p))]
    for ring in rings:
        elts = list(ring.elements())
        expected = {}
        for a in elts:
            for b in elts:
                try:
                    w = find_good_witness(ring, a, b, bound=len(elts)).witness
                except NotPrimitiveError:
                    continue
                expected[a, b] = w.N, w.epsilon
        checked.clear()
        with monkeypatch.context() as m:
            m.setattr(witness, "_class_lams", recording)
            witness._prove_pairs(ring)
        assert checked == expected, ring
        assert {n for n, _ in expected.values()} == {1}, ring


@pytest.mark.parametrize(
    "spec, primitive_pairs",
    # p^2 - 1 for GF(p), p^(2k) - p^(2k-2) for Z/p^k
    [("GF(31)", 960), ("Z/27", 648), ("Z/32", 768)],
)
def test_check_good_verifies_one_witness_per_primitive_pair(spec, primitive_pairs, monkeypatch):
    calls, class_lams = [], witness._class_lams

    def counting(ring, a):
        for eps, members, lams in class_lams(ring, a):
            calls.extend((a, b) for b, _ in zip(members, lams, strict=True))
            yield eps, members, lams

    monkeypatch.setattr(witness, "_class_lams", counting)
    check_good_ring_exhaustive(parse_ring(spec))
    assert len(calls) == len(set(calls)) == primitive_pairs


_IN_PLACE_SPECS = ["Z/12", "GF(7)", "prod(Z/4,GF(5))"]


@pytest.mark.parametrize("spec", _IN_PLACE_SPECS)
def test_check_good_refuses_a_wrong_lam(spec, monkeypatch):
    # each primitive pair with a != 0 in turn gets its lam off by one, which
    # breaks b + lam*a = eps for that pair only: so every pair's identity,
    # not one per class, is checked (at a = 0 every lam gives b + lam*a = b,
    # and the class check eps = r there is the whole identity)
    class_lams, handed, wrong_at = witness._class_lams, [], [None]

    def off_by_one_at(ring, a):
        for eps, members, lams in class_lams(ring, a):
            lams = list(lams)
            for i, b in enumerate(members):
                if a != 0:
                    if len(handed) == wrong_at[0]:
                        lams[i] = (lams[i] + 1) % ring.n
                    handed.append((ring, a, b))
            yield eps, members, lams

    monkeypatch.setattr(witness, "_class_lams", off_by_one_at)
    check_good_ring_exhaustive(parse_ring(spec))
    pairs = len(handed)
    for k in range(pairs):
        handed.clear()
        wrong_at[0] = k
        with pytest.raises(GoodRingsError, match="does not give b \\+ lam\\*a = eps"):
            check_good_ring_exhaustive(parse_ring(spec))
        assert len(handed) > k
    assert pairs > 0


def test_check_good_refuses_a_class_unit_from_another_class(monkeypatch):
    # at a = 0 of the first factor Z/m with m > 2, the class of 1 gets the
    # unit -1, which lies in another class as g = gcd(0, m) = m, so g does
    # not divide eps - b for its member b = 1
    unit_residue_witness, wrong = IntegersMod.unit_residue_witness, []

    def from_another_class(ring, a, r):
        if a != 0 or r != 1 or ring.n <= 2 or wrong:
            return unit_residue_witness(ring, a, r)
        wrong.append(ring)
        return ring.n - 1

    monkeypatch.setattr(IntegersMod, "unit_residue_witness", from_another_class)
    specs = [f"Z/{m}" for m in range(3, 65)]
    specs += [f"GF({p})" for p in range(3, 62) if all(p % q for q in range(2, p))]
    for spec in specs:
        wrong.clear()
        with pytest.raises(GoodRingsError, match="does not give b \\+ lam\\*a = eps"):
            check_good_ring_exhaustive(parse_ring(spec))
        assert len(wrong) == 1, spec


@pytest.mark.parametrize("spec", _IN_PLACE_SPECS)
def test_check_good_refuses_a_class_unit_that_is_not_a_unit(spec, monkeypatch):
    # the residue r lies in its own class, so b + lam*a = r holds for every
    # member b: only the class's inverse check can see that r = 0 is no unit
    monkeypatch.setattr(IntegersMod, "unit_residue_witness", lambda ring, a, r: r)
    with pytest.raises(GoodRingsError, match="the class unit has no inverse"):
        check_good_ring_exhaustive(parse_ring(spec))


def test_check_good_limits_the_sum_of_factor_pairs(monkeypatch):
    # Z/6 is checked as Z/2 and Z/3, in 2^2 + 3^2 = 13 pairs, not 36
    monkeypatch.setattr(witness, "_PAIR_LIMIT", 13)
    assert check_good_ring_exhaustive(IntegersMod(6)).pairs_checked == 36
    monkeypatch.setattr(witness, "_PAIR_LIMIT", 12)
    with pytest.raises(LimitExceededError, match="takes 13 factor pairs, above the limit 12"):
        check_good_ring_exhaustive(IntegersMod(6))


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


def test_check_good_refuses_a_finite_factor_that_is_not_a_z_mod_n():
    # the proof runs on the ints of Z/m, so another ring that lists its
    # elements is refused by name, alone or as a product's factor
    class TwoPoints(Integers):
        def elements(self):
            return iter((0, 1))

        def spec_string(self):
            return "TwoPoints"

    for ring in [TwoPoints(), ProductRing([IntegersMod(4), TwoPoints()])]:
        with pytest.raises(UnsupportedRingError, match="pairs of Z/n, not of TwoPoints"):
            check_good_ring_exhaustive(ring)


def test_locq_witness_search():
    loc = LocalizedRationalPoly(2)
    a = loc.parse_element("T")
    b = loc.parse_element("T-1")
    out = find_good_witness(loc, a, b)
    assert isinstance(out, Witness)
    assert verify_witness(loc, a, b, out.witness)


_UNIT_B = [
    ("Z", "-1"),
    ("Z/6", "5"),
    ("GF(5)[T]", "2"),
    ("Q[T]", "3/2"),
    ("locQ(2)", "(T-3)/(T+1)"),
    ("prod(Z,Z/5)", "(-1,2)"),
]


@pytest.mark.parametrize("spec, b", _UNIT_B)
def test_the_bound_applies_at_a_zero(spec, b):
    ring = parse_ring(spec)
    b = ring.parse_element(b)
    assert find_good_witness(ring, ring.zero(), b, bound=0) == Exhausted(0)
    outcome = find_good_witness(ring, ring.zero(), b, bound=1)
    assert isinstance(outcome, Witness)
    w = outcome.witness
    assert (w.N, w.epsilon, w.lam) == (1, b, ring.zero())
