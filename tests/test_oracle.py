"""Independent cross-check oracles: scans and raw arithmetic only."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from goodrings.core import (
    InfiniteRingError,
    NotPrimitiveError,
    PreconditionError,
    UnsupportedRingError,
)
from goodrings.oracle import (
    compare,
    oracle_kernel_span,
    oracle_min_witness_Z,
    oracle_unit_set,
)
from goodrings.rings import Integers, IntegersMod, PrimeField, ProductRing
from goodrings.sab import SabAlgebra, SabElement
from goodrings.witness import Witness, find_good_witness

Z = Integers()


def test_min_witness_examples():
    assert oracle_min_witness_Z(5, 2) == (2, -1, -1)
    assert oracle_min_witness_Z(7, 3) == (3, -4, -1)
    assert oracle_min_witness_Z(4, 3) == (1, -1, -1)
    assert oracle_min_witness_Z(2, 1) == (1, 0, 1)


def test_min_witness_prefers_plus_one():
    # modulus 2 hits 1 and -1 simultaneously; +1 must win
    n, lam, eps = oracle_min_witness_Z(2, 3)
    assert (n, eps) == (1, 1)
    assert 3**n + lam * 2 == 1


def test_min_witness_rejects_zero_and_non_primitive():
    with pytest.raises(PreconditionError):
        oracle_min_witness_Z(0, 1)
    with pytest.raises(NotPrimitiveError):
        oracle_min_witness_Z(6, 3)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(-45, 45), st.integers(-45, 45))
def test_min_witness_agrees_with_search(a, b):
    if a == 0 or math.gcd(a, b) != 1:
        return
    outcome = find_good_witness(Z, a, b)
    assert isinstance(outcome, Witness)
    w = outcome.witness
    report = compare(f"({a},{b})", oracle_min_witness_Z(a, b), (w.N, w.lam, w.epsilon))
    assert report.agree, report


def test_compare_disagreement_is_visible():
    report = compare("demo", 1, 2)
    assert not report.agree
    assert report.instance == "demo"


def test_unit_set_mod_six():
    assert oracle_unit_set(IntegersMod(6)) == {1, 5}


def test_unit_set_prime_field():
    assert oracle_unit_set(PrimeField(3)) == {1, 2}


def test_unit_set_product():
    ring = ProductRing((IntegersMod(2), IntegersMod(3)))
    assert oracle_unit_set(ring) == {(1, 1), (1, 2)}


def test_unit_set_algebra_matches_library():
    for n in (2, 3, 5):
        base = IntegersMod(n)
        for a in range(n):
            alg = SabAlgebra(base, a)
            expected = {
                z for z in alg.elements() if alg.is_unit(z) is not None
            }
            assert oracle_unit_set(alg) == expected


def test_unit_set_algebra_over_a_product_matches_library():
    # the oracle's product over a product base adds with the product's add
    base = ProductRing((IntegersMod(2), IntegersMod(3)))
    for a in base.elements():
        alg = SabAlgebra(base, a)
        expected = {z for z in alg.elements() if alg.is_unit(z) is not None}
        assert oracle_unit_set(alg) == expected


def test_unit_set_dual_numbers_cardinality():
    alg = SabAlgebra(IntegersMod(5), 0)
    assert len(oracle_unit_set(alg)) == 4 * 5
    assert SabElement(1, 3) in oracle_unit_set(alg)


def test_unit_set_refuses_infinite_carrier():
    with pytest.raises(InfiniteRingError):
        oracle_unit_set(Z)
    with pytest.raises((InfiniteRingError, UnsupportedRingError)):
        oracle_unit_set(SabAlgebra(Z, 2))


def test_kernel_span_axis_point():
    assert oracle_kernel_span(2, (1, 0, 0), 1) == 2


def test_kernel_span_counts_monomials():
    # one evaluation condition in each degree: the slice has codimension 1
    for p in (2, 3, 5):
        for degree in (1, 2, 3):
            total = (degree + 1) * (degree + 2) // 2
            assert oracle_kernel_span(p, (1, 1, 1), degree) == total - 1


def test_kernel_span_reduces_coordinates_mod_p():
    assert oracle_kernel_span(3, (4, 3, 6), 2) == oracle_kernel_span(
        3, (1, 0, 0), 2
    )


def test_kernel_span_rejects_bad_input():
    with pytest.raises(PreconditionError):
        oracle_kernel_span(2, (1, 0), 1)
    with pytest.raises(NotPrimitiveError):
        oracle_kernel_span(2, (2, 4, 6), 1)
    with pytest.raises(ValueError):
        oracle_kernel_span(2, (1, 0, 0), 0)
