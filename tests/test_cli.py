"""Command-line interface: payload shapes, exit codes, both output formats."""

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time

import pytest

import goodrings
from goodrings import cli
from goodrings.cli import main, run

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.jsonl"


def invoke(*argv):
    code, text = run(list(argv))
    return code, json.loads(text)


def test_witness_classic_pair():
    code, out = invoke("witness", "--ring", "Z", "--a", "5", "--b", "2")
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"] == {"N": 2, "lambda": "-1", "epsilon": "-1"}


def test_witness_exhaustion_exit_code():
    code, out = invoke("witness", "--ring", "Z", "--a", "7", "--b", "3", "--bound", "2")
    assert code == 3
    assert out["status"] == "exhausted"
    assert out["payload"]["bound"] == 2


def test_witness_bound_applies_at_a_zero():
    code, out = invoke("witness", "--ring", "Z", "--a", "0", "--b", "1", "--bound", "0")
    assert code == 3
    assert out["status"] == "exhausted"
    assert out["payload"] == {"bound": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "--ring", "Z", "--a", "5", "--b", "2"),
        ("construct", "--ring", "Z", "--points", "(1,0);(0,1)"),
        ("bridge", "--ring", "Z", "--a", "5", "--b", "2", "--to-poly"),
        # no witness search runs: one point, or one distinct component per factor
        ("construct", "--ring", "Z", "--points", "(1,0)"),
        ("construct", "--ring", "prod(Z,Z/5)", "--points", "((1,1),(0,0))"),
    ],
    ids=["witness", "construct", "bridge", "construct-one-point", "construct-product"],
)
def test_a_negative_bound_is_an_error_not_a_search(argv):
    code, out = invoke(*argv, "--bound", "-1")
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == ["the witness bound must be at least 0, not -1"]


def test_bridge_reports_a_pair_that_is_not_primitive_before_a_negative_bound():
    # the order bridge --to-poly has always had; witness reports the bound
    code, out = invoke("bridge", "--ring", "Z", "--a", "2", "--b", "4", "--to-poly", "--bound", "-1")
    assert (code, out["diagnostics"]) == (2, ["(2, 4) does not generate the unit ideal in Z"])


def test_witness_non_primitive_pair_is_an_error():
    code, out = invoke("witness", "--ring", "Z", "--a", "6", "--b", "3")
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"]


def test_witness_unknown_ring_spec():
    code, out = invoke("witness", "--ring", "R", "--a", "1", "--b", "1")
    assert code == 2
    assert out["status"] == "error"


def test_witness_missing_argument_is_usage_error():
    code, out = invoke("witness", "--ring", "Z", "--a", "5")
    assert code == 2
    assert out["status"] == "error"


def test_witness_modular_ring():
    code, out = invoke("witness", "--ring", "Z/12", "--a", "8", "--b", "5")
    assert code == 0
    assert out["status"] == "ok"


def test_construct_three_points():
    code, out = invoke(
        "construct", "--ring", "Z", "--points", "(1,0);(0,1);(1,1)"
    )
    assert code == 0
    assert out["payload"]["polynomial"] == "x1^2-x1*x2+x2^2"
    assert out["payload"]["degree"] == 2
    assert out["payload"]["values"] == ["1", "1", "1"]


@pytest.mark.parametrize(
    "ring_spec, coords",
    [("Z", [(5, 2)]), ("Z/12", [(5, 7)]), ("Z/12", [(1, 0), (0, 1), (1, 1)])],
)
def test_construct_values_are_the_polynomial_values(ring_spec, coords):
    from goodrings.homog import HomogeneousPolynomial
    from goodrings.rings import parse_ring

    points = ";".join(f"({x},{y})" for x, y in coords)
    code, out = invoke("construct", "--ring", ring_spec, "--points", points)
    assert code == 0
    ring = parse_ring(ring_spec)
    poly = HomogeneousPolynomial.parse(ring, 2, out["payload"]["polynomial"])
    assert out["payload"]["values"] == [
        ring.format_element(poly.eval(c)) for c in coords
    ]


def test_construct_emitted_polynomial_reparses():
    from goodrings.homog import HomogeneousPolynomial
    from goodrings.rings import parse_ring

    code, out = invoke(
        "construct", "--ring", "Z", "--points", "(2,3,5);(1,-1,4);(0,7,2)"
    )
    assert code == 0
    ring = parse_ring("Z")
    poly = HomogeneousPolynomial.parse(ring, 3, out["payload"]["polynomial"])
    assert poly.eval((2, 3, 5)) in (1, -1)


def test_construct_exhaustion_exit_code():
    code, out = invoke(
        "construct",
        "--ring",
        "Q[T]",
        "--points",
        "(0,1);(T^2-5*T+4,T-2)",
        "--bound",
        "30",
    )
    assert code == 3
    assert out["status"] == "exhausted"


def test_construct_bound_applies_to_steered_steps():
    # the second step is steered and needs N = 80, past the bound
    code, out = invoke(
        "construct", "--ring", "Z", "--points", "(-8,-9);(-1,8);(5,-6)", "--bound", "10"
    )
    assert code == 3
    assert out["status"] == "exhausted"
    assert out["payload"] == {"bound": 10}


def test_construct_rejects_an_unparenthesized_point():
    code, out = invoke("construct", "--ring", "Z", "--points", "(1,0);0,1")
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == ["point '0,1' is not a parenthesized tuple"]


def test_construct_rejects_non_primitive_point():
    code, out = invoke("construct", "--ring", "Z", "--points", "(1,0);(2,2)")
    assert code == 2
    assert out["status"] == "error"


def test_check_good_finite_ring():
    code, out = invoke("check-good", "--ring", "Z/6")
    assert code == 0
    assert out["payload"]["pairs_checked"] == 36
    assert out["payload"]["all_good"] is True
    assert out["payload"]["failures"] == []


def test_construct_on_a_product_ring_recombines_factor_degrees():
    # the Z components need degree 2 and the Z/5 components are one point,
    # degree 1, so the factor polynomials recombine at degree lcm(2, 1) = 2
    spec = "prod(Z,Z/5)"
    code, out = invoke(
        "construct", "--ring", spec, "--points",
        "((1,1),(0,0));((0,1),(1,0));((1,1),(1,0))",
    )
    assert code == 0
    assert out["payload"]["degree"] == 2
    ring = goodrings.parse_ring(spec)
    values = out["payload"]["values"]
    assert len(values) == 3
    assert all(ring.is_unit(ring.parse_element(v)) for v in values)


def test_check_good_product_ring():
    code, out = invoke("check-good", "--ring", "prod(Z/2,Z/3)")
    assert code == 0
    assert out["payload"]["all_good"] is True


def test_check_good_on_a_product_scans_each_factor():
    # 250,000 product pairs, found good from 4^2 + 5^2 + 25^2 factor pairs
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", "prod(Z/20,Z/25)")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {
        "pairs_checked": 250000, "all_good": True, "max_N_seen": 1, "failures": [],
    }


def test_check_good_on_z_n_scans_its_prime_power_factors():
    # 9,000,000 pairs of Z/3000, found good from 8^2 + 3^2 + 125^2 factor pairs
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", "Z/3000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {
        "pairs_checked": 9000000, "all_good": True, "max_N_seen": 1, "failures": [],
    }


def test_check_good_on_a_prime_field_searches_once_per_class():
    # 160,801 pairs of GF(401), each verified; the search runs once per a
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", "GF(401)")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {
        "pairs_checked": 160801, "all_good": True, "max_N_seen": 1, "failures": [],
    }


def test_check_good_on_the_largest_prime_field_under_the_pair_limit():
    # 994,009 pairs of GF(997), the most a prime field holds under the pair
    # limit, checked on plain ints in about 0.3 s on a 2-core machine
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", "GF(997)")
    assert time.perf_counter() - start < 0.8
    assert code == 0
    assert out["payload"] == {
        "pairs_checked": 994009, "all_good": True, "max_N_seen": 1, "failures": [],
    }


@pytest.mark.parametrize(
    "spec, pairs",
    # 10^9+7 is prime, so its pairs are all of Z/n's; 10007 is prime too
    [("Z/1000000007", 1000000014000000049), ("GF(10007)", 100140049)],
)
def test_check_good_refuses_a_ring_past_the_pair_limit(spec, pairs):
    # the pairs are counted from the factors' sizes before any element is
    # listed, so neither a list of 10^9 elements nor 10^8 checks starts
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", spec)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == [
        f"checking {spec} takes {pairs} factor pairs, above the limit 1000000"
    ]


def test_check_good_refuses_a_modulus_without_small_prime_factors():
    # n = p*q with p and q near 10^12: trial division up to 1000 leaves a
    # composite part, which proves a factor Z/p^k past the pair limit, so n
    # is refused without being factored
    n = 1000000000100000000002379
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", f"Z/{n}")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == [
        f"checking Z/{n} takes more factor pairs than the limit 1000000: "
        f"its factor {n} has no prime factor up to 1000"
    ]


def test_check_good_infinite_ring_is_an_error():
    code, out = invoke("check-good", "--ring", "Z")
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == ["cannot enumerate Z"]


@pytest.mark.parametrize(
    "spec",
    # 1000000000100000000002379 has no prime factor up to 1000, so trial
    # division would refuse its Z/n before the infinite factor is named
    [
        "prod(Z/4,Z)",
        "prod(GF(10007),Z)",
        "prod(Z,Z/1000000000100000000002379)",
        "prod(Z/1000000000100000000002379,Z)",
    ],
)
def test_check_good_product_with_an_infinite_factor_is_an_error(spec):
    # every factor is enumerated before any Z/n is split or pair is scanned
    start = time.perf_counter()
    code, out = invoke("check-good", "--ring", spec)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == ["cannot enumerate Z"]


def test_quotient_units_limit_holds_at_a_zero():
    start = time.perf_counter()
    code, out = invoke("quotient-units", "--ring", "GF(1000000007)", "--a", "0")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {
        "group_status": "unknown",
        "reason": "quotient has 1000000007 residues, above the limit 20000",
    }


def test_quotient_units_at_a_zero_counts_units_by_factoring():
    # phi(1000000007) comes from the factorization, not from a count of residues
    start = time.perf_counter()
    code, out = invoke("quotient-units", "--ring", "prod(Z,Z/1000000007)", "--a", "(0,0)")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {"group_status": "finite", "order": 1, "carrier": 2000000012}


@pytest.mark.parametrize(
    "n",
    # p*q with p and q near 10^12, and (2^61 - 1)^3: unit_quotient would
    # trial-divide n up to 10^12 or 2^61 to count its units
    [1000000000100000000002379, (2**61 - 1) ** 3],
)
def test_quotient_units_at_a_zero_refuses_an_unfactorable_factor(n):
    start = time.perf_counter()
    code, out = invoke("quotient-units", "--ring", f"prod(Z,Z/{n})", "--a", "(0,0)")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out["payload"] == {
        "group_status": "unknown",
        "reason": f"the factor Z/{n} does not factor by trial division up to the limit 20000",
    }


@pytest.mark.parametrize(
    "ring_spec, a, payload",
    [
        # 2^14 residues; T^14+T+1 has irreducible factors of degrees 2, 5, 7
        ("GF(2)[T]", "T^14+T+1", {"group_status": "finite", "order": 11811, "carrier": 11811}),
        ("GF(3)[T]", "T^9+T+2", {"group_status": "finite", "order": 6400, "carrier": 12800}),
        ("GF(19997)[T]", "T+1", {"group_status": "finite", "order": 1, "carrier": 19996}),
        ("Z", "19999", {"group_status": "finite", "order": 8568, "carrier": 17136}),
        ("Z", "20000", {"group_status": "finite", "order": 4000, "carrier": 8000}),
        (
            "Z",
            "20001",
            {
                "group_status": "unknown",
                "reason": "quotient has 20001 residues, above the limit 20000",
            },
        ),
    ],
)
def test_quotient_units_at_the_limit_takes_a_closed_form(ring_spec, a, payload):
    start = time.perf_counter()
    code, out = invoke("quotient-units", "--ring", ring_spec, "--a", a)
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out["payload"] == payload


def test_quotient_units_classic_values():
    code, out = invoke("quotient-units", "--ring", "Z", "--a", "8")
    assert code == 0
    assert out["payload"]["group_status"] == "finite"
    assert out["payload"]["order"] == 2

    code, out = invoke("quotient-units", "--ring", "Z", "--a", "7")
    assert out["payload"]["order"] == 3


@pytest.mark.parametrize(
    "ring_spec, a", [("Q[T]", "2"), ("locQ(2)", "3"), ("locQ(2)", "T-5")]
)
def test_quotient_units_by_a_unit(ring_spec, a):
    code, out = invoke("quotient-units", "--ring", ring_spec, "--a", a)
    assert code == 0
    assert out["payload"] == {"group_status": "finite", "order": 1, "carrier": 1}


@pytest.mark.parametrize(
    "ring_spec, a, payload",
    [
        ("Z", "0", {"group_status": "finite", "order": 1, "carrier": 2}),
        ("GF(3)[T]", "0", {"group_status": "finite", "order": 1, "carrier": 2}),
        ("Q[T]", "0", {"group_status": "finite", "order": 1}),
        ("locQ(2)", "0", {"group_status": "finite", "order": 1}),
        ("Z/1", "0", {"group_status": "finite", "order": 1, "carrier": 1}),
        ("prod(Z,Z/6)", "(0,0)", {"group_status": "finite", "order": 1, "carrier": 4}),
        (
            "prod(Z,Z/6)",
            "(0,2)",
            {
                "group_status": "unknown",
                "reason": "the quotient of prod(Z,Z/6) by this element is not enumerable",
            },
        ),
        ("prod(Q[T],Z/4)", "(3,2)", {"group_status": "finite", "order": 1, "carrier": 1}),
    ],
)
def test_quotient_units_edge_payloads(ring_spec, a, payload):
    code, out = invoke("quotient-units", "--ring", ring_spec, "--a", a)
    assert code == 0
    assert out["payload"] == payload


def test_witness_locq_unit_lift_past_the_zero_shift():
    # the residue of T-4 mod T^2-2*T is T-4 itself, whose root 4 = 2^2 is
    # forbidden, so the lift eps = r + c*a skips c = 0 and takes c = 1
    from goodrings.rings import parse_ring

    ring = parse_ring("locQ(2)")
    assert not ring.is_unit(ring.parse_element("T-4"))
    code, out = invoke("witness", "--ring", "locQ(2)", "--a", "T^2-2*T", "--b", "T-4")
    assert code == 0
    assert out["payload"] == {"N": 1, "lambda": "(1)/(1)", "epsilon": "(T^2-T-4)/(1)"}


def test_quotient_units_unknown_case():
    code, out = invoke("quotient-units", "--ring", "Q[T]", "--a", "T")
    assert code == 0
    assert out["payload"]["group_status"] == "unknown"
    assert "reason" in out["payload"]


def test_decide_qt_refutation():
    code, out = invoke(
        "decide-qt", "--ring", "Q[T]", "--a", "T^2-T", "--b", "T-2"
    )
    assert code == 0
    assert out["status"] == "refuted"
    assert out["payload"]["kind"] == "ratio_criterion"
    assert out["payload"]["ratio"] == "1/2"
    assert sorted(out["payload"]["roots"]) == ["0", "1"]


def test_decide_qt_witness():
    code, out = invoke(
        "decide-qt", "--ring", "Q[T]", "--a", "T^2-T", "--b", "T-1/2"
    )
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"]["N"] == 2
    assert out["payload"]["lambda"] == "-1"
    assert out["payload"]["epsilon"] == "1/4"


def test_decide_qt_at_a_zero():
    code, out = invoke("decide-qt", "--ring", "Q[T]", "--a", "0", "--b", "3")
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"] == {"N": 1, "lambda": "0", "epsilon": "3"}


def test_decide_qt_rejects_wrong_ring():
    code, out = invoke("decide-qt", "--ring", "Z", "--a", "5", "--b", "2")
    assert code == 2


def test_witness_locq_at_n_one_squares_nothing():
    # b^1 is b itself: no square of the degree-1000 b, in the search or in
    # the verification
    start = time.perf_counter()
    code, out = invoke("witness", "--ring", "locQ(101)", "--a", "1", "--b", "T^3+7+3/4*T^1000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"]["N"] == 1


def test_refute_zt_on_a_root_near_ten_to_the_24():
    # the root's size does not matter: no divisor of it is enumerated
    start = time.perf_counter()
    code, out = invoke(
        "refute-zt", "--ring", "Q[T]", "--a", "T-1234567890123456789012345", "--b", "2"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["status"] == "refuted"
    assert out["payload"]["root"] == "1234567890123456789012345"
    assert out["payload"]["value"] == "2"


def test_decide_qt_with_roots_near_ten_to_the_15():
    # a = (T - r1)(T - r2) with |r1*r2| about 10^30; b(r1) = -b(r2), so the
    # ratio rule gives N = 2, epsilon = b(r1)^2 and b^2 - epsilon = 4a
    r1, r2 = 10**15 + 37, -(10**15 - 11)
    a = f"T^2{-(r1 + r2):+d}*T{r1 * r2:+d}"
    b = f"2*T{-(r1 + r2):+d}"
    start = time.perf_counter()
    code, out = invoke("decide-qt", "--ring", "Q[T]", "--a", a, "--b", b)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {"N": 2, "lambda": "-4", "epsilon": str((r1 - r2) ** 2)}


def test_refute_zt_example():
    code, out = invoke("refute-zt", "--ring", "Q[T]", "--a", "1-2*T", "--b", "T")
    assert code == 0
    assert out["status"] == "refuted"
    assert out["payload"]["root"] == "1/2"
    assert out["payload"]["value"] == "1/2"


def test_refute_zt_inconclusive():
    code, out = invoke("refute-zt", "--ring", "Q[T]", "--a", "T-2", "--b", "T-1")
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"]["conclusive"] is False
    assert out["diagnostics"]


def test_refute_zt_with_a_constant_a_is_inconclusive():
    code, out = invoke("refute-zt", "--ring", "Q[T]", "--a", "1", "--b", "T")
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"] == {"conclusive": False}
    assert out["diagnostics"] == ["no rational root of a sends b outside the unit circle of Z"]


def test_sab_mul():
    code, out = invoke(
        "sab",
        "--ring",
        "Z",
        "--a",
        "2",
        "--op",
        "mul",
        "--x",
        "(1) + (-1)*th",
        "--y",
        "(1) + (-1)*th",
    )
    assert code == 0
    assert out["payload"]["product"] == "(1) + (0)*th"


def test_sab_mul_requires_second_operand():
    code, out = invoke(
        "sab", "--ring", "Z", "--a", "2", "--op", "mul", "--x", "(1) + (0)*th"
    )
    assert code == 2


def test_sab_unit_and_non_unit():
    code, out = invoke(
        "sab", "--ring", "Z", "--a", "2", "--op", "unit", "--x", "(1) + (-1)*th"
    )
    assert code == 0
    assert out["payload"]["is_unit"] is True
    assert out["payload"]["inverse"] == "(1) + (-1)*th"

    code, out = invoke(
        "sab", "--ring", "Z", "--a", "5", "--op", "unit", "--x", "(1) + (1)*th"
    )
    assert code == 0
    assert out["payload"]["is_unit"] is False
    assert out["payload"]["inverse"] is None


def test_bridge_both_directions():
    code, out = invoke(
        "bridge", "--to-poly", "--ring", "Z", "--a", "5", "--b", "2"
    )
    assert code == 0
    poly = out["payload"]["polynomial"]
    assert poly == "-x1^2+2*x1*x2+x2^2"
    assert out["payload"]["N"] == 2

    # a leading minus needs the --poly=... spelling, as usual for argparse
    code, out = invoke(
        "bridge", "--from-poly", "--ring", "Z", "--a", "5", "--b", "2",
        "--poly=" + poly,
    )
    assert code == 0
    assert out["payload"] == {"N": 2, "lambda": "-1", "epsilon": "-1"}


def test_bridge_to_poly_exhaustion_exit_code():
    code, out = invoke("bridge", "--ring", "Z", "--a", "7", "--b", "2", "--to-poly", "--bound", "2")
    assert code == 3
    assert out["status"] == "exhausted"
    assert out["payload"] == {"bound": 2}


def test_bridge_from_poly_requires_poly():
    code, out = invoke("bridge", "--from-poly", "--ring", "Z", "--a", "5", "--b", "2")
    assert code == 2


def test_bridge_from_poly_loops_over_terms_not_degree():
    # two terms of degree 10**10: the witness is read off the terms alone
    start = time.perf_counter()
    code, out = invoke(
        "bridge", "--from-poly", "--ring", "Z/7", "--a", "3", "--b", "2",
        "--poly", "x2^10000000000+x1^10000000000",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"] == {"N": 10000000000, "lambda": "6", "epsilon": "6"}


def test_bridge_from_poly_evaluates_a_sparse_literal_in_linear_time():
    # two terms of degree 10**6 over Z: powering only the exponents that occur
    # takes about 0.1 s; a table of every power up to the degree is quadratic
    start = time.perf_counter()
    code, out = invoke(
        "bridge", "--from-poly", "--ring", "Z", "--a", "2", "--b", "3",
        "--poly", "x2^1000000+x1^1000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out["diagnostics"] == ["P(a, b) must be a unit"]


def test_text_format():
    code, text = run(
        ["witness", "--ring", "Z", "--a", "5", "--b", "2", "--format", "text"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "status: ok"
    assert "N: 2" in lines
    assert "lambda: -1" in lines


def test_text_format_joins_a_list():
    code, text = run(
        ["decide-qt", "--ring", "Q[T]", "--a", "T^2-T", "--b", "T-2", "--format", "text"]
    )
    assert code == 0
    assert "roots: 0; 1" in text.splitlines()


def test_text_format_ends_with_the_diagnostics():
    code, text = run(
        ["refute-zt", "--ring", "Q[T]", "--a", "T^2+1", "--b", "T", "--format", "text"]
    )
    assert code == 0
    assert text.splitlines()[-1] == "# no rational root of a sends b outside the unit circle of Z"


@pytest.mark.parametrize("ring_spec", ["Z/100000007", "GF(1000000007)"])
def test_witness_on_a_large_modulus_is_fast(ring_spec):
    start = time.perf_counter()
    code, out = invoke("witness", "--ring", ring_spec, "--a", "2", "--b", "3")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"]["epsilon"] == "1"


@pytest.mark.parametrize(
    "ring_spec",
    ["GF(1000000000000037)", "GF(1000000000000037)[T]", "locQ(1000000000000037)"],
)
def test_witness_over_a_large_prime_is_fast(ring_spec):
    # the prime is tested by Miller-Rabin, not by O(sqrt(p)) trial division
    start = time.perf_counter()
    code, out = invoke("witness", "--ring", ring_spec, "--a", "2", "--b", "3")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out["payload"]["N"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--ring", "Q[T]", "--a", "(T+1", "--b", "2"],
        ["sab", "--ring", "Z", "--a", "2", "--op", "unit", "--x", "(1)-(1)*th"],
        ["sab", "--ring", "Z", "--a", "2", "--op", "unit", "--x", "(1+(1)*th"],
        ["bridge", "--ring", "Z", "--a", "5", "--b", "2", "--from-poly", "--poly=(x1+x2"],
    ],
)
def test_malformed_input_is_a_usage_error(argv):
    code, out = invoke(*argv)
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"]


def _golden_mismatches(cases, monkeypatch, capsys) -> list:
    """The cases whose stdout or exit code differs from the recording."""
    mismatches = []
    for case in cases:
        monkeypatch.setattr(sys, "argv", ["goodrings", *case["argv"]])
        with pytest.raises(SystemExit) as exit_info:
            main()
        stdout = capsys.readouterr().out
        if (stdout, exit_info.value.code) != (case["stdout"], case["exit"]):
            mismatches.append((case["argv"], stdout, exit_info.value.code))
    return mismatches


def _golden_cases() -> list:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_outputs(monkeypatch, capsys):
    """Every command recorded in tests/golden/cli.jsonl prints exactly its
    recorded stdout and exits with its recorded code."""
    assert _golden_mismatches(_golden_cases(), monkeypatch, capsys) == []


def test_golden_outputs_repeat_in_one_process(monkeypatch, capsys):
    """The parser is built once per process and shared by every command: the
    golden file still passes in order, and then in reverse order after a
    usage error."""
    cases = _golden_cases()
    assert _golden_mismatches(cases, monkeypatch, capsys) == []
    code, out = invoke("witness", "--ring", "Z", "--a", "5")
    assert code == 2
    assert out["status"] == "error"
    assert _golden_mismatches(cases[::-1], monkeypatch, capsys) == []


# one valid command line per subcommand
_MINIMAL = [
    ["witness", "--ring", "Z", "--a", "5", "--b", "2"],
    ["construct", "--ring", "Z", "--points", "(1,0);(0,1)"],
    ["check-good", "--ring", "Z/6"],
    ["quotient-units", "--ring", "Z", "--a", "6"],
    ["decide-qt", "--ring", "Q[T]", "--a", "T", "--b", "T-1"],
    ["refute-zt", "--ring", "Q[T]", "--a", "T^2+1", "--b", "T"],
    ["sab", "--ring", "Z", "--a", "2", "--op", "unit", "--x", "(1) + (1)*th"],
    ["bridge", "--ring", "Z", "--a", "5", "--b", "2", "--to-poly"],
]


def test_every_subcommand_has_a_minimal_command_line():
    _, commands = cli._build_parser()
    assert [argv[0] for argv in _MINIMAL] == list(commands)


def test_dispatch_gives_the_top_level_namespace():
    """Parsing by the subcommand's own parser gives the Namespace the
    top-level parser gives, on every golden and every minimal command line."""
    top, _ = cli._build_parser()
    argvs = [case["argv"] for case in _golden_cases()] + _MINIMAL
    assert [cli._parse(argv) for argv in argvs] == [top.parse_args(argv) for argv in argvs]


def test_a_valid_command_skips_the_top_level_parse(monkeypatch):
    top, _ = cli._build_parser()
    real = cli._Parser.parse_args

    def parse_args(self, *args, **kwargs):
        if self is top:
            raise AssertionError("the top-level parser parsed a valid command")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", parse_args)
    for argv in _MINIMAL:
        assert run(argv)[0] == 0


@pytest.mark.parametrize(
    "argv, diagnostic",
    [
        ([], "the following arguments are required: command"),
        (
            ["frobnicate", "--ring", "Z"],
            "argument command: invalid choice: 'frobnicate' (choose from 'witness', "
            "'construct', 'check-good', 'quotient-units', 'decide-qt', 'refute-zt', "
            "'sab', 'bridge')",
        ),
        (["witness", "--a", "5", "--b", "2"], "the following arguments are required: --ring"),
        (["witness", "--ring", "Z", "--a", "5", "--b", "2", "extra"], "unrecognized arguments: extra"),
        (
            ["bridge", "--to-poly", "--from-poly", "--ring", "Z", "--a", "5", "--b", "2"],
            "argument --from-poly: not allowed with argument --to-poly",
        ),
        (
            ["witness", "--ring", "Z", "--a", "5", "--b", "2", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'json', 'text')",
        ),
    ],
    ids=["no-args", "unknown-command", "missing-ring", "trailing-extra", "both-directions", "format-xml"],
)
def test_a_usage_error_keeps_its_exit_code_and_message(argv, diagnostic):
    top, _ = cli._build_parser()
    with pytest.raises(cli._UsageError) as by_top:
        top.parse_args(argv)
    assert str(by_top.value) == diagnostic
    assert invoke(*argv) == (2, {"status": "error", "payload": {}, "diagnostics": [diagnostic]})


def test_an_abbreviated_option_still_parses():
    assert invoke("witness", "--rin", "Z", "--a", "5", "--b", "2") == invoke(*_MINIMAL[0])


@pytest.mark.parametrize(
    "argv, command",
    [(["--help"], None), (["-h", "witness"], None), (["witness", "--help"], "witness")],
    ids=["help", "help-before-command", "witness-help"],
)
def test_help_prints_the_matching_parsers_help(capsys, argv, command):
    top, commands = cli._build_parser()
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 0
    parser = top if command is None else commands[command]
    assert capsys.readouterr().out == parser.format_help()


def test_json_output_is_deterministic():
    first = run(["witness", "--ring", "Z", "--a", "7", "--b", "3"])
    second = run(["witness", "--ring", "Z", "--a", "7", "--b", "3"])
    assert first == second


def _module_env():
    """The environment with PYTHONPATH pointing at the tree the suite
    imported `goodrings` from."""
    package_root = os.path.dirname(os.path.dirname(goodrings.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def _console_runs(*argv):
    """Run the CLI as a separate process; one CompletedProcess per launch form.

    The module form always runs, on the interpreter running the suite, with
    PYTHONPATH pointing at the tree the suite imported `goodrings` from, so
    no install step is needed. The installed `goodrings` launcher runs too
    when it is on PATH, in the inherited environment.
    """
    commands = [([sys.executable, "-m", "goodrings", *argv], _module_env())]
    launcher = shutil.which("goodrings")
    if launcher is not None:
        commands.append(([launcher, *argv], None))
    return [
        subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=cmd_env)
        for cmd, cmd_env in commands
    ]


def test_console_script_smoke():
    for proc in _console_runs("witness", "--ring", "Z", "--a", "5", "--b", "2"):
        assert proc.returncode == 0, proc.args
        out = json.loads(proc.stdout)
        assert out["payload"]["N"] == 2


def test_console_script_error_goes_to_stderr():
    for proc in _console_runs("witness", "--ring", "Z", "--a", "6", "--b", "3"):
        assert proc.returncode == 2, proc.args
        assert proc.stderr.strip()
        out = json.loads(proc.stdout)
        assert out["status"] == "error"
        for line in proc.stderr.splitlines():
            assert line in out["diagnostics"]


_HUGE_T = "T^1000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "--ring", "GF(3)[T]", "--a", _HUGE_T, "--b", "T+1"),
        ("witness", "--ring", "Q[T]", "--a", _HUGE_T, "--b", "T+1"),
        ("witness", "--ring", "locQ(2)", "--a", _HUGE_T, "--b", "T+1"),
        ("quotient-units", "--ring", "GF(3)[T]", "--a", _HUGE_T),
        ("sab", "--ring", "Q[T]", "--a", _HUGE_T, "--op", "unit", "--x", "(T+1) + (1)*th"),
        ("construct", "--ring", "GF(3)[T]", "--points", f"({_HUGE_T},1);(1,0)"),
    ],
    ids=["witness-GF3T", "witness-QT", "witness-locQ", "quotient-units", "sab", "construct"],
)
def test_a_huge_T_exponent_is_refused_before_the_dense_list(argv):
    # the literal would set a dense coefficient list 10^9 long; the child
    # process runs under a 2 GB address-space limit, so an allocation that
    # slips past the refusal fails there and not in the suite
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "goodrings", *argv],
        capture_output=True, text=True, timeout=60, env=_module_env(), preexec_fn=cap,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert out["diagnostics"] == ["the T-exponent 1000000000 is above the limit 1000000"]


def _dense_qt(seed: int, degree: int) -> str:
    """A monic Q[T] literal of the given degree, lower coefficients drawn
    from randint(-9, 9) under the seed."""
    rng = random.Random(seed)
    terms = [f"({rng.randint(-9, 9)})*T^{i}" for i in range(degree)]
    return "+".join(terms) + f"+T^{degree}"


@pytest.mark.parametrize(
    "a, b, ceiling",
    [
        # not primitive, and a = T*(7*T^999 + 3/4) does not split: a Bezout
        # chain over Fractions at degree 1000 did not finish in 12 s
        ("7*T^1000+3/4*T", "3/4*T+2*T^100+5*T^3", 3.0),
        # a dense pair of degree 60 and 59: the Bezout chain took about 8 s
        (_dense_qt(1, 60), _dense_qt(2, 59), 4.0),
    ],
    ids=["degree-1000", "dense-degree-60"],
)
def test_decide_qt_refuses_a_non_split_a_without_a_bezout_chain(a, b, ceiling):
    # the split test comes first and needs only the roots; the child is
    # killed at the ceiling, so a return to the Bezout chain fails here
    proc = subprocess.run(
        [sys.executable, "-m", "goodrings", "decide-qt", "--ring", "Q[T]", "--a", a, "--b", b],
        capture_output=True, text=True, timeout=ceiling, env=_module_env(),
    )
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert out["diagnostics"] == [
        "the coefficient polynomial must be squarefree with all roots rational"
    ]


@pytest.mark.parametrize(
    "argv, code, status, diagnostics, ceiling",
    [
        # row 10: coprime, refuted at the root 0; the Fraction Bezout chain
        # at degree 1000 ran past 20 s, the integer gcd takes 0.01 s
        (
            ("refute-zt", "--a", "2*T^1000-T^31", "--b", "2*T^10+5*T^3+7"),
            0, "refuted", [], 2.0,
        ),
        # row 11: coprime and inconclusive; the chain took 6.7 s
        (
            ("refute-zt", "--a", _dense_qt(1, 60), "--b", _dense_qt(2, 59)),
            0, "ok", ["no rational root of a sends b outside the unit circle of Z"], 2.0,
        ),
        # row 11: the squarefree step of rational_roots, a Fraction Euclid at
        # degree 60, took about 1.1 s; the whole process now takes 0.13 s
        (
            ("decide-qt", "--a", _dense_qt(1, 60), "--b", _dense_qt(2, 59)),
            2, "error", ["the coefficient polynomial must be squarefree with all roots rational"], 0.75,
        ),
        # row 9: not primitive, which the integer gcd finds once N = 1 gives
        # no unit; the chain at degree 1000 ran past 15 s
        (
            ("witness", "--a", "7*T^1000+3/4*T", "--b", "3/4*T+2*T^100+5*T^3"),
            2, "error", ["(7*T^1000+3/4*T, 2*T^100+5*T^3+3/4*T) does not generate the unit ideal in Q[T]"], 2.0,
        ),
        # rows 10 and 11: coprime, and N = 1 finds no unit, so the scan asks
        # for primitivity; the Fraction Bezout certificate it built took
        # 20 s (row 10) and 6.3 s (row 11) as `witness`, and bridge built it
        # up front: past 40 s and 11.5 s. The yes or no takes 0.12-0.21 s
        (("witness", "--a", "2*T^1000-T^31", "--b", "2*T^10+5*T^3+7", "--bound", "1"), 3, "exhausted", [], 2.0),
        (
            ("bridge", "--to-poly", "--a", "2*T^1000-T^31", "--b", "2*T^10+5*T^3+7", "--bound", "1"),
            3, "exhausted", [], 2.0,
        ),
        (("witness", "--a", _dense_qt(1, 60), "--b", _dense_qt(2, 59), "--bound", "1"), 3, "exhausted", [], 2.0),
        (
            ("bridge", "--to-poly", "--a", _dense_qt(1, 60), "--b", _dense_qt(2, 59), "--bound", "1"),
            3, "exhausted", [], 2.0,
        ),
    ],
    ids=[
        "row-10-refute-zt", "row-11-refute-zt", "row-11-decide-qt", "row-9-witness",
        "row-10-witness", "row-10-bridge", "row-11-witness", "row-11-bridge",
    ],
)
def test_high_degree_q_t_commands_build_no_fraction_cofactors(argv, code, status, diagnostics, ceiling):
    # the child is killed at the ceiling, so a return to the Fraction
    # Bezout chain or the Fraction Euclid fails here
    proc = subprocess.run(
        [sys.executable, "-m", "goodrings", argv[0], "--ring", "Q[T]", *argv[1:]],
        capture_output=True, text=True, timeout=ceiling, env=_module_env(),
    )
    assert proc.returncode == code, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["status"], out["diagnostics"]) == (status, diagnostics)
