"""Command-line interface: payload shapes, exit codes, both output formats."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import goodrings
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
    # 250,000 product pairs, found good from 20^2 + 25^2 factor pairs
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


def test_check_good_infinite_ring_is_an_error():
    code, out = invoke("check-good", "--ring", "Z")
    assert code == 2
    assert out["status"] == "error"
    assert out["diagnostics"] == ["cannot enumerate Z"]


@pytest.mark.parametrize("spec", ["prod(Z/4,Z)", "prod(GF(10007),Z)"])
def test_check_good_product_with_an_infinite_factor_is_an_error(spec):
    # every factor is enumerated before any pair is scanned
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


def test_decide_qt_rejects_wrong_ring():
    code, out = invoke("decide-qt", "--ring", "Z", "--a", "5", "--b", "2")
    assert code == 2


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


def test_text_format():
    code, text = run(
        ["witness", "--ring", "Z", "--a", "5", "--b", "2", "--format", "text"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "status: ok"
    assert "N: 2" in lines
    assert "lambda: -1" in lines


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


def test_json_output_is_deterministic():
    first = run(["witness", "--ring", "Z", "--a", "7", "--b", "3"])
    second = run(["witness", "--ring", "Z", "--a", "7", "--b", "3"])
    assert first == second


def _console_runs(*argv):
    """Run the CLI as a separate process; one CompletedProcess per launch form.

    The module form always runs, on the interpreter running the suite, with
    PYTHONPATH pointing at the tree the suite imported `goodrings` from, so
    no install step is needed. The installed `goodrings` launcher runs too
    when it is on PATH, in the inherited environment.
    """
    package_root = os.path.dirname(os.path.dirname(goodrings.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    commands = [([sys.executable, "-m", "goodrings", *argv], env)]
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
