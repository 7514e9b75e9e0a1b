"""Command-line front end with machine-readable output.

run(argv) returns (exit code, serialized CommandResult) without touching the
process; main() prints and exits. Exit code 0 covers ok and refuted (a
mathematical no is a successful computation), 3 is an exhausted search
bound, 2 is a usage, parse, or precondition problem.

A command line that starts with a subcommand's name is parsed by that
subcommand's own argparse parser; any other (none, -h, an unknown name)
goes to the top-level parser. All the top-level parser would do is find the
subcommand and hand it the rest, so skipping it leaves the Namespace, the
error messages, the help texts and the exit codes as they were.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .core import GoodRingsError, ParseError, Ring, ensure, not_primitive, require_primitive
from .homog import (
    HomogeneousPolynomial,
    WitnessSearchExhausted,
    construct_unit_valued,
    replay_trace,
)
from .rings import _split_top_level, parse_ring
from .sab import SabAlgebra, polynomial_to_witness, witness_to_polynomial
from .witness import (
    _DEFAULT_BOUND,
    Exhausted,
    Refuted,
    Witness,
    check_good_ring_exhaustive,
    decide_good_point_rational_split,
    find_good_witness,
    refute_integer_poly_point,
    unit_quotient_group,
)



@dataclass(frozen=True)
class CommandResult:
    status: str  # ok | refuted | exhausted | error
    payload: dict
    diagnostics: tuple


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _serialize(result: CommandResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "status": result.status,
                "payload": result.payload,
                "diagnostics": list(result.diagnostics),
            }
        )
    lines = [f"status: {result.status}"]
    for key, value in result.payload.items():
        if isinstance(value, list):
            value = "; ".join(str(v) for v in value)
        lines.append(f"{key}: {value}")
    for note in result.diagnostics:
        lines.append(f"# {note}")
    return "\n".join(lines)


def _witness_payload(ring: Ring, w) -> dict:
    return {
        "N": w.N,
        "lambda": ring.format_element(w.lam),
        "epsilon": ring.format_element(w.epsilon),
    }


def _outcome_result(ring: Ring, outcome) -> tuple:
    """Map a search outcome to (exit code, CommandResult)."""
    if isinstance(outcome, Witness):
        return 0, CommandResult("ok", _witness_payload(ring, outcome.witness), ())
    if isinstance(outcome, Refuted):
        ev = outcome.evidence
        payload = {
            "kind": "ratio_criterion",
            "roots": [str(r) for r in ev.roots],
            "ratio": str(ev.ratio),
        }
        return 0, CommandResult("refuted", payload, ())
    ensure(isinstance(outcome, Exhausted), f"unknown search outcome {outcome!r}")
    return 3, CommandResult("exhausted", {"bound": outcome.bound}, ())


def _parse_points(ring: Ring, text: str) -> list:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"point {chunk!r} is not a parenthesized tuple")
        coords = tuple(
            ring.parse_element(part) for part in _split_top_level(chunk[1:-1], ",")
        )
        points.append(require_primitive(ring, coords))
    return points


def _ring_and_pair(args) -> tuple:
    """The ring named by --ring, with --a and --b parsed as its elements."""
    ring = parse_ring(args.ring)
    return ring, ring.parse_element(args.a), ring.parse_element(args.b)


def _cmd_witness(args) -> tuple:
    ring, a, b = _ring_and_pair(args)
    return _outcome_result(ring, find_good_witness(ring, a, b, bound=args.bound))


def _cmd_construct(args) -> tuple:
    ring = parse_ring(args.ring)
    points = _parse_points(ring, args.points)
    try:
        poly, trace = construct_unit_valued(ring, points, witness_bound=args.bound)
    except WitnessSearchExhausted as exc:
        return 3, CommandResult("exhausted", {"bound": exc.bound}, (str(exc),))
    # replay checks the recorded values against its own evaluations
    ensure(replay_trace(ring, trace) == poly, "the replayed polynomial differs")
    payload = {
        "polynomial": poly.format(),
        "degree": poly.degree,
        "values": [ring.format_element(v) for v in trace.values],
    }
    return 0, CommandResult("ok", payload, ())


def _cmd_check_good(args) -> tuple:
    ring = parse_ring(args.ring)
    report = check_good_ring_exhaustive(ring)
    payload = {
        "pairs_checked": report.pairs_checked,
        "all_good": report.all_good,
        "max_N_seen": report.max_N_seen,
        "failures": list(report.failures),  # always empty on a finite ring
    }
    return 0, CommandResult("ok", payload, ())


def _cmd_quotient_units(args) -> tuple:
    ring = parse_ring(args.ring)
    a = ring.parse_element(args.a)
    report = unit_quotient_group(ring, a)
    payload = {"group_status": report.status}
    if report.order is not None:
        payload["order"] = report.order
    if report.carrier is not None:
        payload["carrier"] = report.carrier
    if report.reason is not None:
        payload["reason"] = report.reason
    return 0, CommandResult("ok", payload, ())


def _cmd_decide_qt(args) -> tuple:
    ring, a, b = _ring_and_pair(args)
    return _outcome_result(ring, decide_good_point_rational_split(ring, a, b))


def _cmd_refute_zt(args) -> tuple:
    ring, a, b = _ring_and_pair(args)
    evidence = refute_integer_poly_point(ring, a, b)
    if evidence is None:
        return 0, CommandResult(
            "ok",
            {"conclusive": False},
            ("no rational root of a sends b outside the unit circle of Z",),
        )
    payload = {
        "kind": "rational_evaluation",
        "root": str(evidence.root),
        "value": str(evidence.value),
        "reason": evidence.reason,
    }
    return 0, CommandResult("refuted", payload, ())


def _cmd_sab(args) -> tuple:
    ring = parse_ring(args.ring)
    alg = SabAlgebra(ring, ring.parse_element(args.a))
    x = alg.parse_element(args.x)
    if args.op == "mul":
        if args.y is None:
            raise _UsageError("--op mul needs --y")
        y = alg.parse_element(args.y)
        product = alg.mul(x, y)
        return 0, CommandResult("ok", {"product": alg.format_element(product)}, ())
    inverse = alg.is_unit(x)
    payload = {
        "is_unit": inverse is not None,
        "inverse": alg.format_element(inverse) if inverse is not None else None,
    }
    return 0, CommandResult("ok", payload, ())


def _cmd_bridge(args) -> tuple:
    ring, a, b = _ring_and_pair(args)
    if args.to_poly:
        if args.bound < 0 and not ring.generates_unit_ideal((a, b)):
            raise not_primitive(ring, (a, b))  # reported before the bound error
        outcome = find_good_witness(ring, a, b, bound=args.bound)
        if not isinstance(outcome, Witness):
            return _outcome_result(ring, outcome)
        w = outcome.witness
        point = require_primitive(ring, (a, b))
        poly = witness_to_polynomial(ring, a, b, point.certificate, w)
        payload = {"polynomial": poly.format()}
        payload.update(_witness_payload(ring, w))
        return 0, CommandResult("ok", payload, ())
    if args.poly is None:
        raise _UsageError("--from-poly needs --poly")
    poly = HomogeneousPolynomial.parse(ring, 2, args.poly)
    w = polynomial_to_witness(ring, a, b, poly)
    return 0, CommandResult("ok", _witness_payload(ring, w), ())


@cache
def _build_parser() -> tuple:
    """(top-level parser, {subcommand name: its parser}), built on first use
    and then shared: parse_args leaves them unchanged, and building them
    costs more than most commands. The subcommand parsers are the ones the
    top-level parser dispatches to, so _parse can call them directly."""
    parser = _Parser(prog="goodrings", description="good-ring computations")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, pair=False, bound=False):
        p.add_argument("--ring", required=True, help="ring spec, e.g. Z or Q[T]")
        if pair:
            p.add_argument("--a", required=True)
            p.add_argument("--b", required=True)
        if bound:
            p.add_argument("--bound", type=int, default=_DEFAULT_BOUND)
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("witness", help="search for a good-point witness")
    common(p, pair=True, bound=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("construct", help="unit-valued homogeneous polynomial")
    p.add_argument("--points", required=True, help='e.g. "(1,0);(0,1);(1,1)"')
    common(p, bound=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check-good", help="exhaustive goodness check, finite rings")
    common(p)
    p.set_defaults(func=_cmd_check_good)

    p = sub.add_parser("quotient-units", help="unit classes of A/aA modulo units of A")
    p.add_argument("--a", required=True)
    common(p)
    p.set_defaults(func=_cmd_quotient_units)

    p = sub.add_parser("decide-qt", help="split-squarefree decision over Q[T]")
    common(p, pair=True)
    p.set_defaults(func=_cmd_decide_qt)

    p = sub.add_parser("refute-zt", help="integer-polynomial evaluation refuter")
    common(p, pair=True)
    p.set_defaults(func=_cmd_refute_zt)

    p = sub.add_parser("sab", help="arithmetic and units in A + A*th")
    p.add_argument("--a", required=True, help="algebra parameter")
    p.add_argument("--op", choices=("mul", "unit"), required=True)
    p.add_argument("--x", required=True, help='element, e.g. "(1) + (-1)*th"')
    p.add_argument("--y", default=None)
    common(p)
    p.set_defaults(func=_cmd_sab)

    p = sub.add_parser("bridge", help="witness to polynomial and back")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-poly", action="store_true")
    direction.add_argument("--from-poly", action="store_true")
    p.add_argument("--poly", default=None, help="bivariate polynomial in x1, x2")
    common(p, pair=True, bound=True)
    p.set_defaults(func=_cmd_bridge)

    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """The Namespace of one command line: a known subcommand's arguments go
    straight to its parser, anything else to the top-level parser, whose
    usage errors and help text it keeps."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def _execute(argv) -> tuple:
    """(exit code, CommandResult, output format) for one command line.

    Every error the package raises deliberately maps to status error and
    exit code 2; anything else is a bug and propagates as a traceback.
    """
    fmt = "json"
    try:
        args = _parse(argv)
        fmt = args.format
        code, result = args.func(args)
    except (_UsageError, GoodRingsError, ValueError) as exc:
        return 2, CommandResult("error", {}, (str(exc),)), fmt
    return code, result, fmt


def run(argv) -> tuple:
    """Execute one command line; returns (exit code, serialized result)."""
    code, result, fmt = _execute(argv)
    return code, _serialize(result, fmt)


def main() -> None:
    code, result, fmt = _execute(sys.argv[1:])
    print(_serialize(result, fmt))
    for note in result.diagnostics:
        print(note, file=sys.stderr)
    sys.exit(code)
