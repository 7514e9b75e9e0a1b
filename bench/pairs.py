#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 bench/pairs.py --parent ../parent --workload construct --pairs 10

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` in the
parent checkout (--parent) and in the change checkout (--change, by default
this one), PAIRS times each. The side that runs first alternates from pair
to pair, the parent first in the first pair. Before every run it removes
src/goodrings/__pycache__ of both checkouts. That folder is gitignored, and
where PYTHONDONTWRITEBYTECODE is set, a stale .pyc left in one checkout
is compiled again on every import without being rewritten, which shows as
a slower setup_s on that side only.

Each run's metrics go to standard error as it finishes. At the end, each
workload gets one table, one row per metric: the end-to-end metrics of
BENCHMARK.json, and the peak_rss_mb that run.py prints. A row holds each
side's median with its quartiles, and the number of pairs the change won.
A pair is won when the change reads better, in the metric's direction in
BENCHMARK.json (lower for peak_rss_mb); ties count for neither side. A last
row lists each run's failed count. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a line run.py prints for people: "<workload> <metric> = <value> <unit> (n=...)"
_PRINTED = re.compile(r"^(\S+) (\S+) = (\S+) ")
_EXTRA = {"peak_rss_mb": "lower"}


def _run(checkout: Path, args, clean: tuple) -> dict:
    """One untraced run in checkout: {workload: {"metrics", "failed"}}."""
    for tree in clean:
        shutil.rmtree(tree / "src" / "goodrings" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"pairs: {checkout}: run.py exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    last = json.loads(lines[-1])
    results = last if args.workload == "all" else {args.workload: last}
    runs = {}
    for workload, result in results.items():
        if not result["correct"]:
            raise SystemExit(f"pairs: {checkout}: wrong answers on {workload}")
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        runs[workload] = {"metrics": metrics, "failed": result["failed"]}
    for line in lines[:-1]:
        m = _PRINTED.match(line)
        if m and m.group(2) in _EXTRA and m.group(1) in runs:
            runs[m.group(1)]["metrics"][m.group(2)] = float(m.group(3))
    return runs


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _report(workload: str, parent: list, change: list, better: dict) -> None:
    print(f"{workload}: {len(parent)} pairs")
    print(f"  {'metric':<16} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} change won")
    for name in parent[0]["metrics"]:
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        cells = []
        for values in (p, c):
            q1, q2, q3 = _quartiles(values)
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name:<16} {cells[0]:<32} {cells[1]:<32} {won}/{len(p)}")
    print(f"  {'failed':<16} {str([r['failed'] for r in parent]):<32} {str([r['failed'] for r in change])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's checkout")
    parser.add_argument("--workload", required=True, help="a workload of run.py, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    clean = tuple(sides.values())
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]} | _EXTRA
    runs: dict = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(sides[side], args, clean)
            runs[side].append(result)
            for workload, r in result.items():
                shown = " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items())
                print(f"pair {i + 1} {side} {workload}: failed={r['failed']} {shown}", file=sys.stderr)
    for workload in runs["parent"][0]:
        _report(workload, [r[workload] for r in runs["parent"]], [r[workload] for r in runs["change"]], better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
