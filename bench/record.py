#!/usr/bin/env python3
"""Record one benchmark entry: every perfbench workload, untraced and traced.

    python3 bench/record.py --out BENCH_<n>.json

Runs `perfbench/run.py --workload all` at seed SEED for SECONDS seconds, once
with --trace 0 (the end-to-end metrics) and once with --trace 1 (the
per-layer metrics), and writes one JSON file:

    {"schema": 2, "git_rev": ..., "src_tree": ..., "python": ..., "seed": ...,
     "seconds": ..., "workloads": {name: {"metrics": ..., "layers": ...,
     "failed": ..., "attempted": ...}}}

metrics and layers map each metric's name to {"value", "unit"}, as run.py
prints them. failed and attempted are the untraced run's operation counts.
git_rev is the checked-out commit. src_tree is the git tree id of src/ as
staged (`git write-tree --prefix=src/`), which equals `HEAD:src` once the
staged change is committed, so it names the code that ran. The record is
refused when src/ has changes that are not staged, or when a run reports
wrong answers. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SCHEMA = 2
SEED = 11
SECONDS = 25


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"record: git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def src_tree() -> str:
    """The tree id of src/ in the index, after checking that the working
    tree's src/ matches the index."""
    unstaged = _git("diff", "--name-only", "--", "src")
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", "src")
    if unstaged or untracked:
        raise SystemExit(f"record: src/ has changes that are not staged:\n{unstaged}\n{untracked}".rstrip())
    return _git("write-tree", "--prefix=src/")


def run_all(trace: int) -> dict:
    """run.py's last stdout line for every workload: {name: result}."""
    argv = [sys.executable, str(RUN), "--workload", "all", "--seed", str(SEED)]
    argv += ["--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stdout + done.stderr)
    if done.returncode:
        raise SystemExit(f"record: {' '.join(argv[1:])} exited {done.returncode}")
    results = json.loads(done.stdout.splitlines()[-1])
    wrong = [name for name, result in results.items() if not result["correct"]]
    if wrong:
        raise SystemExit(f"record: wrong answers on {', '.join(wrong)} (--trace {trace})")
    return results


def record() -> dict:
    tree = src_tree()
    untraced, traced = run_all(trace=0), run_all(trace=1)
    workloads = {
        name: {
            "metrics": result["metrics"],
            "layers": traced[name]["metrics"],
            "failed": result["failed"],
            "attempted": result["attempted"],
        }
        for name, result in untraced.items()
    }
    return {
        "schema": SCHEMA,
        "git_rev": _git("rev-parse", "HEAD"),
        "src_tree": tree,
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    entry = record()
    args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
