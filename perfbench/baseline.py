#!/usr/bin/env python3
"""Construct/replay split of the acceptance-3 instance set.

    python3 perfbench/baseline.py

Builds the 200 instances of tests/test_acceptance.py at seed 20260821 (the
same generator, copied so the benchmark stands alone), times
construct_unit_valued and replay_trace over PASSES untraced passes, then
runs one traced pass and prints the share of traced self time spent in
HomogeneousPolynomial.pow and .mul. No deadline applies here.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from goodrings import core, homog, rings  # noqa: E402

import spans  # noqa: E402

SEED, COUNT = 20260821, 200
PASSES = 3


def _sample_instance(rng, ring):
    n = rng.choice([2, 3, 4])
    k = rng.randint(1, 2) if n == 2 else rng.randint(1, 5)
    points, seen = [], set()
    while len(points) < k:
        coords = tuple(rng.randint(-20, 20) for _ in range(n))
        if coords in seen or math.gcd(*coords) != 1:
            continue
        seen.add(coords)
        points.append(core.require_primitive(ring, coords))
    return points


def one_pass(ring, instances) -> tuple:
    construct_s = replay_s = 0.0
    for points in instances:
        start = perf_counter()
        poly, trace = homog.construct_unit_valued(ring, points)
        mid = perf_counter()
        replayed = homog.replay_trace(ring, trace)
        replay_s += perf_counter() - mid
        construct_s += mid - start
        assert replayed.terms == poly.terms
    return construct_s, replay_s


def main() -> None:
    ring = rings.Integers()
    rng = random.Random(SEED)
    instances = [_sample_instance(rng, ring) for _ in range(COUNT)]
    passes = [one_pass(ring, instances) for _ in range(PASSES)]
    construct_s = statistics.median(c for c, _ in passes)
    replay_s = statistics.median(r for _, r in passes)
    total = construct_s + replay_s
    print(f"untraced, median of {PASSES} passes over {COUNT} instances:")
    print(f"  construct {construct_s:.3f} s ({construct_s / total:.0%}), replay {replay_s:.3f} s ({replay_s / total:.0%})")
    tracer = spans.Tracer()
    spans.install(tracer)
    start = perf_counter()
    one_pass(ring, instances)
    wall = perf_counter() - start
    traced = sum(tracer.self_s.values())
    pow_mul = tracer.self_s["homog.pow"] + tracer.self_s["homog.mul"]
    print(f"traced pass: {wall:.3f} s wall, {traced:.3f} s in spans")
    print(f"  homog.pow + homog.mul self time {pow_mul:.3f} s ({pow_mul / traced:.0%} of span self time)")
    for name, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:36s} {seconds:.3f} s self, {tracer.calls[name]} calls")


if __name__ == "__main__":
    main()
