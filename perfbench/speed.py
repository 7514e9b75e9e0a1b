"""Machine speed, measured beside the timed calls, to scale timings by.

On a shared machine the CPU speed drifts: by 10 to 25% over seconds, and by
up to half for minutes at a time, longer than a run. The median of several
runs of one operation, spread over the run, evens out the short dips but not
a slow phase that covers the whole run. So the benchmark also times a fixed piece of reference
work, written here in plain Python without goodrings, all through the run,
and scales every timing by REF_S over the reference work's median time in
the HALF_WINDOW_S before and after the timed call. A timing then reads what
it would take at the speed where the reference work takes REF_S. The
reference work does what goodrings does most: products of sparse
polynomials held in dicts keyed by exponent tuples, with integer
coefficients of a few hundred digits, an evaluation, and a JSON text round
trip.

On a shared 2-core machine, 13 runs of four passes over a fixed mix of
construct, query and check_good operations, short and heavy, took about
20 seconds each. The summed fastest times of each kind of operation spread
(interquartile range over median) by 0.15 to 0.27 over the 13 runs raw, and
by 0.03 to 0.07 scaled this way. Other windows and quantiles did worse: the
10th percentile within half a second, for one, left the heavy check_good
rings at 0.14.
"""

from __future__ import annotations

import gc
import json
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# the reference work's median time at the reference speed, on the 2-core
# machine whose figures perfbench/README.md gives
REF_S = 0.0006
# a sample is taken before an operation when this long has passed since the
# last one ended, so operations of a few milliseconds or more each get one
GAP_S = 0.005
HALF_WINDOW_S = 0.15
# samples taken before and after each set-up repeat
BURST = 12


def reference_work() -> int:
    a = {(i, 9 - i): 7 ** (i + 12) * (1 if i % 2 else -1) for i in range(10)}
    b = {(i, 6 - i): 3 ** (i + 30) + i for i in range(7)}
    p = a
    for _ in range(6):
        out: dict = {}
        for ea, ca in p.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
        p = {e: c for e, c in out.items() if c}
    value = sum(c * 17 ** e[0] * (-23) ** e[1] for e, c in p.items())
    text = json.dumps({"terms": [[list(e), str(c)] for e, c in sorted(p.items())], "value": str(value % 10**40)})
    return len(json.loads(text)["terms"])


class Speed:
    """Reference samples, their start times and durations, in the order
    taken."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self.last_end = float("-inf")

    def sample(self) -> None:
        # garbage the timed calls left behind is not the machine's speed
        gc.disable()
        start = perf_counter()
        reference_work()
        self.last_end = perf_counter()
        gc.enable()
        self.starts.append(start)
        self.times.append(self.last_end - start)

    def sample_if_due(self) -> None:
        if perf_counter() - self.last_end >= GAP_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """The scale for a call that started at start and took seconds. The
        caller has taken a sample since the call ended."""
        lo = bisect_left(self.starts, start - HALF_WINDOW_S)
        hi = bisect_right(self.starts, start + seconds + HALF_WINDOW_S)
        return REF_S / statistics.median(self.times[lo:hi])

    def timed(self, fn) -> tuple:
        """(fn's result, its scaled seconds), with BURST samples before and
        after the call."""
        for _ in range(BURST):
            self.sample()
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
        for _ in range(BURST):
            self.sample()
        return result, seconds * self.scale(start, seconds)
