"""Spans recorded from outside goodrings, for the traced run.

install() wraps each layer's public functions at every module name that
binds them (``from .core import bezout`` makes a second binding, so patching
only the defining module would miss those calls), and the public methods of
every ring class, of HomogeneousPolynomial and of SabAlgebra. Elementwise
arithmetic of rings and of A + A*th (zero, one, add, neg, mul, sub, eq)
stays unwrapped: it runs per coefficient and tracing it would swamp the
run. So do the polyuniv helpers trim and deg, and generator functions,
whose span would end before their work starts. goodrings.oracle is never
wrapped or timed.

A span records its name, start, end and parent. self_s is a span's duration
minus the time its child spans cover, so the self times of all spans add up
to the traced wall time, less the wrappers' own bookkeeping.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "witness", "homog", "rings", "polyuniv", "core", "sab")
_ELEMENTWISE = {"zero", "one", "add", "neg", "mul", "sub", "eq", "theta", "embed"}
_SKIP = {"polyuniv.trim", "polyuniv.deg"}
# spans kept in memory and written out; the per-name totals cover all spans
SPAN_CAP = 50000


class Tracer:
    """Spans kept in memory (the first SPAN_CAP of them) plus per-name
    totals over all of them."""

    def __init__(self):
        self.stack: list = []  # frames [id, name, child seconds]
        self.spans: list = []  # (id, name, start, end, parent id)
        self.span_count = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.span_count, name, 0.0]
            tracer.span_count += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], name, start, end, parent and parent[0]))
            if counter is not None:
                counter(tracer, args, result, parent)
                if parent is not None:
                    # keep the counter's own time out of the parent's self time
                    parent[2] += perf_counter() - end
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# counters taken by the wrappers from arguments and results


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    if isinstance(c, tuple):
        return max((_coeff_bits(x) for x in c), default=0)
    return 0


def _homog_mul(t, args, result, parent):
    t.counts["homog.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _homog_eval(t, args, result, parent):
    t.counts["homog.eval.terms"] += len(args[0].terms)


def _construct(t, args, result, parent):
    poly = result[0]
    t.maxima["homog.max_degree"] = max(t.maxima["homog.max_degree"], poly.degree)
    t.maxima["homog.max_terms"] = max(t.maxima["homog.max_terms"], len(poly.terms))
    bits = max((_coeff_bits(c) for c in poly.terms.values()), default=0)
    t.maxima["homog.max_coeff_bits"] = max(t.maxima["homog.max_coeff_bits"], bits)


def _unit_residue(t, args, result, parent):
    t.counts["rings.unit_residue_witness.hits"] += result is not None


def _find_witness(t, args, result, parent):
    kind = type(result).__name__
    if kind == "Witness":
        t.counts["witness.find_good_witness.hits"] += 1
        t.counts["witness.scan_steps"] += result.witness.N
    elif kind == "Refuted":
        t.counts["witness.scan_steps"] += getattr(result.evidence, "residues_visited", 0) + 1
    elif kind == "Exhausted":
        t.counts["witness.scan_steps"] += result.bound
    if parent is not None and parent[1] == "homog.extend_unit_valued":
        t.counts["homog.extend_unit_valued.witness_searches"] += 1


def _cli_run(t, args, result, parent):
    t.counts["cli.exit_code_2"] += result[0] == 2


_COUNTERS = {
    "homog.mul": _homog_mul,
    "homog.eval": _homog_eval,
    "homog.construct_unit_valued": _construct,
    "rings.unit_residue_witness": _unit_residue,
    "witness.find_good_witness": _find_witness,
    "cli.run": _cli_run,
}


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap_methods(tracer, cls, layer: str, skip=frozenset()) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") or attr in skip:
            continue
        name = f"{layer}.{attr}"
        if isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, obj.__func__, _COUNTERS.get(name))))
        elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj, _COUNTERS.get(name)))


def install(tracer: Tracer) -> None:
    """Wrap every layer of the imported goodrings package in place."""
    from goodrings import core, homog, rings, sab

    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"goodrings.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in _SKIP
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            wrapped[obj] = tracer.wrap(name, obj, _COUNTERS.get(name))
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "goodrings" or module_name == "goodrings.oracle":
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    ring_classes = [core.Ring] + [
        c for c in vars(rings).values() if inspect.isclass(c) and issubclass(c, core.Ring) and c is not core.Ring
    ]
    for cls in ring_classes:
        _wrap_methods(tracer, cls, "rings", _ELEMENTWISE)
    _wrap_methods(tracer, homog.HomogeneousPolynomial, "homog")
    _wrap_methods(tracer, sab.SabAlgebra, "sab", _ELEMENTWISE)


# ---------------------------------------------------------------------------
# per-layer metrics

_TIMED = {
    "homog.mul": ("calls", "self_s"),
    "homog.pow": ("calls", "self_s"),
    "homog.eval": ("calls", "self_s"),
    "homog.construct_unit_valued": ("self_s",),
    "homog.replay_trace": ("self_s",),
    "homog.extend_unit_valued": ("self_s",),
    "rings.unit_residue_witness": ("calls", "self_s"),
    "rings.parse_ring": ("self_s",),
    "rings.reduce_mod": ("calls", "self_s"),
    "rings.bezout": ("calls", "self_s"),
    "rings.divide_exact": ("self_s",),
    "rings.parse_element": ("self_s",),
    "rings.format_element": ("self_s",),
    "polyuniv.rational_roots": ("calls", "self_s"),
    "polyuniv.divmod_poly": ("calls", "self_s"),
    "polyuniv.xgcd": ("calls", "self_s"),
    "polyuniv.mul": ("calls", "self_s"),
    "core.bezout": ("calls", "self_s"),
    "core.verify_certificate": ("calls", "self_s"),
    "witness.find_good_witness": ("calls", "self_s"),
    "witness.verify_witness": ("calls", "self_s"),
    "witness.check_good_ring_exhaustive": ("self_s",),
    "witness.decide_good_point_rational_split": ("self_s",),
    "witness.refute_integer_poly_point": ("self_s",),
    "witness.unit_quotient_group": ("self_s",),
    "cli.run": ("calls", "self_s"),
    "sab.sab_mul": ("calls", "self_s"),
    "sab.sab_is_unit": ("self_s",),
    "sab.witness_to_polynomial": ("self_s",),
    "sab.polynomial_to_witness": ("self_s",),
}

_UNITS = {"calls": "count", "self_s": "s"}

# name -> unit, in report order
PER_LAYER = {}
for _span, _kinds in _TIMED.items():
    for _kind in _kinds:
        PER_LAYER[f"{_span}.{_kind}"] = _UNITS[_kind]
PER_LAYER.update(
    {
        "homog.mul.term_pairs": "count",
        "homog.eval.terms": "count",
        "homog.extend_unit_valued.witness_searches": "calls/step",
        "homog.max_degree": "degree",
        "homog.max_terms": "count",
        "homog.max_coeff_bits": "bits",
        "rings.unit_residue_witness.hit_ratio": "share",
        "witness.find_good_witness.hit_ratio": "share",
        "witness.scan_steps": "count",
        "cli.exit_code_2.count": "count",
    }
)
for _layer in LAYERS + ("bench",):
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "trace.wall_s": "s",
        "trace.attributed_share": "share",
        "trace.overhead_share": "share",
        "trace.spans": "count",
    }
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, traced_wall_s: float, overhead_share: float) -> dict:
    """Every PER_LAYER metric as {name: value}; 0 where a layer did no work."""
    out = {}
    for span, kinds in _TIMED.items():
        for kind in kinds:
            out[f"{span}.{kind}"] = tracer.calls[span] if kind == "calls" else tracer.self_s[span]
    c = tracer.counts
    out["homog.mul.term_pairs"] = c["homog.mul.term_pairs"]
    out["homog.eval.terms"] = c["homog.eval.terms"]
    out["homog.extend_unit_valued.witness_searches"] = _ratio(
        c["homog.extend_unit_valued.witness_searches"], tracer.calls["homog.extend_unit_valued"]
    )
    for key in ("homog.max_degree", "homog.max_terms", "homog.max_coeff_bits"):
        out[key] = tracer.maxima[key]
    out["rings.unit_residue_witness.hit_ratio"] = _ratio(
        c["rings.unit_residue_witness.hits"], tracer.calls["rings.unit_residue_witness"]
    )
    out["witness.find_good_witness.hit_ratio"] = _ratio(
        c["witness.find_good_witness.hits"], tracer.calls["witness.find_good_witness"]
    )
    out["witness.scan_steps"] = c["witness.scan_steps"]
    out["cli.exit_code_2.count"] = c["cli.exit_code_2"]
    layer_self = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS + ("bench",):
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    out["trace.wall_s"] = traced_wall_s
    out["trace.attributed_share"] = _ratio(sum(layer_self.values()), traced_wall_s)
    out["trace.overhead_share"] = overhead_share
    out["trace.spans"] = tracer.span_count
    assert set(out) == set(PER_LAYER)
    return out
