"""The seeded workloads, each a list of operations.

An operation is a zero-argument call into goodrings and a check of its
result. The call is timed; the check is not. Library functions are reached
through their modules at call time, so the traced run's wrappers see them.

Sizes cover their ranges evenly in every prefix of the operation list, and
the operation kinds come in fixed blocks, so two seeds give the same mix of
kinds and sizes and differ only in the draws.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from goodrings import cli, core, homog, rings, witness

import verify as v
from verify import Z, ensure, mod


class Refused(Exception):
    """The program declined to answer: an unexpected exit code or status."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


# An operation's deadline is a limit on its work: at most WORK_LIMIT term
# pairs (the product of the operands' term counts) over all its products of
# homogeneous polynomials. A product that would pass the limit is not
# started, and the operation counts as failed. The limit falls on the same
# operations in every run, where a wall-clock deadline falls on whichever
# operations near it meet a slow moment of the machine. At the seed commit
# it stops construct instances whose degree blows up, about 1% of them, and
# no heavy one; the instances within it take at most 0.5 s. It is part of
# the benchmark and the same on every commit.
WORK_LIMIT = 120_000

# Wall-clock deadlines in seconds, a backstop four times or more above the
# slowest operation at the seed commit, so that a run ends however slow a
# commit is. Also the same on every commit; a miss counts as a failure.
DEADLINE_S = {"construct": 5.0, "query": 2.0, "check_good": 5.0}


class WorkLimit(BaseException):
    """Raised before a product that would pass WORK_LIMIT; BaseException,
    so the package's own error handling cannot swallow it."""


class _Work:
    spent = 0


def start_work() -> None:
    """Start a new operation's count of term pairs."""
    _Work.spent = 0


def limit_work() -> None:
    """Wrap HomogeneousPolynomial.mul, from outside, to count term pairs
    against WORK_LIMIT."""
    mul = homog.HomogeneousPolynomial.mul

    @functools.wraps(mul)
    def limited(self, other):
        _Work.spent += len(self.terms) * len(other.terms)
        if _Work.spent > WORK_LIMIT:
            raise WorkLimit()
        return mul(self, other)

    homog.HomogeneousPolynomial.mul = limited


# 1 / golden ratio: the fractions (u0 + i * _STEP) mod 1 spread evenly over
# [0, 1) in every prefix i < k, so a run that times only a prefix of the list
# still covers each size range evenly
_STEP = (5**0.5 - 1) / 2


def _even_sizes(rng, count: int, lo: float, hi: float, log: bool = True) -> list:
    """count sizes that cover [lo, hi] evenly in every prefix of the list:
    the i-th sits at fraction (u0 + i * _STEP) mod 1 of the range, on a log
    scale if log, with u0 drawn from rng."""
    u0 = rng.random()
    out = []
    for i in range(count):
        u = (u0 + i * _STEP) % 1.0
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _blocks(rng, nblocks: int, plan: dict, makers: dict) -> list:
    """nblocks shuffled blocks, each holding plan[kind] operations of every
    kind; makers[kind](i) builds the i-th operation of that kind."""
    ops = []
    used = {kind: 0 for kind in plan}
    for _ in range(nblocks):
        block = []
        for kind, count in plan.items():
            for _ in range(count):
                block.append(makers[kind](used[kind]))
                used[kind] += 1
        rng.shuffle(block)
        ops.extend(block)
    return ops


# ---------------------------------------------------------------------------
# construct: construct_unit_valued, replay_trace, then check the result

# Acceptance-3 shape over Z: n = 2 with k in {1, 2}, and n = 3 or 4 with k in
# 1..5, in equal shares, twice per block of 65; then four Z/n instances and
# one prod(Z,Z/n) instance keep the generic coefficient path measured.
_Z_SHAPES = [(2, 1)] * 5 + [(2, 2)] * 5 + [(n, k) for n in (3, 4) for k in range(1, 6) for _ in range(2)]
CONSTRUCT_PLAN = {"z": 2 * len(_Z_SHAPES), "mod": 4, "prod": 1}
CONSTRUCT_BLOCKS = 100

# The heavy construct operations: fixed point sets over Z, the same for every
# seed, from the slow tail of the acceptance-3 shape (n = 3 or 4, three to
# five points). Seeded draws reach this tail too rarely for a steady figure.
# At the seed commit they take 30 to 250 ms each, within half the deadline.
_HEAVY_POINTS = [
    [(-4, 19, -13, -4), (8, 14, -2, 15), (-16, 18, -11, 4), (4, 1, -11, -1), (-12, -7, -9, 18)],
    [(10, -1, -16), (8, -13, 7), (18, 20, 5), (7, -14, -16), (14, -17, 12)],
    [(14, 15, 0), (14, -9, -9), (5, -1, 0), (3, 3, 4)],
    [(14, 8, 19), (-3, 17, -6), (-5, 4, 20), (14, 13, 5), (-19, -8, 18)],
    [(-20, 17, -6), (3, -1, -14), (0, 17, 14), (0, -20, -11)],
    [(15, -14, 3), (-5, 8, -13), (-14, 1, -8), (-5, 15, -1), (2, 17, 17)],
    [(19, 5, -2), (20, -17, 20), (-17, -12, 15), (-13, 11, 7), (-3, -13, 11)],
    [(13, 15, 18), (16, -15, -4), (-6, 11, -20), (6, -1, -14), (0, -12, -17)],
    [(5, 11, -7, -5), (-10, -18, 6, 15), (14, 10, -16, 17)],
    [(1, -17, -10), (-10, -13, 10), (19, -5, -19), (6, 18, 5), (-9, 14, 0)],
    [(-1, -17, -11), (3, 4, 6), (-1, 18, 16), (-2, 19, 0), (-8, -13, 0)],
    [(17, -5, -1), (4, 20, -17), (-11, 6, -7), (4, 11, -5), (7, -9, -3)],
]


def _points(rng, desc, n: int, k: int, draw) -> list:
    points, seen = [], set()
    while len(points) < k:
        coords = tuple(draw() for _ in range(n))
        if coords in seen or not _primitive(desc, coords):
            continue
        seen.add(coords)
        points.append(coords)
    return points


def _primitive(desc, coords) -> bool:
    if desc[0] == "Z":
        return math.gcd(*coords) == 1
    if desc[0] == "mod":
        return math.gcd(*coords, desc[1]) == 1
    return all(_primitive(f, tuple(c[i] for c in coords)) for i, f in enumerate(desc[1]))


def _construct_op(kind: str, ring, desc, coords: list) -> Op:
    points = [core.require_primitive(ring, c) for c in coords]

    def call():
        poly, trace = homog.construct_unit_valued(ring, points)
        return poly, homog.replay_trace(ring, trace)

    def check(result):
        poly, replayed = result
        ensure(replayed.terms == poly.terms, "replayed polynomial differs")
        ensure(poly.degree >= 1, "degree below 1")
        ensure(all(sum(e) == poly.degree for e in poly.terms), "not homogeneous")
        for c in coords:
            value = v.eval_terms(desc, poly.terms, c)
            ensure(value is not None and v.r_is_unit(desc, value), f"value at {c} is not a unit")

    return Op(kind, call, check)


def build_construct(seed: int) -> list:
    rng = random.Random(seed)
    z = rings.Integers()
    mod_rings = {m: rings.IntegersMod(m) for m in (7, 12, 30, 97)}
    prod_rings = {m: rings.parse_ring(f"prod(Z,Z/{m})") for m in (5, 6)}

    def z_op(i):
        n, k = _Z_SHAPES[i % len(_Z_SHAPES)]
        coords = _points(rng, Z, n, k, lambda: rng.randint(-20, 20))
        return _construct_op(f"construct.Z.n{n}", z, Z, coords)

    def mod_op(i):
        m = rng.choice(sorted(mod_rings))
        n, k = rng.choice((2, 3)), rng.randint(2, 4)
        coords = _points(rng, mod(m), n, k, lambda: rng.randrange(m))
        return _construct_op("construct.Zmod", mod_rings[m], mod(m), coords)

    def prod_op(i):
        m = rng.choice(sorted(prod_rings))
        desc = ("prod", (Z, mod(m)))
        n = rng.choice((2, 3))
        coords = _points(rng, desc, n, 2, lambda: (rng.randint(-20, 20), rng.randrange(m)))
        return _construct_op("construct.prod", prod_rings[m], desc, coords)

    return _blocks(rng, CONSTRUCT_BLOCKS, CONSTRUCT_PLAN, {"z": z_op, "mod": mod_op, "prod": prod_op})


def heavy_construct() -> list:
    z = rings.Integers()
    return [_construct_op("heavy.construct", z, Z, coords) for coords in _HEAVY_POINTS]


# ---------------------------------------------------------------------------
# query: one goodrings.cli.run command per operation

QUERY_PLAN = {
    "witness.Zn": 6,
    "witness.GFp": 4,
    "witness.Z": 4,
    "decide-qt": 4,
    "refute-zt": 4,
    "witness.locQ": 4,
    "witness.GFpT": 4,
    "witness.prod": 4,
    "sab": 2,
    "bridge": 2,
    "quotient-units": 2,
}
QUERY_BLOCKS = 50


def _cli_op(kind: str, argv: list, check_doc, codes=(0,)) -> Op:
    def call():
        return cli.run(argv)

    def check(result):
        code, out = result
        doc = json.loads(out)
        if code not in codes:
            raise Refused(f"exit {code}: {'; '.join(doc['diagnostics'])[:120]}")
        check_doc(code, doc)

    return Op(kind, call, check)


def _witness_op(kind, spec, desc, a, b, fmt, bound=None) -> Op:
    argv = ["witness", "--ring", spec, "--a", fmt(a), "--b", fmt(b)]
    if bound is not None:
        argv += ["--bound", str(bound)]

    def check_doc(code, doc):
        ensure(doc["status"] == "ok", f"status {doc['status']}")
        v.check_witness_payload(desc, a, b, doc["payload"], bound or 10000)

    return _cli_op(kind, argv, check_doc)


def _tuple_text(x) -> str:
    return "(" + ",".join(str(c) for c in x) + ")"


def _q_witness_identity(a, b, n: int, lam_num, lam_den, eps_num, eps_den) -> None:
    """b^n + lam*a == eps for fractions lam, eps of Q[T], cross-multiplied."""
    lhs = v.p_add(v.p_mul(v.p_pow(b, n), v.p_mul(lam_den, eps_den)), v.p_mul(v.p_mul(lam_num, a), eps_den))
    ensure(lhs == v.p_mul(eps_num, lam_den), "b^N + lam*a != eps")


def build_query(seed: int) -> list:
    rng = random.Random(seed)
    total = {kind: c * QUERY_BLOCKS for kind, c in QUERY_PLAN.items()}
    zn_sizes = _even_sizes(rng, total["witness.Zn"], 10, 1e6)
    gfp_sizes = _even_sizes(rng, total["witness.GFp"], 10, 1e6)
    z_sizes = _even_sizes(rng, total["witness.Z"], 3, 1e5)
    qt_sizes = _even_sizes(rng, total["decide-qt"], 1, 11, log=False)
    zt_sizes = _even_sizes(rng, total["refute-zt"], 1, 11, log=False)

    def zn(i):
        n = int(zn_sizes[i])
        while True:
            a, b = rng.randrange(1, n), rng.randrange(n)
            if math.gcd(a, b, n) == 1:
                return _witness_op("witness.Zn", f"Z/{n}", mod(n), a, b, str)

    def gfp(i):
        p = _next_prime(int(gfp_sizes[i]))
        a, b = rng.randrange(1, p), rng.randrange(p)
        return _witness_op("witness.GFp", f"GF({p})", mod(p), a, b, str)

    def z_pair(i):
        # the bound exceeds the order of b mod a, so a witness always exists
        a = int(z_sizes[i])
        while True:
            b = rng.randrange(2, a)
            if math.gcd(a, b) == 1:
                return _witness_op("witness.Z", "Z", Z, a, b, str, bound=a)

    def prod(i):
        if i % 2:
            m1, m2 = rng.randint(2, 12), _next_prime(rng.randint(2, 30))
            spec, desc = f"prod(Z/{m1},GF({m2}))", ("prod", (mod(m1), mod(m2)))
            draw = lambda: (rng.randrange(m1), rng.randrange(m2))
        else:
            m = rng.randint(4, 30)
            spec, desc = f"prod(Z,Z/{m})", ("prod", (Z, mod(m)))
            draw = lambda: (rng.randint(2, 200), rng.randrange(m))
        while True:
            a, b = draw(), draw()
            if _primitive(desc, (a, b)):
                return _witness_op("witness.prod", spec, desc, a, b, _tuple_text)

    makers = {
        "witness.Zn": zn,
        "witness.GFp": gfp,
        "witness.Z": z_pair,
        "decide-qt": lambda i: _decide_qt(rng, qt_sizes[i], i % 3),
        "refute-zt": lambda i: _refute_zt(rng, zt_sizes[i], i % 2),
        "witness.locQ": lambda i: _locq(rng, i % 3),
        "witness.GFpT": lambda i: _gfpt(rng),
        "witness.prod": prod,
        "sab": lambda i: _sab(rng, i % 4),
        "bridge": lambda i: _bridge(rng, i % 2),
        "quotient-units": lambda i: _quotient_units(rng, i % 2),
    }
    return _blocks(rng, QUERY_BLOCKS, QUERY_PLAN, makers)


def _decide_qt(rng, log_size: float, mode: int) -> Op:
    """a = (T - r1)(T - r2) with |r1*r2| about 10^log_size; b is chosen for
    N = 1 (mode 0), N = 2 (mode 1) or a refutation (mode 2)."""
    while True:
        part = rng.uniform(0, log_size)
        r1 = max(1, round(10**part)) * rng.choice((1, -1))
        r2 = max(1, round(10 ** (log_size - part))) * rng.choice((1, -1))
        if r1 != r2:
            break
    a = [Fraction(r1 * r2), Fraction(-(r1 + r2)), Fraction(1)]
    s = rng.choice((1, 2, 3, -1, -2))
    if mode == 0:
        b = v.p_add(v.p_mul([Fraction(s)], a), [Fraction(rng.randint(1, 9))])
    elif mode == 1:
        b = [Fraction(-s * (r1 + r2)), Fraction(2 * s)]
    else:
        while True:
            c = rng.randint(-50, 50)
            if c not in (r1, r2) and 2 * c != r1 + r2:
                b = [Fraction(-c), Fraction(1)]
                break
    roots = sorted((Fraction(r1), Fraction(r2)))
    values = [v.p_eval(b, r) for r in roots]
    ratios = [x / values[0] for x in values]
    bad = next((r for r in ratios if r not in (1, -1)), None)
    n_expected = 2 if -1 in ratios else 1

    def check_doc(code, doc):
        payload = doc["payload"]
        if bad is not None:
            ensure(doc["status"] == "refuted", f"status {doc['status']}, expected refuted")
            ensure(payload["kind"] == "ratio_criterion", "wrong evidence kind")
            ensure(payload["roots"] == [str(r) for r in roots], "wrong roots")
            ensure(payload["ratio"] == str(bad), "wrong ratio of root values")
            return
        ensure(doc["status"] == "ok", f"status {doc['status']}, expected a witness")
        ensure(payload["N"] == n_expected, f"N = {payload['N']}, expected {n_expected}")
        lam = v.parse_poly_t(payload["lambda"])
        eps = v.parse_poly_t(payload["epsilon"])
        ensure(eps == [values[0] ** n_expected], "eps is not b(root)^N")
        _q_witness_identity(a, b, n_expected, lam, [1], eps, [1])

    argv = ["decide-qt", "--ring", "Q[T]", "--a=" + v.format_poly_t(a), "--b=" + v.format_poly_t(b)]
    return _cli_op("decide-qt", argv, check_doc)


def _refute_zt(rng, log_size: float, mode: int) -> Op:
    """a = q*T - p with |p| about 10^log_size. Mode 0 makes b(p/q) = +-1, so
    the refuter must be inconclusive; mode 1 usually refutes."""
    while True:
        p = round(10**log_size) * rng.choice((1, -1))
        q = rng.randint(1, 9)
        if math.gcd(p, q) == 1:
            break
    a = [Fraction(-p), Fraction(q)]
    root = Fraction(p, q)
    if mode == 0:
        b = v.p_add(a, [Fraction(rng.choice((1, -1)))])
    else:
        while True:
            c = rng.randint(-50, 50)
            if root != c:
                b = [Fraction(-c), Fraction(1)]
                break
    value = v.p_eval(b, root)

    def check_doc(code, doc):
        payload = doc["payload"]
        if abs(value) == 1:
            ensure(doc["status"] == "ok" and payload == {"conclusive": False}, "expected inconclusive")
            return
        ensure(doc["status"] == "refuted", f"status {doc['status']}, expected refuted")
        ensure(payload["root"] == str(root), "wrong root")
        ensure(v.p_eval(a, Fraction(payload["root"])) == 0, "reported root is not a root of a")
        ensure(payload["value"] == str(value), "wrong value at the root")

    argv = ["refute-zt", "--ring", "Q[T]", "--a=" + v.format_poly_t(a), "--b=" + v.format_poly_t(b)]
    return _cli_op("refute-zt", argv, check_doc)


def _locq(rng, mode: int) -> Op:
    """Witness search on locQ(p), whose unit search is a documented bounded
    heuristic: a verified witness or an honest exhaustion (exit 3) pass."""
    p = rng.choice((2, 3, 5, 7))
    c = rng.choice([x for x in range(-9, 10) if x not in (0, p)])
    roots = {0: [p ** rng.randint(1, 3)], 1: [0, c], 2: [p ** rng.randint(1, 2), c]}[mode]
    a = [Fraction(1)]
    for r in roots:
        a = v.p_mul(a, [Fraction(-r), Fraction(1)])
    while True:
        b = [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 5))]
        if all(v.p_eval(b, r) != 0 for r in roots):
            break

    def check_doc(code, doc):
        if code == 3:
            ensure(doc["status"] == "exhausted", f"status {doc['status']} with exit 3")
            return
        ensure(doc["status"] == "ok", f"status {doc['status']}")
        payload = doc["payload"]
        n = payload["N"]
        ensure(isinstance(n, int) and n >= 1, "N below 1")
        lam_num, lam_den = v.parse_loc(payload["lambda"])
        eps_num, eps_den = v.parse_loc(payload["epsilon"])
        ensure(v.in_loc_set(lam_den, p), "lambda's denominator is not allowed")
        ensure(v.in_loc_set(eps_den, p) and v.in_loc_set(eps_num, p), "eps is not a unit")
        _q_witness_identity(a, b, n, lam_num, lam_den, eps_num, eps_den)

    argv = ["witness", "--ring", f"locQ({p})", "--a=" + v.format_poly_t(a), "--b=" + v.format_poly_t(b)]
    return _cli_op("witness.locQ", argv, check_doc, codes=(0, 3))


def _gfpt(rng) -> Op:
    """Witness search on GF(p)[T]: the least N with b^N a nonzero constant
    modulo a, found here by brute force."""
    p = rng.choice((2, 3, 5, 7))
    deg_a = rng.randint(1, 2 if p == 7 else 3)
    while True:
        a = [rng.randrange(p) for _ in range(deg_a)] + [1]
        b = v.p_trim([rng.randrange(p) for _ in range(rng.randint(1, 3))])
        f, g = list(a), list(b)
        while g:
            f, g = g, v.p_rem_mod(f, g, p)
        if b and len(f) == 1:
            break
    r, n = v.p_rem_mod(b, a, p), 1
    while len(r) != 1:
        r, n = v.p_rem_mod(v.p_mul(r, b), a, p), n + 1
    eps = r[0]

    def check_doc(code, doc):
        ensure(doc["status"] == "ok", f"status {doc['status']}")
        payload = doc["payload"]
        ensure(payload["N"] == n, f"N = {payload['N']}, the least N is {n}")
        ensure(v.parse_poly_t(payload["epsilon"]) == [eps], "eps differs from b^N mod a")
        lam = [int(c) for c in v.parse_poly_t(payload["lambda"])]
        lhs = v.p_reduce(v.p_add(v.p_pow(b, n, p), v.p_mul(lam, a)), p)
        ensure(lhs == [eps], "b^N + lam*a != eps")

    spec = f"GF({p})[T]"
    argv = ["witness", "--ring", spec, "--a", v.format_poly_t(a), "--b", v.format_poly_t(b)]
    return _cli_op("witness.GFpT", argv, check_doc)


def _sab_parse(desc, text: str) -> tuple:
    ensure(text.startswith("(") and text.endswith(")*th") and ") + (" in text, f"bad element {text!r}")
    x, y = text[1:-4].split(") + (")
    return v.r_parse(desc, x), v.r_parse(desc, y)


def _sab(rng, mode: int) -> Op:
    """A + A*th with th^2 = a*th over Z or Z/m: a product (even modes) or a
    unit test (odd modes), against the multiplication formula."""
    if mode < 2:
        spec, desc, draw = "Z", Z, lambda: rng.randint(-9, 9)
    else:
        m = rng.randint(2, 40)
        spec, desc, draw = f"Z/{m}", mod(m), lambda: rng.randrange(m)
    a = draw()

    def smul(z1, z2):
        (x1, y1), (x2, y2) = z1, z2
        xy = v.r_add(desc, v.r_mul(desc, x1, y2), v.r_mul(desc, y1, x2))
        return v.r_mul(desc, x1, x2), v.r_add(desc, xy, v.r_mul(desc, a, v.r_mul(desc, y1, y2)))

    def same(z1, z2):
        return v.r_eq(desc, z1[0], z2[0]) and v.r_eq(desc, z1[1], z2[1])

    x = (rng.choice((1, -1, draw())), draw())
    text = lambda z: f"({z[0]}) + ({z[1]})*th"
    argv = ["sab", "--ring", spec, f"--a={a}", "--x", text(x)]
    if mode % 2 == 0:
        y = (draw(), draw())
        argv += ["--op", "mul", "--y", text(y)]

        def check_doc(code, doc):
            ensure(same(_sab_parse(desc, doc["payload"]["product"]), smul(x, y)), "wrong product")

    else:
        argv += ["--op", "unit"]
        unit = v.r_is_unit(desc, x[0]) and v.r_is_unit(desc, v.r_add(desc, x[0], v.r_mul(desc, x[1], a)))

        def check_doc(code, doc):
            payload = doc["payload"]
            ensure(payload["is_unit"] == unit, "wrong unit decision")
            if unit:
                inverse = _sab_parse(desc, payload["inverse"])
                ensure(same(smul(x, inverse), (1, 0)), "inverse does not invert")

    return _cli_op("sab", argv, check_doc)


def _bridge(rng, mode: int) -> Op:
    """Witness to bivariate polynomial (mode 0) and back (mode 1) over Z."""
    while True:
        a, b = rng.randint(2, 60), rng.randint(-60, 60)
        if b and math.gcd(a, b) == 1:
            break
    argv = ["bridge", "--ring", "Z", "--a", str(a), f"--b={b}"]
    if mode == 0:
        argv.insert(1, "--to-poly")

        def check_doc(code, doc):
            payload = doc["payload"]
            v.check_witness_payload(Z, a, b, payload, 10000)
            terms = v.parse_homog(payload["polynomial"])
            ensure(all(sum(e) == payload["N"] for e in terms), "degree differs from N")
            ensure(v.eval_terms(Z, terms, (0, 1)) == 1, "P(0, 1) != 1")
            ensure(v.eval_terms(Z, terms, (a, b)) == int(payload["epsilon"]), "P(a, b) != eps")

        return _cli_op("bridge", argv, check_doc)

    # P = Y^N + lam*X*(u*X + w*Y)^(N-1) with u*a + w*b = 1, built here
    n, eps = v.min_witness(Z, a, b, 10000)
    lam = (eps - b**n) // a
    u, w = v.int_bezout(a, b)
    terms = {(0, n): 1}
    for i in range(n):
        c = lam * math.comb(n - 1, i) * u**i * w ** (n - 1 - i)
        if c:
            key = (i + 1, n - 1 - i)
            terms[key] = terms.get(key, 0) + c
    text = ""
    for (e1, e2), c in terms.items():
        if c:
            mono = "*".join(f"x{j + 1}^{e}" for j, e in enumerate((e1, e2)) if e)
            text += f"{'+' if c > 0 else '-'}{abs(c)}*{mono}"
    argv = ["bridge", "--from-poly"] + argv[1:] + ["--poly=" + text.lstrip("+")]

    def check_doc(code, doc):
        payload = doc["payload"]
        ensure(payload["N"] == n, f"N = {payload['N']}, the degree is {n}")
        ensure(int(payload["lambda"]) == lam and int(payload["epsilon"]) == eps, "wrong witness")

    return _cli_op("bridge", argv, check_doc)


def _quotient_units(rng, mode: int) -> Op:
    """(A/aA)^x / image(A^x) on Z (mode 0) or Z/m (mode 1), against Euler's
    phi counted by brute force."""

    def phi(m):
        return sum(1 for k in range(m) if math.gcd(k, m) == 1) if m > 1 else 1

    if mode == 0:
        a = rng.randint(2, 2000) * rng.choice((1, -1))
        spec, m = "Z", abs(a)
        carrier = phi(m)
        order = carrier // len({1 % m, (m - 1) % m})
    else:
        n = rng.randint(10, 300)
        a = rng.randrange(n)
        spec, carrier, order = f"Z/{n}", phi(math.gcd(a, n)), 1

    def check_doc(code, doc):
        payload = doc["payload"]
        expected = {"group_status": "finite", "order": order, "carrier": carrier}
        ensure(payload == expected, f"{payload} != {expected}")

    return _cli_op("quotient-units", ["quotient-units", "--ring", spec, f"--a={a}"], check_doc)


def heavy_query() -> list:
    """The heavy query commands: fixed, the same for every seed, from the top
    of each size range. The unit table of Z/n and the spec of GF(p) cost
    most near 10^6; divisor enumeration costs most near 10^11. Each takes
    under 0.5 s at the seed commit."""
    rng = random.Random(0)
    return [
        _witness_op("heavy.witness.Zn", "Z/1000003", mod(1000003), 123457, 654321, str),
        _witness_op("heavy.witness.GFp", "GF(999983)", mod(999983), 4321, 98765, str),
        replace(_decide_qt(rng, 11, 0), kind="heavy.decide-qt"),
        replace(_refute_zt(rng, 11, 1), kind="heavy.refute-zt"),
    ]


# ---------------------------------------------------------------------------
# check_good: one exhaustive goodness check of a finite ring per operation

CHECK_GOOD_PLAN = {"Zn": 2, "GFp": 1, "prod": 1}
CHECK_GOOD_BLOCKS = 60


def _check_good_lib_op(kind: str, spec: str, size: int) -> Op:
    """check_good_ring_exhaustive on a ring parsed afresh in each call, so
    every call warms the ring's per-a unit cache from empty. Every finite
    ring of these shapes is good, and every primitive pair has a witness
    with N = 1: the residue of b modulo gcd(a, n) is already a unit."""

    def call():
        return witness.check_good_ring_exhaustive(rings.parse_ring(spec))

    def check(report):
        ensure(report.pairs_checked == size * size, f"{report.pairs_checked} pairs, |A|^2 is {size * size}")
        ensure(report.all_good and not report.failures, f"{len(report.failures)} pairs reported not good")
        ensure(report.max_N_seen == 1, f"max N {report.max_N_seen}, every pair has N = 1")

    return Op(kind, call, check)


def build_check_good(seed: int) -> list:
    """Z/n with n log-uniform in [16, 64], GF(p) with p the next prime after
    a log-uniform draw in [16, 64], and products of two or three Z/m and
    GF(p) factors of 12 to 40 elements. The cost grows with the square of
    the size, and a product ring's pair costs four to five times a Z/n
    pair, so these sizes fit more than 100 operations in a pass of a few
    seconds; the heavy operations cover the larger rings."""
    rng = random.Random(seed)
    total = {kind: c * CHECK_GOOD_BLOCKS for kind, c in CHECK_GOOD_PLAN.items()}
    zn_sizes = _even_sizes(rng, total["Zn"], 16, 64)
    gfp_sizes = _even_sizes(rng, total["GFp"], 16, 64)
    prod_sizes = _even_sizes(rng, total["prod"], 12, 40)

    def zn(i):
        n = int(zn_sizes[i])
        return _check_good_lib_op("check_good.Zn", f"Z/{n}", n)

    def gfp(i):
        p = _next_prime(int(gfp_sizes[i]))
        return _check_good_lib_op("check_good.GFp", f"GF({p})", p)

    def prod(i):
        target = prod_sizes[i]
        while True:
            factors = [rng.choice(("Z/", "GF(")) for _ in range(rng.choice((2, 3)))]
            sizes = [rng.choice((2, 3, 5, 7, 11, 13)) if f == "GF(" else rng.randint(2, 12) for f in factors]
            size = math.prod(sizes)
            if abs(size - target) <= 0.15 * target:
                break
        spec = "prod(" + ",".join(f"GF({m})" if f == "GF(" else f"Z/{m}" for f, m in zip(factors, sizes)) + ")"
        return _check_good_lib_op("check_good.prod", spec, size)

    return _blocks(rng, CHECK_GOOD_BLOCKS, CHECK_GOOD_PLAN, {"Zn": zn, "GFp": gfp, "prod": prod})


def heavy_check_good() -> list:
    """Fixed rings, the same for every seed, each 0.2 to 0.4 s at the seed
    commit: Z/150, GF(127), and products of 66 and 52 elements."""
    return [
        _check_good_lib_op("heavy.check_good", "Z/150", 150),
        _check_good_lib_op("heavy.check_good", "GF(127)", 127),
        _check_good_lib_op("heavy.check_good", "prod(Z/6,GF(11))", 66),
        _check_good_lib_op("heavy.check_good", "prod(Z/4,GF(13))", 52),
    ]


BUILDERS = {"construct": build_construct, "query": build_query, "check_good": build_check_good}
HEAVY = {"construct": heavy_construct, "query": heavy_query, "check_good": heavy_check_good}
BLOCK_OPS = {
    "construct": sum(CONSTRUCT_PLAN.values()),
    "query": sum(QUERY_PLAN.values()),
    "check_good": sum(CHECK_GOOD_PLAN.values()),
}
