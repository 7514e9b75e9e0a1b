#!/usr/bin/env python3
"""Print one digest line per benchmark operation and golden CLI command.

    python3 bench/same_outputs.py --seeds 1,2,3 > change.txt
    python3 bench/same_outputs.py --seeds 1,2,3 --tree ../parent > parent.txt
    diff parent.txt change.txt

Each line reads `workload seed index kind sha256`, where sha256 is taken of
the repr of the operation's result: every operation of perfbench's BUILDERS
for each seed, then every HEAVY operation (seed "-"), then every command of
this checkout's tests/golden/cli.jsonl (workload "golden", its result the
exit code and the serialized output of cli.run), so both listings run the
same commands. Last come the construction traces (workload "trace", its
result the trace that construct_unit_valued returns): of each of
perfbench's _HEAVY_POINTS sets over Z (kind "heavy"), then of the point set
of each golden `construct` command on its own ring (kind "golden", indexed
by the command's line), read by the library's own parsers. Then the
limits (workload "limits", kind the command): `check-good` on Z/n and
`quotient-units` at (0,0) on prod(Z,Z/n) for the moduli of CHECK_GOOD_MODULI
and QUOTIENT_MODULI, where factoring n decides the answer or the refusal.
Then locQ(p) (workload "locq", kind the command): `quotient-units`,
`witness` and `sab --op unit` on locQ(p), p in 2, 3, 5, 7, for the a of
_locq_commands, whose roots in {0} union {p^k} reach p^6 and repeat.
Then seeded Q[T] and locQ(p) pairs of degree at most 30 (workload "qt",
kind the subcommand): `witness` with a small bound, `decide-qt` and
`refute-zt` of _qt_commands, not primitive or not split among them.
Then Bezout certificates (workload "bezout", kind the ring): ring.bezout
of seeded tuples of length 1 to 3 over every ring kind, a common factor
planted in a third of them, from _bezout_cases, digested as the coefficients
or None; the Q[T] tuples reach degree 30, and row 10's pair (seed "-")
comes once.
Last, constructions (workload "construct-grid", kind "poly:" or "trace:"
then the ring): for each (ring, points, bound) of CONSTRUCT_GRID, rings and
point sets the benchmark never draws (Z/n and products with zero divisors,
GF(p)[T], Q[T] with one set exhausted at its bound, and locQ(p)), one line
digests the polynomial that construct_unit_valued returns and one its
trace, so a change to the trace's shape leaves the polynomial lines
comparable. Last, the command line's edge cases (workload "cli-edge", kind
the command line's first word or "-"): the top-level --help, each
subcommand's --help, and the malformed command lines of CLI_EDGE, each
digested as its exit code (or SystemExit code) and everything cli.run
printed to stdout, under COLUMNS=80 so help text wraps the same in every
terminal. The golden file covers none of these paths. Operations are not
checked, only digested.

Like the benchmark, it limits every operation's work: limit_work() once, and
start_work() before each operation. A WorkLimit, any other exception, and a
repr that fails (an int past the interpreter's digit limit, which is left as
it is) are digested as outcomes in place of the result. There is no
wall-clock deadline, so an operation that hangs holds up the listing.

--tree DIR takes src/ and perfbench/ from another checkout, so
two checkouts' listings can be compared with diff. perfbench/ is imported
without writing bytecode, and nothing under it changes. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.jsonl"
HASH_SEED = "0"
BIG = 3317044064679887385961813  # the largest prime below rings._PRIMALITY_LIMIT
M61 = 2**61 - 1
# primes, prime powers and products on either side of the trial bounds
# isqrt(_PAIR_LIMIT) = 1000 and _QUOTIENT_LIMIT = 20000 and of the primality limit
CHECK_GOOD_MODULI = (
    1, 2, 4, 1000000007, 1000000000100000000002379, M61**3, 2 * 999983, 3000,
    12 * BIG, M61, 1009 * 1013, 997**2,
)
QUOTIENT_MODULI = (
    1, 15, 30000, 1000000007, 1000000000100000000002379, M61**3, 12 * BIG, M61,
    20011 * 20021, 19997 * 20011, 20011**2, 2 * BIG**2,
)

# (ring, points, witness bound) of the "construct-grid" section
CONSTRUCT_GRID = (
    ("Z/12", "(1,0);(0,1);(1,1);(5,7)", 10000),
    ("Z/12", "(1,0,0);(0,1,0);(0,0,1);(1,1,1);(5,7,11)", 10000),
    ("Z/30", "(1,2);(3,5);(7,1);(11,13)", 10000),
    ("GF(3)[T]", "(1,0);(0,1);(T,1);(1,T+1)", 10000),
    ("GF(2)[T]", "(1,0);(0,1);(T,1);(T^2+T+1,T)", 10000),
    ("Q[T]", "(1,0);(0,1);(T,1)", 10000),
    ("Q[T]", "(1,0);(0,1);(T,1);(1/2,T-1)", 30),
    ("locQ(2)", "(1,0);(0,1);(T,1)", 10000),
    ("locQ(3)", "(1,0);(0,1);(T-3,1);(1,T)", 10000),
    ("prod(GF(5),Z/12)", "((1,1),(0,0));((0,0),(1,1));((1,5),(1,7))", 10000),
    ("prod(Z,Q[T])", "((1,1),(0,0));((0,0),(1,1));((1,T),(1,1))", 10000),
)

# pairs per seed of the "qt" section: 3 Q[T] commands each, and a locQ(p) one every other pair
QT_PAIRS = 150
# tuples per ring and seed of the "bezout" section
BEZOUT_TUPLES = 12
# hang row 10's coprime pair of degree 1000 and 10, digested once
ROW_10 = ("2*T^1000-T^31", "2*T^10+5*T^3+7")

SUBCOMMANDS = ("witness", "construct", "check-good", "quotient-units", "decide-qt", "refute-zt", "sab", "bridge")
_PAIR = ["--ring", "Z", "--a", "5", "--b", "2"]
# malformed or unusual command lines of the "cli-edge" section
CLI_EDGE = (
    [],
    ["frobnicate", "--ring", "Z"],
    ["Witness", *_PAIR],
    ["-h", "witness"],
    ["--format", "text", "witness", *_PAIR],
    ["witness"],
    ["witness", "--ring", "Z", "--a", "5"],
    ["witness", "--rin", "Z", "--a", "5", "--b", "2"],
    ["witness", *_PAIR, "--fo", "text"],
    ["witness", "--ring=Z", "--a=5", "--b=2", "--format=text"],
    ["witness", *_PAIR, "--b", "3"],
    ["witness", *_PAIR, "extra"],
    ["witness", *_PAIR, "-x"],
    ["witness", *_PAIR, "--bound", "ten"],
    ["witness", *_PAIR, "--format", "xml"],
    ["witness", "--ring", "Z", "--a", "-5", "--b", "2"],
    ["witness", "--", *_PAIR],
    ["witness", *_PAIR, "-h"],
    ["construct", "--ring", "Z"],
    ["check-good", "--ring", "Z/6", "--ring"],
    ["quotient-units", "--ring", "Z", "--a"],
    ["sab", "--ring", "Z", "--a", "2", "--op", "div", "--x", "(1) + (0)*th"],
    ["sab", "--ring", "Z", "--a", "2", "--op", "mul", "--x", "(1) + (0)*th"],
    ["bridge", *_PAIR],
    ["bridge", "--to-poly", "--from-poly", *_PAIR],
    ["bridge", "--from-poly", *_PAIR],
    ["bridge", "--to", *_PAIR],
)


def _cli_printed(cli, argv) -> tuple:
    """(exit code, stdout) of cli.run(argv): its result when it returns,
    the SystemExit code and the help text when it exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            result = cli.run(argv)
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue()


def _t_poly(scale, roots, rest=(1,)) -> str:
    """scale * rest * prod(T - z) as a literal in T, rest ascending."""
    f = [Fraction(c) * scale for c in rest]
    for z in roots:
        f = [c - z * d for c, d in zip([0] + f, f + [0])]
    return "+".join(f"({c})*T^{i}" for i, c in enumerate(f) if c)


def _poly_mul(f, g) -> list:
    """The product of two ascending coefficient lists."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _locq_commands() -> list:
    """A fixed grid on locQ(p): roots p^k up to p^6, repeated roots, roots
    outside {0} union {p^k} (-p, 1, 1/p, p^4 + 1, -p^6), a factor T^2 + 1
    with no rational root, fractional coefficients, and one unit a."""
    argvs = []
    for p in (2, 3, 5, 7):
        ring = f"locQ({p})"
        for a in (
            _t_poly(1, [p**6]),
            _t_poly(1, [0, p, p, p**6]),
            _t_poly(Fraction(1, 11), [p**3] * 3 + [p**6] * 2),
            _t_poly(Fraction(3, 2), [p**5, p**5, -p], (1, 0, 1)),
            _t_poly(Fraction(-1, 3), [p**4, p**4 + 1, Fraction(1, p)], (Fraction(1, 2), 1)),
            _t_poly(Fraction(5, 7), [-p**6, 1], (1, 0, 1)),
        ):
            argvs.append(["quotient-units", "--ring", ring, "--a", a])
            for b in ("T+1", f"T-{p}", f"(T-{p**2})/(T+1)"):
                argvs.append(["witness", "--ring", ring, "--a", a, "--b", b, "--bound", "30"])
            for x in ("(T+1) + (1)*th", "((2)/(T+1)) + (-1)*th", f"(T-{p**3}) + (T)*th"):
                argvs.append(["sab", "--ring", ring, "--a", a, "--op", "unit", "--x", x])
    return argvs


def _qt_commands(seed: int) -> list:
    """QT_PAIRS seeded pairs of degree at most 30. Each gives `witness`
    (bound 1 to 4), `decide-qt` and `refute-zt` on Q[T], and every other pair
    also `witness` on locQ(p). a splits squarefree over Q, splits with a
    repeated root, or is dense, so mostly not split; its roots come from a
    pool that holds 0 and powers of p. b is dense, shares a root or a factor
    with a (not primitive), or is a small constant plus a multiple of a.
    Two pairs in three draw integer coefficients, as refute-zt requires."""
    rng = random.Random(seed)

    def poly(degree, ints) -> list:
        return [Fraction(rng.randint(-9, 9), 1 if ints else rng.randint(1, 4)) for _ in range(degree)] + [
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        ]

    argvs = []
    for i in range(QT_PAIRS):
        p, ints = rng.choice((2, 3, 5)), rng.random() < 2 / 3
        pool = [0, p, p * p, p**3] + [z for z in range(-12, 13) if z not in (0, p, p * p)]
        shape, degree = rng.randrange(3), rng.randint(1, 30)
        if shape == 2:
            rest, roots = poly(degree, ints), []
        else:
            roots = rng.sample(pool, min(degree, 12))
            if shape == 1:
                roots.append(roots[0])
            rest = [Fraction(rng.choice((1, 2, 3, -1)))]
        a = rest
        for z in roots:
            a = _poly_mul(a, [Fraction(-z), Fraction(1)])
        kind = rng.randrange(3)
        if kind == 0:
            b = poly(rng.randint(0, 30), ints)
        elif kind == 1:
            shared = [Fraction(-roots[0]), Fraction(1)] if roots else rest
            b = _poly_mul(shared, poly(rng.randint(0, 30 - len(shared) + 1), ints))
        else:
            b = _poly_mul(a, poly(rng.randint(0, 30 - len(a) + 1), ints))
            b[0] += rng.choice((1, -1, 2, -2))
        pair = ["--a", _t_poly(1, [], a), "--b", _t_poly(1, [], b) or "0"]
        bound = ["--bound", str(rng.randint(1, 4))]
        argvs += [["witness", "--ring", "Q[T]", *pair, *bound], ["decide-qt", "--ring", "Q[T]", *pair]]
        argvs.append(["refute-zt", "--ring", "Q[T]", *pair])
        if i % 2:
            argvs.append(["witness", "--ring", f"locQ({p})", *pair, *bound])
    return argvs


def _bezout_cases(seed: int) -> list:
    """(ring spec, element literals) for the "bezout" section: BEZOUT_TUPLES
    tuples on each of Z (negatives and zeros), Z/n, GF(p)[T], Q[T] (degree
    up to 30) and locQ(p), each of one to three elements that share a drawn
    factor a third of the time, and as many on prod(Z,Q[T]) and
    prod(Z/n,locQ(p)) from those tuples."""
    rng = random.Random(seed)
    n, p = rng.randint(2, 400), rng.choice((2, 3, 5, 101))

    def poly(top, coeff) -> list:
        degree = rng.randint(-1, top)
        return [coeff() for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))] if degree >= 0 else []

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def residue() -> int:
        return rng.randrange(p)

    def roots() -> list:
        # 0 and p^k are roots outside locQ(p)'s set S, 1 and -3 are not
        return rng.sample([0, p, p * p, 1, -3], rng.randint(0, 3))

    # per ring: an element, a common factor, their product, and its literal;
    # a locQ(p) element is (scale, roots of its numerator, denominator in S)
    kinds = {
        "Z": (
            lambda: rng.choice((0, rng.randint(-99, 99), rng.randint(-(10**20), 10**20), rng.randint(-9, 9))),
            lambda: rng.randint(-30, 30), lambda c, x: c * x, str,
        ),
        f"Z/{n}": (lambda: rng.randrange(n), lambda: rng.randrange(n), lambda c, x: c * x % n, str),
        f"GF({p})[T]": (
            lambda: poly(12, residue), lambda: poly(3, residue), _poly_mul,
            lambda f: _t_poly(1, [], [c % p for c in f]) or "0",
        ),
        "Q[T]": (lambda: poly(30, small), lambda: poly(8, small), _poly_mul, lambda f: _t_poly(1, [], f) or "0"),
        f"locQ({p})": (
            lambda: (rng.choice((0, 1, Fraction(-2, 3))), roots(), rng.choice(("1", "T+1", "T^2+3"))),
            roots, lambda c, x: (x[0], x[1] + c, x[2]),
            lambda x: f"({_t_poly(x[0], x[1]) or '0'})/({x[2]})",
        ),
    }
    cases = {}
    for spec, (element, factor, planted, literal) in kinds.items():
        cases[spec] = []
        for _ in range(BEZOUT_TUPLES):
            xs = [element() for _ in range(rng.choice((1, 2, 2, 3, 3)))]
            if rng.random() < 1 / 3:
                c = factor()
                xs = [planted(c, x) for x in xs]
            cases[spec].append([literal(x) for x in xs])
    for left, right in (("Z", "Q[T]"), (f"Z/{n}", f"locQ({p})")):
        cases[f"prod({left},{right})"] = [
            [f"({x},{y})" for x, y in zip(xs, ys)] for xs, ys in zip(cases[left], cases[right])
        ]
    return [(spec, xs) for spec, tuples in cases.items() for xs in tuples]


def _digest(call) -> str:
    """sha256 of repr(call()), or of the outcome that stood in for it."""
    from workloads import WorkLimit, start_work

    start_work()
    try:
        text = repr(call())
    except WorkLimit:
        text = "outcome: WorkLimit"
    except Exception as exc:
        text = f"outcome: raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the benchmark runs under this hash seed; set and dict layouts follow it
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3")
    parser.add_argument("--tree", type=Path, default=ROOT)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    tree = args.tree.resolve()
    src, bench = tree / "src", tree / "perfbench"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(bench)]
    import goodrings
    import workloads
    from goodrings import cli
    from goodrings.core import require_primitive
    from goodrings.homog import construct_unit_valued
    from goodrings.rings import Integers, parse_ring

    if Path(goodrings.__file__).resolve().parent != src / "goodrings":
        print(f"same_outputs: imported goodrings from {goodrings.__file__}, not {src}", file=sys.stderr)
        return 2
    workloads.limit_work()
    for workload, build in workloads.BUILDERS.items():
        for seed in seeds:
            for i, op in enumerate(build(seed)):
                print(workload, seed, i, op.kind, _digest(op.call), flush=True)
    for workload, heavy in workloads.HEAVY.items():
        for i, op in enumerate(heavy()):
            print(workload, "-", i, op.kind, _digest(op.call), flush=True)
    golden = [json.loads(line)["argv"] for line in GOLDEN.read_text().splitlines()]
    for i, argv in enumerate(golden):
        print("golden", "-", i, argv[0], _digest(lambda: cli.run(argv)), flush=True)
    z = Integers()
    for i, coords in enumerate(workloads._HEAVY_POINTS):
        points = [require_primitive(z, c) for c in coords]
        print("trace", "-", i, "heavy", _digest(lambda: construct_unit_valued(z, points)[1]), flush=True)
    for i, argv in enumerate(golden):
        if argv[0] != "construct":
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))

        def trace():
            ring = parse_ring(opts["--ring"])
            return construct_unit_valued(ring, cli._parse_points(ring, opts["--points"]))[1]

        print("trace", "-", i, "golden", _digest(trace), flush=True)
    limits = [["check-good", "--ring", f"Z/{n}"] for n in CHECK_GOOD_MODULI] + [
        ["quotient-units", "--ring", f"prod(Z,Z/{n})", "--a", "(0,0)"] for n in QUOTIENT_MODULI
    ]
    for i, argv in enumerate(limits):
        print("limits", "-", i, argv[0], _digest(lambda: cli.run(argv)), flush=True)
    for i, argv in enumerate(_locq_commands()):
        print("locq", "-", i, argv[0], _digest(lambda: cli.run(argv)), flush=True)
    for seed in seeds:
        for i, argv in enumerate(_qt_commands(seed)):
            print("qt", seed, i, argv[0], _digest(lambda: cli.run(argv)), flush=True)

    def certificate(spec, texts):
        ring = parse_ring(spec)
        return ring.bezout(tuple(ring.parse_element(t) for t in texts))

    for seed in seeds:
        for i, (spec, texts) in enumerate(_bezout_cases(seed)):
            print("bezout", seed, i, spec, _digest(lambda: certificate(spec, texts)), flush=True)
    print("bezout", "-", 0, "Q[T]", _digest(lambda: certificate("Q[T]", ROW_10)), flush=True)
    for i, (spec, points, bound) in enumerate(CONSTRUCT_GRID):

        @functools.cache  # an exception is not cached: it is raised again
        def construct():
            ring = parse_ring(spec)
            return construct_unit_valued(ring, cli._parse_points(ring, points), bound)

        for part, name in enumerate(("poly", "trace")):
            print("construct-grid", "-", i, f"{name}:{spec}", _digest(lambda: construct()[part]), flush=True)
    os.environ["COLUMNS"] = "80"
    edges = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS] + list(CLI_EDGE)
    for i, argv in enumerate(edges):
        kind = argv[0] if argv else "-"
        print("cli-edge", "-", i, kind, _digest(lambda: _cli_printed(cli, argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
