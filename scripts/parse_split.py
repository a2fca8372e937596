"""Time parsing against whole commands on large instances, one family at a time.

Builds seeded instances of the shapes that are settled by a bound or cut to
a kernel (random digraphs with 2-cycles, a huge header around three arcs,
width-2 and width-3 formulas, lin2 systems of small equations, and a
width-3 formula whose clauses all share one variable), a width-3 formula
written with each clause's literals in reverse, which the parser sorts,
the worst shapes for converting each distinct token once: a digraph
whose weights are all distinct and a lin2 system whose indices mostly are,
and the 10,000-arc digraph, the width-2 formula and the lin2 system again
with CRLF line ends and comment lines, which are normalized before they are
read, beside their plain texts, which are read as they stand.
Writes each to a file, and times ``instances.parse_instance`` on its text and
``cli.run`` on the command (both best of ``--reps``). Prints one JSON row
per instance, with the parse share of the command, one total row per
dialect and a total row.
``--scale`` multiplies every vertex, variable, arc, clause and equation
count; 1 gives the sizes of the benchmark's ``kernelize`` workload.

    python3 scripts/parse_split.py --scale 1 --reps 7
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abovetight import cli, instances  # noqa: E402
from abovetight.linord import WeightedDigraph  # noqa: E402
from abovetight.maxlin import Lin2System  # noqa: E402
from abovetight.rsat import ExactCnfFormula  # noqa: E402


def digraph(rng: random.Random, n: int, m: int) -> WeightedDigraph:
    """m distinct random arcs on n vertices, weights 1-4; 2-cycles occur."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    return WeightedDigraph.from_arcs(n, [(u, v, rng.randint(1, 4)) for u, v in pairs])


def with_distinct_weights(rng: random.Random, g: WeightedDigraph) -> WeightedDigraph:
    """``g`` with its arcs reweighted by distinct weights up to 10^9."""
    weights = rng.sample(range(1, 10**9 + 1), len(g.arcs))
    return WeightedDigraph.from_arcs(g.n, [(u, v, w) for (u, v, _), w in zip(g.arcs, weights)])


def formula(rng: random.Random, n: int, m: int, r: int) -> ExactCnfFormula:
    """m random width-r clauses over n variables, three literals in four positive."""
    clauses = []
    for _ in range(m):
        variables = sorted(rng.sample(range(1, n + 1), r))
        clauses.append(tuple(v if rng.random() < 0.75 else -v for v in variables))
    return ExactCnfFormula(n, r, tuple(clauses))


def one_hot_formula(rng: random.Random, m: int, r: int) -> ExactCnfFormula:
    """m width-r clauses that share only variable 1, each with its own r - 1 variables."""
    clauses = []
    for j in range(m):
        hub = 1 if rng.random() < 0.5 else -1
        own = range(2 + (r - 1) * j, 2 + (r - 1) * (j + 1))
        clauses.append((hub,) + tuple(v if rng.random() < 0.75 else -v for v in own))
    return ExactCnfFormula(1 + (r - 1) * m, r, tuple(clauses))


def reversed_text(f: ExactCnfFormula) -> str:
    """The ecnf text of ``f`` with each clause's literals written in reverse variable order."""
    header, *lines = instances.serialize_instance(f).text.splitlines()
    return "\n".join([header, *(" ".join(line.split()[-2::-1]) + " 0" for line in lines)]) + "\n"


def crlf_commented_text(instance) -> str:
    """The text of ``instance`` with CRLF line ends and a comment line before every 50th record line."""
    header, *lines = instances.serialize_instance(instance).text.splitlines()
    rows = [header] + [("c record %d\r\n" % i if i % 50 == 0 else "") + line for i, line in enumerate(lines)]
    return "\r\n".join(rows) + "\r\n"


def system(rng: random.Random, n: int, m: int) -> Lin2System:
    """m random equations of 1 or 3 variables over n, weights 1-4."""
    eqs = []
    for _ in range(m):
        variables = tuple(sorted(rng.sample(range(n), rng.choice((1, 3)))))
        eqs.append((variables, rng.randint(0, 1), rng.randint(1, 4)))
    return Lin2System.from_tuples(n, eqs)


def families(rng: random.Random, scale: float) -> list[tuple[str, object, list[str]]]:
    """(name, instance or its text, command flags) for each instance."""
    def size(x: int, least: int) -> int:
        return max(least, round(x * scale))

    out = []
    for n, m in ((400, 3000), (1500, 10000), (2500, 15000)):
        n = size(n, 8)
        m = min(size(m, 8), n * (n - 1))
        out.append(("digraph/n%d-m%d" % (n, m), digraph(rng, n, m), ["loalb", "--k", "1"]))
    u, v, w = rng.sample(range(size(200000, 3)), 3)
    header = WeightedDigraph.from_arcs(size(200000, 3), [(u, v, 2), (v, w, 1), (w, u, 1)])
    out.append(("digraph/header-n%d" % header.n, header, ["loalb", "--k", "1"]))
    for n, m, r in ((1500, 4000, 2), (1000, 2000, 3)):
        n, m = size(n, 2 * r), size(m, 4)
        out.append(("ecnf/r%d-n%d-m%d" % (r, n, m), formula(rng, n, m, r), ["rsat", "--k-num", "1"]))
    n, m = size(300, 6), size(1500, 6)
    out.append(("lin2/n%d-m%d" % (n, m), system(rng, n, m), ["linalb", "--k", "1"]))
    m = size(3000, 4)
    out.append(("ecnf/one-hot-r3-m%d" % m, one_hot_formula(rng, m, 3), ["rsat", "--k-num", "1"]))
    # The worst shapes for converting each distinct token once.
    n, m = size(1500, 8), size(10000, 8)
    g = with_distinct_weights(rng, digraph(rng, n, min(m, n * (n - 1))))
    out.append(("digraph/distinct-weights-m%d" % len(g.arcs), g, ["loalb", "--k", "1"]))
    # About 2m indices over n = 2m variables, so most index tokens occur once.
    n, m = size(3000, 6), size(1500, 6)
    out.append(("lin2/distinct-n%d-m%d" % (n, m), system(rng, n, m), ["linalb", "--k", "1"]))
    # Last, so the rows above keep their instances: clauses out of variable order.
    n, m = size(1000, 6), size(2000, 4)
    text = reversed_text(formula(rng, n, m, 3))
    out.append(("ecnf/reversed-r3-n%d-m%d" % (n, m), text, ["rsat", "--k-num", "1"]))
    # The second digraph row's, the width-2 formula's and the first lin2 row's instances,
    # written with CRLF line ends and comments.
    for name, instance, flags in (out[1], out[4], out[6]):
        dialect, _, shape = name.partition("/")
        out.append(("%s/crlf-comments-%s" % (dialect, shape), crlf_commented_text(instance), flags))
    return out


def best_ms(fns, reps: int) -> list[float]:
    """Each function's fastest time in ms; the repetitions alternate between them."""
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return [b * 1000 for b in best]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=1.0, help="size factor; 1 is the kernelize sizes")
    parser.add_argument("--reps", type=int, default=7, help="timed repetitions; the best is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.reps < 1:
        parser.error("--scale must be positive and --reps at least 1")
    rng = random.Random(args.seed)
    total_parse = total_run = 0.0
    by_dialect: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, instance, flags in families(rng, args.scale):
            text = instance if isinstance(instance, str) else instances.serialize_instance(instance).text
            path = Path(workdir) / "instance.txt"
            path.write_text(text, encoding="utf-8")
            argv_run = [flags[0], str(path), *flags[1:]]
            parse_ms, run_ms = best_ms(
                [lambda: instances.parse_instance(text), lambda: cli.run(argv_run)], args.reps
            )
            total_parse += parse_ms
            total_run += run_ms
            sums = by_dialect.setdefault(name.split("/")[0], [0.0, 0.0])
            sums[0] += parse_ms
            sums[1] += run_ms
            row = {
                "instance": name,
                "bytes": len(text),
                "verdict": cli.run(argv_run).verdict,
                "parse_ms": round(parse_ms, 3),
                "run_ms": round(run_ms, 3),
                "parse_share": round(parse_ms / run_ms, 3),
            }
            print(json.dumps(row))
    for dialect, (parse_ms, run_ms) in by_dialect.items():
        print(json.dumps({
            "instance": "total/" + dialect,
            "parse_ms": round(parse_ms, 3),
            "run_ms": round(run_ms, 3),
            "parse_share": round(parse_ms / run_ms, 3),
        }))
    print(json.dumps({
        "instance": "total",
        "parse_ms": round(total_parse, 3),
        "run_ms": round(total_run, 3),
        "parse_share": round(total_parse / total_run, 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
