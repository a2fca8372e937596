"""Time the bound-pruned loalb solver against the unpruned subset DP it replaced.

Builds strongly connected graphs (a Hamiltonian cycle plus as many random
arcs, weights 1-4) and tournaments (weights 1-4, and unit weights) of each
size given, and solves each with ``linord.exact_max_acyclic`` three ways:
with the unpruned subset DP (``tests/helpers.full_best_order``), as
committed, and with pruning forced on every component
(``linord.PRUNE_MIN_VERTICES`` = 0), which shows the heuristic's cost on
the small components the committed crossover leaves unpruned. Prints one
JSON row per graph: n, the optimum, the heuristic order's weight (LB, on
the whole graph), each way's fastest time, and whether all three give the
same (value, order). The second command below measures the crossover.

    python3 scripts/order_prune.py --strong 12 14 16 18 20 --tournaments 14 16 18 20
    python3 scripts/order_prune.py --strong 4 5 6 7 8 9 10 11 12 --tournaments --graphs 10 --reps 5
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from abovetight import linord  # noqa: E402
from abovetight.linord import WeightedDigraph  # noqa: E402
from helpers import full_best_order  # noqa: E402


def strong(n: int, rng: random.Random) -> WeightedDigraph:
    cycle = rng.sample(range(n), n)
    arcs = [(u, v, rng.randint(1, 4)) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    arcs += [(*rng.sample(range(n), 2), rng.randint(1, 4)) for _ in range(n)]
    return WeightedDigraph.from_arcs(n, arcs)


def tournament(n: int, rng: random.Random, wmax: int) -> WeightedDigraph:
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n)]
    return WeightedDigraph.from_arcs(n, [(u, v, rng.randint(1, wmax)) for u, v in pairs])


def fastest(g: WeightedDigraph, reps: int, best_order, prune_min: int) -> tuple[float, object]:
    """Fastest of ``reps`` solves with ``_best_order`` and the crossover set as given."""
    saved = linord._best_order, linord.PRUNE_MIN_VERTICES
    linord._best_order, linord.PRUNE_MIN_VERTICES = best_order, prune_min
    try:
        best, out = math.inf, None
        for _ in range(reps):
            started = time.perf_counter()
            out = linord.exact_max_acyclic(g)
            best = min(best, time.perf_counter() - started)
    finally:
        linord._best_order, linord.PRUNE_MIN_VERTICES = saved
    return best, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--strong", type=int, nargs="*", default=[12, 14, 16, 18, 20])
    parser.add_argument("--tournaments", type=int, nargs="*", default=[14, 16, 18, 20])
    parser.add_argument("--graphs", type=int, default=1, help="graphs of each kind and size")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    builders = [("strong", n, strong) for n in args.strong]
    for n in args.tournaments:
        builders.append(("tournament", n, lambda n, rng: tournament(n, rng, 4)))
        builders.append(("unit-tournament", n, lambda n, rng: tournament(n, rng, 1)))
    committed = linord._best_order, linord.PRUNE_MIN_VERTICES
    for kind, n, build in builders:
        rng = random.Random(n)
        for i in range(args.graphs):
            g = build(n, rng)
            oracle_s, oracle = fastest(g, args.reps, full_best_order, committed[1])
            pruned_s, pruned = fastest(g, args.reps, *committed)
            forced_s, forced = fastest(g, args.reps, committed[0], 0)
            lower, _ = linord._insertion_order(linord._in_weights(g, [linord.active_vertices(g)])[0])
            row = {
                "case": "%s:%d:%d" % (kind, n, i),
                "n": n,
                "opt": oracle[0],
                "lb": lower,
                "oracle_s": round(oracle_s, 6),
                "pruned_s": round(pruned_s, 6),
                "forced_s": round(forced_s, 6),
                "agree": oracle == pruned == forced,
            }
            print(json.dumps(row), flush=True)
            if not row["agree"]:
                raise AssertionError("the solvers disagree on %s" % row["case"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
