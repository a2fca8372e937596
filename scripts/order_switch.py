"""Time the packed and Counter paths of the order DP on each side of the switch between them.

For each n', a cycle (few distinct forward weights, the Counter DP's best
case) and a tournament with random weights (up to n'! distinct forward
weights, its worst case) are built at total weights W where the packed
ints take ``PACKED_BYTES_PER_ORDER`` * n'! * f bytes, for each factor f
given. Each graph is counted by both paths, forced by moving
``gf2.COUNT_BUDGET_BYTES`` and ``linord.PACKED_BYTES_PER_ORDER``, and by
``moments.dist_linord`` as committed. Prints one JSON
row per graph: W, the path taken, and each path's fastest time.

    python3 scripts/order_switch.py --n 3 4 5 6 7 8 --factors 0.25 1 4
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abovetight import gf2, linord, moments  # noqa: E402
from abovetight.linord import WeightedDigraph  # noqa: E402


def cycle(n: int, total: int) -> WeightedDigraph:
    arcs = [(v, v + 1, 1) for v in range(n - 1)] + [(n - 1, 0, total - (n - 1))]
    return WeightedDigraph.from_arcs(n, arcs)


def tournament(n: int, total: int, rng: random.Random) -> WeightedDigraph:
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n)]
    cuts = sorted(rng.sample(range(1, total), len(pairs) - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return WeightedDigraph.from_arcs(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


def fastest(g: WeightedDigraph, reps: int, budget: int, per_order: int) -> tuple[float, object]:
    """Fastest of ``reps`` calls with the switch constants set to the given values."""
    saved = gf2.COUNT_BUDGET_BYTES, linord.PACKED_BYTES_PER_ORDER
    gf2.COUNT_BUDGET_BYTES, linord.PACKED_BYTES_PER_ORDER = budget, per_order
    try:
        best, dist = math.inf, None
        for _ in range(reps):
            started = time.perf_counter()
            dist = moments.dist_linord(g)
            best = min(best, time.perf_counter() - started)
    finally:
        gf2.COUNT_BUDGET_BYTES, linord.PACKED_BYTES_PER_ORDER = saved
    return best, dist


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8])
    parser.add_argument("--factors", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    for n in args.n:
        rng = random.Random(n)
        orders = math.factorial(n)
        digit_bytes = 1 << (-(-orders.bit_length() // 8) - 1).bit_length()
        limit = min(gf2.COUNT_BUDGET_BYTES, linord.PACKED_BYTES_PER_ORDER * orders)
        for factor in args.factors:
            # The W whose packed ints take factor * PACKED_BYTES_PER_ORDER * n'! bytes.
            total = int(factor * linord.PACKED_BYTES_PER_ORDER * orders) // (digit_bytes << n) - 1
            if total < n * (n - 1) // 2:
                continue
            for label, g in (("cycle", cycle(n, total)), ("tournament", tournament(n, total, rng))):
                packed_s, packed = fastest(g, args.reps, 1 << 62, 1 << 62)
                counter_s, counter = fastest(g, args.reps, 0, 0)
                committed_s, committed = fastest(g, args.reps, gf2.COUNT_BUDGET_BYTES, linord.PACKED_BYTES_PER_ORDER)
                if not packed == counter == committed:
                    raise AssertionError("the paths disagree on %s:%d:%d" % (label, n, total))
                row = {
                    "case": "%s:%d:%d" % (label, n, total),
                    "factor": factor,
                    "support": len(committed.mass),
                    "path": "packed" if (total + 1) * digit_bytes << n <= limit else "counter",
                    "packed_s": round(packed_s, 6),
                    "counter_s": round(counter_s, 6),
                    "committed_s": round(committed_s, 6),
                }
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
