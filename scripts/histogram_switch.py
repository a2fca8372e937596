"""Time gf2.histogram's trie against its transpose, to place the switch between them.

For each n, bit-sliced counters with few to 2^n distinct counts and 4 to
401 slices are built; each is counted by the trie alone (skipped when it
would run for seconds), by the transpose alone, and by ``histogram`` under
each per-slice split budget given. Prints one JSON row per counter and, per
budget, the worst ratio of its time to the faster of the two paths.

    python3 scripts/histogram_switch.py --n 16 20 --budgets 8 16 32 64 128
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abovetight import gf2  # noqa: E402


def counters(n: int, rng: random.Random):
    """(label, weighted masks): random 1-3-variable parities, cubes, and a distinct count each."""
    for b in (0, 4, 8, 10, 12, 16, 20, 40, 70):
        masks = []
        for _ in range(30):
            support = sum(1 << v for v in rng.sample(range(n), rng.randint(1, 3)))
            masks.append((gf2.parity_mask(support, rng.randint(0, 1), n), rng.randint(1, 1 << b)))
        yield "30 random parities, weights up to 2^%d" % b, masks
    for k in (8, 10, 12, 14):
        yield "weights 2^v on x_v, v < %d" % k, [(gf2.parity_mask(1 << v, 1, n), 1 << v) for v in range(k)]
    for bits in (20, 64, 400):
        masks = [
            (gf2.parity_mask(1 << v, 1, n), (1 << (v + bits - n)) + rng.getrandbits(max(0, bits - n - 5)))
            for v in range(n)
        ]
        yield "a distinct %d-bit count per assignment" % bits, masks


def fastest(f, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        f()
        times.append(time.perf_counter() - started)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[16, 20])
    parser.add_argument("--budgets", type=int, nargs="+", default=[gf2._TRIE_SPLITS_PER_SLICE])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--trie-limit", type=int, default=1_000_000,
        help="time the trie alone only when distinct * slices * 2^(n - 16) is at most this",
    )
    args = parser.parse_args(argv)
    committed = gf2._TRIE_SPLITS_PER_SLICE
    worst = {b: 0.0 for b in args.budgets}
    try:
        for n in args.n:
            rng = random.Random(n)
            for label, masks in counters(n, rng):
                slices = gf2.tally(masks)
                distinct = len(gf2._transposed_histogram(slices, n, 0, 0))
                row = {"n": n, "counter": label, "slices": len(slices), "distinct": distinct}
                gf2._TRIE_SPLITS_PER_SLICE = 1 << 62
                if distinct * len(slices) << n >> 16 <= args.trie_limit:
                    row["trie_s"] = round(fastest(lambda: gf2.histogram(slices, n), args.reps), 5)
                transpose = lambda: gf2._transposed_histogram(slices, n, 0, 0)  # noqa: E731
                row["transpose_s"] = round(fastest(transpose, args.reps), 5)
                best = min(row.get("trie_s", row["transpose_s"]), row["transpose_s"])
                for b in args.budgets:
                    gf2._TRIE_SPLITS_PER_SLICE = b
                    t = fastest(lambda: gf2.histogram(slices, n), args.reps)
                    row["budget_%d_s" % b] = round(t, 5)
                    worst[b] = max(worst[b], t / best)
                print(json.dumps(row), flush=True)
    finally:
        gf2._TRIE_SPLITS_PER_SLICE = committed
    for b in args.budgets:
        print(json.dumps({"budget_per_slice": b, "worst_ratio_to_faster_path": round(worst[b], 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
