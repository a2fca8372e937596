"""Randomized sweep over the probabilistic bounds behind every decider.

Enumerates exact distributions for random digraphs, equation systems and
formulas, then reports the observed margins of each moment bound and the
exact tail inequality. Everything is exact rational arithmetic; a FAIL in
any column means a real bug.

    python3 scripts/verify_bounds.py --trials 100 --seed 7
"""

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from abovetight.linord import DEFAULT_ORDER_CAP, digraph_stats
from abovetight.maxlin import merge_duplicates, system_stats
from abovetight.moments import (
    dist_lin2,
    dist_linord,
    dist_rsat,
    moment_p,
    pairwise_second_moment,
    verify_fourth_moment_tail,
    verify_symmetric_tail,
)
from helpers import (
    random_digraph,
    random_lin2,
    random_lin2_bounded_occurrence,
    random_restricted_formula,
)


def sweep_digraphs(
    rng: random.Random,
    trials: int,
    label: str = "digraph second moment",
    n_min: int = 2,
    n_max: int = 7,
    density: float = 0.5,
    cap: int = DEFAULT_ORDER_CAP,
) -> int:
    worst = None
    failures = 0
    for _ in range(trials):
        g = random_digraph(
            rng, n_min=n_min, n_max=n_max, wmax=4, allow_two_cycles=False, density=density
        )
        st = digraph_stats(g)
        d = dist_linord(g, cap=cap)
        margin = moment_p(d, 2) - Fraction(st.W2, 12)
        if margin < 0 or not verify_symmetric_tail(d):
            failures += 1
        if worst is None or margin < worst:
            worst = margin
    print("%-23s: %d trials, %d failures, min margin %s" % (label, trials, failures, worst))
    return failures


def sweep_systems(rng: random.Random, trials: int) -> int:
    identity_failures = 0
    for _ in range(trials):
        s = merge_duplicates(random_lin2(rng, n_max=12, m_max=12, wmax=3))
        d = dist_lin2(s)
        expected = sum(eq.weight**2 for eq in s.equations)
        if moment_p(d, 1) != 0 or moment_p(d, 2) != expected:
            identity_failures += 1
    print("lin2 moment identities : %d trials, %d failures" % (trials, identity_failures))

    tail_failures = 0
    worst_prob = None
    for _ in range(trials):
        rho = rng.choice([2, 3])
        s = random_lin2_bounded_occurrence(rng, rho, n_max=12)
        d = dist_lin2(s)
        check = verify_fourth_moment_tail(d, Fraction(2 * rho * rho))
        if not check.holds:
            tail_failures += 1
        elif worst_prob is None or check.probability < worst_prob:
            worst_prob = check.probability
    print(
        "lin2 tail (b=2 rho^2)  : %d trials, %d failures, min tail prob %s"
        % (trials, tail_failures, worst_prob)
    )
    return identity_failures + tail_failures


def sweep_formulas(rng: random.Random, trials: int) -> int:
    failures = 0
    worst = None
    for _ in range(trials):
        f = random_restricted_formula(rng, rng.choice([2, 3]), n_max=10, m_max=10)
        d = dist_rsat(f)
        e2 = moment_p(d, 2)
        if e2 != pairwise_second_moment(f):
            failures += 1
            continue
        margin = e2 - Fraction(len(f.clauses), 4**f.r)
        if margin < 0:
            failures += 1
        if worst is None or margin < worst:
            worst = margin
    print(
        "rsat decomposition     : %d trials, %d failures, min margin %s"
        % (trials, failures, worst)
    )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    failures = sweep_digraphs(rng, args.trials)
    failures += sweep_systems(rng, args.trials)
    failures += sweep_formulas(rng, args.trials)
    # Past the default order cap, last so the corpora above stay as they were:
    # the packed order DP counts the 12! orders of 12 vertices in about 0.01 s.
    failures += sweep_digraphs(
        rng, args.trials, "digraph 10-12 vertices", n_min=10, n_max=12, density=0.4, cap=12
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
