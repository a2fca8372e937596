"""Independent brute-force oracles and random-instance builders for the tests.

Every oracle here recomputes its answer from first principles (permutation
or assignment enumeration with inline satisfaction checks) so that library
reductions, dynamic programs and closed forms are checked against a second
route.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from abovetight.linord import LinearOrder, WeightedDigraph
from abovetight.maxlin import Lin2Equation, Lin2System
from abovetight.moments import ExactDistribution
from abovetight.rsat import ExactCnfFormula


def brute_max_forward_weight(g: WeightedDigraph) -> int:
    """Best forward weight over all orders, by full permutation enumeration."""
    active = sorted({v for u, v2, _ in g.arcs for v in (u, v2)})
    if not active:
        return 0
    best = 0
    pos: dict[int, int] = {}
    for perm in itertools.permutations(active):
        for i, v in enumerate(perm):
            pos[v] = i
        forward = 0
        for u, v, w in g.arcs:
            if pos[u] < pos[v]:
                forward += w
        if forward > best:
            best = forward
    return best


def brute_dist_linord(g: WeightedDigraph) -> ExactDistribution:
    """Exact mass of 2X over all n! orders, by permutation enumeration.

    Only orders of non-isolated vertices are walked; each accounts for
    n!/n'! full orders.
    """
    active = sorted({v for u, v2, _ in g.arcs for v in (u, v2)})
    total_weight = sum(w for _, _, w in g.arcs)
    counts: Counter[int] = Counter()
    pos: dict[int, int] = {}
    for perm in itertools.permutations(active):
        for i, v in enumerate(perm):
            pos[v] = i
        forward = 0
        for u, v, w in g.arcs:
            if pos[u] < pos[v]:
                forward += w
        counts[2 * forward - total_weight] += 1
    multiplier = math.factorial(g.n) // math.factorial(len(active))
    return ExactDistribution.from_counts(2, counts, multiplier)


def brute_decide_loalb(g: WeightedDigraph, k: int) -> bool:
    total = sum(w for _, _, w in g.arcs)
    return 2 * brute_max_forward_weight(g) - total >= 2 * k


def brute_best_x_lin2(s: Lin2System) -> int:
    """Best satisfied-minus-unsatisfied weight over all assignments."""
    best = None
    for assignment in itertools.product((0, 1), repeat=s.n):
        x = 0
        for eq in s.equations:
            parity = 0
            for v in eq.variables:
                parity ^= assignment[v]
            x += eq.weight if parity == eq.rhs else -eq.weight
        if best is None or x > best:
            best = x
    return 0 if best is None else best


def brute_decide_lin2(s: Lin2System, k: int) -> bool:
    return brute_best_x_lin2(s) >= 2 * k


def brute_patterns_lin2(s: Lin2System) -> set[frozenset[int]]:
    """All achievable sets of simultaneously satisfied equation indices."""
    patterns = set()
    for assignment in itertools.product((0, 1), repeat=s.n):
        satisfied = []
        for j, eq in enumerate(s.equations):
            parity = 0
            for v in eq.variables:
                parity ^= assignment[v]
            if parity == eq.rhs:
                satisfied.append(j)
        patterns.add(frozenset(satisfied))
    return patterns


def brute_best_scaled_rsat(f: ExactCnfFormula) -> int:
    best = None
    m = len(f.clauses)
    for assignment in itertools.product((False, True), repeat=f.n):
        satisfied = 0
        for clause in f.clauses:
            if any(
                assignment[abs(lit) - 1] if lit > 0 else not assignment[abs(lit) - 1]
                for lit in clause
            ):
                satisfied += 1
        value = (1 << f.r) * satisfied - ((1 << f.r) - 1) * m
        if best is None or value > best:
            best = value
    return 0 if best is None else best


def brute_pair_expectation(y: tuple[int, ...], z: tuple[int, ...], r: int) -> Fraction:
    """Exact E(X_Y X_Z) for two width-r clauses by assignment enumeration."""
    variables = sorted({abs(lit) for lit in y} | {abs(lit) for lit in z})
    index = {v: i for i, v in enumerate(variables)}
    total = Fraction(0)
    count = 1 << len(variables)
    for bits in range(count):
        def value(clause: tuple[int, ...]) -> Fraction:
            sat = any(
                ((bits >> index[abs(lit)]) & 1) == (1 if lit > 0 else 0) for lit in clause
            )
            return Fraction(1, 1 << r) if sat else Fraction(1, 1 << r) - 1

        total += value(y) * value(z)
    return total / count


def random_digraph(
    rng: random.Random,
    n_max: int = 6,
    wmax: int = 4,
    allow_two_cycles: bool = True,
    n_min: int = 2,
    density: float = 0.5,
) -> WeightedDigraph:
    n = rng.randint(n_min, n_max)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if not allow_two_cycles and u > v:
                continue
            if rng.random() < density:
                if allow_two_cycles:
                    arcs.append((u, v, rng.randint(1, wmax)))
                else:
                    if rng.random() < 0.5:
                        arcs.append((u, v, rng.randint(1, wmax)))
                    else:
                        arcs.append((v, u, rng.randint(1, wmax)))
    return WeightedDigraph.from_arcs(n, arcs)


def random_lin2(
    rng: random.Random,
    n_max: int = 8,
    m_max: int = 10,
    wmax: int = 3,
    r_max: int | None = None,
    n_min: int = 1,
) -> Lin2System:
    n = rng.randint(n_min, n_max)
    m = rng.randint(0, m_max)
    cap = n if r_max is None else min(r_max, n)
    eqs = []
    for _ in range(m):
        size = rng.randint(1, max(cap, 1))
        variables = tuple(sorted(rng.sample(range(n), size)))
        eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, wmax)))
    return Lin2System(n, tuple(eqs))


def random_lin2_bounded_occurrence(
    rng: random.Random, rho: int, n_max: int = 14, wmax: int = 3
) -> Lin2System:
    """Merge-normalized random system where every variable occurs at most rho times."""
    n = rng.randint(3, n_max)
    budget = {v: rho for v in range(n)}
    seen: set[tuple[int, ...]] = set()
    eqs = []
    attempts = rng.randint(2, 3 * n)
    for _ in range(attempts):
        available = [v for v in range(n) if budget[v] > 0]
        if len(available) < 1:
            break
        size = rng.randint(1, min(3, len(available)))
        variables = tuple(sorted(rng.sample(available, size)))
        if variables in seen:
            continue
        seen.add(variables)
        for v in variables:
            budget[v] -= 1
        eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, wmax)))
    if not eqs:
        eqs.append(Lin2Equation((0,), rng.randint(0, 1), rng.randint(1, wmax)))
    return Lin2System(n, tuple(eqs))


def random_formula(
    rng: random.Random,
    r: int,
    n_max: int = 10,
    m_max: int = 12,
    n_min: int | None = None,
) -> ExactCnfFormula:
    n = rng.randint(max(r, n_min or r), n_max)
    m = rng.randint(1, m_max)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), r)
        clause = tuple(
            sorted((v if rng.random() < 0.5 else -v for v in variables), key=abs)
        )
        clauses.append(clause)
    return ExactCnfFormula(n, r, tuple(clauses))


def random_restricted_formula(
    rng: random.Random, r: int, n_max: int = 10, m_max: int = 12
) -> ExactCnfFormula:
    """Random formula satisfying the conflict-number restriction cn <= (2^r-2)m."""
    from abovetight.rsat import conflict_bound, conflict_number

    while True:
        f = random_formula(rng, r, n_max=n_max, m_max=m_max)
        if conflict_number(f).conflict_number <= conflict_bound(f):
            return f


def order_of(sequence: list[int]) -> LinearOrder:
    return LinearOrder.from_sequence(sequence)
