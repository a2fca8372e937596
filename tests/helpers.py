"""Independent brute-force oracles and random-instance builders for the tests.

Every oracle here recomputes its answer from first principles (permutation
or assignment enumeration with inline satisfaction checks) so that library
reductions, dynamic programs and closed forms are checked against a second
route.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator

from abovetight.gf2 import echelon
from abovetight.instances import ParseError
from abovetight.linord import (
    DEFAULT_VERTEX_CAP,
    LinearOrder,
    WeightedDigraph,
    _gain_tables,
    _pair_keys,
    digraph_stats,
    exact_max_acyclic,
    loalb_threshold,
    reduce_two_cycles,
    with_isolated,
    x_value,
)
from abovetight.maxlin import (
    CaseKind,
    Lin2Equation,
    Lin2System,
    RankReduction,
    case_threshold,
    find_odd_set,
    merge_duplicates,
    occurrence_f,
    system_stats,
)
from abovetight.moments import ExactDistribution, moment_p, pairwise_second_moment
from abovetight.outcome import CapExceeded
from abovetight.rsat import ExactCnfFormula, conflict_bound, conflict_number


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


def subset_dp_max_forward(g: WeightedDigraph) -> tuple[int, LinearOrder]:
    """Best forward weight and an order attaining it, by one subset DP over all active vertices.

    The package's monolithic solver before it split the graph into strongly
    connected components; kept as an oracle for the per-component one.
    """
    active = sorted({v for u, v2, _ in g.arcs for v in (u, v2)})
    index = {v: i for i, v in enumerate(active)}
    # The arcs into each active vertex, as (tail bit, weight).
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in active]
    for u, v, w in g.arcs:
        in_arcs[index[v]].append((1 << index[u], w))
    nv = len(active)
    size = 1 << nv
    dp = [-1] * size
    dp[0] = 0
    choice = [-1] * size
    for mask in range(size):
        base = dp[mask]
        for i in range(nv):
            bit = 1 << i
            if mask & bit:
                continue
            gain = 0
            for ubit, w in in_arcs[i]:
                if mask & ubit:
                    gain += w
            target = mask | bit
            if base + gain > dp[target]:
                dp[target] = base + gain
                choice[target] = i
    seq_rev = []
    mask = size - 1
    while mask:
        i = choice[mask]
        seq_rev.append(active[i])
        mask ^= 1 << i
    seq = list(reversed(seq_rev))
    used = set(active)
    seq.extend(v for v in range(g.n) if v not in used)
    return dp[size - 1], LinearOrder(tuple(seq))


def full_best_order(in_weights: list[list[int]]) -> tuple[int, list[int]]:
    """Maximum forward weight over the orders of vertices 0..m-1, with an order attaining it.

    ``in_weights[i][t]`` is the weight of the arc from t into i. Dynamic program
    over subsets: the best order of a set S extends by a new last vertex i,
    gaining the weight of arcs from S into i, read from ``_gain_tables``. The
    order is recovered by walking back from the full set to a predecessor
    whose value plus gain gives the current value.

    The package's per-component solver before it pruned sets by a heuristic
    order's weight; kept as the oracle for the pruned ``linord._best_order``.
    """
    m = len(in_weights)
    h, lo, hi = _gain_tables(in_weights)
    low = (1 << h) - 1
    size = 1 << m
    # The vertices each half of a set leaves out, with their gain from that half.
    lo_moves = [[(1 << i, lo[i][s], hi[i]) for i in range(h) if not s >> i & 1] for s in range(low + 1)]
    hi_moves = [
        [(1 << i, hi[i][s], lo[i]) for i in range(h, m) if not s >> (i - h) & 1]
        for s in range(size >> h)
    ]
    dp = [0] * size
    for mask in range(size):
        base = dp[mask]
        sl = mask & low
        sh = mask >> h
        for bit, gain, table in lo_moves[sl]:
            val = base + gain + table[sh]
            if val > dp[mask | bit]:
                dp[mask | bit] = val
        for bit, gain, table in hi_moves[sh]:
            val = base + gain + table[sl]
            if val > dp[mask | bit]:
                dp[mask | bit] = val
    order = []
    mask = size - 1
    while mask:
        for i in range(m):
            prev = mask ^ 1 << i
            if prev < mask and dp[prev] + lo[i][prev & low] + hi[i][prev >> h] == dp[mask]:
                break
        order.append(i)
        mask = prev
    order.reverse()
    return dp[size - 1], order


def brute_dist_linord(g: WeightedDigraph) -> ExactDistribution:
    """Exact mass of 2X over all n! orders, by permutation enumeration.

    Only orders of non-isolated vertices are walked; each accounts for
    n!/n'! full orders. The distribution records ``g`` as the kernel it
    counted.
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
    return ExactDistribution.from_counts(2, counts, multiplier, math.factorial(g.n), g)


def brute_decide_loalb(g: WeightedDigraph, k: int) -> bool:
    total = sum(w for _, _, w in g.arcs)
    return 2 * brute_max_forward_weight(g) - total >= 2 * k


def brute_first_best(n: int, value) -> tuple[int, tuple[int, ...]]:
    """Best ``value`` over all 2^n assignments, and the first assignment reaching it.

    Assignment z sets variable i to bit i of z, and z runs 0, 1, ..., 2^n - 1,
    so ties keep the smallest z.
    """
    best = None
    for z in range(1 << n):
        assignment = tuple((z >> i) & 1 for i in range(n))
        x = value(assignment)
        if best is None or x > best[0]:
            best = (x, assignment)
    return best


def flip_walk_lin2(s: Lin2System):
    """X of each assignment 0, 1, ..., 2^n - 1 in order, flipping each changed bit in turn.

    Counting up from z - 1 to z flips exactly bits 0..t, where t is the
    lowest set bit of z. ``delta[j]`` is the change in X when equation j
    flips: -2w while it is satisfied, +2w while it is not.
    """
    occ: list[list[int]] = [[] for _ in range(s.n)]
    for j, eq in enumerate(s.equations):
        for v in eq.variables:
            occ[v].append(j)
    # Assignment 0 satisfies exactly the equations with right side 0.
    delta = [2 * eq.weight if eq.rhs else -2 * eq.weight for eq in s.equations]
    x = -sum(delta) // 2
    yield x
    for z in range(1, 1 << s.n):
        for v in range((z & -z).bit_length()):
            for j in occ[v]:
                x += delta[j]
                delta[j] = -delta[j]
        yield x


def flip_walk_rsat(f: ExactCnfFormula, variables: list[int]):
    """Unsatisfied-clause count of each assignment 0, 1, ..., 2^len - 1 in order, bit by bit.

    Bit p of an assignment is the value of ``variables[p]``. Counting up from
    z - 1 to z flips exactly bits 0..t, where t is the lowest set bit of z.
    """
    index = {v: p for p, v in enumerate(variables)}
    # sides[p][b]: the clauses whose literal on variables[p] is true when bit p is b.
    sides: list[tuple[list[int], list[int]]] = [([], []) for _ in variables]
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            sides[index[abs(lit)]][lit > 0].append(j)
    # Assignment 0 makes exactly the negative literals true.
    true_counts = [sum(1 for lit in clause if lit < 0) for clause in f.clauses]
    unsat = true_counts.count(0)
    yield unsat
    for z in range(1, 1 << len(variables)):
        for p in range((z & -z).bit_length()):
            bit = (z >> p) & 1
            for j in sides[p][bit]:
                true_counts[j] += 1
                if true_counts[j] == 1:
                    unsat -= 1
            for j in sides[p][bit ^ 1]:
                true_counts[j] -= 1
                if true_counts[j] == 0:
                    unsat += 1
        yield unsat


def walk(n: int, constraints: list[tuple[list[tuple[int, bool]], list[int]]]) -> Iterator[int]:
    """Total score of each assignment 0, 1, ..., 2^n - 1 in order; z sets bit b to (z >> b) & 1.

    Constraint ``(literals, score)`` scores ``score[c]`` when c of its literals are true;
    each literal ``(bit, positive)`` is on a distinct bit and true when the bit equals positive.
    """
    # Counting up to z sets the lowest set bit t of z and clears bits 0..t-1:
    # changes[t] lists each constraint whose true count that step changes, by how much.
    changes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (literals, _) in enumerate(constraints):
        gain = {b: 1 if positive else -1 for b, positive in literals}
        cleared = 0
        for t in range(min(gain, default=n), n):
            d = cleared + gain.get(t, 0)
            if d:
                changes[t].append((j, d))
            cleared -= gain.get(t, 0)
    scores = [score for _, score in constraints]
    # Assignment 0 makes exactly the negative literals true.
    counts = [sum(1 for _, positive in literals if not positive) for literals, _ in constraints]
    x = sum(score[c] for score, c in zip(scores, counts))
    yield x
    for z in range(1, 1 << n):
        for j, d in changes[(z & -z).bit_length() - 1]:
            score = scores[j]
            c = counts[j]
            x += score[c + d] - score[c]
            counts[j] = c + d
        yield x


def parity_constraints(s: Lin2System) -> list[tuple[list[tuple[int, bool]], list[int]]]:
    """Each equation as a ``walk`` constraint: w when its true count has parity rhs, else -w."""
    out = []
    for eq in s.equations:
        score = [eq.weight * (-1) ** (c + eq.rhs) for c in range(len(eq.variables) + 1)]
        out.append(([(v, True) for v in eq.variables], score))
    return out


def clause_constraints(
    f: ExactCnfFormula, variables: list[int]
) -> list[tuple[list[tuple[int, bool]], list[int]]]:
    """Each clause as a ``walk`` constraint over bit p = ``variables[p]``.

    A clause scores 1 - 2^r with no true literal and 1 otherwise, so the
    scores sum to the scaled balance 2^r * m(x) - (2^r - 1) * m.
    """
    index = {v: p for p, v in enumerate(variables)}
    score = [1 - (1 << f.r)] + [1] * f.r
    return [([(index[abs(lit)], lit > 0) for lit in clause], score) for clause in f.clauses]


def brute_independent_columns(rows: list[int], cols: int) -> list[int]:
    """Greedy leftmost independent columns of packed rows, column by column.

    Each column j is unpacked (row i at bit i) and kept when it does not
    reduce to 0 against the columns kept before it.
    """
    basis: dict[int, int] = {}
    picked = []
    for j in range(cols):
        v = 0
        for i, row in enumerate(rows):
            v |= ((row >> j) & 1) << i
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
            picked.append(j)
    return picked


def brute_first_solution(rows: list[int], rhs: int, cols: int) -> int | None:
    """The smallest packed x with parity(row i & x) = bit i of rhs for every row, or None."""
    for x in range(1 << cols):
        if all((row & x).bit_count() & 1 == (rhs >> i) & 1 for i, row in enumerate(rows)):
            return x
    return None


def solve_affine_rows(rows: list[int], rhs: int, cols: int) -> int | None:
    """One solution of the system row i . x = bit i of ``rhs``, or None if inconsistent.

    ``gf2.solve_affine`` as it was when it built its own echelon from the
    rows: every row must lie below bit ``cols``. The solution is packed with
    x_j at bit j and every free variable at 0, so it is deterministic.
    """
    ech = echelon(row | ((rhs >> i) & 1) << cols for i, row in enumerate(rows))
    if cols in ech:
        return None  # some combination of rows reads 0 = 1
    x = 0
    for p in sorted(ech, reverse=True):
        row = ech[p]
        x |= (((row >> cols) ^ (row & x).bit_count()) & 1) << p
    return x


def merge_normalized(s: Lin2System) -> bool:
    """No two equations hold the same variables, as ``merge_duplicates`` leaves a system."""
    keys = [eq.variables for eq in s.equations]
    return len(keys) == len(set(keys))


def lin2_x(s: Lin2System, assignment) -> int:
    """Satisfied minus unsatisfied weight, by inline parity checks."""
    x = 0
    for eq in s.equations:
        parity = 0
        for v in eq.variables:
            parity ^= assignment[v]
        x += eq.weight if parity == eq.rhs else -eq.weight
    return x


def brute_best_x_lin2(s: Lin2System) -> int:
    """Best satisfied-minus-unsatisfied weight over all assignments."""
    return brute_first_best(s.n, lambda a: lin2_x(s, a))[0]


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


def occurrence_reduce(s: Lin2System, k: int, r: int) -> Lin2System:
    """Remove every equation containing a rarely occurring variable: the paper's occurrence rule.

    No decider applies the rule. It only fires when some variable occurs
    at most m - f(k, r) times, so m > f(k, r), and at that size the arity
    case has already answered YES_BY_BOUND. It is kept here as an oracle
    for the paper's reduction.

    While some variable occurs in at most m - f(k, r) of the current m
    equations, all equations containing it are dropped (least occurrences
    first, ties by variable index). The survivor count never falls below
    f(k, r), so removal preserves the decision, and a solution of the result
    extends to the input by assigning 0 to the variables that disappeared.
    Expects a merge-normalized system with arity at most r.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not merge_normalized(s):
        raise ValueError("system must be merge-normalized first")
    stats = system_stats(s)
    if stats.r > r:
        raise ValueError("system arity %d exceeds the declared bound %d" % (stats.r, r))
    f = occurrence_f(k, r)
    eqs = list(s.equations)
    while True:
        m = len(eqs)
        occ: Counter[int] = Counter()
        for eq in eqs:
            occ.update(eq.variables)
        candidates = [v for v, c in occ.items() if c <= m - f]
        if not candidates:
            break
        victim = min(candidates, key=lambda v: (occ[v], v))
        eqs = [eq for eq in eqs if victim not in eq.variables]
    return Lin2System(s.n, tuple(eqs))


def rsat_scaled_x(f: ExactCnfFormula, assignment) -> int:
    """2^r * satisfied - (2^r - 1) * m, by inline literal checks."""
    satisfied = 0
    for clause in f.clauses:
        if any(
            assignment[abs(lit) - 1] if lit > 0 else not assignment[abs(lit) - 1]
            for lit in clause
        ):
            satisfied += 1
    return (1 << f.r) * satisfied - ((1 << f.r) - 1) * len(f.clauses)


def brute_best_scaled_rsat(f: ExactCnfFormula) -> int:
    return brute_first_best(f.n, lambda a: rsat_scaled_x(f, a))[0]


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


def pair_relation(y: tuple[int, ...], z: tuple[int, ...]) -> tuple[str, int]:
    """Classify a clause pair: ("conflict", 0), ("overlap", shared literals) or ("disjoint", 0)."""
    zset = set(z)
    if any(-lit in zset for lit in y):
        return "conflict", 0
    shared = sum(1 for lit in y if lit in zset)
    return ("overlap", shared) if shared else ("disjoint", 0)


def brute_overlap_histogram(f: ExactCnfFormula) -> tuple[int, Counter[int]]:
    """Conflicts and overlaps by shared size, over all ordered pairs of clause indices."""
    conflicts = 0
    shared_counts: Counter[int] = Counter()
    for a, b in itertools.permutations(range(len(f.clauses)), 2):
        kind, shared = pair_relation(f.clauses[a], f.clauses[b])
        if kind == "conflict":
            conflicts += 1
        elif kind == "overlap":
            shared_counts[shared] += 1
    return conflicts, shared_counts


def pair_walk_histogram(f: ExactCnfFormula) -> tuple[int, Counter[int]]:
    """``brute_overlap_histogram`` by walking only the pairs that share a variable.

    The clause-pair walk ``rsat.overlap_histogram`` ran before it counted
    sub-clauses: each clause meets the earlier clauses found through its
    variables' clause lists. Quadratic in the clauses on one variable, but
    fast enough for the ``kernelize`` shapes, where the all-pairs oracle is not.
    """
    by_var: dict[int, list[int]] = {}
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(j)
    conflicts = 0
    shared_counts: Counter[int] = Counter()
    for a in reversed(range(len(f.clauses))):
        clause = f.clauses[a]
        # a ends each of its variables' lists; dropping it leaves the earlier clauses.
        for lit in clause:
            by_var[abs(lit)].pop()
        lits = set(clause)
        negated = {-lit for lit in clause}
        for b in set().union(*(by_var[abs(lit)] for lit in clause)):
            other = f.clauses[b]
            if negated.isdisjoint(other):
                shared_counts[len(lits.intersection(other))] += 2
            else:
                conflicts += 2
    return conflicts, shared_counts


def pair_counts(f: ExactCnfFormula, histogram: tuple[int, Counter[int]]) -> tuple[int, int, int]:
    """``rsat.overlap_histogram``'s (C, S, 4^r E(X^2)) from a conflict count and overlaps by shared size.

    S adds the m diagonal pairs to the conflicting and overlapping ones. Each
    clause adds 2^r - 1 to 4^r E(X^2), an ordered conflicting pair -1, and an
    ordered pair sharing t literals 2^t - 1.
    """
    conflicts, shared_counts = histogram
    m = len(f.clauses)
    sharing = m + conflicts + sum(shared_counts.values())
    fourier = m * ((1 << f.r) - 1) - conflicts
    fourier += sum(count * ((1 << t) - 1) for t, count in shared_counts.items())
    return conflicts, sharing, fourier


def weight_map(g: WeightedDigraph) -> dict[tuple[int, int], int]:
    """Each arc's weight keyed by its (tail, head) pair."""
    return dict(zip(zip(g.tails, g.heads), g.weights))


def oriented_by_weight_map(g: WeightedDigraph) -> bool:
    """No arc's reverse is an arc: ``digraph_stats``' 2-cycle test before it read pair keys."""
    wm = weight_map(g)
    return all((v, u) not in wm for u, v in wm)


def second_moment_claim_of_instance(
    instance: WeightedDigraph | Lin2System | ExactCnfFormula, dist: ExactDistribution
) -> tuple[Fraction, bool, Fraction]:
    """(target, holds, pairwise_e2) of the second-moment claim, derived again from the raw instance.

    The oracle for ``verify_second_moment_claims``, which reads the kernel
    its distribution counted: here a digraph's closed form is read once its
    2-cycles cancel and a system's once its duplicates merge, and a formula
    outside the conflict-number restriction raises ValueError before
    ``dist`` is read.
    """
    if isinstance(instance, WeightedDigraph):
        st = digraph_stats(reduce_two_cycles(instance))
        target, closed = Fraction(st.W2, 12), Fraction(st.W2 + st.imbalance2, 12)
    elif isinstance(instance, Lin2System):
        merged = merge_duplicates(instance)
        target = closed = Fraction(sum(eq.weight**2 for eq in merged.equations))
    elif isinstance(instance, ExactCnfFormula):
        cn, bound = conflict_number(instance), conflict_bound(instance)
        if cn > bound:
            raise ValueError("conflict number %d exceeds (2^r - 2)m = %d" % (cn, bound))
        target, closed = Fraction(len(instance.clauses), 4**instance.r), pairwise_second_moment(instance)
    else:
        raise TypeError("unsupported instance type: %r" % type(instance))
    e2 = moment_p(dist, 2)
    return target, moment_p(dist, 1) == 0 and e2 == closed >= target, closed


def estimate_digraph_moments_by_induced_graph(
    g: WeightedDigraph, samples: int, seed: int
) -> dict[str, object]:
    """``estimate_moments`` on a digraph, sampled as before orders were scored from the columns.

    It renumbers the arcs over the active vertices, builds the digraph they
    induce, and scores each shuffle of 0..n'-1 as a checked ``LinearOrder``.
    """
    rng = random.Random(seed)
    active = sorted({*g.tails, *g.heads})
    index = {v: i for i, v in enumerate(active)}
    induced = WeightedDigraph(len(active), tuple((index[u], index[v], w) for u, v, w in g.arcs))
    vertices = list(range(induced.n))
    # Running sums in sample order, as the package adds them.
    s1 = s2 = s4 = 0.0
    for _ in range(samples):
        rng.shuffle(vertices)
        x = x_value(induced, LinearOrder(tuple(vertices))) / 2
        s1 += x
        s2 += x * x
        s4 += x**4
    return {"estimate": True, "samples": samples, "e1": s1 / samples, "e2": s2 / samples, "e4": s4 / samples}


def reduce_two_cycles_by_dict(g: WeightedDigraph) -> WeightedDigraph:
    """2-cycle cancelling by a walk over the weight map: the package's rule before it became one comprehension."""
    wm = weight_map(g)
    kept = []
    for (u, v), w in wm.items():
        rw = wm.get((v, u))
        if rw is None:
            kept.append((u, v, w))
        elif w > rw:
            kept.append((u, v, w - rw))
    return WeightedDigraph(g.n, tuple(sorted(kept)))


def reduce_two_cycles_by_reverse_weights(g: WeightedDigraph) -> WeightedDigraph:
    """2-cycle cancelling that reads every arc's reverse weight from a key-to-weight dict.

    The package's rule before it touched only the arcs whose reverse is present.
    """
    weight = dict(zip(g.pair_keys, g.weights))
    reverse = list(map(weight.get, _pair_keys(g.n, g.heads, g.tails), itertools.repeat(0)))
    if not any(reverse):
        return g
    reduced = list(map(operator.sub, g.weights, reverse))
    return g._subgraph(list(map((0).__lt__, reduced)), reduced)


def with_isolated_by_ranks(seq: list[int], n: int, lead: bool = False) -> tuple[int, ...]:
    """The order listing ``seq``, then (or first, with ``lead``) the other vertices by index.

    The package's rule before orders were held as sequences: each vertex's
    rank is laid down, one ``range`` per gap between members of ``seq``,
    and the ranks are sorted back into the sequence.
    """
    k = len(seq)
    rank = {v: r for r, v in enumerate(seq, start=n - k + 1 if lead else 1)}
    if len(rank) != k or (seq and (min(seq) < 0 or max(seq) >= n)):
        raise ValueError("sequence must list distinct vertices of 0..n-1")
    positions: list[int] = []
    next_rank, prev = (1 if lead else k + 1), -1
    for v in [*sorted(seq), n]:
        gap = v - prev - 1
        positions += range(next_rank, next_rank + gap)
        next_rank += gap
        if v < n:
            positions.append(rank[v])
        prev = v
    return tuple(sorted(range(n), key=positions.__getitem__))


def solve_loalb_faithful_by_snapshots(
    g: WeightedDigraph, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> LinearOrder | None:
    """The package's faithful lifting before it kept one bit per deleted vertex.

    It snapshots each deleted vertex's sorted neighbour lists, keeps its own
    copy of the weight map, renumbers the residual over the vertices left and
    maps its order back, and reinserts vertices one list insert at a time.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    reduced = reduce_two_cycles(g)
    threshold = loalb_threshold(k)
    wm = weight_map(reduced)
    alive = {v for arc in wm for v in arc}
    isolated_first = len(wm) >= threshold
    out_adj: dict[int, dict[int, int]] = {v: {} for v in alive}
    in_adj: dict[int, dict[int, int]] = {v: {} for v in alive}
    for (u, v), w in wm.items():
        out_adj[u][v] = w
        in_adj[v][u] = w

    def degree(v: int) -> int:
        return len(out_adj[v]) + len(in_adj[v])

    heap = [(degree(v), v) for v in alive]
    heapq.heapify(heap)
    snapshots: list[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]] = []
    while heap:
        deg, v = heap[0]
        if v not in alive or deg != degree(v):
            heapq.heappop(heap)
            continue
        if len(wm) - threshold < deg:
            break
        heapq.heappop(heap)
        outs = sorted(out_adj[v].items())
        ins = sorted(in_adj[v].items())
        snapshots.append((v, outs, ins))
        for j, _ in outs:
            del in_adj[j][v]
            del wm[(v, j)]
        for j, _ in ins:
            del out_adj[j][v]
            del wm[(j, v)]
        del out_adj[v]
        del in_adj[v]
        alive.remove(v)
        for j, _ in outs + ins:
            heapq.heappush(heap, (degree(j), j))

    remaining = sorted(alive)
    index = {v: i for i, v in enumerate(remaining)}
    residual = WeightedDigraph(
        len(remaining),
        tuple(sorted((index[u], index[v], w) for (u, v), w in wm.items())),
    )
    value, order = exact_max_acyclic(residual, cap=cap)
    res_total = sum(w for _, _, w in residual.arcs)
    if 2 * value - res_total < 2 * k:
        assert not snapshots
        return None
    seq = [remaining[i] for i in with_isolated(order, len(remaining)).vertices]
    for v, outs, ins in reversed(snapshots):
        out_weight = sum(w for _, w in outs)
        in_weight = sum(w for _, w in ins)
        if out_weight >= in_weight:
            seq.insert(0, v)
        else:
            seq.append(v)
    return with_isolated(seq, reduced.n, lead=isolated_first)


def faithful_outcome(solve, g: WeightedDigraph, k: int):
    """``solve(g, k, cap=10)``'s order as a sequence, None, or the refusal message."""
    try:
        order = solve(g, k, cap=10)
    except CapExceeded as exc:
        return str(exc)
    return None if order is None else order.vertices


def lin2_masks(s: Lin2System) -> list[int]:
    """Each equation's variables as one mask with bit v for variable v."""
    return [sum(1 << v for v in eq.variables) for eq in s.equations]


def auto_case_by_candidates(s: Lin2System, k: int) -> CaseKind:
    """``decide_linalb``'s case for ``case=None`` as the package chose it before it went by dominance.

    Every applicable case is a candidate, the odd-set case only when an
    odd set exists and the bounded ones only when the system has equations,
    and the smallest threshold wins, ties going to odd set, then arity,
    then occurrence.
    """
    merged = merge_duplicates(s)
    stats = system_stats(merged)
    cases = [CaseKind.ODD_SET] if find_odd_set(merged) is not None else []
    if stats.m:
        cases += [CaseKind.BOUNDED_ARITY, CaseKind.BOUNDED_OCCURRENCE]
    return min(cases, key=lambda c: case_threshold(c, k, stats))


def find_odd_set_wide(s: Lin2System) -> frozenset[int] | None:
    """``find_odd_set`` with masks as wide as the highest variable index, as the package had it."""
    masks = lin2_masks(s)
    x = solve_affine_rows(masks, (1 << len(masks)) - 1, max(masks, default=0).bit_length())
    if x is None:
        return None
    support = []
    while x:
        low = x & -x
        support.append(low.bit_length() - 1)
        x ^= low
    return frozenset(support)


def rank_reduce_wide(s: Lin2System) -> RankReduction:
    """``rank_reduce`` with masks as wide as the highest variable index, as the package had it."""
    basis = sorted(echelon(lin2_masks(s)))
    position = {v: i for i, v in enumerate(basis)}
    new_eqs = []
    for eq in s.equations:
        kept = tuple(sorted(position[v] for v in eq.variables if v in position))
        new_eqs.append(Lin2Equation(kept, eq.rhs, eq.weight))
    reduced = Lin2System(len(basis), tuple(new_eqs))
    return RankReduction(reduced=reduced, basis=tuple(basis))


def witness_balance(g: WeightedDigraph, tokens: list[int]) -> int | None:
    """2X of a 1-based witness over g, or None unless it lists 1..g.n once each."""
    if len(tokens) != g.n or sorted(tokens) != list(range(1, g.n + 1)):
        return None
    ends = {v + 1 for u, v2, _ in g.arcs for v in (u, v2)}
    pos = {v: i for i, v in enumerate(tokens) if v in ends}
    forward = sum(w for u, v, w in g.arcs if pos[u + 1] < pos[v + 1])
    return 2 * forward - sum(w for _, _, w in g.arcs)


def _numbered_tokens(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        out.append((line_no, stripped.split()))
    return out


def _int_at(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, "%s is not an integer: %r" % (what, token)) from None


_HEADER_FIELDS = {
    "digraph": (("vertex count", "arc count"), "arcs"),
    "lin2": (("variable count", "equation count"), "equations"),
    "ecnf": (("variable count", "clause count", "clause width"), "clauses"),
}


def parse_instance_by_lines(text: str):
    """Parse any dialect one tokenized line at a time, checking every arc as it is read.

    The package's parser before digraph arcs and clauses were read by
    columns; kept as an oracle for its instances and for the line number and
    text of each ``ParseError``.
    """
    lines = _numbered_tokens(text)
    if not lines:
        raise ParseError(1, "empty instance")
    header_no, header = lines[0]
    if header[0] != "p" or len(header) < 2:
        raise ParseError(header_no, "expected a 'p <format> ...' header")
    fmt = header[1]
    if fmt not in _HEADER_FIELDS:
        raise ParseError(header_no, "unknown format %r" % fmt)
    fields, noun = _HEADER_FIELDS[fmt]
    if len(header) != 2 + len(fields):
        usage = " ".join("<%s>" % name for name in "nmr"[: len(fields)])
        raise ParseError(header_no, "%s header needs 'p %s %s'" % (fmt, fmt, usage))
    sizes = [_int_at(tok, header_no, what) for tok, what in zip(header[2:], fields)]
    n, m = sizes[0], sizes[1]
    if n < 0 or m < 0:
        raise ParseError(header_no, "counts must be nonnegative")
    if fmt == "ecnf" and sizes[2] < 2:
        raise ParseError(header_no, "clause width must be at least 2")
    records = lines[1:]
    if len(records) != m:
        raise ParseError(header_no, "header announces %d %s, found %d" % (m, noun, len(records)))
    if fmt == "digraph":
        merged: dict[tuple[int, int], int] = {}
        for line_no, rec in records:
            if len(rec) != 4 or rec[0] != "a":
                raise ParseError(line_no, "expected 'a <u> <v> <w>'")
            u = _int_at(rec[1], line_no, "tail")
            v = _int_at(rec[2], line_no, "head")
            w = _int_at(rec[3], line_no, "weight")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, "vertex out of range 1..%d" % n)
            if u == v:
                raise ParseError(line_no, "loop arcs are not allowed")
            if w < 1:
                raise ParseError(line_no, "weights must be positive")
            merged[(u - 1, v - 1)] = merged.get((u - 1, v - 1), 0) + w
        return WeightedDigraph(n, tuple((u, v, w) for (u, v), w in sorted(merged.items())))
    if fmt == "lin2":
        eqs = []
        for line_no, rec in records:
            if len(rec) < 4 or rec[0] != "e":
                raise ParseError(line_no, "expected 'e <w> <b> <i1> ...'")
            w = _int_at(rec[1], line_no, "weight")
            b = _int_at(rec[2], line_no, "right side")
            if w < 1:
                raise ParseError(line_no, "weights must be positive")
            if b not in (0, 1):
                raise ParseError(line_no, "right side must be 0 or 1")
            indices = [_int_at(tok, line_no, "variable index") for tok in rec[3:]]
            if any(not 1 <= i <= n for i in indices):
                raise ParseError(line_no, "variable index out of range 1..%d" % n)
            if len(set(indices)) != len(indices):
                raise ParseError(line_no, "repeated variable in the equation")
            eqs.append(Lin2Equation(tuple(sorted(i - 1 for i in indices)), b, w))
        return Lin2System(n, tuple(eqs))
    r = sizes[2]
    clauses = []
    for line_no, rec in records:
        lits = [_int_at(tok, line_no, "literal") for tok in rec]
        if not lits or lits[-1] != 0:
            raise ParseError(line_no, "clause line must end with 0")
        lits = lits[:-1]
        if any(lit == 0 for lit in lits):
            raise ParseError(line_no, "literal 0 inside a clause")
        if len(lits) != r:
            raise ParseError(line_no, "clause width %d, expected %d" % (len(lits), r))
        variables = [abs(lit) for lit in lits]
        if any(not 1 <= v <= n for v in variables):
            raise ParseError(line_no, "variable out of range 1..%d" % n)
        if len(set(variables)) != r:
            raise ParseError(line_no, "clause repeats a variable or has complementary literals")
        clauses.append(tuple(sorted(lits, key=abs)))
    return ExactCnfFormula(n, r, tuple(clauses))


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
    m_min: int = 0,
) -> Lin2System:
    n = rng.randint(n_min, n_max)
    m = rng.randint(m_min, m_max)
    cap = n if r_max is None else min(r_max, n)
    eqs = []
    for _ in range(m):
        size = rng.randint(1, max(cap, 1))
        variables = tuple(sorted(rng.sample(range(n), size)))
        eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, wmax)))
    return Lin2System(n, tuple(eqs))


def edge_lin2_systems(rng: random.Random) -> list[Lin2System]:
    """n = 0, no equations, weights above 2^64, a width-7 equation and duplicate equations."""
    s = random_lin2(rng, n_min=7, n_max=8, m_max=8)
    heavy = tuple(Lin2Equation(eq.variables, eq.rhs, eq.weight + (1 << 64)) for eq in s.equations)
    wide = Lin2Equation(tuple(range(7)), rng.randint(0, 1), rng.randint(1, 3))
    return [
        Lin2System(0, ()),
        Lin2System(5, ()),
        Lin2System(s.n, heavy + (wide,)),
        Lin2System(s.n, s.equations + s.equations[:2] + (wide, wide)),
    ]


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
    m_min: int = 1,
) -> ExactCnfFormula:
    n = rng.randint(max(r, n_min or r), n_max)
    m = rng.randint(m_min, m_max)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), r)
        clause = tuple(
            sorted((v if rng.random() < 0.5 else -v for v in variables), key=abs)
        )
        clauses.append(clause)
    return ExactCnfFormula(n, r, tuple(clauses))


def edge_formulas(rng: random.Random) -> list[ExactCnfFormula]:
    """n = 0, no clauses, and clause widths 4 to 7 with duplicate clauses."""
    out = [ExactCnfFormula(0, 2, ()), ExactCnfFormula(4, 3, ())]
    for r in range(4, 8):
        f = random_formula(rng, r, n_max=r + 2, m_max=6)
        out.append(ExactCnfFormula(f.n, r, f.clauses + f.clauses[:2]))
    return out


def random_restricted_formula(
    rng: random.Random, r: int, n_max: int = 10, m_max: int = 12
) -> ExactCnfFormula:
    """Random formula satisfying the conflict-number restriction cn <= (2^r-2)m."""
    from abovetight.rsat import conflict_bound, conflict_number

    while True:
        f = random_formula(rng, r, n_max=n_max, m_max=m_max)
        if conflict_number(f) <= conflict_bound(f):
            return f


def order_of(sequence: list[int]) -> LinearOrder:
    return LinearOrder(tuple(sequence))
