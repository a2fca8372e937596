"""Maximum-weight acyclic subdigraphs parameterized above half the total weight.

An instance is an arc-weighted loop-free digraph and a positive integer k;
the question is whether some linear order of the vertices keeps forward
arcs of total weight at least W/2 + k. The balance of an order is kept as
the integer 2X = 2*(forward weight) - W, so the target reads 2X >= 2k.
Beside the exact solver's subset DP, a second one on the same tables counts
the orders by forward weight; ``moments`` turns those counts into the exact
distribution of 2X.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat

from . import gf2
from .outcome import DecisionOutcome, Record, Verdict, check_cap, settle

# The most non-isolated vertices the exact solve takes by default. _best_order keeps 2^size
# entries per strong component, so under any cap a component of more is refused.
DEFAULT_VERTEX_CAP = 24
# The most active vertices moments.dist_linord counts by default. The Counter path of
# forward_weight_counts keeps one Counter per vertex subset, so under any cap it refuses more.
DEFAULT_ORDER_CAP = 9
# forward_weight_counts packs its counts while 2^n' subsets of (W + 1) digits fit in
# gf2.COUNT_BUDGET_BYTES and in this many bytes per order of the n' vertices; past that the
# Counter DP, whose work follows the at most n'! distinct forward weights, measured faster
# (scripts/order_switch.py).
PACKED_BYTES_PER_ORDER = 1 << 10
# _best_order prunes by a heuristic order from this many component vertices up, where it
# measured faster than the full DP (the measurement is in its docstring).
PRUNE_MIN_VERTICES = 8


def _pair_keys(n: int, tails, heads) -> list[int]:
    """Each arc's (tail, head) pair as the int tail * n + head, which orders arcs as the pairs do.

    Ints, unlike pair tuples, are not tracked by the cyclic collector.
    """
    return list(map(operator.add, map(operator.mul, tails, repeat(n)), heads))


def _checked_columns(n: int, tails, heads, weights) -> list:
    """The arcs' tail, head, weight and pair-key columns in (tail, head) order, once they pass the checks.

    Reports the first fault kind present, in the order endpoint, loop,
    weight; with several faults it does not say which arc carries them.
    Parallel arcs are merged by weight sum. The columns are rebuilt only
    when their pairs are not already ascending, and only after every arc
    has passed the checks, so a bad weight cannot hide in a sum.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not tails:
        return [(), (), (), ()]
    if min(tails) < 0 or min(heads) < 0 or max(tails) >= n or max(heads) >= n:
        raise ValueError("arc endpoint out of range")
    if any(map(operator.eq, tails, heads)):
        raise ValueError("loops are not allowed")
    # A sum of ints is an int; any other weight type makes it something else.
    if min(weights) < 1 or type(sum(weights)) is not int:
        raise ValueError("arc weights must be positive integers")
    keys = _pair_keys(n, tails, heads)
    if all(map(operator.lt, keys, keys[1:])):
        return [tails, heads, weights, keys]
    merged: dict[int, int] = {}
    for key, weight in zip(keys, weights):
        merged[key] = merged.get(key, 0) + weight
    keys = sorted(merged)
    return [
        list(map(operator.floordiv, keys, repeat(n))),
        list(map(operator.mod, keys, repeat(n))),
        list(map(merged.__getitem__, keys)),
        keys,
    ]


def _columns(arcs) -> tuple[tuple, tuple, tuple]:
    """The tail, head and weight columns of (tail, head, weight) triples."""
    tails, heads, weights = list(zip(*arcs)) or ((), (), ())
    return tails, heads, weights


@dataclass(frozen=True, init=False)
class WeightedDigraph(Record):
    """Loop-free digraph with positive integer arc weights, vertices 0..n-1.

    The arcs are held as three columns, ``tails``, ``heads`` and
    ``weights``, ordered by (tail, head), beside ``pair_keys``, each arc's
    tail * n + head; ``arcs`` is the same arcs as a sorted tuple of
    triples, built on first use. Every constructor checks its arcs in one
    place (``_checked_columns``); only columns derived from a checked
    digraph's skip it (``_from_checked``). Such columns hold distinct
    loop-free pairs in range, ordered by (tail, head), with positive int
    weights and their pair keys.
    """

    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    weights: tuple[int, ...]
    # Derived from n, tails and heads, so it takes no part in == or the repr.
    pair_keys: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, n: int, arcs) -> None:
        tails, heads, weights = _columns(arcs)
        columns = _checked_columns(n, tails, heads, weights)
        if len(columns[3]) < len(tails):
            raise ValueError("parallel arcs must be merged before construction")
        vars(self).update(vars(self._from_checked(n, *columns)))

    @classmethod
    def from_arcs(cls, n: int, arcs) -> WeightedDigraph:
        """Build a digraph from (tail, head, weight) triples, merging parallel arcs by weight sum."""
        return cls.from_columns(n, *_columns(arcs))

    @classmethod
    def from_columns(cls, n: int, tails, heads, weights) -> WeightedDigraph:
        """``from_arcs`` on the arcs' tail, head and weight columns."""
        return cls._from_checked(n, *_checked_columns(n, tails, heads, weights))

    @classmethod
    def _from_checked(cls, n: int, tails, heads, weights, pair_keys) -> WeightedDigraph:
        """The digraph of checked column sequences, each made a tuple (see ``Record``)."""
        tails, heads, weights, pair_keys = map(tuple, (tails, heads, weights, pair_keys))
        return cls._unchecked(n=n, tails=tails, heads=heads, weights=weights, pair_keys=pair_keys)

    def _subgraph(self, kept, weights=None) -> WeightedDigraph:
        """The arcs whose flag in ``kept`` is true, at their weight in ``weights`` if given; no check."""
        weights = self.weights if weights is None else weights
        columns = self.tails, self.heads, weights, self.pair_keys
        return self._from_checked(self.n, *(list(compress(column, kept)) for column in columns))

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        # From a list, as Record says.
        return tuple(list(zip(self.tails, self.heads, self.weights)))


@dataclass(frozen=True)
class DigraphStats:
    """Total squared weight and summed squared vertex imbalance.

    ``imbalance2`` is the sum over the vertices of (out_v - in_v)^2, out_v
    and in_v the weights of the arcs out of and into v.
    """

    W2: int
    imbalance2: int


@dataclass(frozen=True)
class LinearOrder(Record):
    """An order of the vertices 0..n-1, held as its sequence: ``vertices[r]`` has rank r + 1.

    ``_unchecked`` skips the permutation check, for a sequence already proved to be one.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(map(operator.eq, sorted(self.vertices), range(len(self.vertices)))):
            raise ValueError("sequence must be a permutation of 0..n-1")


def digraph_stats(g: WeightedDigraph) -> DigraphStats:
    net: Counter[int] = Counter()
    for u, v, w in zip(g.tails, g.heads, g.weights):
        net[u] += w
        net[v] -= w
    return DigraphStats(
        W2=sum(map(operator.mul, g.weights, g.weights)),
        imbalance2=sum(map(operator.mul, net.values(), net.values())),
    )


def reduce_two_cycles(g: WeightedDigraph) -> WeightedDigraph:
    """Cancel every directed 2-cycle, keeping the heavier arc at reduced weight.

    Equal weights delete both arcs. The result is an oriented graph and is
    decision-equivalent to the input for every k: any order's forward weight
    changes by the same constant as W/2 does. Only the arcs whose reverse is
    present are touched, each found by bisecting the sorted pair keys.
    """
    both = set(g.pair_keys).intersection(_pair_keys(g.n, g.heads, g.tails))
    if not both:
        return g
    reduced = list(g.weights)
    for key in both:
        reduced[bisect_left(g.pair_keys, key)] -= g.weights[bisect_left(g.pair_keys, key % g.n * g.n + key // g.n)]
    return g._subgraph(list(map((0).__lt__, reduced)), reduced)


def x_value(g: WeightedDigraph, order: LinearOrder) -> int:
    """Doubled balance 2X = 2*(forward weight) - W of the order on g."""
    if len(order.vertices) != g.n:
        raise ValueError("order must cover all vertices of the graph")
    pos = dict(zip(order.vertices, range(g.n)))
    forward = sum(w for u, v, w in zip(g.tails, g.heads, g.weights) if pos[u] < pos[v])
    return 2 * forward - sum(g.weights)


def active_vertices(g: WeightedDigraph) -> list[int]:
    """Non-isolated vertices in increasing order: what the order caps, DPs and sampler see."""
    return sorted({*g.tails, *g.heads})


def _in_weights(g: WeightedDigraph, groups: list[list[int]]) -> list[list[list[int]]]:
    """One block per vertex group: ``block[i][t]`` is the weight of the arc from ``group[t]`` into ``group[i]``, or 0.

    The groups are disjoint and cover every arc's endpoints; an arc between
    two groups is in no block, so the blocks take the room of the groups'
    sizes squared, not of all the vertices'.
    """
    where = {v: (c, j) for c, group in enumerate(groups) for j, v in enumerate(group)}
    blocks = [[[0] * len(group) for _ in group] for group in groups]
    for u, v, w in zip(g.tails, g.heads, g.weights):
        (c, i), (d, t) = where[v], where[u]
        if c == d:
            blocks[c][i][t] = w
    return blocks


def _strong_components(g: WeightedDigraph, active: list[int]) -> list[list[int]]:
    """The strongly connected components of the active vertices, each in increasing order, in topological order.

    ``reach[i]`` starts as the heads of the arcs out of ``active[i]``, as a
    bitmask of indices into ``active``. After the bitmask transitive closure
    it holds every vertex i reaches, itself included, so two vertices share
    a component exactly when they reach the same set. A component that
    reaches another reaches a strict superset of what that one reaches, so
    sorting by descending reach size puts every arc between components
    forward.
    """
    index = dict(zip(active, range(len(active))))
    reach = [1 << i for i in range(len(active))]
    for u, v in zip(g.tails, g.heads):
        reach[index[u]] |= 1 << index[v]
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | via
    components: dict[int, list[int]] = {}
    for v, r in zip(active, reach):
        components.setdefault(r, []).append(v)
    return [components[r] for r in sorted(components, key=int.bit_count, reverse=True)]


def _subset_sums(weights: list[int]) -> list[int]:
    """Total weight of every subset of range(len(weights)), indexed by its mask."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _gain_tables(in_weights: list[list[int]]) -> tuple[int, list[list[int]], list[list[int]]]:
    """Half-width tables of the weight of the arcs from a vertex set S into each vertex i.

    That weight is ``lo[i][S & low] + hi[i][S >> h]``, with h = m // 2 and
    ``low = (1 << h) - 1``: about 2m * 2^(m/2) table entries, not m * 2^m.
    """
    h = len(in_weights) // 2
    lo = [_subset_sums(row[:h]) for row in in_weights]
    hi = [_subset_sums(row[h:]) for row in in_weights]
    return h, lo, hi


def _insertion_order(in_weights: list[list[int]]) -> tuple[int, list[int]]:
    """An order of vertices 0..m-1 that no single vertex move improves, with its forward weight.

    It starts from the vertices sorted by in-weight minus out-weight, then
    moves each vertex in turn to its best position until a sweep moves none.
    Moving v from just before u to just after it gains w(u, v) - w(v, u), so
    one prefix-sum scan of the others finds v's best position: O(m^2) per sweep.
    """
    # gains[v][u] = w(u, v) - w(v, u); each row sums to v's in-weight minus its out-weight.
    gains = [[w - in_weights[u][v] for u, w in enumerate(row)] for v, row in enumerate(in_weights)]
    order = sorted(range(len(in_weights)), key=lambda v: sum(gains[v]))
    moved = True
    while moved:
        moved = False
        for v in range(len(order)):
            at = order.index(v)
            del order[at]
            sums = list(accumulate(map(gains[v].__getitem__, order), initial=0))
            best = max(sums)
            if best > sums[at]:
                at, moved = sums.index(best), True
            order.insert(at, v)
    forward = sum(sum(map(in_weights[v].__getitem__, order[:j])) for j, v in enumerate(order))
    return forward, order


def _best_order(in_weights: list[list[int]]) -> tuple[int, list[int]]:
    """Maximum forward weight over the orders of vertices 0..m-1, with an order attaining it.

    ``in_weights[i][t]`` is the weight of the arc from t into i. Dynamic program
    over subsets: the best order of a set S extends by a new last vertex i,
    gaining the weight of arcs from S into i, read from ``_gain_tables``. The
    order is recovered by walking back from the full set to the first reached
    predecessor, by vertex index, whose value plus gain gives the current
    value; if none does, the dp values are wrong and AssertionError names the set.

    A set S is extended only when dp[S] + W - in(S) >= LB. W is the total
    weight, in(S) the in-weight of S's vertices (two half-width subset-sum
    tables), and LB the forward weight of ``_insertion_order``'s order. Every
    order of S's complement after S leaves the arcs into S from outside
    backward, so dp[S] + W - in(S) bounds every order starting with S. Sets
    never reached keep the value -1 and are not extended. Neither the value
    nor the order can change:

    - The prefix sets of every optimal order get their exact value. The
      empty set does; a prefix set with its exact value has a bound of at
      least OPT >= LB, so it is extended, and its successor on the order
      gets its exact value too.
    - Skipping a set only lowers dp values (-1 stays below every real
      value). The back-walk visits only prefix sets of optimal orders, so at
      each step the unpruned DP's first predecessor keeps its exact value,
      and no earlier one newly meets the equality.

    Below ``PRUNE_MIN_VERTICES`` LB is 0, nothing is skipped and the in-weight
    tables are not built: there the heuristic costs more than the pruning
    saves. Median times over 10 strongly connected graphs per size (a
    Hamiltonian cycle plus m random arcs, weights 1-4;
    ``scripts/order_prune.py``, unpruned against pruned with the heuristic):
    133 / 173 us at 6 vertices, 122 / 139 us at 7, 191 / 175 us at 8,
    626 / 358 us at 10, 2.6 / 0.95 ms at 12.
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
    lower = _insertion_order(in_weights)[0] if m >= PRUNE_MIN_VERTICES else 0
    if lower:
        in_totals = list(map(sum, in_weights))
        in_lo, in_hi = _subset_sums(in_totals[:h]), _subset_sums(in_totals[h:])
        # S is extended only when dp[S] - in(S) >= LB - W. With LB = 0 the test stops
        # before it reads these.
        floor = lower - sum(in_totals)
    dp = [-1] * size
    dp[0] = 0
    for mask in range(size):
        base = dp[mask]
        sl = mask & low
        sh = mask >> h
        if base < 0 or lower and base - in_lo[sl] - in_hi[sh] < floor:
            continue
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
            if prev < mask and dp[prev] >= 0 and dp[prev] + lo[i][prev & low] + hi[i][prev >> h] == dp[mask]:
                break
        else:
            raise AssertionError("no predecessor of vertex set %s attains its dp value" % bin(mask))
        order.append(i)
        mask = prev
    order.reverse()
    return dp[size - 1], order


def forward_weight_counts(g: WeightedDigraph, active: list[int]) -> dict[int, int]:
    """The number of orders of ``active``, the non-isolated vertices, at each forward weight they reach.

    Dynamic program over subsets, like ``_best_order``, on one in-weight
    block over all of ``active`` (the solver builds one per strong
    component) and its gain tables: the orders of a set S end in some v
    of S, and each adds to an order of S - v the weight of arcs from S - v
    into v. Each subset keeps its orders' forward weights as one packed int
    whose digit f counts the orders of weight f, so a move that gains g is
    one shift by g digits and one add: O(2^n' * n') big-int steps on at most
    W + 1 digits, W the total weight. Past ``gf2.COUNT_BUDGET_BYTES`` or
    ``PACKED_BYTES_PER_ORDER`` * n'! bytes each subset keeps a Counter
    instead, at O(2^n' * n' * support) dict updates, which follows the
    distinct forward weights rather than W; that path refuses an n' past
    ``DEFAULT_ORDER_CAP`` before it builds anything.
    """
    nv = len(active)
    total_weight = sum(g.weights)
    # Digits of 1, 2, 4 or 8 bytes hold n'! for n' <= 20; a larger n' always fails the budget.
    orders = math.factorial(nv)
    digit_bytes = 1 << (-(-orders.bit_length() // 8) - 1).bit_length()
    packed = (total_weight + 1) * digit_bytes << nv <= min(gf2.COUNT_BUDGET_BYTES, PACKED_BYTES_PER_ORDER * orders)
    if not packed:
        check_cap("distribution", nv, "active vertices for the Counter DP", DEFAULT_ORDER_CAP)
    h, lo, hi = _gain_tables(_in_weights(g, [active])[0])
    low = (1 << h) - 1
    full = (1 << nv) - 1
    if packed:
        shift = 8 * digit_bytes
        # Each vertex's bit and its gain tables, scaled from digits to bits.
        moves = [(1 << i, [x * shift for x in lo[i]], [x * shift for x in hi[i]]) for i in range(nv)]
        poly = [1] + [0] * full
        for mask in range(full):
            # Each subset's polynomial is read only here, so drop it once read.
            base, poly[mask] = poly[mask], 0
            sl, sh = mask & low, mask >> h
            for bit, lo_shift, hi_shift in moves:
                if not mask & bit:
                    poly[mask | bit] += base << lo_shift[sl] + hi_shift[sh]
        raw = poly[full].to_bytes((total_weight + 1) * digit_bytes, sys.byteorder)
        digits = memoryview(raw).cast(gf2.WORDS[digit_bytes])
        if sys.byteorder == "big":
            digits = digits[::-1]
        return dict(compress(enumerate(digits), digits))
    counters: list[Counter[int] | None] = [Counter() for _ in range(full + 1)]
    counters[0][0] = 1
    for mask in range(full):
        # Each subset's Counter is read only here, so drop it once read.
        base, counters[mask] = counters[mask], None
        sl, sh = mask & low, mask >> h
        for i in range(nv):
            bit = 1 << i
            if mask & bit:
                continue
            gain = lo[i][sl] + hi[i][sh]
            target = counters[mask | bit]
            for f, c in base.items():
                target[f + gain] += c
    return counters[full]


def exact_max_acyclic(
    g: WeightedDigraph, cap: int = DEFAULT_VERTEX_CAP
) -> tuple[int, list[int]]:
    """Maximum forward weight over all orders, and the non-isolated vertices in an order attaining it.

    Each strongly connected component of the non-isolated vertices is solved
    on its own by a subset dynamic program (``_best_order``) over its own
    in-weight block (``forward_weight_counts`` builds one block over all the
    active vertices instead); only the blocks are built, so their room
    follows the components' sizes. An arc between components is forward in
    the topological order of the condensation, so the optimum is the sum of
    the components' optima plus the weight of every arc between components,
    attained by laying the components' orders end to end in that order.
    Isolated vertices are left out: they can go anywhere, and
    ``with_isolated`` appends them. Refuses instances with more than ``cap``
    non-isolated vertices, or with a component of more than
    ``DEFAULT_VERTEX_CAP``, before any search.
    """
    active = active_vertices(g)
    check_cap("exact solve", len(active), "non-isolated vertices", cap, ("cap", "kernel_vertices"))
    components = _strong_components(g, active)
    largest = max(map(len, components), default=0)
    check_cap("exact solve", largest, "component vertices", DEFAULT_VERTEX_CAP, ("component_cap", "component_vertices"))
    value = sum(g.weights)
    seq = []
    for members, inner in zip(components, _in_weights(g, components)):
        best, order = _best_order(inner)
        # The arcs inside the component count only as far as its order keeps them forward.
        value += best - sum(map(sum, inner))
        seq.extend(members[j] for j in order)
    return value, seq


def with_isolated(seq: list[int], n: int, lead: bool = False) -> LinearOrder:
    """The order of 0..n-1 listing ``seq``, then (or first, with ``lead``) the other vertices by index.

    The other vertices are laid down one ``range`` per gap between
    consecutive members of ``seq``, so the Python-level work follows
    len(seq), not n. The gaps hold every vertex ``seq`` misses, so n
    vertices in all means ``seq`` lists distinct ones of 0..n-1.
    """
    bounds = [-1, *sorted(seq), n]
    others = chain.from_iterable(map(range, [b + 1 for b in bounds], bounds[1:]))
    vertices = tuple(chain(others, seq) if lead else chain(seq, others))
    if len(vertices) != n:
        raise ValueError("sequence must list distinct vertices of 0..n-1")
    return LinearOrder._unchecked(vertices=vertices)


def loalb_threshold(k: int) -> int:
    """12k^2: a 2-cycle-free graph with W2, or as many arcs, this large is YES."""
    return 12 * k * k


def decide_loalb(
    g: WeightedDigraph, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> DecisionOutcome:
    """Decide whether some order has forward weight >= W/2 + k.

    After cancelling 2-cycles, W2 >= 12k^2 certifies YES outright; otherwise
    the reduced graph has fewer than 12k^2 arcs and is solved exactly.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    reduced = reduce_two_cycles(g)
    weights = reduced.weights
    w2 = sum(map(operator.mul, weights, weights))
    threshold = loalb_threshold(k)
    diag = {
        "k": k,
        "w2": w2,
        "w2_threshold": threshold,
        "kernel_arcs": len(weights),
    }
    if w2 >= threshold:
        return DecisionOutcome(Verdict.YES_BY_BOUND, diagnostics=diag)

    def solve() -> tuple[int, list[int]]:
        value, order = exact_max_acyclic(reduced, cap=cap)
        return 2 * value - sum(weights), order

    lift = partial(with_isolated, n=reduced.n)
    return settle(diag, reduced, solve, ("best_2x", "target_2x"), 2 * k, lift)


def solve_loalb_faithful(
    g: WeightedDigraph, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> LinearOrder | None:
    """Construct an order with forward weight >= W/2 + k, or None for NO instances.

    While the 2-cycle-free graph keeps at least 12k^2 arcs after the removal,
    vertices of small degree are deleted (minimum degree first, ties by index)
    and later reinserted in reverse order: a vertex goes before everything
    present if its outgoing weight to present vertices is at least its incoming
    weight, and after everything otherwise, which keeps 2X intact or improves
    it. The leading vertices thus come in deletion order and the trailing ones
    in reverse. May raise CapExceeded if the residual graph is still too
    large to solve exactly.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    reduced = reduce_two_cycles(g)
    threshold = loalb_threshold(k)
    arcs = len(reduced.weights)
    # Isolated vertices stay out of the deletion scan. From 12k^2 arcs on,
    # each would be deleted first, in index order, and so come back in
    # front; below that they trail the residual's order.
    isolated_first = arcs >= threshold
    out_adj: dict[int, dict[int, int]] = {v: {} for v in active_vertices(reduced)}
    in_adj: dict[int, dict[int, int]] = {v: {} for v in out_adj}
    for u, v, w in zip(reduced.tails, reduced.heads, reduced.weights):
        out_adj[u][v] = w
        in_adj[v][u] = w

    def degree(v: int) -> int:
        return len(out_adj[v]) + len(in_adj[v])

    # Least (degree, vertex) first. Degrees only fall, so an entry whose
    # degree is no longer the vertex's own is stale and skipped.
    heap = [(degree(v), v) for v in out_adj]
    heapq.heapify(heap)
    # Each deleted vertex, and whether it leads: its weight out to the vertices
    # present, which are present again when it returns, is at least its weight in.
    deleted: list[tuple[int, bool]] = []
    while heap:
        deg, v = heapq.heappop(heap)
        if v not in out_adj or deg != degree(v):
            continue
        if arcs - threshold < deg:
            break
        outs, ins = out_adj.pop(v), in_adj.pop(v)
        for j in outs:
            del in_adj[j][v]
        for j in ins:
            del out_adj[j][v]
        arcs -= deg
        deleted.append((v, sum(outs.values()) >= sum(ins.values())))
        for j in chain(outs, ins):
            heapq.heappush(heap, (degree(j), j))

    # Every vertex left keeps an arc: with none it would have been deleted,
    # since deletions run only while at least 12k^2 arcs remain.
    kept = [u in out_adj and v in out_adj for u, v in zip(reduced.tails, reduced.heads)]
    residual = reduced._subgraph(kept)
    value, order = exact_max_acyclic(residual, cap=cap)
    if 2 * value - sum(residual.weights) < 2 * k:
        # Deletions preserve the bound-certified YES, so a short residual
        # optimum means no deletion ever fired and the instance is NO.
        assert not deleted
        return None
    leading = [v for v, leads in deleted if leads]
    trailing = [v for v, leads in reversed(deleted) if not leads]
    return with_isolated(leading + order + trailing, reduced.n, lead=isolated_first)


def decide_fas_below(
    g: WeightedDigraph, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> DecisionOutcome:
    """Decide whether some feedback arc set has at most |A|/2 - k arcs.

    Requires unit weights. The backward arcs of an order form a feedback arc
    set, so the question is the complement of the forward-weight target and
    the verdict mirrors decide_loalb.
    """
    arc_count = len(g.weights)
    if g.weights.count(1) != arc_count:
        raise ValueError("feedback arc decision requires unit weights")
    out = decide_loalb(g, k, cap=cap)
    diag = dict(out.diagnostics)
    diag["arc_count"] = arc_count
    diag["fas_bound_doubled"] = arc_count - 2 * k
    return replace(out, diagnostics=diag)
