import math
import random
import time
import tracemalloc
from fractions import Fraction
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight import linord
from abovetight.linord import (
    LinearOrder,
    WeightedDigraph,
    active_vertices,
    decide_fas_below,
    decide_loalb,
    digraph_stats,
    exact_max_acyclic,
    forward_weight_counts,
    reduce_two_cycles,
    solve_loalb_faithful,
    with_isolated,
)
from abovetight import cli
from abovetight.instances import serialize_instance
from abovetight.outcome import CapExceeded, DecisionOutcome, Verdict

from helpers import (
    brute_decide_loalb,
    brute_max_forward_weight,
    faithful_outcome,
    full_best_order,
    order_balance,
    oriented_by_weight_map,
    random_digraph,
    reduce_two_cycles_by_dict,
    reduce_two_cycles_by_reverse_weights,
    solve_loalb_faithful_by_snapshots,
    subset_dp_max_forward,
    weight_map,
    witness_balance,
    with_isolated_by_ranks,
)


def test_two_cycle_rule_symmetric_pair_cancels():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 3), (1, 0, 3)])
    assert reduce_two_cycles(g).arcs == ()


def test_two_cycle_rule_keeps_weight_difference():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 5), (1, 0, 2)])
    assert reduce_two_cycles(g).arcs == ((0, 1, 3),)


def test_two_cycle_rule_leaves_plain_arcs_alone():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1)])
    assert reduce_two_cycles(g) == g


def test_stats_single_arc():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    st_ = digraph_stats(g)
    # Vertex 0 sends 2 and vertex 1 receives it: imbalances +2 and -2.
    assert (st_.W2, st_.imbalance2, oriented_by_weight_map(g)) == (4, 8, True)


def test_stats_three_cycle():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    st_ = digraph_stats(g)
    assert (st_.W2, st_.imbalance2, oriented_by_weight_map(g)) == (3, 0, True)


def test_stats_two_cycle_not_oriented():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 3), (1, 0, 3)])
    st_ = digraph_stats(g)
    assert (st_.W2, st_.imbalance2, oriented_by_weight_map(g)) == (18, 0, False)


def test_parallel_arcs_merge_on_construction():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2), (0, 1, 3)])
    assert g.arcs == ((0, 1, 5),)


def test_loops_rejected():
    with pytest.raises(ValueError, match="loop"):
        WeightedDigraph.from_arcs(2, [(0, 0, 1)])


_CONSTRUCTOR_FAULTS = [
    (-1, (), "vertex count must be nonnegative"),
    (2, ((0, 2, 1),), "arc endpoint out of range"),
    (2, ((0, 1, 1), (-1, 0, 1)), "arc endpoint out of range"),
    (0, ((0, 1, 1),), "arc endpoint out of range"),
    (3, ((0, 1, 1), (2, 2, 1)), "loops are not allowed"),
    (2, ((0, 1, 1), (1, 0, 0)), "arc weights must be positive integers"),
    (3, ((0, 1, 1), (1, 2, 1), (0, 1, 2)), "parallel arcs must be merged before construction"),
    # Several faults: the first kind in the order endpoint, loop, weight,
    # parallel is named, whichever arc carries it.
    (3, ((1, 1, 0), (0, 1, 1), (0, 1, 1), (0, 3, 1)), "arc endpoint out of range"),
    (3, ((0, 1, 0), (2, 2, 1)), "loops are not allowed"),
    # A weight that is not an int, though positive.
    (3, ((0, 1, 2.5), (1, 2, 1)), "arc weights must be positive integers"),
    (3, ((0, 1, 1), (1, 2, Fraction(3, 2))), "arc weights must be positive integers"),
    # A zero weight beside a parallel arc: the weight is named, and not hidden in a sum.
    (3, ((0, 1, 1), (1, 0, 1), (0, 1, 0)), "arc weights must be positive integers"),
    # Parallel arcs and a later loop: the loop is named.
    (3, ((0, 1, 1), (0, 1, 2), (2, 2, 1)), "loops are not allowed"),
    # Shuffled parallel arcs, merged by the check and then refused by the plain constructor.
    (
        4,
        ((2, 3, 1), (0, 1, 2), (1, 2, 1), (0, 1, 1), (2, 3, 5)),
        "parallel arcs must be merged before construction",
    ),
]


@pytest.mark.parametrize("n,arcs,message", _CONSTRUCTOR_FAULTS)
def test_constructor_names_each_fault(n, arcs, message):
    # As given and reversed, so each fault is met with the pairs in and out of order.
    for given in (arcs, arcs[::-1]):
        with pytest.raises(ValueError) as info:
            WeightedDigraph(n, given)
        assert str(info.value) == message


@pytest.mark.parametrize("n,arcs,message", _CONSTRUCTOR_FAULTS)
def test_column_constructor_names_each_fault_but_merges_parallel_arcs(n, arcs, message):
    for given in (arcs, arcs[::-1]):
        columns = tuple(zip(*given)) or ((), (), ())
        if message.startswith("parallel"):
            assert WeightedDigraph.from_columns(n, *columns) == WeightedDigraph.from_arcs(n, arcs)
            continue
        with pytest.raises(ValueError) as info:
            WeightedDigraph.from_columns(n, *columns)
        assert str(info.value) == message


def test_constructor_accepts_an_empty_arc_tuple():
    for n in (0, 1, 5):
        g = WeightedDigraph(n, ())
        assert g.arcs == ()
        assert reduce_two_cycles(g) == g
        assert WeightedDigraph.from_arcs(n, []) == g
        st_ = digraph_stats(g)
        assert (st_.W2, st_.imbalance2, oriented_by_weight_map(g)) == (0, 0, True)


def test_from_arcs_merges_only_arcs_that_pass_every_other_check():
    # -1 + 2 would merge to a positive weight; the unmerged arc is refused.
    with pytest.raises(ValueError, match="positive"):
        WeightedDigraph.from_arcs(2, [(0, 1, -1), (0, 1, 2)])
    g = WeightedDigraph.from_arcs(3, [(2, 1, 1), (0, 1, 2), (2, 1, 4), (0, 1, 3)])
    assert g.arcs == ((0, 1, 5), (2, 1, 5))


def _random_arcs(rng: random.Random, n: int, m: int, wmax: int) -> list[tuple[int, int, int]]:
    """m random arcs on n vertices in random order, 2-cycles among them: the shape of the large bound inputs."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    arcs = [(u, v, rng.randint(1, wmax)) for u, v in pairs]
    rng.shuffle(arcs)
    return arcs


@pytest.mark.parametrize("n,m", [(3, 4), (6, 20), (400, 3000), (1500, 10000), (2500, 15000)])
def test_columns_are_the_sorted_arcs_however_built(n, m):
    rng = random.Random(n * m)
    arcs = _random_arcs(rng, n, m, 4)
    g = WeightedDigraph.from_arcs(n, arcs)
    assert g.arcs == tuple(sorted(arcs))
    assert g.arcs == tuple(zip(g.tails, g.heads, g.weights))
    assert g.pair_keys == tuple(u * n + v for u, v, _ in g.arcs)
    for built in (
        WeightedDigraph(n, arcs),
        WeightedDigraph(n, g.arcs),
        WeightedDigraph.from_columns(n, *zip(*arcs)),
        WeightedDigraph.from_columns(n, g.tails, g.heads, g.weights),
    ):
        assert built == g and hash(built) == hash(g)
        assert built.pair_keys == g.pair_keys
    # Parallel arcs merge the same way from triples and from columns.
    parallel = arcs + [(u, v, rng.randint(1, 4)) for u, v, _ in rng.sample(arcs, min(m, 50))]
    rng.shuffle(parallel)
    sums: dict[tuple[int, int], int] = {}
    for u, v, w in parallel:
        sums[u, v] = sums.get((u, v), 0) + w
    merged = WeightedDigraph.from_arcs(n, parallel)
    assert merged.arcs == tuple((u, v, w) for (u, v), w in sorted(sums.items()))
    assert WeightedDigraph.from_columns(n, *zip(*parallel)) == merged
    assert merged.pair_keys == tuple(u * n + v for u, v, _ in merged.arcs)


@pytest.mark.parametrize("n,m", [(400, 3000), (1500, 10000), (2500, 15000)])
def test_reduce_two_cycles_matches_the_dict_walk_at_bound_sizes(n, m):
    rng = random.Random(n + m)
    for wmax in (1, 4):
        g = WeightedDigraph.from_arcs(n, _random_arcs(rng, n, m, wmax))
        reduced = reduce_two_cycles(g)
        assert reduced == reduce_two_cycles_by_dict(g)
        assert reduced.pair_keys == tuple(u * n + v for u, v, _ in reduced.arcs)
        assert len(reduced.weights) < m


def test_reduce_two_cycles_matches_the_reverse_weight_walk():
    rng = random.Random(3232)
    graphs = [
        WeightedDigraph.from_arcs(0, []),
        WeightedDigraph.from_arcs(4, [(0, 1, 2), (1, 2, 3), (3, 0, 1)]),
        WeightedDigraph.from_arcs(4, [(0, 1, 2), (1, 0, 2), (2, 3, 5), (3, 2, 5), (1, 3, 1), (3, 1, 1)]),
    ]
    for n, m in ((3, 6), (6, 25), (30, 700), (200, 20000)):
        for wmax in (1, 2, 9):
            graphs.append(WeightedDigraph.from_arcs(n, _random_arcs(rng, n, m, wmax)))
    for g in graphs:
        reduced = reduce_two_cycles(g)
        assert reduced == reduce_two_cycles_by_reverse_weights(g), g
        assert reduced.pair_keys == tuple(u * g.n + v for u, v, _ in reduced.arcs)
    # A graph without 2-cycles comes back as it is; one of equal-weight 2-cycles only loses every arc.
    assert reduce_two_cycles(graphs[1]) is graphs[1]
    assert reduce_two_cycles(graphs[2]).arcs == ()


def check_each_fact_once(g: WeightedDigraph) -> None:
    """What the decide path no longer recomputes still holds on g."""
    reduced = reduce_two_cycles(g)
    assert reduced == reduce_two_cycles_by_dict(g), g
    # The constructor check that reduce_two_cycles skips would have passed.
    assert WeightedDigraph(g.n, reduced.arcs) == reduced
    st_ = digraph_stats(reduced)
    assert oriented_by_weight_map(reduced)
    diag = decide_loalb(g, 1).diagnostics
    assert (diag["w2"], diag["kernel_arcs"]) == (st_.W2, len(reduced.weights))
    _, order = exact_max_acyclic(reduced)
    for lead in (False, True):
        assert with_isolated(order, g.n, lead).vertices == with_isolated_by_ranks(order, g.n, lead)


def test_reduce_two_cycles_matches_the_dict_walk():
    rng = random.Random(2718)
    equal_pairs = 0
    for _ in range(400):
        g = random_digraph(rng, n_max=8, wmax=rng.choice([1, 2, 5]), allow_two_cycles=True)
        check_each_fact_once(g)
        wm = weight_map(g)
        equal_pairs += sum(1 for (u, v), w in wm.items() if wm.get((v, u)) == w)
    assert equal_pairs > 100


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_each_fact_once_on_drawn_digraphs(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_digraph(rng, n_max=9, wmax=data.draw(st.sampled_from([1, 3, 100])), n_min=0)
    padded = WeightedDigraph(g.n + data.draw(st.integers(0, 5)), g.arcs)
    check_each_fact_once(padded)


def test_exact_single_arc():
    value, _ = exact_max_acyclic(WeightedDigraph.from_arcs(2, [(0, 1, 2)]))
    assert value == 2


def test_exact_three_cycle():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    value, order = exact_max_acyclic(g)
    assert value == 2
    assert 2 * value - 3 == order_balance(g, with_isolated(order, 3))


def test_exact_empty_graph():
    value, order = exact_max_acyclic(WeightedDigraph(3, ()))
    assert value == 0
    assert order == []
    assert with_isolated(order, 3).vertices == (0, 1, 2)


def test_exact_cap_refusal():
    g = WeightedDigraph.from_arcs(6, [(i, i + 1, 1) for i in range(5)])
    with pytest.raises(CapExceeded):
        exact_max_acyclic(g, cap=3)


def test_x_value_single_arc():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    assert order_balance(g, LinearOrder((0, 1))) == 2
    assert order_balance(g, LinearOrder((1, 0))) == -2


def test_x_value_three_cycle_is_odd_unit():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    import itertools

    for perm in itertools.permutations(range(3)):
        assert order_balance(g, LinearOrder(tuple(perm))) in (-1, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_x_value_negates_under_reversal_on_oriented_graphs(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_digraph(rng, n_max=6, allow_two_cycles=False)
    perm = data.draw(st.permutations(range(g.n)))
    order = LinearOrder(tuple(perm))
    assert order_balance(g, LinearOrder(tuple(reversed(perm)))) == -order_balance(g, order)


def test_decide_symmetric_pair_is_no():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 3), (1, 0, 3)])
    assert decide_loalb(g, 1).verdict is Verdict.NO


def test_decide_single_arc_yes_with_witness():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    out = decide_loalb(g, 1)
    assert out.verdict is Verdict.YES_WITNESS
    assert order_balance(g, out.witness) >= 2


def test_decide_three_cycle_no():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert decide_loalb(g, 1).verdict is Verdict.NO


def test_decide_witness_holds_on_unreduced_graph():
    # The balance of any order is identical before and after 2-cycle
    # cancellation, so the kernel's witness transfers unchanged.
    g = WeightedDigraph.from_arcs(4, [(0, 1, 3), (1, 0, 1), (2, 3, 2)])
    out = decide_loalb(g, 2)
    assert out.verdict is Verdict.YES_WITNESS
    assert order_balance(g, out.witness) >= 4
    assert order_balance(reduce_two_cycles(g), out.witness) == order_balance(g, out.witness)


def test_decide_rejects_nonpositive_k():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        decide_loalb(g, 0)
    with pytest.raises(ValueError, match="positive integer"):
        solve_loalb_faithful(g, 0)


def test_decision_outcome_refuses_mismatched_payloads():
    with pytest.raises(ValueError, match="witness must be present"):
        DecisionOutcome(Verdict.YES_WITNESS)
    with pytest.raises(ValueError, match="witness must be present"):
        DecisionOutcome(Verdict.NO, witness=LinearOrder((0,)))
    with pytest.raises(ValueError, match="kernel payload"):
        DecisionOutcome(Verdict.NO, kernel=WeightedDigraph(1, ()))


def test_decide_bound_verdict_on_heavy_graph():
    # Star with 12 unit out-arcs reaches W2 = 12 >= 12k^2 at k=1.
    arcs = [(0, i, 1) for i in range(1, 13)]
    out = decide_loalb(WeightedDigraph.from_arcs(13, arcs), 1)
    assert out.verdict is Verdict.YES_BY_BOUND
    assert out.diagnostics["w2"] == 12
    assert out.diagnostics["w2_threshold"] == 12


def test_decide_kernel_when_cap_too_small():
    arcs = [(i, i + 1, 1) for i in range(8)]
    out = decide_loalb(WeightedDigraph.from_arcs(9, arcs), 1, cap=4)
    assert out.verdict is Verdict.KERNEL
    assert out.kernel is not None


def test_two_cycle_rule_preserves_decisions_small():
    rng = random.Random(3301)
    for _ in range(120):
        g = random_digraph(rng, n_max=5, wmax=4)
        k = rng.randint(1, 3)
        assert brute_decide_loalb(g, k) == brute_decide_loalb(reduce_two_cycles(g), k)


def test_subset_dp_matches_permutation_enumeration():
    rng = random.Random(991)
    for _ in range(60):
        g = random_digraph(rng, n_max=6, wmax=4, allow_two_cycles=True)
        value, order = exact_max_acyclic(g)
        assert value == brute_max_forward_weight(g)
        total = sum(w for _, _, w in g.arcs)
        assert 2 * value - total == order_balance(g, with_isolated(order, g.n))


def strongly_connected_arcs(rng: random.Random, vertices: list[int], wmax: int = 4):
    """A cycle through every vertex plus about as many random arcs, 2-cycles included."""
    if len(vertices) < 2:
        return []
    cycle = rng.sample(vertices, len(vertices))
    arcs = [(u, v, rng.randint(1, wmax)) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    for _ in range(len(vertices)):
        u, v = rng.sample(vertices, 2)
        arcs.append((u, v, rng.randint(1, wmax)))
    return arcs


def component_corpus(rng: random.Random, count: int):
    """Digraphs on 0-11 active vertices, cycling through five shapes.

    DAGs (every component a singleton), strongly connected graphs, blocks
    joined by arcs that all run one way, dense graphs with 2-cycles, and
    sparse graphs with isolated vertices under a larger declared n.
    """
    for i in range(count):
        n = rng.randint(0, 11)
        shape = i % 5
        if shape == 0:
            rank = list(range(n))
            rng.shuffle(rank)
            arcs = [
                (u, v, rng.randint(1, 4))
                for u in range(n)
                for v in range(n)
                if rank[u] < rank[v] and rng.random() < 0.4
            ]
        elif shape == 1:
            arcs = strongly_connected_arcs(rng, list(range(n)))
        elif shape == 2:
            cuts = sorted(rng.sample(range(1, n), min(3, n - 1))) if n > 1 else []
            blocks = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
            rng.shuffle(blocks)
            arcs = [arc for block in blocks for arc in strongly_connected_arcs(rng, block)]
            for a in range(len(blocks)):
                for b in range(a + 1, len(blocks)):
                    for _ in range(rng.randint(0, 2)):
                        arcs.append((rng.choice(blocks[a]), rng.choice(blocks[b]), rng.randint(1, 4)))
        elif shape == 3:
            yield random_digraph(rng, n_max=n, n_min=n, wmax=4, allow_two_cycles=True)
            continue
        else:
            arcs = [
                (u, v, rng.randint(1, 3))
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.12
            ]
            n += rng.randint(1, 4)
        yield WeightedDigraph.from_arcs(n, arcs)


def test_component_split_matches_the_monolithic_subset_dp():
    rng = random.Random(1010)
    for g in component_corpus(rng, 2000):
        value, order = exact_max_acyclic(g)
        want, _ = subset_dp_max_forward(g)
        assert value == want, g
        assert sorted(order) == active_vertices(g), g
        total = sum(w for _, _, w in g.arcs)
        assert order_balance(g, with_isolated(order, g.n)) == 2 * value - total, g


def pruning_corpora(rng: random.Random, count: int):
    """Three seeded corpora on which every vertex is active, keyed by name.

    ``exact_solve``: oriented digraphs of 8-15 vertices and 2n arcs, weights
    1-4, on a random Hamiltonian path, shaped like the benchmark's loalb
    kernels. ``strong``: a Hamiltonian cycle plus random arcs, 8-14 vertices.
    ``tournament``: unit-weight tournaments of 8-12 vertices, where orders tie
    often and the heuristic order can miss the optimum.
    """
    corpora = {"exact_solve": [], "strong": [], "tournament": []}
    for _ in range(count):
        n = rng.randint(8, 15)
        path = rng.sample(range(n), n)
        pairs = {tuple(sorted(pair)) for pair in zip(path, path[1:])}
        while len(pairs) < 2 * n:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        arcs = [(u, v, rng.randint(1, 4)) if rng.random() < 0.5 else (v, u, rng.randint(1, 4)) for u, v in pairs]
        corpora["exact_solve"].append(WeightedDigraph.from_arcs(n, arcs))
        n = rng.randint(8, 14)
        corpora["strong"].append(WeightedDigraph.from_arcs(n, strongly_connected_arcs(rng, list(range(n)))))
        n = rng.randint(8, 12)
        arcs = [(u, v, 1) if rng.random() < 0.5 else (v, u, 1) for u in range(n) for v in range(u + 1, n)]
        corpora["tournament"].append(WeightedDigraph.from_arcs(n, arcs))
    return corpora


def test_pruned_subset_dp_matches_the_full_one(monkeypatch):
    # Same best value and the same order, component by component and whole.
    corpora = pruning_corpora(random.Random(2828), 40)
    for name, graphs in corpora.items():
        for g in graphs:
            (matrix,) = linord._in_weights(g, [active_vertices(g)])
            assert linord._best_order(matrix) == full_best_order(matrix), (name, g)
    solved = [exact_max_acyclic(g) for graphs in corpora.values() for g in graphs]
    monkeypatch.setattr(linord, "_best_order", full_best_order)
    assert solved == [exact_max_acyclic(g) for graphs in corpora.values() for g in graphs]


def test_heuristic_order_weight_is_a_real_lower_bound():
    misses = 0
    for name, graphs in pruning_corpora(random.Random(2929), 40).items():
        for g in graphs:
            (matrix,) = linord._in_weights(g, [active_vertices(g)])
            lower, order = linord._insertion_order(matrix)
            total = sum(g.weights)
            # Every vertex is active, so matrix indices are the graph's vertices.
            assert 2 * lower - total == order_balance(g, LinearOrder(tuple(order))), (name, g)
            best, _ = linord._best_order(matrix)
            assert lower <= best, (name, g)
            misses += lower < best
    # The bound is not tight everywhere, so the pruning is tested with slack.
    assert misses > 0


def test_back_walk_fails_instead_of_cycling_on_wrong_dp_values(monkeypatch):
    # A bound one above the optimum prunes every set one vertex short of the full set,
    # so the full set is never reached and no predecessor attains its value.
    g = WeightedDigraph.from_arcs(8, strongly_connected_arcs(random.Random(8), list(range(8))))
    (matrix,) = linord._in_weights(g, [active_vertices(g)])
    best = full_best_order(matrix)[0]
    monkeypatch.setattr(linord, "_insertion_order", lambda in_weights: (best + 1, []))
    with pytest.raises(AssertionError, match="no predecessor of vertex set 0b11111111"):
        linord._best_order(matrix)


def test_forward_weight_counts_reach_the_pruned_optimum():
    for name, graphs in pruning_corpora(random.Random(3030), 8).items():
        for g in graphs:
            active = active_vertices(g)
            assert max(forward_weight_counts(g, active)) == exact_max_acyclic(g)[0], (name, g)


def test_matching_at_the_vertex_cap_is_solved_at_once():
    # 12 disjoint arcs: 24 active vertices, exactly the cap, in 24 components.
    g = WeightedDigraph.from_arcs(24, [(2 * i, 2 * i + 1, 1) for i in range(12)])
    started = time.perf_counter()
    out = decide_loalb(g, 2)
    elapsed = time.perf_counter() - started
    assert out.verdict is Verdict.YES_WITNESS
    assert order_balance(g, out.witness) == 12
    assert elapsed < 1.0, "took %.2f s" % elapsed


def test_faithful_on_a_large_matching_solves_a_residual_at_the_cap():
    # Deletions stop at 12 arcs, leaving a 24-vertex residual of 12 components.
    g = WeightedDigraph.from_arcs(2000, [(2 * i, 2 * i + 1, 1) for i in range(1000)])
    started = time.perf_counter()
    order = solve_loalb_faithful(g, 1)
    elapsed = time.perf_counter() - started
    assert order is not None
    assert order_balance(g, order) == 1000
    assert elapsed < 1.0, "took %.2f s" % elapsed


def test_subset_dp_memory_holds_one_value_per_subset():
    # One strongly connected 16-vertex graph (a Hamiltonian cycle plus random
    # arcs): the DP keeps its 2^16 values and half-width gain tables, and no
    # per-subset choice list. Peaks: 1.00 MB with a choice list beside the
    # values (subset_dp_max_forward), 0.77 MB without.
    rng = random.Random(16)
    g = WeightedDigraph.from_arcs(16, strongly_connected_arcs(rng, list(range(16))))
    tracemalloc.start()
    try:
        exact_max_acyclic(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2**20, "peak %.2f MB" % (peak / 2**20)


def test_exact_solve_builds_in_weights_per_component():
    # 200 disjoint arcs, 400 one-vertex components: an in-weight matrix over every active
    # vertex peaked at 1.33 MB here (31.6 MB at 2,000 vertices); one block per component does not.
    g = WeightedDigraph.from_arcs(400, [(2 * i, 2 * i + 1, 1) for i in range(200)])
    tracemalloc.start()
    try:
        value, order = exact_max_acyclic(g, cap=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Every tail reaches its head, so the tails' components come first.
    assert (value, order) == (200, [*range(0, 400, 2), *range(1, 400, 2)])
    assert peak < 0.25 * 2**20, "peak %.2f MB" % (peak / 2**20)


def test_faithful_small_yes_instance_without_deletions():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    order = solve_loalb_faithful(g, 1)
    assert order is not None
    assert order_balance(g, order) >= 2


def test_faithful_returns_none_on_no_instance():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert solve_loalb_faithful(g, 1) is None


def test_faithful_star_forty_leaves():
    # Center 0 with 40 unit out-arcs; deletions fire while the arc count
    # stays at least 13, and the lifted order keeps every arc forward.
    arcs = [(0, i, 1) for i in range(1, 41)]
    g = WeightedDigraph.from_arcs(41, arcs)
    order = solve_loalb_faithful(g, 1)
    assert order is not None
    assert order_balance(g, order) == 40  # forward weight 40 = W, so 2X = 40
    seq = order.vertices
    assert seq.index(0) < min(seq.index(v) for v in range(1, 41))


def test_faithful_reinsertion_prefers_heavier_side():
    # Vertex 7 has outgoing weight 5 and incoming weight 3; it is deleted
    # first (minimum degree) and must come back in front of everything.
    arcs = [(7, 0, 5), (1, 7, 3)]
    dense = [(u, v, 1) for u in range(7) for v in range(u + 1, 7)]
    g = WeightedDigraph.from_arcs(8, arcs + dense)
    assert len(g.arcs) == 23
    order = solve_loalb_faithful(g, 1)
    assert order is not None
    assert order.vertices[0] == 7
    assert order_balance(g, order) >= 2


def test_faithful_isolated_vertices_lead_at_12k2_arcs_and_trail_below():
    # A path on odd vertices; the even vertices and the last one are isolated.
    for arc_count, isolated_first in ((12, True), (11, False)):
        path = list(range(1, 2 * arc_count + 2, 2))
        g = WeightedDigraph.from_arcs(path[-1] + 3, [(u, v, 1) for u, v in zip(path, path[1:])])
        isolated = [v for v in range(g.n) if v % 2 == 0 or v > path[-1]]
        want = isolated + path if isolated_first else path + isolated
        assert list(solve_loalb_faithful(g, 1).vertices) == want


def test_faithful_cost_follows_the_arcs_not_the_header():
    # A 13-arc path under a 200,000-vertex header: vertex 0 is deleted and
    # reinserted in front, and the isolated vertices lead.
    n = 200_000
    g = WeightedDigraph.from_arcs(n, [(v, v + 1, 1) for v in range(13)])
    started = time.perf_counter()
    order = solve_loalb_faithful(g, 1)
    elapsed = time.perf_counter() - started
    assert order.vertices == tuple(range(14, n)) + tuple(range(14))
    assert elapsed < 1.0, "took %.2f s" % elapsed


def test_faithful_lifting_matches_the_snapshot_oracle():
    # The same order, refusal or None as the oracle that snapshots neighbour
    # lists and renumbers the residual.
    rng = random.Random(1729)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(2, 40)
        wmax = rng.choice((1, 3, 50))
        pairs = rng.sample(range(n * n), rng.randint(0, min(4 * n, n * n)))
        arcs = [(p // n, p % n, rng.randint(1, wmax)) for p in pairs if p // n != p % n]
        g = WeightedDigraph.from_arcs(n + rng.choice((0, 0, 3)), arcs)
        k = rng.choice((1, 1, 2))
        got = faithful_outcome(solve_loalb_faithful, g, k)
        assert got == faithful_outcome(solve_loalb_faithful_by_snapshots, g, k), (g, k)
        outcomes[type(got)] += 1
    assert outcomes[tuple] > 1500 and outcomes[str] > 500 and outcomes[type(None)] > 100, outcomes


def test_loalb_and_fas_cost_follows_the_active_vertices_not_the_header(tmp_path):
    # One arc under a 3,000,000-vertex header: NO, with no order over the
    # header's vertices ever built.
    path = tmp_path / "g.txt"
    path.write_text("p digraph 3000000 1\na 1 2 1\n")
    for command in ("loalb", "fas"):
        started = time.perf_counter()
        result = cli.run([command, str(path), "--k", "1"])
        elapsed = time.perf_counter() - started
        assert result.verdict == "NO"
        assert result.witness is None
        assert elapsed < 1.0, "%s took %.2f s" % (command, elapsed)


def test_loalb_and_fas_witness_cost_follows_the_active_vertices(tmp_path):
    # Three arcs under a 3,000,000-vertex header, each instance YES: the
    # witness lists every declared vertex, and nothing else is built per vertex.
    n = 3_000_000
    for command, arcs in (("loalb", [(0, 1, 2), (1, 2, 1), (2, 0, 1)]), ("fas", [(0, 1, 1), (1, 2, 1), (0, 2, 1)])):
        g = WeightedDigraph.from_arcs(n, arcs)
        path = tmp_path / ("%s.txt" % command)
        path.write_text(serialize_instance(g).text)
        started = time.perf_counter()
        result = cli.run([command, str(path), "--k", "1"])
        elapsed = time.perf_counter() - started
        assert result.verdict == "YES_WITNESS", result.error
        assert elapsed < 1.0, "%s took %.2f s" % (command, elapsed)
        assert witness_balance(g, result.witness) >= 2
        del result
    # The same calls at 200,000 vertices under tracemalloc, whose own
    # bookkeeping per allocation would dwarf the program at 3,000,000: the
    # order's ints and tuple take 36 bytes a vertex, and the witness list and
    # the sorted copy it is read from 8 each; the witness reuses the order's ints.
    n = 200_000
    for command, arcs in (("loalb", [(0, 1, 2), (1, 2, 1), (2, 0, 1)]), ("fas", [(0, 1, 1), (1, 2, 1), (0, 2, 1)])):
        path = tmp_path / ("%s-small.txt" % command)
        path.write_text(serialize_instance(WeightedDigraph.from_arcs(n, arcs)).text)
        tracemalloc.start()
        try:
            result = cli.run([command, str(path), "--k", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "YES_WITNESS"
        assert peak < 64 * n, "%s peaked at %d bytes" % (command, peak)


def test_witness_lists_isolated_vertices_last_in_index_order():
    # Vertex 4 -> 1 is the only arc; 0, 2, 3 and 5 trail the solved order.
    g = WeightedDigraph.from_arcs(6, [(4, 1, 2)])
    out = decide_loalb(g, 1)
    assert out.verdict is Verdict.YES_WITNESS
    assert out.witness.vertices == (4, 1, 0, 2, 3, 5)
    assert cli._witness_tokens(out.witness) == [5, 2, 1, 3, 4, 6]


def test_witness_tokens_are_the_order_plus_one():
    rng = random.Random(8)
    for n in (0, 1, 2, 7, 1000):
        vertices = list(range(n))
        rng.shuffle(vertices)
        order = LinearOrder(tuple(vertices))
        assert cli._witness_tokens(order) == [v + 1 for v in vertices]


def test_with_isolated_places_the_other_vertices_in_index_order():
    assert with_isolated([4, 1], 6).vertices == (4, 1, 0, 2, 3, 5)
    assert with_isolated([4, 1], 6, lead=True).vertices == (0, 2, 3, 5, 4, 1)
    assert with_isolated([], 3).vertices == (0, 1, 2)
    assert with_isolated([2, 0, 1], 3, lead=True).vertices == (2, 0, 1)
    # The order is built without LinearOrder's own check, which it would pass.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 12)
        seq = rng.sample(range(n), rng.randint(0, n))
        for lead in (False, True):
            order = with_isolated(seq, n, lead)
            assert order == LinearOrder(order.vertices)
    for seq in ([1, 1], [3], [-1], [0, 5], [2, 2, 0]):
        for lead in (False, True):
            with pytest.raises(ValueError):
                with_isolated(seq, 3, lead)
            with pytest.raises(ValueError):
                with_isolated_by_ranks(seq, 3, lead)


def test_linear_order_holds_a_permutation():
    order = LinearOrder((2, 0, 1))
    assert order.vertices == (2, 0, 1)
    assert LinearOrder(()).vertices == ()
    for seq in ([0, 0], [1, 2], [-1, 0], [0, 2]):
        with pytest.raises(ValueError, match="permutation"):
            LinearOrder(tuple(seq))


def test_fas_requires_unit_weights():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 2)])
    with pytest.raises(ValueError, match="unit"):
        decide_fas_below(g, 1)


def test_fas_mirrors_loalb():
    single = WeightedDigraph.from_arcs(2, [(0, 1, 1)])
    assert decide_fas_below(single, 1).verdict is decide_loalb(single, 1).verdict

    sym = WeightedDigraph.from_arcs(2, [(0, 1, 1), (1, 0, 1)])
    assert decide_fas_below(sym, 1).verdict is Verdict.NO

    cycle = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert decide_fas_below(cycle, 1).verdict is Verdict.NO


def test_fas_witness_backward_arcs_form_small_feedback_set():
    arcs = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)]
    g = WeightedDigraph.from_arcs(4, arcs)
    out = decide_fas_below(g, 3)
    assert out.verdict is Verdict.YES_WITNESS
    pos = {v: r for r, v in enumerate(out.witness.vertices)}
    backward = sum(1 for u, v, _ in g.arcs if pos[u] > pos[v])
    assert backward <= len(g.arcs) / 2 - 3


def test_faithful_agrees_with_decide_on_random_instances():
    rng = random.Random(90210)
    yes_seen = no_seen = 0
    for _ in range(80):
        g = random_digraph(rng, n_max=7, wmax=3)
        k = rng.randint(1, 2)
        verdict = decide_loalb(g, k).verdict
        order = solve_loalb_faithful(g, k)
        if verdict is Verdict.NO:
            no_seen += 1
            assert order is None
        else:
            yes_seen += 1
            assert order is not None
            assert order_balance(g, order) >= 2 * k
    assert yes_seen > 5 and no_seen > 5


def test_heavy_oriented_graphs_always_reach_the_certified_margin():
    # Whenever W2 >= 12 k^2 on an oriented graph, some order must attain
    # 2X >= 2k; check the exact optimum against the largest certified k.
    rng = random.Random(7117)
    checked = 0
    for _ in range(60):
        g = random_digraph(rng, n_max=7, wmax=4, allow_two_cycles=False)
        st = digraph_stats(g)
        k = math.isqrt(st.W2 // 12)
        if k < 1:
            continue
        checked += 1
        value, _ = exact_max_acyclic(g)
        assert 2 * value - sum(g.weights) >= 2 * k
    assert checked > 10
