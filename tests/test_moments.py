import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from collections.abc import Callable
from fractions import Fraction

import pytest

from abovetight import gf2, linord, maxlin, moments, rsat
from abovetight.cli import run
from abovetight.instances import all_subsets_system, serialize_instance
from abovetight.linord import WeightedDigraph, decide_loalb, reduce_two_cycles
from abovetight.maxlin import (
    CaseKind,
    Lin2Equation,
    Lin2System,
    decide_linalb,
    merge_duplicates,
    rank_reduce,
    system_stats,
)
from abovetight.moments import (
    ExactDistribution,
    dist_lin2,
    dist_linord,
    dist_rsat,
    estimate_moments,
    moment_p,
    moment_report,
    pairwise_second_moment,
    verify_fourth_moment_tail,
    verify_second_moment_claims,
    verify_symmetric_tail,
)
from abovetight.outcome import CapExceeded, Verdict
from abovetight.rsat import ExactCnfFormula, overlap_histogram

from helpers import (
    brute_dist_linord,
    brute_overlap_histogram,
    brute_pair_expectation,
    edge_formulas,
    edge_lin2_systems,
    estimate_digraph_moments_by_induced_graph,
    estimate_formula_moments_by_assignment,
    estimate_lin2_moments_by_assignment,
    lin2_x,
    oriented_by_weight_map,
    random_digraph,
    random_formula,
    random_lin2,
    random_restricted_formula,
    rsat_scaled_x,
    second_moment_claim_of_instance,
)


def three_cycle() -> WeightedDigraph:
    return WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def test_dist_linord_single_arc():
    d = dist_linord(WeightedDigraph.from_arcs(2, [(0, 1, 2)]))
    assert d.scale == 2 and d.total == 2
    assert d.mass == ((-2, 1), (2, 1))


def test_dist_linord_three_cycle():
    d = dist_linord(three_cycle())
    assert d.mass == ((-1, 3), (1, 3)) and d.total == 6


def test_dist_linord_empty_graph():
    d = dist_linord(WeightedDigraph(3, ()))
    assert d.mass == ((0, 6),) and d.total == 6


def test_dist_linord_cap():
    path = WeightedDigraph.from_arcs(10, [(v, v + 1, 1) for v in range(9)])
    with pytest.raises(CapExceeded):
        dist_linord(path, cap=9)
    # The cap counts the active vertices, not the declared ones.
    d = dist_linord(WeightedDigraph.from_arcs(12, [(0, 1, 1)]), cap=2)
    assert d.mass == ((-1, 239500800), (1, 239500800))


def test_dist_linord_matches_permutation_oracle():
    rng = random.Random(4242)
    seen_two_cycle = seen_padding = False
    for active_count in (0, 2, 3, 4, 5, 6, 7, 8):
        for _ in range({7: 3, 8: 2}.get(active_count, 6)):
            n = min(9, active_count + rng.randint(0, 2))
            active = rng.sample(range(n), active_count)
            arcs = []
            for v in active:
                u = rng.choice([x for x in active if x != v])
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            arcs += [(u, v) for u in active for v in active if u != v and rng.random() < 0.3]
            g = WeightedDigraph.from_arcs(n, [(u, v, rng.randint(1, 5)) for u, v in arcs])
            assert len({v for u, w, _ in g.arcs for v in (u, w)}) == active_count
            seen_two_cycle |= not oriented_by_weight_map(g)
            seen_padding |= g.n > active_count
            assert dist_linord(g) == brute_dist_linord(g)
    assert seen_two_cycle and seen_padding


def test_dist_linord_handles_huge_weights():
    # Weights up to 10^9: nearly every order has its own forward weight, so
    # a counter whose size grew with the total weight W would not fit.
    big = 10**9
    cycle = WeightedDigraph.from_arcs(3, [(0, 1, big), (1, 2, 1), (2, 0, 1)])
    start = time.perf_counter()
    d = dist_linord(cycle)
    assert time.perf_counter() - start < 0.1
    assert d == brute_dist_linord(cycle)
    rng = random.Random(1_000_000_007)
    for active_count in range(2, 8):
        for _ in range(3):
            n = active_count + rng.randint(0, 2)
            active = rng.sample(range(n), active_count)
            arcs = {(active[j], active[j + 1]) for j in range(active_count - 1)}
            arcs |= {(u, v) for u in active for v in active if u != v and rng.random() < 0.4}
            g = WeightedDigraph.from_arcs(n, [(u, v, rng.choice((big, rng.randint(1, big)))) for u, v in sorted(arcs)])
            assert dist_linord(g) == brute_dist_linord(g)


def test_dist_linord_paths_agree_on_each_side_of_the_packed_budget(monkeypatch):
    # Four active vertices take one-byte digits, so the packed form holds
    # (W + 1) << 4 bytes and the budget falls between W = 2^22 - 1 and 2^22.
    # The per-order limit is lifted so that the memory budget alone decides.
    monkeypatch.setattr(linord, "PACKED_BYTES_PER_ORDER", 1 << 62)
    budget = gf2.COUNT_BUDGET_BYTES
    at_budget = (budget >> 4) - 1
    packed_calls = []
    real_compress = linord.compress
    monkeypatch.setattr(linord, "compress", lambda *a: packed_calls.append(a) or real_compress(*a))
    for total, packed in ((at_budget, True), (at_budget + 1, False)):
        g = WeightedDigraph.from_arcs(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 1), (3, 0, total - 7)])
        assert sum(g.weights) == total
        packed_calls.clear()
        d = dist_linord(g)
        assert bool(packed_calls) == packed
        assert d == brute_dist_linord(g)
        # Move the budget to the other side of this W: the other path agrees.
        monkeypatch.setattr(gf2, "COUNT_BUDGET_BYTES", total << 4 if packed else (total + 1) << 4)
        packed_calls.clear()
        assert dist_linord(g) == d
        assert bool(packed_calls) != packed
        monkeypatch.setattr(gf2, "COUNT_BUDGET_BYTES", budget)


def test_dist_linord_paths_agree_on_each_side_of_the_per_order_limit(monkeypatch):
    # n' = 5 takes one-byte digits, so the packed form holds (W + 1) << 5
    # bytes, and the limit of PACKED_BYTES_PER_ORDER * 5! bytes falls
    # between the last packed W and the next one.
    per_order = linord.PACKED_BYTES_PER_ORDER
    last_packed = (per_order * math.factorial(5) >> 5) - 1
    packed_calls = []
    real_compress = linord.compress
    monkeypatch.setattr(linord, "compress", lambda *a: packed_calls.append(a) or real_compress(*a))
    rng = random.Random(120)
    for total, packed in ((last_packed, True), (last_packed + 1, False)):
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in itertools.combinations(range(5), 2)]
        weights = [rng.randint(1, total // 10) for _ in range(9)]
        weights.append(total - sum(weights))
        g = WeightedDigraph.from_arcs(6, [(u, v, w) for (u, v), w in zip(pairs, weights)])
        assert sum(g.weights) == total
        packed_calls.clear()
        d = dist_linord(g)
        assert bool(packed_calls) == packed
        assert d == brute_dist_linord(g)
        # Lift or lower the limit: the other path agrees.
        monkeypatch.setattr(linord, "PACKED_BYTES_PER_ORDER", 0 if packed else 1 << 62)
        packed_calls.clear()
        assert dist_linord(g) == d
        assert bool(packed_calls) != packed
        monkeypatch.setattr(linord, "PACKED_BYTES_PER_ORDER", per_order)


def test_dist_linord_heavy_three_cycle_takes_the_counter_dp():
    # Inside the memory budget ((W + 1) << 3 = 2^26 bytes), but a few
    # distinct forward weights: the packed path would shift millions of
    # digits where the Counter DP makes a handful of dict updates.
    cycle = WeightedDigraph.from_arcs(3, [(0, 1, 2**23 - 3), (1, 2, 1), (2, 0, 1)])
    assert (sum(cycle.weights) + 1) << 3 == gf2.COUNT_BUDGET_BYTES
    tracemalloc.start()
    try:
        started = time.perf_counter()
        d = dist_linord(cycle)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05, "took %.3f s" % elapsed
    assert peak < 1 << 20, "peak %d bytes" % peak
    assert d == brute_dist_linord(cycle)


def test_dist_linord_caps_the_kernel_loalb_solves():
    # A 12-cycle doubled back at equal weights, and the arc 0 -> 6: the 2-cycles
    # cancel, so the kernel keeps 2 of the 12 active vertices, in moments as in loalb.
    ring = [(v, (v + 1) % 12, 1) for v in range(12)] + [((v + 1) % 12, v, 1) for v in range(12)]
    g = WeightedDigraph.from_arcs(12, ring + [(0, 6, 2)])
    d = dist_linord(g, cap=2)
    assert d.mass == ((-2, 239500800), (2, 239500800))
    with pytest.raises(CapExceeded):
        dist_linord(g, cap=1)
    outcome = decide_loalb(g, 1, cap=2)
    assert (outcome.verdict, outcome.diagnostics["kernel_arcs"]) == (Verdict.YES_WITNESS, 1)


def test_dist_lin2_caps_the_kernel_linalb_solves():
    rng = random.Random(26)
    for _ in range(60):
        s = random_lin2(rng, n_max=8, m_max=6)
        # Each equation again at a random rhs and weight: merging cancels some and adds up others.
        echoes = [Lin2Equation(eq.variables, rng.randint(0, 1), rng.randint(1, 3)) for eq in s.equations]
        s = Lin2System(s.n, s.equations + tuple(echoes))
        every = itertools.product((0, 1), repeat=s.n)
        mass = tuple(sorted(Counter(lin2_x(s, z) for z in every).items()))
        assert dist_lin2(s, cap=rank_reduce(merge_duplicates(s)).reduced.n).mass == mass
    # 25 pairs x_v = 0, x_v = 1 and x0 + x1 = 1 at weight 3: rank 25 before merging, 1 after.
    pairs = [((v,), b, 1) for v in range(25) for b in (0, 1)]
    s = Lin2System.from_tuples(25, pairs + [((0, 1), 1, 3)])
    assert dist_lin2(s, cap=1).mass == ((-3, 1 << 24), (3, 1 << 24))
    with pytest.raises(CapExceeded):
        dist_lin2(s, cap=0)
    outcome = decide_linalb(s, 1, cap=1)
    assert (outcome.verdict, outcome.diagnostics["kernel_vars"]) == (Verdict.YES_WITNESS, 1)


def test_dist_lin2_examples():
    d = dist_lin2(Lin2System.from_tuples(1, [((0,), 0, 2)]))
    assert d.mass == ((-2, 1), (2, 1))
    d = dist_lin2(Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert d.mass == ((-3, 1), (-1, 1), (1, 1), (3, 1))
    d = dist_lin2(Lin2System(0, ()))
    assert d.mass == ((0, 1),) and d.total == 1


def test_dist_lin2_counts_the_rank_reduced_system():
    rng = random.Random(21)
    # Few equations over many variables: the rank is mostly below n.
    for s in [random_lin2(rng, n_min=3, n_max=10, m_max=4) for _ in range(60)]:
        every = itertools.product((0, 1), repeat=s.n)
        mass = tuple(sorted(Counter(lin2_x(s, z) for z in every).items()))
        assert dist_lin2(s).mass == mass
    # The cap bounds the rank, 2 here, not the 30 declared variables.
    d = dist_lin2(Lin2System.from_tuples(30, [((0, 29), 1, 2), ((5,), 0, 1)]), cap=2)
    assert d.mass == ((-3, 1 << 28), (-1, 1 << 28), (1, 1 << 28), (3, 1 << 28))
    with pytest.raises(CapExceeded):
        dist_lin2(Lin2System.from_tuples(30, [((0, 29), 1, 2), ((5,), 0, 1)]), cap=1)


def test_dist_rsat_single_clause():
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))
    assert d.scale == 4
    assert d.mass == ((-3, 1), (1, 3))


def test_dist_rsat_complete_formula_is_tight():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, clauses))
    assert d.mass == ((0, 4),)


def test_dist_rsat_two_disjoint_clauses():
    d = dist_rsat(ExactCnfFormula.from_clauses(4, 2, [(1, 2), (3, 4)]))
    assert d.mass == ((-6, 1), (-2, 6), (2, 9)) and d.total == 16


def test_dist_rsat_counts_unused_variables():
    # One clause over variables 1,2 inside a 4-variable formula: the mass
    # doubles per unused variable.
    d = dist_rsat(ExactCnfFormula.from_clauses(4, 2, [(1, 2)]))
    assert d.mass == ((-3, 4), (1, 12)) and d.total == 16


def test_dist_rsat_counts_the_occurring_variables():
    rng = random.Random(22)
    # Few clauses over many variables: most formulas leave some unused.
    for f in [random_formula(rng, rng.choice([2, 3]), n_max=9, m_max=3) for _ in range(60)]:
        every = itertools.product((0, 1), repeat=f.n)
        mass = tuple(sorted(Counter(rsat_scaled_x(f, z) for z in every).items()))
        assert dist_rsat(f).mass == mass


def test_moment_p_examples():
    d = dist_linord(three_cycle())
    assert moment_p(d, 2) == Fraction(1, 4)
    d = dist_lin2(Lin2System.from_tuples(1, [((0,), 0, 2)]))
    assert moment_p(d, 1) == 0
    d = dist_lin2(Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert moment_p(d, 2) == 5


def test_moment_report_fourth_at_least_second_squared():
    rng = random.Random(12)
    for _ in range(40):
        s = random_lin2(rng, n_max=8, m_max=8)
        rep = moment_report(dist_lin2(s))
        assert rep.e4 >= rep.e2**2
        assert rep.e1 == 0


def test_symmetric_tail_on_oriented_graph():
    d = dist_linord(three_cycle())
    assert d.is_symmetric() and verify_symmetric_tail(d) is True


def test_symmetric_tail_on_odd_set_system():
    s = Lin2System.from_tuples(3, [((0, 1), 1, 2), ((1, 2), 0, 1)])
    d = dist_lin2(s)
    assert d.is_symmetric() and verify_symmetric_tail(d) is True


def test_symmetric_tail_reports_inapplicable():
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))
    assert not d.is_symmetric() and verify_symmetric_tail(d) is None


def test_symmetric_tail_degenerate_zero_distribution():
    d = ExactDistribution(scale=1, mass=((0, 4),), total=4)
    assert d.is_symmetric() and verify_symmetric_tail(d) is True


def test_fourth_moment_tail_two_point():
    d = ExactDistribution(scale=1, mass=((-2, 1), (2, 1)), total=2)
    check = verify_fourth_moment_tail(d, 1)
    assert check.failed_precondition is None and check.holds
    assert check.probability == Fraction(1, 2)


def test_fourth_moment_tail_rejects_violated_precondition():
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))
    check = verify_fourth_moment_tail(d, 1)
    # A single clause is skewed: E(X) = 0 holds but E(X^4) > b E(X^2)^2 at b=1.
    assert check.failed_precondition is not None
    assert check.holds is None


def test_second_moment_linord_three_cycle_exact_quarter():
    d = dist_linord(three_cycle())
    check = verify_second_moment_claims(d)
    assert check.holds and moment_p(d, 2) == Fraction(1, 4) and check.target == Fraction(3, 12)


def test_second_moment_checks_the_two_cycle_free_graph():
    # The claim is checked on the oriented graph left once 2-cycles cancel, which dist_linord counts.
    d = dist_linord(WeightedDigraph.from_arcs(2, [(0, 1, 1), (1, 0, 1)]))
    check = verify_second_moment_claims(d)
    assert check.holds and moment_p(d, 2) == check.target == 0
    # 0 -> 1 at 3 against 1 -> 0 at 1 leaves 0 -> 1 at 2 beside 1 -> 2 at 1: W2 = 5,
    # vertex imbalances 2, -1 and -1.
    d = dist_linord(WeightedDigraph.from_arcs(3, [(0, 1, 3), (1, 0, 1), (1, 2, 1)]))
    check = verify_second_moment_claims(d)
    assert check.holds and check.target == Fraction(5, 12) and moment_p(d, 2) == Fraction(11, 12)


def oriented_corpus(rng: random.Random, count: int):
    """Oriented digraphs with up to 8 active vertices, up to 2 isolated ones, and weights 1-4 or up
    to 10^9; every third one is a union of constant-weight directed cycles, so every vertex is
    balanced."""
    for i in range(count):
        active_count = rng.randint(3 if i % 3 == 0 else 0, 8)
        n = active_count + rng.randint(0, 2)
        active = rng.sample(range(n), active_count)
        big = rng.choice((4, 10**9))
        if i % 3 == 0:
            arcs = []
            for _ in range(rng.randint(1, 2)):
                cycle = rng.sample(active, rng.randint(3, active_count))
                w = rng.randint(1, big)
                arcs += [(u, v, w) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
            g = WeightedDigraph.from_arcs(n, arcs)
            if not oriented_by_weight_map(g):
                continue
        else:
            pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in itertools.combinations(active, 2)]
            g = WeightedDigraph.from_arcs(n, [(u, v, rng.randint(1, big)) for u, v in pairs if rng.random() < 0.6])
        yield g


def test_pairwise_e2_is_the_enumerated_second_moment_of_oriented_digraphs():
    # E(X^2) = (W2 + sum over v of (out_v - in_v)^2) / 12, which is W2/12 exactly when every
    # vertex is balanced.
    rng = random.Random(2212)
    balanced_seen = unbalanced_seen = 0
    for g in oriented_corpus(rng, 150):
        d = brute_dist_linord(g) if g.n <= 7 else dist_linord(g)
        check = verify_second_moment_claims(d)
        assert check.holds and check.pairwise_e2 == moment_p(d, 2), g
        net = Counter()
        for u, v, w in g.arcs:
            net[u] += w
            net[v] -= w
        balanced = not any(net.values())
        assert (check.pairwise_e2 == check.target == Fraction(sum(w * w for _, _, w in g.arcs), 12)) == balanced
        balanced_seen += balanced and bool(g.arcs)
        unbalanced_seen += not balanced
    assert balanced_seen > 20 and unbalanced_seen > 50


def test_second_moment_claim_compares_with_the_instance_closed_form():
    # A single weight-2 arc has X = +-1, so E(X) = 0 and E(X^2) = 1 >= W2/12 = 1/4 of the
    # three-cycle; but the three-cycle's own E(X^2) is 1/4, so a claim that reads the three-cycle
    # as the kernel of that distribution fails.
    single = dist_linord(WeightedDigraph.from_arcs(2, [(0, 1, 2)]))
    check = verify_second_moment_claims(ExactDistribution(single.scale, single.mass, single.total, three_cycle()))
    assert (moment_p(single, 2), check.target, check.pairwise_e2) == (1, Fraction(1, 4), Fraction(1, 4))
    assert not check.holds


def claim_corpus(rng: random.Random):
    """Digraphs with 2-cycles, some cancelling fully and some leaving an arc; systems with
    duplicate and cancelling equations; restricted formulas and formulas over the conflict bound."""
    for i in range(60):
        g = random_digraph(rng, n_max=7, allow_two_cycles=i % 2 == 0)
        arcs, pairs = list(g.arcs), set(zip(g.tails, g.heads))
        for u, v, w in g.arcs:
            if (v, u) not in pairs:
                roll = 0 if i % 10 == 1 else rng.random()  # every tenth graph cancels to nothing
                if roll < 0.3:
                    arcs.append((v, u, w))
                elif roll < 0.5:
                    arcs.append((v, u, rng.randint(1, 4)))
        yield WeightedDigraph.from_arcs(g.n, arcs)
    for s in edge_lin2_systems(rng):
        yield s
    for _ in range(60):
        s = random_lin2(rng, n_max=8, m_max=10)
        extra = []
        for eq in s.equations:
            roll = rng.random()
            if roll < 0.25:
                extra.append(Lin2Equation(eq.variables, eq.rhs, rng.randint(1, 3)))
            elif roll < 0.5:
                extra.append(Lin2Equation(eq.variables, 1 - eq.rhs, eq.weight))
        yield Lin2System(s.n, s.equations + tuple(extra))
    for f in edge_formulas(rng):
        yield f
    for i in range(60):
        r = rng.choice((2, 3))
        yield random_restricted_formula(rng, r, n_max=10, m_max=10) if i % 2 else random_formula(rng, r, n_max=r + 1, m_max=16)


def claim_or_exception(call):
    try:
        return call()
    except (ValueError, CapExceeded) as exc:
        return type(exc), str(exc)


def test_the_claim_on_the_counted_kernel_matches_the_instance_oracle(monkeypatch):
    # The claim reads dist.kernel alone; the oracle derives the kernel again from the
    # instance. Past the sub-clause budget both must raise the same CapExceeded.
    rng = random.Random(3030)
    counted = []
    for module, name in ((moments, "forward_weight_counts"), (maxlin, "x_distribution_counts"), (rsat, "scaled_x_counts")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda kernel, *a, real=real: counted.append(kernel) or real(kernel, *a))
    seen = Counter()
    corpus = list(claim_corpus(rng))
    # Uncounted copies of the formulas, whose sub-clause keys meet the lowered budget.
    fresh = [ExactCnfFormula(x.n, x.r, x.clauses) for x in corpus if isinstance(x, ExactCnfFormula)]
    for budget, instances in ((rsat.SUBCLAUSE_KEY_BUDGET, corpus), (30, fresh)):
        monkeypatch.setattr(rsat, "SUBCLAUSE_KEY_BUDGET", budget)
        for x in instances:
            if isinstance(x, WeightedDigraph):
                d, kernel = dist_linord(x), reduce_two_cycles(x)
                seen["cancelled"] += kernel.weights != x.weights
                seen["emptied"] += bool(x.weights) and not kernel.weights
            elif isinstance(x, Lin2System):
                d, kernel = dist_lin2(x), rank_reduce(merge_duplicates(x)).reduced
                seen["merged"] += len(merge_duplicates(x).equations) < len(x.equations)
            else:
                d, kernel = dist_rsat(x), x
            assert counted[-1] is d.kernel and d.kernel == kernel, x
            got = claim_or_exception(lambda: verify_second_moment_claims(d))
            if not isinstance(got, tuple):
                got = (got.target, got.holds, got.pairwise_e2)
            assert got == claim_or_exception(lambda: second_moment_claim_of_instance(x, d)), x
            seen[got[0] if isinstance(got[0], type) else got[1]] += 1
    assert seen[True] > 150 and seen[ValueError] > 10 and seen[CapExceeded] > 10, seen
    assert seen["cancelled"] > 30 and seen["emptied"] > 3 and seen["merged"] > 30, seen


def test_the_counted_kernel_takes_no_part_in_equality_hash_or_repr():
    g = WeightedDigraph.from_arcs(3, [(0, 1, 2), (1, 0, 1), (1, 2, 1)])
    d = dist_linord(g)
    bare = ExactDistribution(d.scale, d.mass, d.total)
    assert d.kernel == reduce_two_cycles(g) and bare.kernel is None
    assert d == bare and hash(d) == hash(bare) and repr(d) == repr(bare)


def test_a_moments_command_cancels_and_merges_once(tmp_path, monkeypatch):
    # dist_* and the claim share one kernel, so one 2-cycle pass per digraph and one
    # merge per equation system, where deriving the kernel again took two.
    calls = Counter()
    for module, name in ((linord, "reduce_two_cycles"), (moments, "reduce_two_cycles"), (maxlin, "merge_duplicates")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, real=real, name=name: calls.update([name]) or real(x))
    g = WeightedDigraph.from_arcs(4, [(0, 1, 2), (1, 0, 1), (1, 2, 1), (2, 3, 3), (3, 2, 3)])
    s = Lin2System.from_tuples(3, [((0, 1), 1, 2), ((0, 1), 0, 1), ((1, 2), 1, 1), ((2,), 0, 3)])
    for name, instance in (("reduce_two_cycles", g), ("merge_duplicates", s)):
        path = tmp_path / "instance.txt"
        path.write_text(serialize_instance(instance).text)
        calls.clear()
        result = run(["moments", str(path), "--b", "64"])
        assert result.verdict == "OK" and result.diagnostics["second_moment_holds"] is True
        assert calls == Counter({name: 1}), name


def test_one_count_budget_moves_both_count_limits(monkeypatch):
    # One byte (8 counter bits) sends the three-cycle's 32-byte packed counts to the
    # Counter DP and refuses the 16-bit counter of three unit equations on three variables.
    s = Lin2System.from_tuples(3, [((0,), 0, 1), ((1,), 1, 1), ((2,), 0, 1)])
    packed_calls = []
    real_compress = linord.compress
    monkeypatch.setattr(linord, "compress", lambda *a: packed_calls.append(a) or real_compress(*a))
    d = dist_linord(three_cycle())
    assert packed_calls and decide_linalb(s, 1, CaseKind.GENERAL).verdict is Verdict.YES_WITNESS
    monkeypatch.setattr(gf2, "COUNT_BUDGET_BYTES", 1)
    packed_calls.clear()
    assert dist_linord(three_cycle()) == d and not packed_calls
    with pytest.raises(CapExceeded, match="16 counter bits exceed cap 8"):
        dist_lin2(s)
    outcome = decide_linalb(s, 1, CaseKind.GENERAL)
    assert outcome.verdict is Verdict.KERNEL
    assert (outcome.diagnostics["counter_bits"], outcome.diagnostics["counter_cap"]) == (16, 8)


def test_second_moment_lin2_identity():
    s = Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)])
    d = dist_lin2(s)
    check = verify_second_moment_claims(d)
    assert check.holds and moment_p(d, 2) == 5


def test_second_moment_lin2_checks_the_merged_system():
    # Two copies of x0 = 1 merge into one equation of weight 2, whose sum of squared weights is 4.
    s = Lin2System.from_tuples(1, [((0,), 1, 1), ((0,), 1, 1)])
    d = dist_lin2(s)
    check = verify_second_moment_claims(d)
    assert check.holds and moment_p(d, 2) == check.target == 4


def test_second_moment_rsat_disjoint_pair():
    f = ExactCnfFormula.from_clauses(4, 2, [(1, 2), (3, 4)])
    d = dist_rsat(f)
    check = verify_second_moment_claims(d)
    assert check.holds
    assert moment_p(d, 2) == Fraction(3, 8)
    assert check.pairwise_e2 == Fraction(3, 8)
    assert check.target == Fraction(2, 16)


def test_second_moment_rsat_rejects_unrestricted_formula():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    f = ExactCnfFormula.from_clauses(2, 2, clauses)
    with pytest.raises(ValueError, match="conflict number"):
        verify_second_moment_claims(dist_rsat(f))


def test_second_moment_claims_accept_the_enumerated_distribution():
    g = WeightedDigraph.from_arcs(4, [(0, 1, 2), (1, 2, 1), (3, 1, 3)])
    s = Lin2System.from_tuples(3, [((0,), 1, 1), ((0, 1), 0, 2), ((1, 2), 1, 3)])
    f = ExactCnfFormula.from_clauses(4, 2, [(1, 2), (-2, 3), (3, -4)])
    for dist in (dist_linord(g), dist_lin2(s), dist_rsat(f)):
        assert verify_second_moment_claims(dist).holds


def test_single_clause_second_moment_constant():
    for r in (2, 3):
        clause = tuple(range(1, r + 1))
        f = ExactCnfFormula.from_clauses(r, r, [clause])
        d = dist_rsat(f)
        assert moment_p(d, 2) == Fraction(2**r - 1, 4**r)  # 2^-r - 4^-r


def test_pairwise_expectations_match_enumeration():
    rng = random.Random(2025)
    for r in (2, 3):
        for _ in range(30):
            n = rng.randint(r, min(2 * r + 2, 8))
            variables = list(range(1, n + 1))
            def clause():
                chosen = rng.sample(variables, r)
                return tuple(
                    sorted((v if rng.random() < 0.5 else -v for v in chosen), key=abs)
                )

            y, z = clause(), clause()
            if y == z:
                continue
            expected = brute_pair_expectation(y, z, r)
            f = ExactCnfFormula(n, r, (y, z))
            conflicts, sharing, fourier = overlap_histogram(f)
            # Q less the two clauses' own 2^r - 1 is both ordered pairs' terms at scale 4^r.
            assert fourier - 2 * (2**r - 1) == 2 * 4**r * expected
            brute_conflicts, shared_counts = brute_overlap_histogram(f)
            if brute_conflicts:
                assert (conflicts, sharing, shared_counts) == (2, 4, Counter())
                assert expected == Fraction(-1, 4**r)
            elif not shared_counts:
                assert (conflicts, sharing) == (0, 2)
                assert expected == 0
            else:
                [(t, count)] = shared_counts.items()
                assert (conflicts, sharing, count) == (0, 4, 2)
                assert expected == Fraction(2**t - 1, 4**r)
                # Overlap terms never fall below 4^-r.
                assert expected >= Fraction(1, 4**r)


def test_pairwise_decomposition_matches_enumerated_second_moment():
    rng = random.Random(808)
    for _ in range(40):
        f = random_restricted_formula(rng, rng.choice([2, 3]), n_max=9, m_max=8)
        d = dist_rsat(f)
        assert moment_p(d, 2) == pairwise_second_moment(f)


def test_all_subsets_system_shape():
    s3 = all_subsets_system(3)
    assert len(s3.equations) == 7
    stats = system_stats(all_subsets_system(4))
    assert stats.m == 15 and stats.rho == 8
    with pytest.raises(ValueError):
        all_subsets_system(2)
    with pytest.raises(ValueError):
        all_subsets_system(7)


def test_all_subsets_family_breaks_fourth_moment_route():
    # 512 E(X^4) > E(X^2)^3 on this family, and the ratio grows with n.
    ratios = []
    for n in (3, 4, 5):
        s = all_subsets_system(n)
        assert merge_duplicates(s) == s
        d = dist_lin2(s)
        e2 = moment_p(d, 2)
        e4 = moment_p(d, 4)
        assert e2 == len(s.equations)
        assert 512 * e4 > e2**3
        ratios.append(e4 / e2**3)
    assert ratios[0] < ratios[1] < ratios[2]


def test_all_subsets_n3_exact_fourth_moment_bound():
    d = dist_lin2(all_subsets_system(3))
    assert 512 * moment_p(d, 4) > Fraction(343)  # E(X^2)^3 = 7^3


def test_distribution_totals():
    rng = random.Random(5)
    for _ in range(20):
        g = random_digraph(rng, n_max=6, allow_two_cycles=False)
        assert dist_linord(g).total == math.factorial(g.n)
        s = random_lin2(rng, n_max=8, m_max=6)
        assert dist_lin2(s).total == 2**s.n


def test_all_three_kinds_have_zero_mean():
    rng = random.Random(777)
    for _ in range(25):
        g = random_digraph(rng, n_max=6, allow_two_cycles=False)
        assert moment_p(dist_linord(g), 1) == 0
        s = random_lin2(rng, n_max=8, m_max=8)
        assert moment_p(dist_lin2(s), 1) == 0
        from helpers import random_formula

        f = random_formula(rng, rng.choice([2, 3]), n_max=8, m_max=8)
        d = dist_rsat(f)
        assert moment_p(d, 1) == 0
        assert d.total == 2**f.n


def test_estimates_are_labeled_and_close_on_moderate_instance():
    s = Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)])
    est = estimate_moments(s, samples=4000, seed=9)
    assert est["estimate"] is True
    assert abs(est["e2"] - 5.0) < 1.0
    g = three_cycle()
    est_g = estimate_moments(g, samples=500, seed=1)
    assert est_g["estimate"] is True
    f = ExactCnfFormula.from_clauses(2, 2, [(1, 2)])
    est_f = estimate_moments(f, samples=500, seed=1)
    assert est_f["estimate"] is True


def test_digraph_estimate_matches_the_induced_graph_sampler():
    rng = random.Random(5381)
    heavy = (1 << 53) + 1
    drawn = [
        WeightedDigraph(0, ()),
        WeightedDigraph(1, ()),
        WeightedDigraph(4, ()),
        WeightedDigraph(2, ((0, 1, heavy),)),
        WeightedDigraph(5, ((4, 1, heavy), (1, 4, 2 * heavy + 1), (1, 3, 1))),
    ]
    for _ in range(200):
        wmax = rng.choice([1, 5, 1 << 60, 1 << 70])
        g = random_digraph(rng, n_max=7, wmax=wmax, density=rng.choice([0.2, 0.5]), n_min=0)
        # Isolated vertices past the drawn ones too, not only between them.
        drawn.append(WeightedDigraph(g.n + rng.randint(0, 3), g.arcs))
    assert sum(1 for g in drawn if not oriented_by_weight_map(g)) > 50
    assert sum(1 for g in drawn if max(g.weights, default=0) > 1 << 53) > 50
    for g in drawn:
        seed = rng.randrange(1 << 32)
        samples = rng.randint(1, 40)
        assert estimate_moments(g, samples, seed) == estimate_digraph_moments_by_induced_graph(
            g, samples, seed
        ), g


def test_lin2_and_formula_estimates_match_the_assignment_samplers():
    rng = random.Random(6143)
    systems, formulas = edge_lin2_systems(rng), edge_formulas(rng)
    for _ in range(150):
        wmax = rng.choice([1, 3, 1 << 60, 10**20])
        s = random_lin2(rng, n_max=9, m_max=10, wmax=wmax)
        # Unused variables past the drawn ones, as a padded header declares.
        systems.append(Lin2System(s.n + rng.randint(0, 5), s.equations))
        f = random_formula(rng, rng.choice([2, 3, 4]), n_max=9, m_max=10)
        formulas.append(ExactCnfFormula(f.n + rng.randint(0, 5), f.r, f.clauses))
    assert sum(1 for s in systems if max((eq.weight for eq in s.equations), default=0) > 1 << 53) > 50
    assert sum(1 for f in formulas if len(f.occurring_variables()) < f.n) > 50
    assert sum(1 for f in formulas if any(lit < 0 for c in f.clauses for lit in c)) > 100
    for instance in systems + formulas:
        seed, samples = rng.randrange(1 << 32), rng.randint(1, 40)
        oracle = (
            estimate_lin2_moments_by_assignment
            if isinstance(instance, Lin2System)
            else estimate_formula_moments_by_assignment
        )
        assert estimate_moments(instance, samples, seed) == oracle(instance, samples, seed), instance


def test_distribution_validation():
    with pytest.raises(ValueError):
        ExactDistribution(scale=1, mass=((0, 1),), total=2)
    with pytest.raises(ValueError):
        ExactDistribution(scale=0, mass=((0, 1),), total=1)
    with pytest.raises(ValueError):
        ExactDistribution(scale=1, mass=((1, 1), (0, 1)), total=2)
    with pytest.raises(ValueError, match="total must be positive"):
        ExactDistribution(scale=1, mass=(), total=0)
    with pytest.raises(ValueError, match="counts must be positive"):
        ExactDistribution(scale=1, mass=((0, 0), (1, 1)), total=1)


def three_kinds() -> list[tuple[Callable[..., ExactDistribution], WeightedDigraph | Lin2System | ExactCnfFormula]]:
    """A digraph, an equation system and a formula with unused vertices or variables, each with its ``dist_*``."""
    return [
        (dist_linord, WeightedDigraph.from_arcs(5, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])),
        (dist_lin2, Lin2System.from_tuples(4, [((0,), 1, 1), ((0, 1), 1, 2)])),
        (dist_rsat, ExactCnfFormula.from_clauses(5, 2, [(1, 2), (3, 4)])),
    ]


def test_a_count_short_of_the_sample_space_is_refused(monkeypatch):
    def one_short(count):
        def short(*args):
            counts = Counter(count(*args))
            counts[max(counts, key=counts.get)] -= 1
            return +counts

        return short

    monkeypatch.setattr(moments, "forward_weight_counts", one_short(moments.forward_weight_counts))
    monkeypatch.setattr(maxlin, "x_distribution_counts", one_short(maxlin.x_distribution_counts))
    monkeypatch.setattr(rsat, "scaled_x_counts", one_short(rsat.scaled_x_counts))
    for dist, instance in three_kinds():
        with pytest.raises(ValueError, match="sample-space size"):
            dist(instance)


def test_the_moment_checks_read_the_mass_a_few_times():
    class CountedMass(tuple):
        reads = 0

        def __iter__(self):
            CountedMass.reads += 1
            return super().__iter__()

    for dist, instance in three_kinds():
        d = dist(instance)
        counted = ExactDistribution(d.scale, CountedMass(d.mass), d.total, d.kernel)
        CountedMass.reads = 0
        report = moment_report(counted)
        assert verify_second_moment_claims(counted).holds and report.e1 == 0
        assert verify_fourth_moment_tail(counted, 64).holds
        # Three power sums, the mirror check and the tail event: each one pass.
        assert CountedMass.reads <= 5, (instance, CountedMass.reads)
        assert report == moment_report(d)


def test_moment_functions_refuse_bad_input():
    d = dist_linord(three_cycle())
    for p in (0, 3):
        with pytest.raises(ValueError, match="moment order"):
            moment_p(d, p)
    for b in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="b must be positive"):
            verify_fourth_moment_tail(d, b)
    with pytest.raises(ValueError, match="samples must be positive"):
        estimate_moments(three_cycle(), samples=0)
    for kernel in ((3, ()), None):
        with pytest.raises(TypeError, match="unsupported instance type"):
            verify_second_moment_claims(ExactDistribution(d.scale, d.mass, d.total, kernel))
    with pytest.raises(TypeError, match="unsupported instance type"):
        estimate_moments((3, ()))


def test_fourth_moment_tail_needs_mean_zero():
    # A hand-built law with E(X) = 1/2: no sample space gives it, but the check must say so.
    d = ExactDistribution(scale=2, mass=((-1, 1), (3, 1)), total=2)
    tail = verify_fourth_moment_tail(d, 64)
    assert tail.failed_precondition == "E(X) = 1/2 is not zero"
    assert tail.holds is None and tail.probability == 0
