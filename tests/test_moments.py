import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from abovetight import linord
from abovetight.instances import all_subsets_system
from abovetight.linord import WeightedDigraph, digraph_stats
from abovetight.maxlin import Lin2System, merge_duplicates, system_stats
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
from abovetight.outcome import CapExceeded
from abovetight.rsat import ExactCnfFormula, overlap_histogram, x_value_scaled

from helpers import (
    brute_dist_linord,
    brute_overlap_histogram,
    brute_pair_expectation,
    estimate_digraph_moments_by_induced_graph,
    lin2_x,
    random_digraph,
    random_formula,
    random_lin2,
    random_restricted_formula,
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
            seen_two_cycle |= not digraph_stats(g).oriented
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
    budget = linord.PACKED_BUDGET_BYTES
    at_budget = (budget >> 4) - 1
    packed_calls = []
    real_compress = linord.compress
    monkeypatch.setattr(linord, "compress", lambda *a: packed_calls.append(a) or real_compress(*a))
    for total, packed in ((at_budget, True), (at_budget + 1, False)):
        g = WeightedDigraph.from_arcs(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 1), (3, 0, total - 7)])
        assert digraph_stats(g).W == total
        packed_calls.clear()
        d = dist_linord(g)
        assert bool(packed_calls) == packed
        assert d == brute_dist_linord(g)
        # Move the budget to the other side of this W: the other path agrees.
        monkeypatch.setattr(linord, "PACKED_BUDGET_BYTES", total << 4 if packed else (total + 1) << 4)
        packed_calls.clear()
        assert dist_linord(g) == d
        assert bool(packed_calls) != packed
        monkeypatch.setattr(linord, "PACKED_BUDGET_BYTES", budget)


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
        assert digraph_stats(g).W == total
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
    assert (digraph_stats(cycle).W + 1) << 3 == linord.PACKED_BUDGET_BYTES
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
        mass = tuple(sorted(Counter(x_value_scaled(f, z) for z in every).items()))
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
    check = verify_symmetric_tail(d)
    assert check.symmetric and check.holds


def test_symmetric_tail_on_odd_set_system():
    s = Lin2System.from_tuples(3, [((0, 1), 1, 2), ((1, 2), 0, 1)])
    check = verify_symmetric_tail(dist_lin2(s))
    assert check.symmetric and check.holds


def test_symmetric_tail_reports_inapplicable():
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))
    check = verify_symmetric_tail(d)
    assert not check.symmetric and check.holds is None


def test_symmetric_tail_degenerate_zero_distribution():
    d = ExactDistribution(scale=1, mass=((0, 4),), total=4)
    check = verify_symmetric_tail(d)
    assert check.symmetric and check.holds


def test_fourth_moment_tail_two_point():
    d = ExactDistribution(scale=1, mass=((-2, 1), (2, 1)), total=2)
    check = verify_fourth_moment_tail(d, 1)
    assert check.preconditions_ok and check.holds
    assert check.probability == Fraction(1, 2)


def test_fourth_moment_tail_rejects_violated_precondition():
    d = dist_rsat(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))
    check = verify_fourth_moment_tail(d, 1)
    # A single clause is skewed: E(X) = 0 holds but E(X^4) > b E(X^2)^2 at b=1.
    assert not check.preconditions_ok
    assert check.failed_precondition is not None


def test_second_moment_linord_three_cycle_exact_quarter():
    g = three_cycle()
    check = verify_second_moment_claims(g, dist_linord(g))
    assert check.holds and check.e2 == Fraction(1, 4) and check.target == Fraction(3, 12)


def test_second_moment_requires_oriented_graph():
    g = WeightedDigraph.from_arcs(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError, match="oriented"):
        verify_second_moment_claims(g, dist_linord(g))


def test_second_moment_lin2_identity():
    s = Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)])
    check = verify_second_moment_claims(s, dist_lin2(s))
    assert check.holds and check.e2 == 5


def test_second_moment_lin2_requires_merge_normalized():
    s = Lin2System.from_tuples(1, [((0,), 1, 1), ((0,), 1, 1)])
    with pytest.raises(ValueError, match="merge-normalized"):
        verify_second_moment_claims(s, dist_lin2(s))


def test_second_moment_rsat_disjoint_pair():
    f = ExactCnfFormula.from_clauses(4, 2, [(1, 2), (3, 4)])
    check = verify_second_moment_claims(f, dist_rsat(f))
    assert check.holds
    assert check.e2 == Fraction(3, 8)
    assert check.pairwise_e2 == Fraction(3, 8)
    assert check.target == Fraction(2, 16)


def test_second_moment_rsat_rejects_unrestricted_formula():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    f = ExactCnfFormula.from_clauses(2, 2, clauses)
    with pytest.raises(ValueError, match="conflict number"):
        verify_second_moment_claims(f, dist_rsat(f))


def test_second_moment_claims_accept_the_enumerated_distribution():
    g = WeightedDigraph.from_arcs(4, [(0, 1, 2), (1, 2, 1), (3, 1, 3)])
    s = Lin2System.from_tuples(3, [((0,), 1, 1), ((0, 1), 0, 2), ((1, 2), 1, 3)])
    f = ExactCnfFormula.from_clauses(4, 2, [(1, 2), (-2, 3), (3, -4)])
    for instance, dist in ((g, dist_linord(g)), (s, dist_lin2(s)), (f, dist_rsat(f))):
        assert verify_second_moment_claims(instance, dist).holds


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
    assert sum(1 for g in drawn if not digraph_stats(g).oriented) > 50
    assert sum(1 for g in drawn if max(g.weights, default=0) > 1 << 53) > 50
    for g in drawn:
        seed = rng.randrange(1 << 32)
        samples = rng.randint(1, 40)
        assert estimate_moments(g, samples, seed) == estimate_digraph_moments_by_induced_graph(
            g, samples, seed
        ), g


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


def test_moment_functions_refuse_bad_input():
    d = dist_linord(three_cycle())
    with pytest.raises(ValueError, match="moment order"):
        moment_p(d, 0)
    for b in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="b must be positive"):
            verify_fourth_moment_tail(d, b)
    with pytest.raises(ValueError, match="samples must be positive"):
        estimate_moments(three_cycle(), samples=0)
    with pytest.raises(TypeError, match="unsupported instance type"):
        verify_second_moment_claims((3, ()), d)
    with pytest.raises(TypeError, match="unsupported instance type"):
        estimate_moments((3, ()))


def test_fourth_moment_tail_needs_mean_zero():
    # A hand-built law with E(X) = 1/2: no sample space gives it, but the check must say so.
    d = ExactDistribution(scale=2, mass=((-1, 1), (3, 1)), total=2)
    tail = verify_fourth_moment_tail(d, 64)
    assert not tail.preconditions_ok
    assert tail.failed_precondition == "E(X) = 1/2 is not zero"
    assert tail.holds is None and tail.probability == 0
