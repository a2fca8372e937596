import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.maxlin import (
    CaseKind,
    Lin2Equation,
    Lin2System,
    _parity_constraints,
    decide_linalb,
    evaluate_x,
    find_odd_set,
    lift_assignment,
    merge_duplicates,
    occurrence_f,
    occurrence_reduce,
    rank_reduce,
    solve_exact,
    system_stats,
    walk,
    x_distribution_counts,
)
from abovetight.outcome import CapExceeded, RestrictionViolated, Verdict

from helpers import (
    brute_best_x_lin2,
    brute_decide_lin2,
    brute_first_best,
    brute_patterns_lin2,
    edge_lin2_systems,
    flip_walk_lin2,
    lin2_x,
    random_lin2,
)


def sys2(n, eqs):
    return Lin2System.from_tuples(n, eqs)


def test_merge_opposite_sides_keep_heavier():
    s = sys2(2, [((0, 1), 1, 2), ((0, 1), 0, 3)])
    merged = merge_duplicates(s)
    assert merged.equations == (Lin2Equation((0, 1), 0, 1),)


def test_merge_same_side_sums_weights():
    s = sys2(1, [((0,), 1, 1), ((0,), 1, 4)])
    assert merge_duplicates(s).equations == (Lin2Equation((0,), 1, 5),)


def test_merge_exact_cancellation_drops_equation():
    s = sys2(2, [((0, 1), 1, 2), ((0, 1), 0, 2)])
    assert merge_duplicates(s).equations == ()


def test_merge_preserves_x_pointwise():
    rng = random.Random(5150)
    for _ in range(80):
        s = random_lin2(rng, n_max=6, m_max=8)
        merged = merge_duplicates(s)
        for assignment in itertools.product((0, 1), repeat=s.n):
            assert evaluate_x(s, assignment) == evaluate_x(merged, assignment)


def test_stats_small_system():
    stats = system_stats(sys2(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert (stats.m, stats.W, stats.r, stats.rho) == (2, 3, 2, 2)


def test_stats_empty_system():
    stats = system_stats(Lin2System(3, ()))
    assert (stats.m, stats.W, stats.r, stats.rho) == (0, 0, 0, 0)


def test_stats_all_subsets_three_variables():
    from abovetight.moments import all_subsets_system

    stats = system_stats(all_subsets_system(3))
    assert (stats.m, stats.r, stats.rho) == (7, 3, 4)


def test_find_odd_set_chain():
    s = sys2(3, [((0, 1), 1, 1), ((1, 2), 1, 1)])
    found = find_odd_set(s)
    assert found is not None
    for eq in s.equations:
        assert len(found.intersection(eq.variables)) % 2 == 1


def test_find_odd_set_single_variable():
    assert find_odd_set(sys2(1, [((0,), 0, 1)])) == frozenset({0})


def test_find_odd_set_duplicate_rows():
    s = sys2(2, [((0, 1), 1, 1), ((0, 1), 1, 1)])
    found = find_odd_set(s)
    assert found is not None and len(found.intersection((0, 1))) % 2 == 1


def test_find_odd_set_absent():
    # Rows (0,1) and (0,1)+(1,0) = rows z1+z2 and z1: solvable; need an
    # unsolvable all-ones system: z1+z2, z1, z2 has rows summing to 0 but
    # all-ones right side summing to 1.
    s = sys2(2, [((0, 1), 1, 1), ((0,), 1, 1), ((1,), 1, 1)])
    assert find_odd_set(s) is None


def test_rank_reduce_three_cycle_system():
    s = sys2(3, [((0, 1), 0, 1), ((1, 2), 1, 1), ((0, 2), 1, 1)])
    red = rank_reduce(s)
    assert red.basis == (0, 1)
    assert red.reduced.equations == (
        Lin2Equation((0, 1), 0, 1),
        Lin2Equation((1,), 1, 1),
        Lin2Equation((0,), 1, 1),
    )


def test_rank_reduce_full_rank_is_identity():
    s = sys2(2, [((0,), 1, 2), ((1,), 0, 1)])
    red = rank_reduce(s)
    assert red.reduced == s
    assert red.basis == (0, 1)


def test_rank_reduce_single_wide_equation():
    red = rank_reduce(sys2(3, [((0, 1, 2), 1, 1)]))
    assert red.basis == (0,)
    assert red.reduced.equations == (Lin2Equation((0,), 1, 1),)


def test_rank_reduce_keeps_every_equation_nonempty():
    rng = random.Random(424242)
    for _ in range(150):
        s = random_lin2(rng, n_max=8, m_max=10)
        red = rank_reduce(s)
        assert all(eq.variables for eq in red.reduced.equations)


def test_rank_reduce_preserves_satisfaction_patterns():
    rng = random.Random(11)
    for _ in range(60):
        s = random_lin2(rng, n_max=6, m_max=6)
        red = rank_reduce(s)
        assert brute_patterns_lin2(s) == brute_patterns_lin2(red.reduced)


def test_lift_assignment_round_trip():
    s = sys2(3, [((0, 1, 2), 1, 1)])
    red = rank_reduce(s)
    lifted = lift_assignment(red, (1,))
    assert lifted == (1, 0, 0)
    assert evaluate_x(s, lifted) == 1


def test_lift_identity_reduction():
    s = sys2(2, [((0,), 1, 2), ((1,), 0, 1)])
    red = rank_reduce(s)
    assert lift_assignment(red, (1, 0)) == (1, 0)


def test_lift_all_zero():
    s = sys2(3, [((0, 1), 0, 1), ((1, 2), 1, 1)])
    red = rank_reduce(s)
    assert lift_assignment(red, (0,) * red.reduced.n) == (0, 0, 0)


def test_evaluate_x_examples():
    assert evaluate_x(sys2(1, [((0,), 0, 2)]), (0,)) == 2
    assert evaluate_x(sys2(2, [((0,), 1, 1), ((0, 1), 1, 2)]), (0, 0)) == -3
    assert evaluate_x(Lin2System(0, ()), ()) == 0


def test_x_parity_matches_total_weight():
    rng = random.Random(808)
    for _ in range(60):
        s = random_lin2(rng, n_max=6, m_max=8)
        total = sum(eq.weight for eq in s.equations)
        for assignment in itertools.product((0, 1), repeat=s.n):
            assert (evaluate_x(s, assignment) - total) % 2 == 0


def test_solve_exact_examples():
    assert solve_exact(sys2(1, [((0,), 0, 2)]))[0] == 2
    assert solve_exact(sys2(2, [((0, 1), 1, 1), ((0, 1), 0, 1)]))[0] == 0
    best, witness = solve_exact(sys2(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert best == 3 and witness == (1, 0)


def test_solve_exact_matches_brute_force():
    rng = random.Random(31415)
    systems = [random_lin2(rng, n_max=7, m_max=9) for _ in range(80)]
    for s in systems + edge_lin2_systems(rng):
        best, witness = solve_exact(s)
        assert best == brute_best_x_lin2(s)
        assert evaluate_x(s, witness) == best


def test_solve_exact_ties_go_to_the_smallest_assignment():
    rng = random.Random(6)
    # Unit weights make ties among the maxima the common case.
    systems = [random_lin2(rng, n_max=7, m_max=6, wmax=1) for _ in range(60)]
    for s in systems + edge_lin2_systems(rng):
        assert solve_exact(s) == brute_first_best(s.n, lambda a: lin2_x(s, a))


def test_x_distribution_counts_match_evaluate_x_over_all_assignments():
    rng = random.Random(8)
    systems = [random_lin2(rng, n_max=8, m_max=10) for _ in range(40)]
    for s in systems + edge_lin2_systems(rng):
        every = itertools.product((0, 1), repeat=s.n)
        assert x_distribution_counts(s) == Counter(evaluate_x(s, z) for z in every)


def test_walk_yields_what_the_flip_walker_yields():
    rng = random.Random(77)
    systems = [random_lin2(rng, n_max=8, m_max=10) for _ in range(2000)]
    for s in systems + edge_lin2_systems(rng):
        assert list(walk(s.n, _parity_constraints(s))) == list(flip_walk_lin2(s))


def test_solve_exact_cap_refusal():
    s = sys2(5, [((0, 1, 2, 3, 4), 1, 1)])
    with pytest.raises(CapExceeded):
        solve_exact(s, cap=4)


def test_occurrence_threshold_constant():
    assert occurrence_f(1, 2) == 65536


def test_occurrence_reduce_unchanged_below_threshold():
    s = sys2(3, [((0,), 1, 1), ((1, 2), 0, 2)])
    assert occurrence_reduce(s, 1, 2) == s


def test_occurrence_reduce_noop_when_system_is_small():
    # With r=2 the threshold is 65536, far above m, so nothing fires.
    n = 1027
    eqs = [((v,), 0, 1) for v in range(1024)]
    eqs.append(((1024, 1025), 0, 1))
    eqs.append(((1024, 1026), 1, 1))
    s = Lin2System.from_tuples(n, eqs)
    assert occurrence_reduce(s, 1, 2) == s


def test_occurrence_reduce_removes_once_occurring_variable_at_width_two():
    # m = f(1,2) + 1 distinct equations of width at most 2 where variable 0
    # occurs exactly once; the rule strips precisely that equation.
    n = 363
    eqs = [((0,), 1, 1)]
    others = [((v,), 0, 1) for v in range(1, n)]
    for u in range(1, n):
        for v in range(u + 1, n):
            others.append(((u, v), 1, 1))
    eqs.extend(others[: occurrence_f(1, 2)])
    s = Lin2System.from_tuples(n, eqs)
    assert len(s.equations) == occurrence_f(1, 2) + 1
    reduced = occurrence_reduce(s, 1, 2)
    assert len(reduced.equations) == occurrence_f(1, 2)
    assert all(0 not in eq.variables for eq in reduced.equations)


def test_occurrence_reduce_fires_with_r_one_family():
    eqs = [((v,), 0, 1) for v in range(1026)]
    s = Lin2System.from_tuples(1026, eqs)
    reduced = occurrence_reduce(s, 1, 1)
    # Every variable occurs once and 1 <= m - 1024 while m >= 1025, so
    # equations drop one at a time until exactly f(1,1) remain.
    assert len(reduced.equations) == occurrence_f(1, 1) == 1024


def test_occurrence_reduce_requires_merge_normalized():
    s = sys2(1, [((0,), 1, 1), ((0,), 1, 1)])
    with pytest.raises(ValueError, match="merge-normalized"):
        occurrence_reduce(s, 1, 1)


def test_decide_odd_set_bound_verdict():
    eqs = [((v,), 1, 1) for v in range(4)]
    out = decide_linalb(Lin2System.from_tuples(4, eqs), 1, CaseKind.ODD_SET)
    assert out.verdict is Verdict.YES_BY_BOUND
    assert out.diagnostics["m_threshold"] == 4


def test_decide_small_kernel_witness():
    out = decide_linalb(sys2(1, [((0,), 0, 2)]), 1, CaseKind.ODD_SET)
    assert out.verdict is Verdict.YES_WITNESS
    assert out.witness == (0,)
    assert out.diagnostics["best_x"] == 2


def test_decide_cancelling_pair_is_no():
    out = decide_linalb(
        sys2(2, [((0, 1), 1, 1), ((0, 1), 0, 1)]), 1, CaseKind.GENERAL
    )
    assert out.verdict is Verdict.NO


def test_decide_rejects_bad_tag():
    s = sys2(2, [((0, 1), 1, 1), ((0,), 1, 1), ((1,), 1, 1)])
    with pytest.raises(RestrictionViolated):
        decide_linalb(s, 1, CaseKind.ODD_SET)


def test_decide_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        decide_linalb(sys2(1, [((0,), 0, 1)]), 0, CaseKind.GENERAL)


def test_decide_witness_lifts_to_original_variables():
    rng = random.Random(2024)
    hits = 0
    for _ in range(120):
        s = random_lin2(rng, n_max=7, m_max=8)
        k = rng.randint(1, 2)
        out = decide_linalb(s, k, CaseKind.GENERAL)
        if out.verdict is Verdict.YES_WITNESS:
            hits += 1
            assert evaluate_x(s, out.witness) >= 2 * k
        if out.verdict is Verdict.NO:
            assert not brute_decide_lin2(s, k)
    assert hits > 10


def test_decide_kernel_on_cap():
    eqs = [((v,), 1, 1) for v in range(10)]
    out = decide_linalb(Lin2System.from_tuples(10, eqs), 2, CaseKind.GENERAL, cap=5)
    assert out.verdict is Verdict.KERNEL
    assert out.kernel is not None


def test_auto_case_prefers_odd_set():
    s = sys2(2, [((0,), 1, 1), ((0, 1), 0, 1)])
    diag = decide_linalb(s, 1).diagnostics
    assert diag["case"] == "odd-set"
    assert diag["m_threshold"] == 4


def test_auto_case_falls_back_to_bounded_structure():
    # No odd set: equations z1+z2, z1, z2 (all-ones system inconsistent).
    s = sys2(2, [((0, 1), 1, 1), ((0,), 1, 1), ((1,), 1, 1)])
    diag = decide_linalb(s, 1).diagnostics
    assert diag["case"] == "occurrence"
    assert diag["m_threshold"] == 32 * 2 * 2  # rho = 2; below 16 * 64^2 for arity 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_merge_is_idempotent_and_normalized(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    s = random_lin2(rng, n_max=6, m_max=10)
    merged = merge_duplicates(s)
    assert merged.is_merge_normalized()
    assert merge_duplicates(merged) == merged


def test_odd_set_flip_negates_x():
    # Flipping the variables of an odd-hitting set flips the satisfaction of
    # every equation, so X negates and its distribution is symmetric.
    rng = random.Random(9090)
    checked = 0
    for _ in range(60):
        s = random_lin2(rng, n_max=7, m_max=8)
        found = find_odd_set(s)
        if found is None:
            continue
        checked += 1
        for assignment in itertools.product((0, 1), repeat=s.n):
            flipped = tuple(b ^ 1 if v in found else b for v, b in enumerate(assignment))
            assert evaluate_x(s, flipped) == -evaluate_x(s, assignment)
    assert checked > 10
