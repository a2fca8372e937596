import itertools
import random
import time
import tracemalloc
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.maxlin import (
    CaseKind,
    Lin2Equation,
    Lin2System,
    decide_linalb,
    find_odd_set,
    lift_assignment,
    merge_duplicates,
    occurrence_f,
    rank_reduce,
    solve_exact,
    system_stats,
    x_distribution_counts,
)
from abovetight.outcome import CapExceeded, RestrictionViolated, Verdict

from abovetight import gf2, maxlin

from helpers import (
    auto_case_by_candidates,
    brute_best_x_lin2,
    brute_decide_lin2,
    brute_first_best,
    brute_patterns_lin2,
    edge_lin2_systems,
    find_odd_set_wide,
    flip_walk_lin2,
    lin2_x,
    merge_normalized,
    occurrence_reduce,
    odd_set_and_basis_by_rows,
    parity_constraints,
    random_lin2,
    random_lin2_bounded_occurrence,
    rank_reduce_wide,
    walk,
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
            assert lin2_x(s, assignment) == lin2_x(merged, assignment)


def test_stats_small_system():
    stats = system_stats(sys2(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert (stats.m, stats.r, stats.rho) == (2, 2, 2)


def test_stats_empty_system():
    stats = system_stats(Lin2System(3, ()))
    assert (stats.m, stats.r, stats.rho) == (0, 0, 0)


def test_stats_all_subsets_three_variables():
    from abovetight.instances import all_subsets_system

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


def _checked_copy(s: Lin2System) -> Lin2System:
    """s rebuilt through the checked constructors, which refuse any malformed equation or system."""
    return Lin2System(s.n, tuple(Lin2Equation(eq.variables, eq.rhs, eq.weight) for eq in s.equations))


def _bound_size_system(rng: random.Random, n: int, m: int, sizes) -> Lin2System:
    """m random equations of the given sizes over n variables, with duplicates and opposite sides."""
    eqs = []
    for _ in range(m):
        variables = tuple(sorted(rng.sample(range(n), rng.choice(sizes))))
        eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, 4)))
    eqs += rng.sample(eqs, m // 10)
    eqs += [Lin2Equation(eq.variables, 1 - eq.rhs, eq.weight) for eq in rng.sample(eqs, m // 10)]
    rng.shuffle(eqs)
    return Lin2System(n, tuple(eqs))


def test_derived_systems_pass_the_checks_they_skip():
    # merge_duplicates and rank_reduce build their output unchecked; the
    # checked constructors accept it and build an equal system.
    rng = random.Random(4141)
    systems = [random_lin2(rng, n_max=9, m_max=14) for _ in range(300)] + edge_lin2_systems(rng)
    systems += [
        _bound_size_system(rng, 300, 1500, (1, 3)),
        _bound_size_system(rng, 300, 1500, (1, 2, 3)),
        _bound_size_system(rng, 250, 40, range(1, 21)),
    ]
    for s in systems:
        merged = merge_duplicates(s)
        for derived in (merged, rank_reduce(merged).reduced, rank_reduce(s).reduced):
            assert _checked_copy(derived) == derived, s


def spread_variables(rng: random.Random, s: Lin2System, extra: int) -> Lin2System:
    """s with its variables moved by an increasing map into n + extra variables."""
    n = s.n + extra
    new = sorted(rng.sample(range(n), s.n))
    eqs = [(tuple(new[v] for v in eq.variables), eq.rhs, eq.weight) for eq in s.equations]
    return Lin2System.from_tuples(n, eqs)


def test_occurring_masks_match_the_wide_oracles(monkeypatch):
    # One echelon of masks over the occurring variables against separate eliminations
    # of masks as wide as the highest index: the same odd set, basis and reduction,
    # and the same decision.
    rng = random.Random(8128)
    systems, decided = [], []
    for _ in range(4000):
        s = random_lin2(rng, n_max=9, m_max=12)
        if rng.random() < 0.7:
            s = spread_variables(rng, s, rng.randint(1, 80))
        if s.equations and rng.random() < 0.3:
            s = Lin2System(s.n, s.equations + tuple(rng.choices(s.equations, k=3)))
        assert find_odd_set(s) == find_odd_set_wide(s), s
        assert rank_reduce(s) == rank_reduce_wide(s), s
        case = rng.choice((None, CaseKind.ODD_SET, CaseKind.GENERAL))
        systems.append((s, rng.randint(1, 3), case))
        decided.append(_decision(*systems[-1]))
    monkeypatch.setattr(maxlin, "find_odd_set", find_odd_set_wide)
    monkeypatch.setattr(maxlin, "rank_reduce", rank_reduce_wide)
    assert [_decision(*args) for args in systems] == decided
    assert {out.verdict for out in decided if not isinstance(out, str)} == set(Verdict)


def test_column_elimination_matches_the_row_oracle_on_tall_and_wide_systems():
    # The odd set and the basis of the column elimination against one row echelon of
    # the same system, on systems with more equations than variables and with fewer,
    # with single-variable equations (unit rows) and without.
    rng = random.Random(3636)
    shapes = Counter()
    for trial in range(1500):
        if trial % 2:
            s = random_lin2(rng, n_max=8, m_min=9, m_max=40, r_max=rng.choice((2, 3, 8)))
        else:
            s = spread_variables(rng, random_lin2(rng, n_max=30, m_max=12, r_max=20), rng.randint(0, 40))
        for system in (s, merge_duplicates(s)):
            odd, basis = odd_set_and_basis_by_rows(system)
            assert find_odd_set(system) == odd, system
            assert list(rank_reduce(system).basis) == basis, system
            m, occurring = len(system.equations), len(system.occurrences)
            shapes["tall" if m > occurring else "wide" if m < occurring else "square"] += 1
            shapes["odd" if odd is not None else "no odd set"] += 1
            arities = [len(eq.variables) for eq in system.equations]
            shapes["unit rows" if 1 in arities else "no unit rows"] += 1
    assert min(shapes.values()) > 100, shapes


def test_auto_case_builds_the_masks_once(monkeypatch):
    # The odd-set search and the rank reduction share one column elimination of the
    # merged system, so an auto-case decision eliminates once, kernel or not.
    calls = []
    column_basis = gf2.column_basis
    monkeypatch.setattr(gf2, "column_basis", lambda cols: calls.append(cols) or column_basis(cols))
    out = decide_linalb(sys2(4, [((0, 1), 1, 1), ((1, 2), 0, 1), ((2, 3), 1, 2)]), 1)
    assert out.verdict is Verdict.YES_WITNESS and "kernel_vars" in out.diagnostics
    assert len(calls) == 1
    rng = random.Random(2929)
    kernels = 0
    for _ in range(300):
        calls.clear()
        out = decide_linalb(random_lin2(rng, n_max=10, m_max=14), rng.randint(1, 3))
        assert len(calls) == 1, out
        kernels += "kernel_vars" in out.diagnostics
    assert kernels > 200


def _decision(s: Lin2System, k: int, case: CaseKind | None):
    try:
        return decide_linalb(s, k, case, cap=6)
    except RestrictionViolated as exc:
        return str(exc)


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (Lin2Equation, ((), 0, 1), "equations must involve at least one variable"),
        (Lin2Equation, ((0,), 2, 1), "right-hand side must be 0 or 1"),
        (Lin2Equation, ((0,), 1, 0), "weights must be positive integers"),
        (Lin2Equation, ((0,), 1, 1.5), "weights must be positive integers"),
        (Lin2System, (-1, ()), "variable count must be nonnegative"),
        (Lin2System, (2, (Lin2Equation((0, 2), 1, 1),)), "equation references a variable outside 0..n-1"),
        # Index -1 would silently stand for the last variable.
        (Lin2System, (3, (Lin2Equation((-1,), 1, 5),)), "equation references a variable outside 0..n-1"),
    ],
)
def test_constructors_name_each_fault(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_assignment_helpers_refuse_bad_assignments():
    reduction = rank_reduce(sys2(3, [((0, 2), 1, 1)]))
    with pytest.raises(ValueError, match="basis size"):
        lift_assignment(reduction.basis, 3, (1, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        lift_assignment(reduction.basis, 3, (2,))


def test_from_tuples_refuses_a_repeated_variable():
    # x0 + x0 + x1 = 1 is x1 = 1 over GF(2); dropping the repeat would make it x0 + x1 = 1.
    with pytest.raises(ValueError, match="strictly increasing"):
        Lin2System.from_tuples(2, [((0, 0, 1), 1, 1)])
    assert Lin2System.from_tuples(2, [((1, 0), 1, 1)]) == Lin2System(2, (Lin2Equation((0, 1), 1, 1),))


def test_lift_assignment_round_trip():
    s = sys2(3, [((0, 1, 2), 1, 1)])
    red = rank_reduce(s)
    lifted = lift_assignment(red.basis, s.n, (1,))
    assert lifted == (1, 0, 0)
    assert lin2_x(s, lifted) == 1


def test_lift_identity_reduction():
    s = sys2(2, [((0,), 1, 2), ((1,), 0, 1)])
    red = rank_reduce(s)
    assert lift_assignment(red.basis, s.n, (1, 0)) == (1, 0)


def test_lift_all_zero():
    s = sys2(3, [((0, 1), 0, 1), ((1, 2), 1, 1)])
    red = rank_reduce(s)
    assert lift_assignment(red.basis, s.n, (0,) * red.reduced.n) == (0, 0, 0)


def test_evaluate_x_examples():
    assert lin2_x(sys2(1, [((0,), 0, 2)]), (0,)) == 2
    assert lin2_x(sys2(2, [((0,), 1, 1), ((0, 1), 1, 2)]), (0, 0)) == -3
    assert lin2_x(Lin2System(0, ()), ()) == 0


def test_x_parity_matches_total_weight():
    rng = random.Random(808)
    for _ in range(60):
        s = random_lin2(rng, n_max=6, m_max=8)
        total = sum(eq.weight for eq in s.equations)
        for assignment in itertools.product((0, 1), repeat=s.n):
            assert (lin2_x(s, assignment) - total) % 2 == 0


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
        assert lin2_x(s, witness) == best


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
        assert x_distribution_counts(s) == Counter(lin2_x(s, z) for z in every)


def test_walk_yields_what_the_flip_walker_yields():
    rng = random.Random(77)
    systems = [random_lin2(rng, n_max=8, m_max=10) for _ in range(2000)]
    for s in systems + edge_lin2_systems(rng):
        assert list(walk(s.n, parity_constraints(s))) == list(flip_walk_lin2(s))


def counter_edge_systems(rng):
    """Weights past 2^12, a distinct X per assignment, and systems on which every X ties."""
    s = random_lin2(rng, n_min=6, n_max=8, m_max=8)
    long_carry = tuple(
        Lin2Equation(eq.variables, eq.rhs, (1 << 12) - 1 + eq.weight) for eq in s.equations
    )
    return [
        Lin2System(s.n, long_carry),
        # Weights 1, 2, 4, ...: every assignment has its own X.
        Lin2System.from_tuples(10, [((v,), v % 2, 1 << v) for v in range(10)]),
        Lin2System.from_tuples(10, [((v, 9 - v), 1, 3**v) for v in range(5)]),
        # Each equation beside its negation: X is 0 everywhere.
        Lin2System.from_tuples(4, [((0, 2), 0, 5), ((0, 2), 1, 5), ((1, 3), 1, 2), ((1, 3), 0, 2)]),
        Lin2System.from_tuples(3, []),
    ]


def test_bit_sliced_counter_matches_the_walker():
    rng = random.Random(77)
    systems = [random_lin2(rng, n_max=8, m_max=10) for _ in range(2000)]
    for s in systems + edge_lin2_systems(rng) + counter_edge_systems(rng):
        scan = list(walk(s.n, parity_constraints(s)))
        # max keeps the first maximum: ties go to the smallest assignment.
        best_z, best_x = max(enumerate(scan), key=itemgetter(1))
        assert solve_exact(s) == (best_x, tuple((best_z >> v) & 1 for v in range(s.n)))
        assert x_distribution_counts(s) == Counter(scan)


def test_solve_exact_at_twenty_variables_within_budget():
    s = random_lin2(random.Random(20), n_min=20, n_max=20, m_min=30, m_max=30, wmax=4, r_max=3)
    started = time.perf_counter()
    best, witness = solve_exact(s)
    elapsed = time.perf_counter() - started
    assert lin2_x(s, witness) == best
    assert elapsed < 1.0, "took %.2f s" % elapsed
    tracemalloc.start()
    try:
        solve_exact(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, "peak %.1f MB" % (peak / 2**20)


@pytest.mark.parametrize("extra_bits, limit_mb", [(0, 8), (84, 10)])
def test_distribution_memory_with_a_distinct_x_per_assignment(extra_bits, limit_mb):
    # Weight 2^v (times 2^extra_bits, plus noise summing below that) on x_v
    # alone: every assignment has its own X, so there are 2^16 values.
    rng = random.Random(16)
    scale = 1 << extra_bits
    eqs = [((v,), 0, (scale << v) + rng.getrandbits(max(0, extra_bits - 4))) for v in range(16)]
    s = sys2(16, eqs)
    tracemalloc.start()
    try:
        counts = x_distribution_counts(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 1 << 16 and set(counts.values()) == {1}
    assert peak < limit_mb << 20, "peak %.1f MB" % (peak / 2**20)


def test_solve_exact_refuses_a_counter_past_its_budget():
    # 605 weight bits per assignment at n = 20 pass the 2^29-bit budget.
    s = sys2(20, [((v,), 0, 1 << 600) for v in range(20)])
    started = time.perf_counter()
    with pytest.raises(CapExceeded, match="exact solve refused: .* counter bits"):
        solve_exact(s)
    with pytest.raises(CapExceeded, match="distribution refused: .* counter bits"):
        x_distribution_counts(s)
    outcome = decide_linalb(s, 1, CaseKind.GENERAL)
    assert outcome.verdict is Verdict.KERNEL
    # The kernel is inside the variable cap: the counter refused it.
    assert outcome.diagnostics["kernel_vars"] == 20
    assert outcome.diagnostics["counter_bits"] == 605 << 20
    assert outcome.diagnostics["counter_cap"] == 536870912
    assert "cap" not in outcome.diagnostics
    assert decide_linalb(s, 1, CaseKind.GENERAL, cap=19).diagnostics["cap"] == 19
    assert time.perf_counter() - started < 1.0


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
            assert lin2_x(s, out.witness) >= 2 * k
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


def test_auto_case_by_dominance_matches_the_candidate_list():
    # Variable 0 in 50 width-2 equations, and (1, 2) closing an odd cycle with (0, 1) and
    # (0, 2) so that no odd set exists: 16 * 64^2 < 32 * 50^2, so arity wins.
    hub = sys2(51, [((0, i), 0, 1) for i in range(1, 51)] + [((1, 2), 0, 1)])
    rng = random.Random(24)
    systems = [Lin2System(0, ()), hub] + edge_lin2_systems(rng)
    systems += [random_lin2(rng) for _ in range(150)]
    systems += [random_lin2_bounded_occurrence(rng, rng.randint(1, 4)) for _ in range(50)]
    chosen = set()
    for s in systems:
        for k in range(1, 41):
            case = auto_case_by_candidates(s, k)
            assert decide_linalb(s, k).diagnostics["case"] == case.value
            chosen.add(case)
    assert chosen == set(CaseKind) - {CaseKind.GENERAL}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_merge_is_idempotent_and_normalized(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    s = random_lin2(rng, n_max=6, m_max=10)
    merged = merge_duplicates(s)
    assert merge_normalized(merged)
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
            assert lin2_x(s, flipped) == -lin2_x(s, assignment)
    assert checked > 10
