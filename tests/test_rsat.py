import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.maxlin import walk
from abovetight.outcome import CapExceeded, RestrictionViolated, Verdict
from abovetight.rsat import (
    ExactCnfFormula,
    _clause_constraints,
    conflict_bound,
    conflict_number,
    decide_rsatalb,
    overlap_histogram,
    satisfied_count,
    scaled_x_counts,
    solve_exact,
    x_value_scaled,
)

from helpers import (
    brute_best_scaled_rsat,
    brute_first_best,
    brute_overlap_histogram,
    edge_formulas,
    flip_walk_rsat,
    random_formula,
    rsat_scaled_x,
)


def complete_formula(r: int, base: int = 0) -> ExactCnfFormula:
    clauses = []
    for signs in range(1 << r):
        clauses.append(
            tuple((base + v + 1) if (signs >> v) & 1 else -(base + v + 1) for v in range(r))
        )
    return ExactCnfFormula(base + r, r, tuple(clauses))


def test_formula_validation():
    with pytest.raises(ValueError, match="exactly 2 literals"):
        ExactCnfFormula(3, 2, ((1, 2, 3),))
    with pytest.raises(ValueError, match="distinct"):
        ExactCnfFormula(3, 2, ((1, -1),))
    with pytest.raises(ValueError, match="range"):
        ExactCnfFormula(2, 2, ((1, 3),))
    with pytest.raises(ValueError):
        ExactCnfFormula(2, 1, ((1,),))


def pair_histogram(r: int, y: tuple[int, ...], z: tuple[int, ...]):
    n = max(abs(lit) for lit in y + z)
    return overlap_histogram(ExactCnfFormula.from_clauses(n, r, [y, z]))


def test_pair_relation_conflict():
    assert pair_histogram(2, (1, 2), (-1, 3)) == (2, Counter())


def test_pair_relation_overlap():
    assert pair_histogram(2, (1, 2), (1, 3)) == (0, Counter({1: 2}))


def test_pair_relation_disjoint():
    assert pair_histogram(2, (1, 2), (3, 4)) == (0, Counter())


def test_pair_relation_conflict_wins_over_sharing():
    assert pair_histogram(3, (1, 2, 3), (1, 2, -3)) == (2, Counter())


def test_conflict_number_single_conflict_pair():
    f = ExactCnfFormula.from_clauses(3, 2, [(1, 2), (-1, 3)])
    assert overlap_histogram(f) == (2, Counter())
    assert conflict_number(f) == 2


def test_conflict_number_single_overlap_pair():
    f = ExactCnfFormula.from_clauses(3, 2, [(1, 2), (1, 3)])
    assert overlap_histogram(f) == (0, Counter({1: 2}))
    assert conflict_number(f) == -2


def test_conflict_number_complete_width_two():
    f = complete_formula(2)
    assert overlap_histogram(f) == (12, Counter())
    assert conflict_number(f) == 12 > conflict_bound(f) == 8


def test_conflict_counts_match_naive_pairs():
    # Few variables per width make pairs that share, conflict on several
    # variables, or conflict and share at once; every fifth clause repeats one.
    rng = random.Random(99)
    seen = Counter()
    for _ in range(2500):
        r = rng.randint(2, 5)
        n = rng.randint(r, r + 3)
        clauses = []
        for _ in range(rng.randint(1, 10)):
            if clauses and rng.random() < 0.2:
                clauses.append(rng.choice(clauses))
            else:
                chosen = sorted(rng.sample(range(1, n + 1), r))
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        f = ExactCnfFormula(n, r, tuple(clauses))
        assert overlap_histogram(f) == brute_overlap_histogram(f)
        for y, z in itertools.combinations(clauses, 2):
            negated = sum(1 for lit in y if -lit in z)
            seen["duplicate"] += y == z
            seen["multi-conflict"] += negated > 1
            seen["conflict and share"] += negated > 0 and not set(y).isdisjoint(z)
    assert min(seen.values()) > 100, seen


def test_overlap_histogram_memory_stays_linear_in_the_clauses():
    # 300 clauses all containing variable 1 make 44,850 sharing pairs; none
    # of them may be held at once.
    clauses = [(1 if j % 2 else -1, 2 * j + 2, 2 * j + 3) for j in range(300)]
    f = ExactCnfFormula(601, 3, tuple(clauses))
    tracemalloc.start()
    try:
        conflicts, shared_counts = overlap_histogram(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (conflicts, shared_counts) == (2 * 150 * 150, Counter({1: 2 * 2 * 150 * 149 // 2}))
    assert peak < 1 << 20, "peak %d bytes" % peak


def test_x_value_scaled_single_clause():
    f = ExactCnfFormula.from_clauses(2, 2, [(1, 2)])
    assert x_value_scaled(f, (1, 0)) == 1
    assert x_value_scaled(f, (0, 0)) == -3


def test_x_value_scaled_complete_formula_is_identically_zero():
    f = complete_formula(2)
    for assignment in itertools.product((0, 1), repeat=2):
        assert x_value_scaled(f, assignment) == 0


def test_scaled_x_is_sum_of_clause_terms():
    # Per clause the scaled contribution is +1 when satisfied and 1 - 2^r
    # when falsified; the total must match the closed form.
    rng = random.Random(515)
    for _ in range(50):
        r = rng.choice([2, 3])
        f = random_formula(rng, r, n_max=7, m_max=7)
        for assignment in itertools.product((0, 1), repeat=f.n):
            per_clause = 0
            for clause in f.clauses:
                sat = any(
                    assignment[abs(lit) - 1] == (1 if lit > 0 else 0) for lit in clause
                )
                per_clause += 1 if sat else 1 - (1 << r)
            assert per_clause == x_value_scaled(f, assignment)


def test_solve_exact_examples():
    assert solve_exact(ExactCnfFormula.from_clauses(2, 2, [(1, 2)]))[0] == 1
    assert solve_exact(complete_formula(2))[0] == 0
    best, witness = solve_exact(ExactCnfFormula.from_clauses(2, 2, [(1, 2), (-1, 2)]))
    assert best == 2
    assert satisfied_count(ExactCnfFormula.from_clauses(2, 2, [(1, 2), (-1, 2)]), witness) == 2


def test_solve_exact_matches_brute_force():
    rng = random.Random(2718)
    formulas = [random_formula(rng, rng.choice([2, 3]), n_max=8, m_max=9) for _ in range(60)]
    for f in formulas + edge_formulas(rng):
        best, witness = solve_exact(f)
        assert best == brute_best_scaled_rsat(f)
        assert x_value_scaled(f, witness) == best


def test_solve_exact_ties_go_to_the_smallest_assignment():
    rng = random.Random(4)
    formulas = [random_formula(rng, rng.choice([2, 3]), n_max=8, m_max=8) for _ in range(60)]
    for f in formulas + edge_formulas(rng):
        assert solve_exact(f) == brute_first_best(f.n, lambda a: rsat_scaled_x(f, a))


def test_scaled_x_counts_match_x_value_scaled_over_all_assignments():
    rng = random.Random(5)
    formulas = [random_formula(rng, rng.choice([2, 3]), n_max=9, m_max=10) for _ in range(40)]
    for f in formulas + edge_formulas(rng):
        counts, multiplier = scaled_x_counts(f)
        expanded = Counter({v: c * multiplier for v, c in counts.items()})
        every = itertools.product((0, 1), repeat=f.n)
        assert expanded == Counter(x_value_scaled(f, z) for z in every)


def test_walk_yields_what_the_flip_walker_yields():
    rng = random.Random(78)
    formulas = [random_formula(rng, 2 + i % 6, n_max=9, m_max=10) for i in range(1500)]
    for f in formulas + edge_formulas(rng):
        variables = f.occurring_variables()
        m = len(f.clauses)
        scaled = [m - (u << f.r) for u in flip_walk_rsat(f, variables)]
        assert list(walk(len(variables), _clause_constraints(f, variables))) == scaled


def test_solve_exact_cap_refusal():
    f = ExactCnfFormula.from_clauses(6, 2, [(1, 2), (3, 4), (5, 6)])
    with pytest.raises(CapExceeded):
        solve_exact(f, cap=5)


def test_decide_single_clause_yes():
    f = ExactCnfFormula.from_clauses(2, 2, [(1, 2)])
    out = decide_rsatalb(f, 1)
    assert out.verdict is Verdict.YES_WITNESS
    assert x_value_scaled(f, out.witness) >= 1


def test_decide_complete_formula_refused_then_no_in_diagnostic_mode():
    f = complete_formula(2)
    with pytest.raises(RestrictionViolated, match="conflict number 12"):
        decide_rsatalb(f, 1)
    out = decide_rsatalb(f, 1, diagnostic=True)
    assert out.verdict is Verdict.NO
    assert out.diagnostics["best_scaled_x"] == 0


def test_decide_two_disjoint_clauses():
    f = ExactCnfFormula.from_clauses(4, 2, [(1, 2), (3, 4)])
    out = decide_rsatalb(f, 2)
    assert out.verdict is Verdict.YES_WITNESS
    assert x_value_scaled(f, out.witness) == 2


def test_decide_rejects_nonpositive_target():
    f = ExactCnfFormula.from_clauses(2, 2, [(1, 2)])
    with pytest.raises(ValueError):
        decide_rsatalb(f, 0)


def test_decide_monotone_in_target():
    rng = random.Random(64)
    for _ in range(40):
        f = random_formula(rng, 2, n_max=7, m_max=7)
        verdicts = []
        for k_num in range(1, 6):
            out = decide_rsatalb(f, k_num, diagnostic=True)
            verdicts.append(out.verdict in (Verdict.YES_BY_BOUND, Verdict.YES_WITNESS))
        # YES at k implies YES at every smaller target.
        for small, large in zip(verdicts, verdicts[1:]):
            assert small or not large


def test_decide_kernel_on_cap():
    f = ExactCnfFormula.from_clauses(8, 2, [(1, 2), (3, 4), (5, 6), (7, 8)])
    out = decide_rsatalb(f, 1, cap=3)
    assert out.verdict is Verdict.KERNEL
    assert out.kernel is f


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_conflict_and_overlap_counts_are_even(seed):
    rng = random.Random(seed)
    f = random_formula(rng, rng.choice([2, 3]), n_max=8, m_max=8)
    conflicts, shared_counts = overlap_histogram(f)
    assert conflicts % 2 == 0
    assert all(count % 2 == 0 for count in shared_counts.values())
    assert conflict_number(f) == conflicts - sum(shared_counts.values())
