import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight import rsat
from abovetight.moments import dist_rsat, moment_p
from abovetight.outcome import CapExceeded, RestrictionViolated, Verdict
from abovetight.rsat import (
    SUBCLAUSE_KEY_BUDGET,
    ExactCnfFormula,
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
    clause_constraints,
    edge_formulas,
    flip_walk_rsat,
    pair_counts,
    pair_walk_histogram,
    random_formula,
    rsat_scaled_x,
    walk,
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
    with pytest.raises(ValueError, match="nonnegative"):
        ExactCnfFormula(-1, 2, ())
    with pytest.raises(ValueError, match="sorted by variable"):
        ExactCnfFormula(2, 2, ((2, -1),))
    with pytest.raises(ValueError, match="cover all variables"):
        satisfied_count(ExactCnfFormula(2, 2, ((1, 2),)), [1])


@pytest.mark.parametrize(
    "n,r,clauses,message",
    [
        (2, 1, ((1,),), "clause width must be at least 2"),
        (-1, 2, ((1, 2),), "variable count must be nonnegative"),
        (3, 2, ((1, 2, 3),), "every clause must have exactly 2 literals"),
        (3, 2, ((1, -1),), "clause variables must be distinct"),
        (3, 2, ((2, -1),), "clause literals must be sorted by variable"),
        (2, 2, ((1, 3),), "literal out of range"),
        (2, 2, ((0, 1),), "literal out of range"),
        (2, 2, ((-3, 1),), "clause literals must be sorted by variable"),
        # Several faults: the first kind in the order width bound, variable
        # count, width, repeated variable, variable order, range is named,
        # whichever clause carries it.
        (3, 2, ((1, 5), (2, 1), (1, 2, 3)), "every clause must have exactly 2 literals"),
        (3, 3, ((1, 5, 6), (3, 2, 1), (1, 2, -2)), "clause variables must be distinct"),
        (3, 3, ((1, 2, 9), (-3, 2, 1)), "clause literals must be sorted by variable"),
    ],
)
def test_formula_constructor_names_the_first_fault_kind(n, r, clauses, message):
    with pytest.raises(ValueError) as info:
        ExactCnfFormula(n, r, clauses)
    assert str(info.value) == message
    if all(len(clause) == r for clause in clauses):
        with pytest.raises(ValueError) as info:
            ExactCnfFormula.from_columns(n, r, list(zip(*clauses)))
        assert str(info.value) == message


def test_formula_from_columns_is_the_formula_from_clauses():
    rng = random.Random(77)
    formulas = [random_formula(rng, rng.randint(2, 6), n_max=9, m_max=10) for _ in range(200)]
    for f in formulas + edge_formulas(rng):
        columns = list(zip(*f.clauses)) or [()] * f.r
        g = ExactCnfFormula.from_columns(f.n, f.r, columns)
        assert g == f and hash(g) == hash(f)
        assert ExactCnfFormula(g.n, g.r, g.clauses) == g


def pair_histogram(r: int, y: tuple[int, ...], z: tuple[int, ...]):
    """(C, S, Q) of the two-clause formula, checked against the all-pairs oracle."""
    n = max(abs(lit) for lit in y + z)
    f = ExactCnfFormula.from_clauses(n, r, [y, z])
    counts = overlap_histogram(f)
    assert counts == pair_counts(f, brute_overlap_histogram(f))
    return counts


# Pinned from the oracle's conflicts C and overlaps O: S = m + C + O, and
# Q = m(2^r - 1) - C + (2^t - 1) per ordered pair sharing t literals.
def test_pair_relation_conflict():
    assert pair_histogram(2, (1, 2), (-1, 3)) == (2, 4, 4)


def test_pair_relation_overlap():
    assert pair_histogram(2, (1, 2), (1, 3)) == (0, 4, 8)


def test_pair_relation_disjoint():
    assert pair_histogram(2, (1, 2), (3, 4)) == (0, 2, 6)


def test_pair_relation_conflict_wins_over_sharing():
    assert pair_histogram(3, (1, 2, 3), (1, 2, -3)) == (2, 4, 12)


def test_conflict_number_single_conflict_pair():
    f = ExactCnfFormula.from_clauses(3, 2, [(1, 2), (-1, 3)])
    assert overlap_histogram(f) == (2, 4, 4)
    assert conflict_number(f) == 2


def test_conflict_number_single_overlap_pair():
    f = ExactCnfFormula.from_clauses(3, 2, [(1, 2), (1, 3)])
    assert overlap_histogram(f) == (0, 4, 8)
    assert conflict_number(f) == -2


def test_conflict_number_complete_width_two():
    # Every ordered pair of distinct clauses conflicts, and X is identically 0.
    f = complete_formula(2)
    assert overlap_histogram(f) == (12, 16, 0)
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
        assert overlap_histogram(f) == pair_counts(f, brute_overlap_histogram(f))
        assert pair_walk_histogram(f) == brute_overlap_histogram(f)
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
        counts = overlap_histogram(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # C = 2 * 150 * 150 ordered pairs of opposite signs on variable 1; the
    # other 2 * 150 * 149 pairs of distinct clauses share one literal.
    conflicts, overlaps = 2 * 150 * 150, 2 * 150 * 149
    assert counts == (conflicts, 300 + conflicts + overlaps, 300 * 7 - conflicts + overlaps)
    assert peak < 1 << 20, "peak %d bytes" % peak


@st.composite
def pair_stat_formulas(draw):
    """Width 2-6 formulas over few variables: fresh clauses, duplicates, copies
    with several signs flipped, and (for a hub) variable 1 in every clause."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(r, r + 4))
    hub = draw(st.booleans())
    clauses: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "flipped"]) if clauses else st.just("fresh"))
        if kind == "fresh":
            others = draw(st.lists(st.integers(2, n), min_size=r - 1, max_size=r - 1, unique=True))
            first = 1 if hub else draw(st.integers(1, n).filter(lambda v: v not in others))
            signs = draw(st.lists(st.booleans(), min_size=r, max_size=r))
            clause = sorted([first] + others)
            clauses.append(tuple(v if sign else -v for v, sign in zip(clause, signs)))
            continue
        clause = draw(st.sampled_from(clauses))
        if kind == "flipped":
            flips = draw(st.lists(st.booleans(), min_size=r, max_size=r).filter(any))
            clause = tuple(-lit if flip else lit for lit, flip in zip(clause, flips))
        clauses.append(clause)
    return ExactCnfFormula(n, r, tuple(clauses))


@given(pair_stat_formulas())
@settings(max_examples=300, deadline=None)
def test_pair_counts_match_the_all_pairs_oracle_and_enumeration(f):
    conflicts, shared_counts = brute_overlap_histogram(f)
    counts = overlap_histogram(f)
    assert counts == pair_counts(f, (conflicts, shared_counts))
    assert conflict_number(f) == conflicts - sum(shared_counts.values())
    if f.clauses:
        assert Fraction(counts[2], 4**f.r) == moment_p(dist_rsat(f), 2)


def test_pair_counts_match_the_pair_walk_at_kernelize_sizes():
    # The benchmark's kernel formulas (three literals in four positive) and a
    # one-hot hub, where the all-pairs oracle is too slow.
    rng = random.Random(21)
    for n, m, r in ((1500, 4000, 2), (1000, 2000, 3), (700, 1500, 4)):
        clauses = [
            tuple(v if rng.random() < 0.75 else -v for v in sorted(rng.sample(range(1, n + 1), r)))
            for _ in range(m)
        ]
        f = ExactCnfFormula(n, r, tuple(clauses))
        assert overlap_histogram(f) == pair_counts(f, pair_walk_histogram(f))
    hub = [(rng.choice((1, -1)),) + tuple(sorted(rng.sample(range(2, 40), 2))) for _ in range(800)]
    f = ExactCnfFormula(40, 3, tuple(hub))
    assert overlap_histogram(f) == pair_counts(f, pair_walk_histogram(f))


def one_hot_formula(m: int) -> ExactCnfFormula:
    """m width-3 clauses that share only variable 1, with alternating signs on it."""
    clauses = tuple((1 if j % 2 else -1, 2 * j + 2, 2 * j + 3) for j in range(m))
    return ExactCnfFormula(2 * m + 1, 3, clauses)


def test_pair_counts_of_a_large_one_hot_formula_are_fast():
    # 30,000 clauses: 450,000,000 conflicting ordered pairs, every pair shares
    # variable 1, and the pair walk takes minutes.
    m = 30000
    f = one_hot_formula(m)
    started = time.perf_counter()
    counts = overlap_histogram(f)
    elapsed = time.perf_counter() - started
    conflicts = 2 * (m // 2) ** 2
    overlaps = m * (m - 1) - conflicts
    assert counts == (conflicts, m * m, 7 * m - conflicts + overlaps)
    assert elapsed < 2, elapsed


def test_wide_clauses_sharing_two_variables_stop_early(monkeypatch):
    # r = 16: clauses share at most their two hub variables, so no triple
    # repeats and sizes 4-16 are never counted.
    rng = random.Random(16)
    clauses = []
    for j in range(40):
        hubs = sorted(rng.sample(range(1, 5), 2))
        clause = hubs + list(range(5 + 14 * j, 19 + 14 * j))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in clause))
    f = ExactCnfFormula(4 + 14 * 40, 16, tuple(clauses))
    monkeypatch.setattr(rsat, "SUBCLAUSE_KEY_BUDGET", 40 * (120 + 560))
    assert overlap_histogram(f) == pair_counts(f, brute_overlap_histogram(f))


def test_sub_clause_keys_are_refused_past_the_budget():
    # A one-hot formula is charged the 3m keys of its variable pairs, which no
    # two clauses share, so it stops there.
    m = SUBCLAUSE_KEY_BUDGET // 3
    conflicts = 2 * (m // 2) * (m - m // 2)
    assert overlap_histogram(one_hot_formula(m))[:2] == (conflicts, m * m)
    message = "pair counts refused: %d sub-clause keys exceed cap %d" % (3 * m + 3, SUBCLAUSE_KEY_BUDGET)
    with pytest.raises(CapExceeded, match=message):
        overlap_histogram(one_hot_formula(m + 1))


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
        every = Counter(x_value_scaled(f, z) for z in itertools.product((0, 1), repeat=f.n))
        # Each assignment of the occurring variables extends to 2^(n - occurring) of these.
        free = f.n - len(f.occurring_variables())
        assert scaled_x_counts(f) == Counter({v: c >> free for v, c in every.items()})


def test_walk_yields_what_the_flip_walker_yields():
    rng = random.Random(78)
    formulas = [random_formula(rng, 2 + i % 6, n_max=9, m_max=10) for i in range(1500)]
    for f in formulas + edge_formulas(rng):
        variables = f.occurring_variables()
        m = len(f.clauses)
        scaled = [m - (u << f.r) for u in flip_walk_rsat(f, variables)]
        assert list(walk(len(variables), clause_constraints(f, variables))) == scaled


def test_bit_sliced_counter_matches_the_walker():
    rng = random.Random(78)
    formulas = [random_formula(rng, 2 + i % 6, n_max=9, m_max=10) for i in range(1500)]
    # 600 copies of one clause carry the count past 2^9; every assignment ties
    # on the complete formula.
    edges = [ExactCnfFormula(5, 2, ((-1, 3),) * 600 + ((2, -5),)), complete_formula(3, base=1)]
    for f in formulas + edge_formulas(rng) + edges:
        variables = f.occurring_variables()
        scan = list(walk(len(variables), clause_constraints(f, variables)))
        best_z, best = max(enumerate(scan), key=itemgetter(1))
        witness = [0] * f.n
        for p, v in enumerate(variables):
            witness[v - 1] = (best_z >> p) & 1
        assert solve_exact(f) == (best, tuple(witness))
        assert scaled_x_counts(f) == Counter(scan)


def test_solve_exact_at_twenty_variables_within_budget():
    rng = random.Random(20)
    s = random_formula(rng, 3, n_min=20, n_max=20, m_min=17, m_max=17)
    while len(s.occurring_variables()) < 20:
        s = random_formula(rng, 3, n_min=20, n_max=20, m_min=17, m_max=17)
    started = time.perf_counter()
    best, witness = solve_exact(s)
    elapsed = time.perf_counter() - started
    assert x_value_scaled(s, witness) == best
    assert elapsed < 1.0, "took %.2f s" % elapsed
    tracemalloc.start()
    try:
        solve_exact(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, "peak %.1f MB" % (peak / 2**20)


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
    conflicts, sharing, _ = overlap_histogram(f)
    # Off the diagonal, ordered pairs come two to an unordered one.
    assert conflicts % 2 == 0
    assert (sharing - len(f.clauses)) % 2 == 0
    brute_conflicts, shared_counts = brute_overlap_histogram(f)
    assert conflict_number(f) == brute_conflicts - sum(shared_counts.values())


def test_from_clauses_leaves_the_distinct_variable_check_to_the_constructor():
    for clause in ((1, 1), (2, -2)):
        with pytest.raises(ValueError, match="clause variables must be distinct"):
            ExactCnfFormula.from_clauses(2, 2, [clause])
