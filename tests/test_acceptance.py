"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one ``ACCEPTANCE <nn> PASS|FAIL`` line; all comparisons on
probabilities and moments are exact rational arithmetic.
"""

import random
import time
from fractions import Fraction

import pytest

from abovetight.instances import all_subsets_system, gen_instance, parse_instance
from abovetight.linord import (
    WeightedDigraph,
    decide_loalb,
    digraph_stats,
    exact_max_acyclic,
    reduce_two_cycles,
    solve_loalb_faithful,
    with_isolated,
    x_value,
)
from abovetight.maxlin import (
    CaseKind,
    Lin2System,
    decide_linalb,
    evaluate_x,
    merge_duplicates,
    occurrence_f,
    rank_reduce,
    solve_exact,
    system_stats,
)
from abovetight.moments import (
    dist_lin2,
    dist_linord,
    dist_rsat,
    moment_p,
    pairwise_second_moment,
    verify_fourth_moment_tail,
    verify_second_moment_claims,
    verify_symmetric_tail,
)
from abovetight.outcome import Verdict
from abovetight.rsat import ExactCnfFormula, decide_rsatalb

from helpers import (
    brute_decide_lin2,
    brute_decide_loalb,
    brute_max_forward_weight,
    brute_overlap_histogram,
    brute_pair_expectation,
    brute_patterns_lin2,
    occurrence_reduce,
    random_digraph,
    random_formula,
    random_lin2,
    random_lin2_bounded_occurrence,
    random_restricted_formula,
)


def _conclude(num: int, description: str, violations: list[str]) -> None:
    status = "PASS" if not violations else "FAIL"
    print("ACCEPTANCE %02d %s %s" % (num, status, description))
    assert not violations, "criterion %d: %s" % (num, "; ".join(violations[:5]))


def _checked_tail(violations: list[str], dist, b, label: str) -> None:
    check = verify_fourth_moment_tail(dist, b)
    if not check.preconditions_ok:
        violations.append("%s: precondition failed (%s)" % (label, check.failed_precondition))
    elif not check.holds:
        violations.append("%s: tail bound failed at b=%s" % (label, b))


@pytest.fixture(scope="module")
def oriented_corpus():
    rng = random.Random(0xA11CE)
    graphs = []
    for _ in range(200):
        g = random_digraph(rng, n_max=7, wmax=4, allow_two_cycles=False, n_min=2)
        graphs.append((g, dist_linord(g)))
    return graphs


def test_criterion_01_reduction_rule_soundness():
    started = time.perf_counter()
    violations: list[str] = []
    rng = random.Random(101)

    # Two-cycle cancellation.
    for i in range(500):
        g = random_digraph(rng, n_max=6, wmax=4)
        k = rng.randint(1, 3)
        if brute_decide_loalb(g, k) != brute_decide_loalb(reduce_two_cycles(g), k):
            violations.append("two-cycle rule, instance %d" % i)

    # Rank reduction.
    for i in range(500):
        s = random_lin2(rng, n_max=8, m_max=8, wmax=4)
        k = rng.randint(1, 3)
        if brute_decide_lin2(s, k) != brute_decide_lin2(rank_reduce(s).reduced, k):
            violations.append("rank rule, instance %d" % i)

    # Duplicate merging.
    for i in range(500):
        s = random_lin2(rng, n_max=10, m_max=12, wmax=3, r_max=4)
        k = rng.randint(1, 3)
        if brute_decide_lin2(s, k) != brute_decide_lin2(merge_duplicates(s), k):
            violations.append("merge rule, instance %d" % i)

    # Occurrence reduction. At these sizes the threshold f(k, r) >= 1024
    # keeps the rule silent, so the reduced system must be identical and
    # decisions trivially agree; exhaustive decisions are still run on a
    # subsample to exercise the pipeline.
    for i in range(500):
        s = merge_duplicates(random_lin2(rng, n_max=10, m_max=12, wmax=3, r_max=3))
        k = rng.randint(1, 3)
        reduced = occurrence_reduce(s, k, 3)
        if reduced != s:
            violations.append("occurrence rule fired unexpectedly on instance %d" % i)
        elif i % 25 == 0 and brute_decide_lin2(s, k) != brute_decide_lin2(reduced, k):
            violations.append("occurrence rule, instance %d" % i)

    # Occurrence reduction, firing regime: width-1 systems above the
    # 1024-equation threshold; both sides stay YES by the arity bound.
    for seed in range(8):
        sub = random.Random(seed)
        m = 1026 + sub.randint(0, 4)
        eqs = [((v,), sub.randint(0, 1), 1) for v in range(m)]
        s = Lin2System.from_tuples(m, eqs)
        reduced = occurrence_reduce(s, 1, 1)
        if len(reduced.equations) != occurrence_f(1, 1):
            violations.append("occurrence synthetic seed %d kept %d" % (seed, len(reduced.equations)))
        before = decide_linalb(s, 1, CaseKind.BOUNDED_ARITY).verdict
        after = decide_linalb(reduced, 1, CaseKind.BOUNDED_ARITY).verdict
        if before is not Verdict.YES_BY_BOUND or after is not Verdict.YES_BY_BOUND:
            violations.append("occurrence synthetic seed %d verdicts %s/%s" % (seed, before, after))

    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        violations.append("runtime %.1fs exceeds 2 minutes" % elapsed)
    _conclude(1, "reduction rules preserve exhaustive decisions (500 instances each)", violations)


def test_criterion_02_second_moment_lower_bound(oriented_corpus):
    started = time.perf_counter()
    violations: list[str] = []
    for i, (g, dist) in enumerate(oriented_corpus):
        st = digraph_stats(g)
        e2 = moment_p(dist, 2)
        if moment_p(dist, 1) != 0:
            violations.append("graph %d has nonzero mean" % i)
        if e2 < Fraction(st.W2, 12):
            violations.append("graph %d: E(X^2)=%s < W2/12=%s" % (i, e2, Fraction(st.W2, 12)))
    cycle = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    if moment_p(dist_linord(cycle), 2) != Fraction(1, 4):
        violations.append("3-cycle second moment is not exactly 1/4")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        violations.append("runtime %.1fs exceeds 1 minute" % elapsed)
    _conclude(2, "E(X^2) >= W2/12 on 200 oriented graphs, 3-cycle exactly 1/4", violations)


def test_criterion_03_symmetry_and_positive_tail(oriented_corpus):
    violations: list[str] = []
    for i, (_, dist) in enumerate(oriented_corpus):
        check = verify_symmetric_tail(dist)
        if not check.symmetric:
            violations.append("graph %d distribution is not symmetric" % i)
        elif not check.holds:
            violations.append("graph %d fails Prob(X >= sqrt(E(X^2))) > 0" % i)
    _conclude(3, "2X distribution symmetric with positive upper tail on every graph", violations)


def test_criterion_04_equation_moment_identities():
    violations: list[str] = []
    rng = random.Random(404)
    for i in range(200):
        s = merge_duplicates(random_lin2(rng, n_max=12, m_max=12, wmax=3, r_max=4))
        dist = dist_lin2(s)
        if moment_p(dist, 1) != 0:
            violations.append("system %d has nonzero mean" % i)
        if moment_p(dist, 2) != sum(eq.weight**2 for eq in s.equations):
            violations.append("system %d second moment differs from weight sum" % i)
    _conclude(4, "E(X)=0 and E(X^2)=sum w^2 on 200 merge-normalized systems", violations)


def test_criterion_05_fourth_moment_ratio_bounds():
    violations: list[str] = []
    rng = random.Random(505)
    for rho in (2, 3):
        for i in range(200):
            s = random_lin2_bounded_occurrence(rng, rho, n_max=14)
            dist = dist_lin2(s)
            e2 = moment_p(dist, 2)
            e4 = moment_p(dist, 4)
            if e4 > 2 * rho * rho * e2 * e2:
                violations.append("rho=%d instance %d breaks the ratio bound" % (rho, i))
            _checked_tail(violations, dist, Fraction(2 * rho * rho), "rho=%d #%d" % (rho, i))
    for r in (1, 2, 3):
        count = 0
        while count < 200:
            s = merge_duplicates(random_lin2(rng, n_max=14, m_max=14, wmax=3, r_max=r))
            if not s.equations or system_stats(s).r > r:
                continue
            count += 1
            dist = dist_lin2(s)
            e2 = moment_p(dist, 2)
            e4 = moment_p(dist, 4)
            if e4 > 2 ** (6 * r) * e2 * e2:
                violations.append("r=%d instance %d breaks the degree bound" % (r, count))
            _checked_tail(violations, dist, Fraction(2 ** (6 * r)), "r=%d #%d" % (r, count))
    _conclude(
        5,
        "E(X^4) <= 2 rho^2 E(X^2)^2 and E(X^4) <= 2^(6r) E(X^2)^2 on 200 systems each",
        violations,
    )


def test_criterion_06_tail_inequality_end_to_end(oriented_corpus):
    violations: list[str] = []
    rng = random.Random(606)
    dists = [dist for _, dist in oriented_corpus[:60]]
    for _ in range(60):
        dists.append(dist_lin2(merge_duplicates(random_lin2(rng, n_max=10, m_max=10))))
    for _ in range(60):
        dists.append(dist_rsat(random_formula(rng, rng.choice([2, 3]), n_max=9, m_max=9)))
    checked = 0
    for i, dist in enumerate(dists):
        e2 = moment_p(dist, 2)
        if moment_p(dist, 1) != 0 or e2 == 0:
            continue
        # The exact fourth-to-second moment ratio is the tightest b whose
        # preconditions hold; the tail bound must survive even there.
        ratio = moment_p(dist, 4) / (e2 * e2)
        _checked_tail(violations, dist, ratio, "dist %d at exact ratio" % i)
        _checked_tail(violations, dist, 4 * ratio, "dist %d at 4x ratio" % i)
        checked += 1
    if checked < 100:
        violations.append("only %d distributions had valid preconditions" % checked)
    _conclude(6, "(Prob * b)^3 * 256 >= 1 wherever the preconditions hold", violations)


def test_criterion_07_threshold_constants():
    violations: list[str] = []

    if occurrence_f(1, 2) != 65536:
        violations.append("f(1,2) != 65536")

    def check(label, got, want):
        if got is not want:
            violations.append("%s expected %s, got %s" % (label, want, got))

    # 12 k^2 for the digraph decider, both sides at k=1 and k=2.
    for k in (1, 2):
        thr = 12 * k * k
        at = WeightedDigraph.from_arcs(thr + 1, [(0, i + 1, 1) for i in range(thr)])
        below = WeightedDigraph.from_arcs(thr, [(0, i + 1, 1) for i in range(thr - 1)])
        check("loalb k=%d at threshold" % k, decide_loalb(at, k).verdict, Verdict.YES_BY_BOUND)
        out = decide_loalb(below, k)
        if out.verdict is Verdict.YES_BY_BOUND:
            violations.append("loalb k=%d below threshold still bound-certified" % k)

    # 4 k^2 for the odd-set case.
    for k in (1, 2):
        thr = 4 * k * k
        eqs_at = [((v,), 1, 1) for v in range(thr)]
        eqs_below = [((v,), 1, 1) for v in range(thr - 1)]
        at = decide_linalb(Lin2System.from_tuples(thr, eqs_at), k, CaseKind.ODD_SET)
        below = decide_linalb(Lin2System.from_tuples(thr - 1, eqs_below), k, CaseKind.ODD_SET)
        check("odd-set k=%d at threshold" % k, at.verdict, Verdict.YES_BY_BOUND)
        if below.verdict is Verdict.YES_BY_BOUND:
            violations.append("odd-set k=%d below threshold still bound-certified" % k)

    # 16 (2k-1)^2 64^r for the arity case, exercised at r=1, k=1 (1024).
    eqs = [((v,), 0, 1) for v in range(1024)]
    at = decide_linalb(Lin2System.from_tuples(1024, eqs), 1, CaseKind.BOUNDED_ARITY)
    check("arity r=1 at threshold", at.verdict, Verdict.YES_BY_BOUND)
    below = decide_linalb(Lin2System.from_tuples(1023, eqs[:1023]), 1, CaseKind.BOUNDED_ARITY)
    check("arity r=1 below threshold", below.verdict, Verdict.KERNEL)
    if below.diagnostics.get("m_threshold") != 1024:
        violations.append("arity threshold not echoed")

    # 32 rho^2 (2k-1)^2 for the occurrence case (chains keep rho = 2).
    for k, rho in ((1, 2), (2, 2)):
        thr = 32 * rho * rho * (2 * k - 1) ** 2
        chain_at = [((v, v + 1), 1, 1) for v in range(thr)]
        chain_below = chain_at[:-1]
        at = decide_linalb(
            Lin2System.from_tuples(thr + 1, chain_at), k, CaseKind.BOUNDED_OCCURRENCE
        )
        below = decide_linalb(
            Lin2System.from_tuples(thr + 1, chain_below), k, CaseKind.BOUNDED_OCCURRENCE
        )
        check("occurrence k=%d at threshold" % k, at.verdict, Verdict.YES_BY_BOUND)
        if below.verdict is Verdict.YES_BY_BOUND:
            violations.append("occurrence k=%d below threshold still bound-certified" % k)

    # 16 * 64^r * k_num^2 for formulas: r=2, k_num=1 gives 65536 clauses.
    thr = 16 * 64**2
    clauses_at = [(2 * i + 1, 2 * i + 2) for i in range(thr)]
    f_at = ExactCnfFormula(2 * thr, 2, tuple(clauses_at))
    out_at = decide_rsatalb(f_at, 1)
    check("rsat r=2 at threshold", out_at.verdict, Verdict.YES_BY_BOUND)
    f_below = ExactCnfFormula(2 * thr, 2, tuple(clauses_at[:-1]))
    out_below = decide_rsatalb(f_below, 1)
    check("rsat r=2 below threshold", out_below.verdict, Verdict.KERNEL)
    if out_at.diagnostics.get("m_threshold") != 65536:
        violations.append("rsat threshold not echoed")

    _conclude(7, "kernel thresholds exact on both sides of each boundary", violations)


def pair_closed_form(f: ExactCnfFormula) -> Fraction:
    """E(X_Y X_Z) of a two-clause formula from its pair counts: -4^-r for a
    conflict, (2^t - 1)/4^r for t shared literals, 0 for disjoint clauses.
    The counts come from the all-pairs oracle."""
    conflicts, shared_counts = brute_overlap_histogram(f)
    terms = -conflicts + sum(c * (2**t - 1) for t, c in shared_counts.items())
    return Fraction(terms, 2 * 4**f.r)


def test_criterion_08_pairwise_terms_and_formula_bound():
    violations: list[str] = []
    rng = random.Random(808)
    for r in (2, 3):
        for i in range(40):
            n = rng.randint(r, min(2 * r + 2, 8))

            def clause():
                chosen = rng.sample(range(1, n + 1), r)
                return tuple(
                    sorted((v if rng.random() < 0.5 else -v for v in chosen), key=abs)
                )

            y, z = clause(), clause()
            expected = brute_pair_expectation(y, z, r)
            want = pair_closed_form(ExactCnfFormula(n, r, (y, z)))
            if expected != want:
                violations.append("r=%d pair %d: %s != %s" % (r, i, expected, want))
    for i in range(100):
        f = random_restricted_formula(rng, rng.choice([2, 3]), n_max=10, m_max=10)
        claim = verify_second_moment_claims(f, dist_rsat(f))
        if not claim.holds:
            violations.append("formula %d fails bound or decomposition" % i)
        if claim.e2 != pairwise_second_moment(f):
            violations.append("formula %d decomposition mismatch" % i)
    _conclude(8, "pairwise expectations exact; E(X^2) >= m/4^r on 100 formulas", violations)


def test_criterion_09_tight_families_decide_no():
    violations: list[str] = []
    for seed in range(6):
        g = parse_instance(gen_instance("symmetric-digraph", seed=seed, n=4 + seed % 3).text)
        if decide_loalb(g, 1).verdict is not Verdict.NO:
            violations.append("symmetric digraph seed %d not NO" % seed)
    for seed in range(6):
        s = parse_instance(
            gen_instance("cancelling-pairs-lin2", seed=seed, n=4 + seed % 3).text
        )
        if decide_linalb(s, 1, CaseKind.GENERAL).verdict is not Verdict.NO:
            violations.append("cancelling pairs seed %d not NO" % seed)
    for r in (2, 3, 4):
        f = parse_instance(gen_instance("complete-rcnf", r=r).text)
        if decide_rsatalb(f, 1, diagnostic=True).verdict is not Verdict.NO:
            violations.append("complete r=%d not NO" % r)
        f2 = parse_instance(gen_instance("disjoint-complete-rcnf", r=r, blocks=2).text)
        if decide_rsatalb(f2, 1, diagnostic=True).verdict is not Verdict.NO:
            violations.append("disjoint complete r=%d not NO" % r)
    _conclude(9, "all tight families decide NO at the smallest parameter", violations)


def test_criterion_10_faithful_lifting():
    violations: list[str] = []
    rng = random.Random(1010)

    # Degree-based deletions on digraphs: instances dense enough that the
    # deletion rule fires at k=1.
    hits = 0
    while hits < 50:
        g = random_digraph(rng, n_max=12, n_min=9, wmax=2, allow_two_cycles=False, density=0.35)
        st = digraph_stats(g)
        if st.arc_count < 14:
            continue
        degrees = {}
        for u, v, _ in g.arcs:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        if st.arc_count - 12 < min(degrees.values()):
            continue  # the deletion rule would stay silent
        hits += 1
        order = solve_loalb_faithful(g, 1)
        if order is None:
            violations.append("digraph %d declared NO despite the bound" % hits)
            continue
        doubled = x_value(g, order)
        if doubled < 2:
            violations.append("digraph %d lifted order misses the target" % hits)
        optimum, _ = exact_max_acyclic(g)
        if (doubled + st.W) // 2 > optimum:
            violations.append("digraph %d lifted order beats the optimum" % hits)

    # Variable elimination on equation systems: instances with redundant
    # columns, so the rank rule genuinely fires.
    hits = 0
    while hits < 50:
        s = random_lin2(rng, n_max=7, m_max=6, wmax=3, n_min=3)
        reduction = rank_reduce(merge_duplicates(s))
        if reduction.reduced.n >= s.n:
            continue
        out = decide_linalb(s, 1, CaseKind.GENERAL)
        if out.verdict is not Verdict.YES_WITNESS:
            continue
        hits += 1
        achieved = evaluate_x(s, out.witness)
        if achieved < 2:
            violations.append("system %d lifted witness misses the target" % hits)
        best, _ = solve_exact(s)
        if achieved > best:
            violations.append("system %d lifted witness beats the optimum" % hits)

    # Occurrence-based equation removal: width-1 systems where the optimum
    # of both sides is analytic (every equation individually satisfiable).
    for seed in range(20):
        sub = random.Random(9000 + seed)
        m = 1026 + sub.randint(0, 3)
        eqs = [((v,), sub.randint(0, 1), sub.randint(1, 2)) for v in range(m)]
        s = Lin2System.from_tuples(m, eqs)
        reduced = occurrence_reduce(s, 1, 1)
        kept = {eq.variables[0] for eq in reduced.equations}
        witness = [0] * s.n
        for eq in reduced.equations:
            witness[eq.variables[0]] = eq.rhs
        if evaluate_x(reduced, witness) < 2:
            violations.append("seed %d reduced witness misses the target" % seed)
        lifted_x = evaluate_x(s, witness)
        if lifted_x < 2:
            violations.append("seed %d zero-padded witness misses the target" % seed)
        if lifted_x > sum(eq.weight for eq in s.equations):
            violations.append("seed %d witness beats the analytic optimum" % seed)
        if any(witness[v] for v in range(s.n) if v not in kept):
            violations.append("seed %d lift touched a removed variable" % seed)

    _conclude(10, "lifted witnesses hit the target and respect the optimum (120 runs)", violations)


def test_criterion_11_solver_oracle_equivalence():
    violations: list[str] = []
    rng = random.Random(1111)
    for i in range(100):
        g = random_digraph(rng, n_max=8, wmax=4, allow_two_cycles=True, density=0.4)
        value, order = exact_max_acyclic(g)
        brute = brute_max_forward_weight(g)
        if value != brute:
            violations.append("graph %d: DP %d != brute %d" % (i, value, brute))
        total = sum(w for _, _, w in g.arcs)
        if 2 * value - total != x_value(g, with_isolated(order, g.n)):
            violations.append("graph %d: order does not attain the optimum" % i)
    _conclude(11, "subset DP equals permutation enumeration on 100 digraphs", violations)


def test_criterion_12_pattern_equivalence():
    violations: list[str] = []
    rng = random.Random(1212)
    for i in range(100):
        s = random_lin2(rng, n_max=8, m_max=8, wmax=2)
        reduction = rank_reduce(s)
        if brute_patterns_lin2(s) != brute_patterns_lin2(reduction.reduced):
            violations.append("system %d pattern sets differ" % i)
    _conclude(12, "satisfaction patterns identical before/after rank reduction", violations)


def test_criterion_13_all_subsets_family():
    started = time.perf_counter()
    violations: list[str] = []
    for n in (3, 4, 5):
        s = all_subsets_system(n)
        dist = dist_lin2(s)
        e2 = moment_p(dist, 2)
        e4 = moment_p(dist, 4)
        if e2 != (1 << n) - 1:
            violations.append("n=%d second moment is not m" % n)
        if not 512 * e4 > e2**3:
            violations.append("n=%d fails 512 E(X^4) > E(X^2)^3" % n)
    elapsed = time.perf_counter() - started
    if elapsed >= 10:
        violations.append("runtime %.1fs exceeds 10 seconds" % elapsed)
    _conclude(13, "512 E(X^4) > E(X^2)^3 for the all-subsets family, n in 3..5", violations)
