import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from abovetight.linord import WeightedDigraph, digraph_stats
from abovetight.maxlin import Lin2System, merge_duplicates, system_stats
from abovetight.moments import (
    ExactDistribution,
    all_subsets_system,
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
from abovetight.rsat import ExactCnfFormula, overlap_histogram

from helpers import (
    brute_dist_linord,
    brute_pair_expectation,
    random_digraph,
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
    with pytest.raises(CapExceeded):
        dist_linord(WeightedDigraph(10, ()), cap=9)


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


def test_dist_lin2_examples():
    d = dist_lin2(Lin2System.from_tuples(1, [((0,), 0, 2)]))
    assert d.mass == ((-2, 1), (2, 1))
    d = dist_lin2(Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)]))
    assert d.mass == ((-3, 1), (-1, 1), (1, 1), (3, 1))
    d = dist_lin2(Lin2System(0, ()))
    assert d.mass == ((0, 1),) and d.total == 1


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
            conflicts, shared_counts = overlap_histogram(ExactCnfFormula(n, r, (y, z)))
            if conflicts:
                assert (conflicts, shared_counts) == (2, Counter())
                assert expected == Fraction(-1, 4**r)
            elif not shared_counts:
                assert expected == 0
            else:
                [(t, count)] = shared_counts.items()
                assert count == 2
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


def test_distribution_validation():
    with pytest.raises(ValueError):
        ExactDistribution(scale=1, mass=((0, 1),), total=2)
    with pytest.raises(ValueError):
        ExactDistribution(scale=0, mass=((0, 1),), total=1)
    with pytest.raises(ValueError):
        ExactDistribution(scale=1, mass=((1, 1), (0, 1)), total=2)
