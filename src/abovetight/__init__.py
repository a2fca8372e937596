"""Kernelization, exact solving and moment verification for three problems
parameterized above tight lower bounds: maximum acyclic subdigraph weight
above W/2, weighted GF(2) equation satisfaction above W/2, and exact-width
CNF satisfaction above (1 - 2^-r)m."""

from .gf2 import echelon, solve_affine
from .instances import all_subsets_system
from .linord import (
    DigraphStats,
    LinearOrder,
    WeightedDigraph,
    decide_fas_below,
    decide_loalb,
    digraph_stats,
    exact_max_acyclic,
    reduce_two_cycles,
    solve_loalb_faithful,
    x_value,
)
from .maxlin import (
    CaseKind,
    Lin2Equation,
    Lin2System,
    RankReduction,
    SystemStats,
    decide_linalb,
    evaluate_x,
    find_odd_set,
    lift_assignment,
    merge_duplicates,
    rank_reduce,
    system_stats,
)
from .moments import (
    ExactDistribution,
    MomentReport,
    dist_lin2,
    dist_linord,
    dist_rsat,
    moment_p,
    moment_report,
    verify_fourth_moment_tail,
    verify_second_moment_claims,
    verify_symmetric_tail,
)
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated, Verdict
from .rsat import ExactCnfFormula, conflict_number, decide_rsatalb, x_value_scaled

__version__ = "0.1.0"
