"""The verdict step after every decider's exact solve.

A KERNEL record echoes the limit that refused the solve and the count that
passed it; otherwise a best value at the target is YES and one below it NO.
"""

import random

import pytest

from abovetight import gf2
from abovetight.linord import WeightedDigraph, decide_fas_below, decide_loalb, reduce_two_cycles
from abovetight.maxlin import CaseKind, Lin2System, decide_linalb
from abovetight.outcome import Verdict
from abovetight.rsat import ExactCnfFormula, decide_rsatalb
from helpers import (
    brute_best_scaled_rsat,
    brute_best_x_lin2,
    brute_max_forward_weight,
    lin2_x,
    random_digraph,
    random_lin2,
    random_restricted_formula,
    rsat_scaled_x,
    witness_balance,
)

# A 3-cycle of unit arcs: W2 = 3 < 12, so all 3 vertices are solved exactly.
CYCLE = WeightedDigraph.from_arcs(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
# Rank 3 and W = 3: 2 slices of 2^3 bits, 16 counter bits.
SYSTEM = Lin2System.from_tuples(3, [((0,), 0, 1), ((1,), 1, 1), ((2,), 0, 1)])
# 6 occurring variables and m = 3: 2 slices of 2^6 bits, 128 counter bits.
FORMULA = ExactCnfFormula.from_clauses(6, 2, [(1, 2), (3, 4), (5, 6)])

DECIDERS = {
    "loalb": lambda **cap: decide_loalb(CYCLE, 1, **cap),
    "fas": lambda **cap: decide_fas_below(CYCLE, 1, **cap),
    "linalb": lambda **cap: decide_linalb(SYSTEM, 1, CaseKind.GENERAL, **cap),
    "rsat": lambda **cap: decide_rsatalb(FORMULA, 1, **cap),
}


@pytest.mark.parametrize(
    "decider, limit, count, needed",
    [
        ("loalb", "cap", "kernel_vertices", 3),
        ("fas", "cap", "kernel_vertices", 3),
        ("linalb", "cap", "kernel_vars", 3),
        ("linalb", "counter_cap", "counter_bits", 16),
        ("rsat", "cap", "kernel_vars", 6),
        ("rsat", "counter_cap", "counter_bits", 128),
    ],
)
def test_each_refusal_reports_its_limit_and_count(monkeypatch, decider, limit, count, needed):
    decide = DECIDERS[decider]

    def decide_within(allowed):
        """The decision with the cap, or the count budget in bytes, set to ``allowed``."""
        if limit == "cap":
            return decide(cap=allowed)
        monkeypatch.setattr(gf2, "COUNT_BUDGET_BYTES", allowed)
        return decide()

    # The count budget is whole bytes, and each case needs a whole number of them.
    enough, step = (needed, 1) if limit == "cap" else (needed // 8, 8)
    assert enough * step == needed
    out = decide_within(enough - 1)
    assert out.verdict is Verdict.KERNEL
    other = "counter_bits" if limit == "cap" else "cap"
    assert {limit: needed - step, count: needed} == {key: out.diagnostics[key] for key in (limit, count)}
    assert other not in out.diagnostics
    # Either refusal of a lin2 or rsat solve names the variables it would have scanned.
    assert out.diagnostics.get("kernel_vars") == {"linalb": 3, "rsat": 6}.get(decider)
    assert decide_within(enough).verdict is not Verdict.KERNEL


def digraph_case(rng: random.Random):
    """A digraph and its best 2X, if that is a target 2k under the W2 bound 12k^2."""
    g = random_digraph(rng)
    best = 2 * brute_max_forward_weight(g) - sum(g.weights)
    w2 = sum(w * w for w in reduce_two_cycles(g).weights)
    # 2k = best puts the bound 12k^2 at 3 best^2.
    return (g, best) if best >= 2 and best % 2 == 0 and w2 < 3 * best * best else None


def system_case(rng: random.Random):
    """A lin2 system and its best X, if that is a target 2k; the general case has no bound."""
    s = random_lin2(rng)
    best = brute_best_x_lin2(s)
    return (s, best) if best >= 2 and best % 2 == 0 else None


def formula_case(rng: random.Random):
    """A restricted formula and its best scaled X, if positive; the bound 16 * 64^r passes every m drawn."""
    f = random_restricted_formula(rng, rng.choice((2, 3)))
    best = brute_best_scaled_rsat(f)
    return (f, best) if best >= 1 else None


TIES = {
    # A draw, the decision at a target, the oracle's score of a witness, and the step between targets.
    "loalb": (
        digraph_case,
        lambda g, target: decide_loalb(g, target // 2),
        lambda g, order: witness_balance(g, [v + 1 for v in order.vertices]),
        2,
    ),
    "linalb": (system_case, lambda s, target: decide_linalb(s, target // 2, CaseKind.GENERAL), lin2_x, 2),
    "rsat": (formula_case, decide_rsatalb, rsat_scaled_x, 1),
}


@pytest.mark.parametrize("decider", sorted(TIES))
def test_a_best_value_at_the_target_is_yes_and_one_step_past_it_no(decider):
    draw, decide, score, step = TIES[decider]
    rng = random.Random(25)
    cases = list(filter(None, (draw(rng) for _ in range(60))))
    assert len(cases) >= 10
    for instance, best in cases:
        at = decide(instance, best)
        assert at.verdict is Verdict.YES_WITNESS
        assert score(instance, at.witness) == best
        assert decide(instance, best + step).verdict is Verdict.NO
