"""Every decider's KERNEL record echoes the limit that refused its exact solve, and the count that passed it."""

import pytest

from abovetight import gf2
from abovetight.linord import WeightedDigraph, decide_fas_below, decide_loalb
from abovetight.maxlin import CaseKind, Lin2System, decide_linalb
from abovetight.outcome import Verdict
from abovetight.rsat import ExactCnfFormula, decide_rsatalb

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
    assert decide_within(enough).verdict is not Verdict.KERNEL
