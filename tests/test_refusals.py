"""The verdict step after every decider's exact solve.

A KERNEL record echoes the limit that refused the solve and the count that
passed it; otherwise a best value at the target is YES and one below it NO.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import abovetight
from abovetight import gf2
from abovetight.linord import WeightedDigraph, decide_fas_below, decide_loalb, reduce_two_cycles
from abovetight.maxlin import CaseKind, Lin2System, decide_linalb
from abovetight.outcome import WITNESS_BUDGET, Verdict
from abovetight.rsat import ExactCnfFormula, decide_rsatalb
from helpers import (
    brute_best_scaled_rsat,
    brute_best_x_lin2,
    brute_max_forward_weight,
    hostile_case,
    lin2_x,
    order_balance,
    random_digraph,
    random_lin2,
    random_restricted_formula,
    rsat_scaled_x,
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
    "loalb": (digraph_case, lambda g, target: decide_loalb(g, target // 2), order_balance, 2),
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


# Runs each call of a JSON list under a 512 MiB address-space limit; an exception
# escaping cli.run is reported as the verdict ESCAPED, with its repr as the error.
CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from abovetight.cli import run

def call(argv):
    try:
        result = run(argv)
    except Exception as exc:
        return ["ESCAPED", repr(exc), None]
    return [result.verdict, result.error, result.time_ms]

print(json.dumps([call(argv) for argv in json.loads(sys.argv[1])]))
"""
# What cli.run may answer: the deciders' four verdicts, and OK, REFUSED and ERROR.
VERDICTS = {*(v.value for v in Verdict), "OK", "REFUSED", "ERROR"}


def run_limited(tmp_path: Path, calls: list[list[str]]) -> list[list]:
    """Each call's verdict, error and time_ms from ``cli.run``, all run in one child.

    The child runs under a 512 MiB address-space limit and a timeout, so a
    call that allocates per declared item or per equation pair fails this
    test alone; an exception escaping ``cli.run`` comes back as the verdict
    ``ESCAPED``.
    """
    src = str(Path(abovetight.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_hostile_inputs_get_a_verdict_fast_and_raise_nothing(tmp_path):
    # Generated instances with one to three mutations from helpers.HOSTILE_MUTATIONS:
    # declared sizes past every budget, huge weights, records duplicated, shuffled or
    # cut, bad tokens, clauses of width 20-200, blank and comment lines, indented
    # records; each run by a random command under a random --cap.
    rng = random.Random(3737)
    calls = []
    for i in range(300):
        text, command, flags = hostile_case(rng)
        path = tmp_path / ("case-%d.txt" % i)
        path.write_text(text)
        calls.append([command, str(path), *flags])
    results = run_limited(tmp_path, calls)
    for argv, (verdict, error, time_ms) in zip(calls, results):
        assert verdict in VERDICTS, (argv, verdict, error)
        assert time_ms < 10_000, (argv, time_ms)
    # The mutations leave most cases an ERROR, but enough reach the deciders' verdicts.
    assert len(Counter(verdict for verdict, _, _ in results)) >= 6


def test_an_estimate_past_the_float_range_is_an_error(tmp_path):
    # A lin2 weight of 10^80 overflows X^4, one of 10^400 X itself, a digraph arc of
    # 10^400 the halved balance, and a weight of 10^77 the sum of X^4 = 10^308 over
    # the samples; each is an ERROR naming the estimate.
    calls = []
    overflowing = ("p lin2 2 1\ne %d 1 1 2\n" % 10**80, "p lin2 2 1\ne %d 1 1\n" % 10**400)
    overflowing += ("p digraph 3 2\na 1 2 %d\na 2 3 1\n" % 10**400, "p lin2 1 1\ne %d 0 1\n" % 10**77)
    for i, text in enumerate(overflowing):
        path = tmp_path / ("overflow-%d.txt" % i)
        path.write_text(text)
        calls.append(["moments", str(path), "--estimate", "10"])
    # Hostile texts of every dialect, each estimated whatever command it was drawn with.
    rng = random.Random(6007)
    for i in range(100):
        path = tmp_path / ("case-%d.txt" % i)
        path.write_text(hostile_case(rng)[0])
        calls.append(["moments", str(path), "--estimate", "20"])
    results = run_limited(tmp_path, calls)
    for verdict, error, _ in results[:4]:
        assert verdict == "ERROR" and error.startswith("estimate refused: "), (verdict, error)
    for argv, (verdict, error, time_ms) in zip(calls, results):
        assert verdict in ("OK", "ERROR"), (argv, verdict, error)
        assert time_ms < 10_000, (argv, time_ms)
    assert Counter(verdict for verdict, _, _ in results[4:])["OK"] >= 20


def test_a_witness_past_the_budget_is_refused_before_it_is_built(tmp_path):
    # A YES of three records under a header declaring more than WITNESS_BUDGET
    # vertices or variables: an ERROR naming the budget, fast, for each decider.
    calls = []
    for n in (WITNESS_BUDGET + 1, 10**9, 10**18):
        cases = {
            "loalb": ("p digraph %d 3\na 1 2 2\na 2 3 1\na 3 1 1\n", ["--k", "1"]),
            "linalb": ("p lin2 %d 2\ne 1 0 1\ne 1 1 2\n", ["--k", "1"]),
            "rsat": ("p ecnf %d 2 2\n1 2 0\n3 4 0\n", ["--k-num", "1"]),
        }
        for command, (text, flags) in cases.items():
            path = tmp_path / ("%s-%d.txt" % (command, n))
            path.write_text(text % n)
            calls.append([command, str(path), *flags])
    results = run_limited(tmp_path, calls)
    for argv, (verdict, error, time_ms) in zip(calls, results):
        n = int(Path(argv[1]).read_text().split()[2])
        assert verdict == "ERROR", (argv, verdict)
        assert error == "witness refused: %d declared vertices or variables exceed cap %d" % (n, WITNESS_BUDGET)
        assert time_ms < 1000, (argv, time_ms)


def test_an_elimination_past_its_budget_is_refused_before_it_allocates(tmp_path):
    # 70,000 and 100,000 two-variable equations in a path: the columns and the echelon
    # would hold 4.9 and 10 * 10^9 bits, past the budget and the child's 512 MiB, so the
    # odd-set search refuses them. The refusal adds under a second to the call that the
    # arity bound settles without an elimination, which reads the same file.
    # Single-variable equations are unit rows, set aside before any column is built, so
    # 20,000, 60,000 and 100,000 of them are settled by the odd set's bound.
    calls = []
    for singles in (20_000, 60_000, 100_000):
        path = tmp_path / ("singles-%d.txt" % singles)
        body = "".join("e 1 1 %d\n" % v for v in range(1, singles + 1))
        path.write_text("p lin2 %d %d\n" % (singles, singles) + body)
        calls.append(["linalb", str(path), "--k", "1"])
    paths = (70_000, 100_000)
    for m in paths:
        path = tmp_path / ("path-%d.txt" % m)
        path.write_text("p lin2 %d %d\n" % (m + 1, m) + "".join("e 1 1 %d %d\n" % (v, v + 1) for v in range(1, m + 1)))
        calls += [["linalb", str(path), "--k", "1"], ["linalb", str(path), "--k", "1", "--case", "arity"]]
    results = run_limited(tmp_path, calls)
    assert [verdict for verdict, _, _ in results[:3]] == ["YES_BY_BOUND"] * 3
    for m, (refused, error, time_ms), (bound, _, bound_ms) in zip(paths, results[3::2], results[4::2]):
        # Each variable's column reaches the last equation holding it; the terms take rank(rank + 1)/2.
        bits = (m + 1) + sum(range(1, m)) + (m - 1) + m * (m + 1) // 2
        assert refused == "ERROR" and error == "elimination refused: %d bits exceed cap %d" % (
            bits, gf2.ELIMINATION_BUDGET_BITS
        )
        assert bound == "YES_BY_BOUND" and time_ms - bound_ms < 1000, (m, time_ms, bound_ms)
