import argparse
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import abovetight
from abovetight import cli, maxlin, moments, rsat
from abovetight.cli import _PARSER, main, run
from abovetight.instances import GENERATOR_KINDS, gen_instance

THREE_CYCLE = "p digraph 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n"
SINGLE_ARC = "p digraph 2 1\na 1 2 2\n"
ODD_SET_FOUR = "p lin2 4 4\ne 1 1 1\ne 1 1 2\ne 1 1 3\ne 1 1 4\n"
SINGLE_CLAUSE = "p ecnf 2 1 2\n1 2 0\n"
COMPLETE_R2 = "p ecnf 2 4 2\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
# The all-positive width-3 chain on 28 variables: clause i holds variables i+1..i+3.
# Its counter needs 5 slices of 2^28 bits, 1,342,177,280 bits, past the count budget.
F28 = "p ecnf 28 26 3\n" + "".join("%d %d %d 0\n" % (i + 1, i + 2, i + 3) for i in range(26))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_loalb_three_cycle_is_no(tmp_path):
    result = run(["loalb", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1"])
    assert result.verdict == "NO"
    assert result.exit_code == 0
    assert result.diagnostics["w2_threshold"] == 12


def test_loalb_witness_output(tmp_path):
    result = run(["loalb", write(tmp_path, "g.txt", SINGLE_ARC), "--k", "1"])
    assert result.verdict == "YES_WITNESS"
    assert result.witness == [1, 2]


def test_fas_three_cycle_is_no(tmp_path):
    result = run(["fas", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1"])
    assert result.verdict == "NO"


def test_linalb_odd_set_bound(tmp_path):
    result = run(
        ["linalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1", "--case", "odd-set"]
    )
    assert result.verdict == "YES_BY_BOUND"
    assert result.diagnostics["m_threshold"] == 4


def test_linalb_auto_case(tmp_path):
    result = run(["linalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1"])
    assert result.verdict == "YES_BY_BOUND"
    assert result.diagnostics["case"] == "odd-set"


def test_rsat_single_clause(tmp_path):
    result = run(["rsat", write(tmp_path, "f.txt", SINGLE_CLAUSE), "--k-num", "1"])
    assert result.verdict == "YES_WITNESS"
    assert list(result.witness) == [1, 0]


def test_rsat_refusal_exit_code(tmp_path):
    path = write(tmp_path, "f.txt", COMPLETE_R2)
    result = run(["rsat", path, "--k-num", "1"])
    assert result.verdict == "REFUSED"
    assert result.exit_code == 2
    assert "conflict number" in result.error

    diagnostic = run(["rsat", path, "--k-num", "1", "--diagnostic"])
    assert diagnostic.verdict == "NO"
    assert diagnostic.exit_code == 0


def test_missing_file_is_error():
    result = run(["loalb", "/nonexistent/file.txt", "--k", "1"])
    assert result.verdict == "ERROR"
    assert result.exit_code == 2


def test_wrong_format_is_error(tmp_path):
    result = run(["loalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1"])
    assert result.verdict == "ERROR"


def test_emit_writes_json(tmp_path):
    out = tmp_path / "result.json"
    run(
        [
            "loalb",
            write(tmp_path, "g.txt", SINGLE_ARC),
            "--k",
            "1",
            "--emit",
            str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "YES_WITNESS"
    assert payload["witness"] == [1, 2]
    assert payload["diagnostics"]["k"] == 1


def test_moments_emit_keeps_booleans_and_writes_fractions_as_strings(tmp_path):
    out = tmp_path / "result.json"
    run(["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--emit", str(out)])
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert type(diagnostics["symmetric"]) is bool
    assert isinstance(diagnostics["e2"], str)


def test_kernel_verdict_via_cap(tmp_path):
    text = "p digraph 9 8\n" + "".join("a %d %d 1\n" % (i, i + 1) for i in range(1, 9))
    result = run(["loalb", write(tmp_path, "g.txt", text), "--k", "1", "--cap", "4"])
    assert result.verdict == "KERNEL"
    assert result.kernel == {"n": 9, "arcs": 8}


def test_moments_command_reports_exact_values(tmp_path):
    result = run(["moments", write(tmp_path, "g.txt", THREE_CYCLE)])
    assert result.verdict == "OK"
    assert result.diagnostics["e2"] == 0.25 or str(result.diagnostics["e2"]) == "1/4"
    assert result.diagnostics["symmetric"] is True
    assert result.diagnostics["second_moment_holds"] is True


def test_moments_command_tail_flag(tmp_path):
    result = run(["moments", write(tmp_path, "s.txt", ODD_SET_FOUR), "--b", "64"])
    assert result.verdict == "OK"
    assert result.diagnostics["tail_holds"] is True
    # With no equations X is 0 everywhere, so the tail check does not apply.
    result = run(["moments", write(tmp_path, "e.txt", "p lin2 3 0\n"), "--b", "64"])
    assert result.verdict == "OK"
    assert result.diagnostics["tail_skipped"] == "E(X^2) is zero"
    assert "tail_holds" not in result.diagnostics


def test_moments_command_estimate(tmp_path):
    result = run(
        ["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--estimate", "200", "--seed", "3"]
    )
    assert result.verdict == "OK"
    assert result.diagnostics["estimate"] is True


def test_moments_estimate_cost_follows_the_equations_not_the_header(tmp_path):
    # Each header declares 10^6 variables or vertices. Two unit equations on
    # four of them: X is the sum of two independent signs, so E(X^2) = 2. One
    # 2-clause: X is 1/4 or -3/4 at odds 3:1, so E(X^2) = 3/16. One unit arc:
    # X is +-1/2, so E(X^2) = 1/4.
    n = 1_000_000
    cases = [
        ("p lin2 %d 2\ne 1 1 1 %d\ne 1 1 %d %d\n" % (n, n // 2, n - 1, n), 2),
        ("p ecnf %d 1 2\n1 -%d 0\n" % (n, n), 3 / 16),
        ("p digraph %d 1\na %d 1 1\n" % (n, n), 1 / 4),
    ]
    for i, (text, e2) in enumerate(cases):
        path = write(tmp_path, "in%d.txt" % i, text)
        started = time.perf_counter()
        result = run(["moments", path, "--estimate", "1000"])
        elapsed = time.perf_counter() - started
        assert result.verdict == "OK"
        assert result.diagnostics["samples"] == 1000
        assert abs(result.diagnostics["e2"] - e2) < e2 / 4
        assert elapsed < 1.0, "%s took %.2f s" % (text.split("\n")[0], elapsed)


def test_moments_estimate_refuses_b_and_cap(tmp_path):
    path = write(tmp_path, "s.txt", ODD_SET_FOUR)
    for flags in (["--b", "8"], ["--cap", "0"], ["--b", "8", "--cap", "0"]):
        result = run(["moments", path, "--estimate", "50", *flags])
        assert result.verdict == "ERROR"
        assert result.exit_code == 2
        assert "--estimate" in result.error


def test_moments_seed_without_estimate_is_error(tmp_path):
    result = run(["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--seed", "3"])
    assert result.verdict == "ERROR"
    assert "--seed" in result.error


def test_moments_estimate_without_seed_samples_with_seed_zero(tmp_path):
    path = write(tmp_path, "g.txt", THREE_CYCLE)
    plain = run(["moments", path, "--estimate", "50"])
    seeded = run(["moments", path, "--estimate", "50", "--seed", "0"])
    assert plain.verdict == "OK"
    assert plain.diagnostics == seeded.diagnostics


def test_moments_skips_claim_for_unrestricted_formula(tmp_path):
    result = run(["moments", write(tmp_path, "f.txt", COMPLETE_R2)])
    assert result.verdict == "OK"
    assert "second_moment_skipped" in result.diagnostics


def test_moments_cap_exceeded_is_error(tmp_path):
    result = run(["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--cap", "2"])
    assert result.verdict == "ERROR"
    assert result.exit_code == 2
    assert "cap" in result.error


def test_moments_cap_counts_what_is_enumerated(tmp_path):
    # Two active of 10 declared vertices: 10!/2! orders per order of the pair.
    result = run(["moments", write(tmp_path, "g.txt", "p digraph 10 1\na 1 2 1\n")])
    assert result.verdict == "OK"
    assert result.diagnostics["total"] == 3628800
    assert result.diagnostics["second_moment_holds"] is True


def test_moments_refuses_a_long_header_fast(tmp_path):
    # One arc, equation or clause under a header whose n!/n'! or 2^(n - kernel)
    # multiplier would pass the bit budget: refused before it is multiplied out.
    cases = [
        "p digraph 3000000 1\na 1 2 1\n",
        "p lin2 1000000 1\ne 1 1 1 1000000\n",
        "p ecnf 1000000 1 2\n1 -1000000 0\n",
    ]
    for i, text in enumerate(cases):
        path = write(tmp_path, "in%d.txt" % i, text)
        started = time.perf_counter()
        result = run(["moments", path, "--b", "64"])
        elapsed = time.perf_counter() - started
        assert result.verdict == "ERROR"
        assert "multiplier bits exceed cap %d" % moments.MULTIPLIER_BITS in result.error
        assert elapsed < 1.0, "%s took %.2f s" % (text.split("\n")[0], elapsed)
    # Just inside the budget the exact total is reported.
    result = run(["moments", write(tmp_path, "f.txt", "p ecnf 1000 1 2\n1 -1000 0\n")])
    assert result.verdict == "OK"
    assert "total %d" % (1 << 1000) in result.lines()


def test_a_counter_past_its_budget_is_named_in_the_refusal(tmp_path):
    # 20 equations of weight 2^600 on one variable each: the kernel is inside
    # the variable cap, but its weight counter needs 605 bits per assignment.
    eqs = "".join("e %d 0 %d\n" % (1 << 600, v) for v in range(1, 21))
    path = write(tmp_path, "s.txt", "p lin2 20 20\n" + eqs)
    result = run(["moments", path])
    assert result.verdict == "ERROR"
    assert "distribution refused: %d counter bits exceed cap" % (605 << 20) in result.error
    result = run(["linalb", path, "--k", "1", "--case", "general"])
    assert result.verdict == "KERNEL"
    assert result.diagnostics["counter_bits"] == 605 << 20
    assert "cap" not in result.diagnostics


def test_wide_clauses_are_answered_or_refused_by_the_keys_they_share(tmp_path):
    # Width 40: one clause repeats no variable, so its pair counts stop after
    # the 40 literals; two equal clauses repeat every sub-clause, and the pass
    # is refused before the size whose keys would pass the budget.
    clause = " ".join(map(str, range(1, 41))) + " 0\n"
    for copies, verdict in ((1, "KERNEL"), (2, "ERROR")):
        path = write(tmp_path, "f.txt", "p ecnf 40 %d 40\n" % copies + clause * copies)
        started = time.perf_counter()
        result = run(["rsat", path, "--k-num", "1"])
        elapsed = time.perf_counter() - started
        assert result.verdict == verdict
        assert elapsed < (0.1 if copies == 1 else 1), elapsed
    keys = 2 * sum(math.comb(40, t) for t in range(2, 5))
    budget = rsat.SUBCLAUSE_KEY_BUDGET
    assert result.error == "pair counts refused: %d sub-clause keys exceed cap %d" % (keys, budget)


def test_moments_skips_the_second_moment_check_past_the_key_budget(tmp_path):
    # Sixty copies of one width-12 clause repeat every sub-clause, so the pair
    # counts are refused before size 8; the 12 variables still enumerate.
    clause = " ".join(map(str, range(1, 13))) + " 0\n"
    result = run(["moments", write(tmp_path, "f.txt", "p ecnf 12 60 12\n" + clause * 60)])
    assert result.verdict == "OK"
    keys = 60 * sum(math.comb(12, t) for t in range(2, 9))
    budget = rsat.SUBCLAUSE_KEY_BUDGET
    skipped = "pair counts refused: %d sub-clause keys exceed cap %d" % (keys, budget)
    assert result.diagnostics["second_moment_skipped"] == skipped
    assert "second_moment_holds" not in result.diagnostics


def test_moments_cap_zero_is_error(tmp_path):
    unmerged = write(tmp_path, "s.txt", "p lin2 2 2\ne 1 1 1 2\ne 2 0 1 2\n")
    for path in (unmerged, write(tmp_path, "g.txt", THREE_CYCLE)):
        result = run(["moments", path, "--cap", "0"])
        assert result.verdict == "ERROR"
        assert "cap 0" in result.error


def count_calls(monkeypatch, calls, module, name):
    """Replace ``module.name`` with a wrapper that adds 1 to ``calls[name]`` per call."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_moments_enumerates_each_sample_space_once(tmp_path, monkeypatch):
    calls = {}
    count_calls(monkeypatch, calls, moments, "dist_linord")
    count_calls(monkeypatch, calls, maxlin, "x_distribution_counts")
    count_calls(monkeypatch, calls, rsat, "scaled_x_counts")
    cases = {
        "dist_linord": THREE_CYCLE,
        "x_distribution_counts": ODD_SET_FOUR,
        "scaled_x_counts": "p ecnf 4 2 2\n1 2 0\n3 4 0\n",
    }
    for enumerator, text in cases.items():
        calls.update(dict.fromkeys(cases, 0))
        result = run(["moments", write(tmp_path, "i.txt", text), "--b", "64"])
        assert result.verdict == "OK"
        assert result.diagnostics["second_moment_holds"] is True
        assert calls == {name: int(name == enumerator) for name in cases}


def test_moments_on_formula_counts_clause_pairs_once(tmp_path, monkeypatch):
    calls = {"overlap_histogram": 0}
    count_calls(monkeypatch, calls, rsat, "overlap_histogram")
    path = write(tmp_path, "f.txt", "p ecnf 4 2 2\n1 2 0\n3 4 0\n")
    result = run(["moments", path, "--b", "64"])
    assert result.diagnostics["second_moment_holds"] is True
    assert calls == {"overlap_histogram": 1}


def test_linalb_merges_and_counts_once_under_every_case(tmp_path, monkeypatch):
    calls = {}
    count_calls(monkeypatch, calls, maxlin, "merge_duplicates")
    count_calls(monkeypatch, calls, maxlin, "system_stats")
    path = write(tmp_path, "s.txt", ODD_SET_FOUR)
    for case in ("auto", "odd-set", "arity", "occurrence", "general"):
        calls.update(merge_duplicates=0, system_stats=0)
        result = run(["linalb", path, "--k", "1", "--case", case])
        assert result.diagnostics["case"] == ("odd-set" if case == "auto" else case)
        assert calls == {"merge_duplicates": 1, "system_stats": 1}


def test_linalb_bounds_come_from_the_merged_system(tmp_path):
    # Both width-3 equations cancel, as do both copies of x1 + x2, which
    # leaves x1 = 1 and x2 = 0: arity 1 and occurrence 1 (counted as 2), where
    # the unmerged file has arity 3 and occurrence 5.
    text = (
        "p lin2 3 6\ne 1 1 1 2 3\ne 1 0 1 2 3\ne 2 1 1 2\ne 2 0 1 2\ne 1 1 1\ne 1 0 2\n"
    )
    path = write(tmp_path, "s.txt", text)
    arity = run(["linalb", path, "--k", "1", "--case", "arity"])
    assert arity.diagnostics["m_threshold"] == maxlin.occurrence_f(1, 1) == 1024
    occurrence = run(["linalb", path, "--k", "1", "--case", "occurrence"])
    assert occurrence.diagnostics["m_threshold"] == 32 * 2 * 2
    for result in (arity, occurrence):
        assert result.diagnostics["m"] == 2
        assert result.verdict == "YES_WITNESS"


def test_linalb_odd_set_without_one_is_refused(tmp_path):
    # x1 + x2 = x1 = x2 = 1 has no solution, so no set meets every equation oddly.
    path = write(tmp_path, "s.txt", "p lin2 2 3\ne 1 1 1 2\ne 1 1 1\ne 1 1 2\n")
    result = run(["linalb", path, "--k", "1", "--case", "odd-set"])
    assert result.verdict == "REFUSED"
    assert result.exit_code == 2
    assert "odd" in result.error


def test_linalb_decides_a_million_variable_header_within_budget(tmp_path):
    # Two equations on four of 10^6 declared variables: the cost must follow
    # the equations present, not the declared n.
    n = 1_000_000
    path = write(tmp_path, "s.txt", "p lin2 %d 2\ne 1 1 1 %d\ne 1 1 %d %d\n" % (n, n // 2, n - 1, n))
    for case in ("general", "auto"):
        started = time.perf_counter()
        result = run(["linalb", path, "--k", "1", "--case", case])
        elapsed = time.perf_counter() - started
        assert result.verdict == "YES_WITNESS"
        assert len(result.witness) == n
        assert result.diagnostics["kernel_vars"] == 2
        assert elapsed < 1.0, "%s took %.2f s" % (case, elapsed)


def test_linalb_odd_set_cost_follows_the_equations_not_the_header(tmp_path):
    # 300 three-variable equations on variables 1..100 under a 10^7 header:
    # the odd-set elimination must work on 100-bit rows, not 10^7-bit ones.
    rng = random.Random(11)
    lines = ["p lin2 10000000 300"]
    for _ in range(300):
        lines.append("e 1 1 " + " ".join(map(str, sorted(rng.sample(range(1, 101), 3)))))
    path = write(tmp_path, "s.txt", "\n".join(lines) + "\n")
    started = time.perf_counter()
    result = run(["linalb", path, "--k", "1", "--case", "odd-set"])
    elapsed = time.perf_counter() - started
    assert result.verdict == "YES_BY_BOUND"
    assert result.diagnostics["odd_set_size"] == 100
    assert elapsed < 1.0, "took %.2f s" % elapsed


def test_linalb_cost_follows_the_variables_present_not_the_highest_index(tmp_path):
    # Four one-variable equations near index 2 * 10^8: the odd-set and rank
    # masks must be four bits wide, not 2 * 10^8.
    n = 200_000_000
    body = "".join("e 1 1 %d\n" % (n - i) for i in range(4))
    path = write(tmp_path, "s.txt", "p lin2 %d 4\n%s" % (n, body))
    tracemalloc.start()
    try:
        result = run(["linalb", path, "--k", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.verdict == "NO"
    assert (result.diagnostics["kernel_vars"], result.diagnostics["best_x"]) == (4, 4)
    assert peak < 5 * 2**20, "peak %.1f MB" % (peak / 2**20)
    assert run(["linalb", path, "--k", "1"]).verdict == "YES_BY_BOUND"


def test_a_no_costs_nothing_per_declared_variable(tmp_path):
    # One record under a header declaring 10^6 vertices or variables. Each call
    # is NO, so no witness is widened to n and nothing of size n is built.
    n = 10**6
    cases = [
        ("f.txt", "p ecnf %d 1 2\n1 2 0\n" % n, ["rsat", "--k-num", "2"]),
        ("s.txt", "p lin2 %d 1\ne 1 0 1\n" % n, ["linalb", "--k", "1"]),
        ("g.txt", "p digraph %d 1\na 1 2 1\n" % n, ["loalb", "--k", "1"]),
    ]
    for name, text, (command, *flags) in cases:
        path = write(tmp_path, name, text)
        tracemalloc.start()
        try:
            result = run([command, path, *flags])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verdict == "NO", command
        assert peak < 2**20, "%s peak %.2f MB" % (command, peak / 2**20)


def test_a_yes_witness_costs_under_ten_bytes_per_declared_variable(tmp_path):
    # Two million declared variables, four of them in the records. The widened
    # witness is one tuple of pointers to the shared ints 0 and 1, filled from a
    # bytearray and printed without a copy: about 9 traced bytes per variable.
    n = 2_000_000
    cases = [
        ("s.txt", "p lin2 %d 4\n%s" % (n, "".join("e 1 1 %d\n" % v for v in range(1, 5))), ["linalb", "--k", "2"]),
        ("f.txt", "p ecnf %d 2 2\n1 2 0\n3 4 0\n" % n, ["rsat", "--k-num", "1"]),
    ]
    for name, text, (command, *flags) in cases:
        path = write(tmp_path, name, text)
        tracemalloc.start()
        try:
            result = run([command, path, *flags])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verdict == "YES_WITNESS", command
        assert len(result.witness) == n and set(result.witness[4:]) == {0}, command
        assert peak < 24 * 2**20, "%s peak %.1f MB" % (command, peak / 2**20)


def test_a_negative_cap_is_an_error_before_the_instance_is_read(tmp_path):
    missing = str(tmp_path / "missing.txt")
    for command, flags in (
        ("loalb", ["--k", "1"]),
        ("fas", ["--k", "1"]),
        ("linalb", ["--k", "1"]),
        ("rsat", ["--k-num", "1"]),
        ("moments", []),
    ):
        result = run([command, missing, *flags, "--cap", "-1"])
        assert (result.verdict, result.exit_code) == ("ERROR", 2)
        assert result.error == "--cap must be nonnegative, not -1"
    # A cap of 0 still refuses every kernel with a vertex in it.
    result = run(["loalb", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1", "--cap", "0"])
    assert (result.verdict, result.diagnostics["cap"]) == ("KERNEL", 0)


def test_gen_round_trips_through_cli(tmp_path):
    out = tmp_path / "inst.txt"
    result = run(["gen", "symmetric-digraph", "--n", "4", "--seed", "5", "--emit", str(out)])
    assert result.verdict == "OK"
    assert out.read_text() == gen_instance("symmetric-digraph", seed=5, n=4).text
    decided = run(["loalb", str(out), "--k", "1"])
    assert decided.verdict == "NO"


def test_gen_to_stdout():
    result = run(["gen", "remark2", "--n", "3"])
    assert result.verdict == "OK"
    assert result.diagnostics["text"].startswith("p lin2 3 7")


def test_gen_refuses_a_size_its_kind_does_not_read():
    result = run(["gen", "complete-rcnf", "--n", "5"])
    assert result.verdict == "ERROR"
    assert "--n" in result.error
    result = run(["gen", "complete-rcnf", "--r", "3", "--pairs", "9"])
    assert result.verdict == "ERROR"
    assert "--pairs" in result.error


def test_gen_random_lin2_refuses_r_past_n():
    result = run(["gen", "random-lin2", "--n", "3", "--r", "9"])
    assert result.verdict == "ERROR"
    assert result.error == "r must be in 1..n"


def test_every_generator_kind_takes_a_seed():
    for kind in GENERATOR_KINDS:
        result = run(["gen", kind, "--seed", "3"])
        assert result.verdict == "OK", (kind, result.error)
        assert result.diagnostics["seed"] == 3
        assert result.diagnostics["text"] == gen_instance(kind, seed=3).text


def test_run_builds_no_parser(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run() built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(["loalb", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1"]).verdict == "NO"
    assert run(["gen", "remark2"]).verdict == "OK"


def test_flags_do_not_leak_between_calls(tmp_path):
    path = write(tmp_path, "s.txt", ODD_SET_FOUR)
    general = run(["linalb", path, "--k", "1", "--case", "general"])
    assert general.diagnostics["case"] == "general"
    result = run(["linalb", path, "--k", "1"])
    assert result.diagnostics["case"] == "odd-set"


# The flags each command that reads an instance file requires besides the file.
REQUIRED_FLAGS = {
    "loalb": ["--k", "1"],
    "fas": ["--k", "1"],
    "linalb": ["--k", "1"],
    "rsat": ["--k-num", "1"],
    "moments": [],
}


def test_flag_set_of_every_command(capsys):
    for command, required in REQUIRED_FLAGS.items():
        args = _PARSER.parse_args([command, "in.txt", *required, "--cap", "3", "--emit", "out"])
        assert (args.command, args.file, args.cap, args.emit) == (command, "in.txt", 3, "out")
        args = _PARSER.parse_args([command, "in.txt", *required])
        assert (args.cap, args.emit) == (None, None)
        if required:
            with pytest.raises(SystemExit):
                _PARSER.parse_args([command, "in.txt"])
            assert "required: " + required[0] in capsys.readouterr().err
    # --k belongs to the three deciders only, and no flag may be abbreviated.
    for argv in (
        ["moments", "in.txt", "--k", "1"],
        ["rsat", "in.txt", "--k", "1"],
        ["moments", "in.txt", "--est", "3"],
        ["loalb", "in.txt", "--k", "1", "--ca", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            _PARSER.parse_args(argv)
        assert exc.value.code == 2
    assert _PARSER.parse_args(["linalb", "in.txt", "--k", "1"]).case == "auto"
    (commands,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    (case,) = [a for a in commands.choices["linalb"]._actions if a.dest == "case"]
    assert list(case.choices) == ["auto", "odd-set", "arity", "occurrence", "general"]
    assert case.default == "auto"
    # gen takes no instance file and no --cap, and its --emit writes the instance.
    assert _PARSER.parse_args(["gen", "remark2", "--emit", "out"]).emit == "out"
    (emit,) = [a for a in commands.choices["gen"]._actions if a.dest == "emit"]
    assert emit.help == "write the instance here instead of stdout"
    for extra in (["in.txt"], ["--cap", "3"]):
        with pytest.raises(SystemExit):
            _PARSER.parse_args(["gen", "remark2", *extra])
    capsys.readouterr()


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    # Registered before it runs: its dataclass looks its module up by name.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_argv_takes_the_plain_reader(monkeypatch):
    workloads = load_workloads()
    argvs = []
    for workload in workloads.WORKLOADS:
        for seed in (0, 7):
            for call in workloads.build(workload, seed, abovetight, tiny=True):
                call.path = "in.txt"
                argvs.append(call.argv())
    assert {argv[0] for argv in argvs} == set(cli._PLAIN)
    for argv in argvs:
        plain, expected = cli._read_plain(argv), _PARSER.parse_args(argv)
        assert plain is not None, argv
        # The same attributes with the same values, in the same order.
        assert list(vars(plain).items()) == list(vars(expected).items()), argv

    def refuse(*args, **kwargs):
        raise AssertionError("run() called argparse on a plain argv")

    monkeypatch.setattr(_PARSER, "parse_args", refuse)
    assert run(["gen", "remark2", "--seed", "3"]).diagnostics["seed"] == 3


# Argvs off the plain form, or plain with a bad value: the reader declines each, or gives
# argparse's namespace; argparse alone answers the ones it rejects.
OFF_PLAIN = [
    ["loalb", "g.txt", "--k=1"],
    ["loalb", "--k", "1", "g.txt"],
    ["loalb", "g.txt", "--k", "1", "--k", "2"],
    ["rsat", "f.txt", "--k-num", "1", "--diagnostic", "--diagnostic"],
    ["loalb", "g.txt", "--", "--k", "1"],
    ["loalb", "g.txt", "--k", "1", "--"],
    ["loalb", "g.txt", "--k", "1", "-h"],
    ["gen", "--help"],
    ["-h"],
    ["loalb", "g.txt", "--k", "1", "--ca", "3"],
    ["linalb", "s.txt", "--k", "1", "--case", "general", "--workers", "2"],
    ["loalb", "g.txt", "--k", "1", "--cap", "-1"],
    ["moments", "g.txt", "--b", "-3/2"],
    ["loalb", "g.txt", "--k", "x"],
    ["loalb", "g.txt", "--k"],
    ["loalb", "g.txt", "--k", "1", "--emit", "--cap"],
    ["linalb", "s.txt", "--k", "1", "--case", "bogus"],
    ["gen", "nosuch"],
    ["gen", "remark2", "--n", "1.5"],
    ["loalb", "--k", "1"],
    ["loalb"],
    ["loalb", "g.txt"],
    ["rsat", "f.txt", "--diagnostic"],
    ["loalb", "g.txt", "h.txt", "--k", "1"],
    ["frobnicate", "g.txt"],
    [],
]


@pytest.mark.parametrize("argv", OFF_PLAIN, ids=" ".join)
def test_the_plain_reader_leaves_every_other_argv_to_argparse(argv, capsys):
    plain = cli._read_plain(argv)
    try:
        expected = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code, printed = exc.code, capsys.readouterr()
        assert plain is None
        with pytest.raises(SystemExit) as through_run:
            run(argv)
        assert through_run.value.code == code
        assert capsys.readouterr() == printed
        if "-h" in argv or "--help" in argv:
            assert (code, printed.err) == (0, "") and printed.out.startswith("usage: abovetight")
        else:
            assert code == 2 and printed.err.startswith("usage: abovetight")
    else:
        assert plain is None or vars(plain) == vars(expected)


def test_workers_flag_is_rejected(tmp_path):
    path = write(tmp_path, "s.txt", "p lin2 3 3\ne 1 1 1 2\ne 2 0 2 3\ne 1 1 1 3\n")
    with pytest.raises(SystemExit) as exc:
        run(["linalb", path, "--k", "1", "--case", "general", "--workers", "2"])
    assert exc.value.code == 2


def test_moments_on_formula_reports_decomposition(tmp_path):
    path = write(tmp_path, "f.txt", "p ecnf 4 2 2\n1 2 0\n3 4 0\n")
    result = run(["moments", path])
    assert result.verdict == "OK"
    assert str(result.diagnostics["pairwise_e2"]) == "3/8"
    assert result.diagnostics["second_moment_holds"] is True


def test_moments_reports_the_closed_form_second_moment_of_every_kind(tmp_path, capsys):
    # The unit path 1 -> 2 -> 3 has W2 = 2 and imbalances +1, 0, -1: E(X^2) = (2 + 2)/12.
    path = write(tmp_path, "p.txt", "p digraph 3 2\na 1 2 1\na 2 3 1\n")
    assert main(["moments", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "pairwise_e2 1/3" in lines and "e2 1/3" in lines and "second_moment_target 1/6" in lines
    result = run(["moments", write(tmp_path, "s.txt", ODD_SET_FOUR)])
    assert result.diagnostics["pairwise_e2"] == result.diagnostics["second_moment_target"] == 4


def test_main_prints_lines_and_exit_codes(tmp_path, capsys):
    code = main(["loalb", write(tmp_path, "g.txt", SINGLE_ARC), "--k", "1"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "verdict YES_WITNESS" in captured
    assert "witness 1 2" in captured
    assert any(line.startswith("time_ms") for line in captured.splitlines())

    code = main(["rsat", write(tmp_path, "f.txt", COMPLETE_R2), "--k-num", "1"])
    assert code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate", "x"])


# Only where the interpreter limits int-to-str conversion can a value be too long to print.
LIMITED = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["loalb", "g.txt", "--k", "1", "--emit", "missing/x.json"], "missing/x.json"),
        # w2_threshold = 12k^2 has 4,401 digits.
        pytest.param(["loalb", "g.txt", "--k", "9" * 2200], "w2_threshold", marks=LIMITED),
        # m_threshold = 16 * 64^2400.
        pytest.param(["linalb", "s.txt", "--k", "1", "--case", "arity"], "m_threshold", marks=LIMITED),
        (["rsat", "f.txt", "--k-num", "1"], "clause width"),
        (["rsat", "w.txt", "--k-num", "1"], "clause width"),
        (["moments", "w.txt"], "clause width"),
        (["moments", "g.txt", "--b", "1/0"], "--b"),
        (["moments", "g.txt", "--b", "1e-3000000"], "--b"),
        (["gen", "cancelling-pairs-lin2", "--n", "12", "--pairs", "2049"], "pairs must be in 1..2048"),
        (["moments", "F28.txt", "--cap", "40"], "counter bits"),
    ],
)
def test_hostile_input_ends_in_error_naming_its_cause(tmp_path, argv, named):
    # In a child process, so that a crash while main prints, or a hang, fails this test alone.
    write(tmp_path, "g.txt", SINGLE_ARC)
    write(tmp_path, "s.txt", "p lin2 2400 1\ne 1 1 %s\n" % " ".join(map(str, range(1, 2401))))
    clause = " ".join(map(str, range(1, 2401)))
    write(tmp_path, "f.txt", "p ecnf 2400 1 2400\n%s 0\n" % clause)
    write(tmp_path, "w.txt", "p ecnf 1 0 300000\n")
    write(tmp_path, "F28.txt", F28)
    src = str(Path(abovetight.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "abovetight.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdict ERROR" and "Traceback" not in proc.stderr
    assert named in next(line for line in lines if line.startswith("error "))


def test_rsat_past_the_count_budget_ends_in_kernel(tmp_path):
    # In a child process with the hostile-input timeout: the counter is refused, not built.
    write(tmp_path, "F28.txt", F28)
    src = str(Path(abovetight.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "abovetight.cli", "rsat", "F28.txt", "--k-num", "1", "--cap", "40"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdict KERNEL"
    assert "counter_bits 1342177280" in lines and "counter_cap 536870912" in lines


@pytest.mark.parametrize(
    "argv, verdict, named",
    [
        (["loalb", "c40.txt", "--k", "2", "--cap", "40"], "KERNEL", "component_vertices 40"),
        (["moments", "c24.txt", "--cap", "24"], "ERROR", "24 active vertices for the Counter DP exceed cap 9"),
    ],
)
def test_a_raised_cap_refuses_a_subset_dp_before_it_allocates(tmp_path, argv, verdict, named):
    # Directed cycles of unit arcs: one strong component, and too few forward weights
    # for the packed counts. Run in a child under a 512 MiB address-space limit and a
    # timeout, so that a DP which does allocate 2^n entries fails this test alone.
    for n in (24, 40):
        arcs = "".join("a %d %d 1\n" % (v + 1, (v + 1) % n + 1) for v in range(n))
        write(tmp_path, "c%d.txt" % n, "p digraph %d %d\n" % (n, n) + arcs)
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (%d, %d))" % (512 << 20, 512 << 20)
    code = limit + "; from abovetight.cli import main; raise SystemExit(main())"
    src = str(Path(abovetight.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
    )
    lines = proc.stdout.splitlines()
    assert lines and lines[0] == "verdict " + verdict, proc.stdout + proc.stderr
    assert any(named in line for line in lines), proc.stdout
    assert float(lines[-1].removeprefix("time_ms ")) < 1000


@LIMITED
def test_emit_writes_the_error_when_a_diagnostic_is_too_long_to_print(tmp_path):
    out = tmp_path / "r.json"
    path = write(tmp_path, "g.txt", SINGLE_ARC)
    result = run(["loalb", path, "--k", "9" * 2200, "--emit", str(out)])
    assert result.verdict == "ERROR" and result.error.startswith("cannot print w2_threshold")
    assert json.loads(out.read_text())["error"] == result.error
