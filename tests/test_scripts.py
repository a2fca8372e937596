import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/tight_families.py"],
        ["scripts/verify_bounds.py", "--trials", "5", "--seed", "1"],
        ["scripts/histogram_switch.py", "--n", "8", "--reps", "1", "--budgets", "32"],
        ["scripts/order_switch.py", "--n", "3", "4", "--reps", "1"],
        ["scripts/order_prune.py", "--strong", "8", "--tournaments", "8", "--reps", "1"],
        ["scripts/line_count.py"],
        ["scripts/parse_split.py", "--scale", "0.02", "--reps", "1"],
        # A checkout compared with itself gives the same output on every call.
        ["scripts/compare_outputs.py", ".", "--tiny", "--seeds", "0"],
        # The benchmark builds its instances through the package's public names.
        ["perfbench/smoke.py"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_output(diagnostics: dict, gen: str | None = None) -> dict:
    """One call's output as the compare_outputs child writes it."""
    record = ["OK", sorted([key, str(value)] for key, value in diagnostics.items()), None, None, None]
    payload = {"diagnostics": diagnostics, "verdict": "OK", "witness": None, "kernel": None, "error": None}
    return {"record": record, "json": payload, "gen": gen}


def test_compare_outputs_reports_every_difference_grouped_by_key():
    compare = load_script("compare_outputs")
    labels = ["a", "b", "c", "d", "e"]
    theirs = [
        call_output({"e2": "1/4"}),
        call_output({"e2": "1/4", "old": 1}),
        call_output({"e2": "1/4"}),
        call_output({}, gen="p lin2 1 0\n"),
        call_output({"e2": "1/4"}),
    ]
    ours = [
        call_output({"e2": "1/4", "pairwise_e2": "1/4"}),
        call_output({"e2": "1/3", "pairwise_e2": "1/3"}),
        call_output({"e2": "1/4"}),
        call_output({}, gen="p lin2 2 0\n"),
        {"raised": "ValueError('x')"},
    ]
    lines = compare.differences(labels, ours, theirs)
    assert [line.split(":")[0] for line in lines] == [
        "diagnostics.pairwise_e2 added on 2 calls, first a",
        "diagnostics.e2 changed on 1 calls, first b",
        "diagnostics.old removed on 1 calls, first b",
        "gen changed on 1 calls, first d",
        # A call that raised here lost every other part.
        "diagnostics.e2 removed on 1 calls, first e",
        "gen removed on 1 calls, first e",
        "json removed on 1 calls, first e",
        "raised added on 1 calls, first e",
        "record removed on 1 calls, first e",
    ]
    assert lines[1].endswith('this ["1/3", "1/3"], other ["1/4", "1/4"]')
    assert compare.differences(labels, theirs, theirs) == []
    assert compare.differences(labels, ours, theirs[:4])[-1] == "5 calls answered here, 4 there"


def test_outputs_match_the_golden_record(tmp_path):
    """Every benchmark call and probe at seeds 0 and 7 gives what ``tests/golden_outputs.json`` holds.

    A change that means to alter an output regenerates the record with
    ``scripts/compare_outputs.py --record`` and lists each changed key in
    ``CHANGES.md``.
    """
    compare = load_script("compare_outputs")
    fresh = tmp_path / "golden_outputs.json"
    argv = [sys.executable, "scripts/compare_outputs.py", "--record", str(fresh)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    labels, ours = compare.read_record(fresh)
    stored_labels, theirs = compare.read_record(compare.RECORD)
    assert labels == stored_labels
    # Each line names a part that differs, on how many calls, and the first call's two values.
    assert compare.differences(labels, ours, theirs) == []
    assert fresh.read_bytes() == compare.RECORD.read_bytes()


def test_unreached_lists_the_functions_no_call_enters():
    proc = subprocess.run(
        [sys.executable, "scripts/unreached.py", "--tiny", "--seeds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *listed, summary = proc.stdout.splitlines()
    names = {line.split()[1] for line in listed}
    # cli.main prints a result that cli.run returns, and only cli.run is called.
    assert "main" in names
    # The probes estimate each dialect's moments, so every draw is entered.
    assert not any(name.startswith(("run", "estimate_moments")) for name in names), names
    assert summary.startswith("unreached: %d of " % len(listed)), summary
