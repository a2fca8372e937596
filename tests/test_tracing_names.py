"""The package functions that perfbench's tracer rebinds must keep their names and be reached.

``Tracer.install`` skips a stage whose function is gone, and a stage that no
command calls records no span, so a rename, a deletion or a dropped call
would only show as a layer metric that reads 0. The tracer is loaded by
path; it uses only the standard library. The benchmark also reads names off
the package root, which must resolve, and the root binds nothing else.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import abovetight
from abovetight import cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
# The instance types perfbench's workloads build; the root binds no other name.
INSTANCE_TYPES = {"WeightedDigraph", "Lin2Equation", "Lin2System", "ExactCnfFormula"}
# What Python binds on every package module, whatever its source says.
MODULE_ATTRIBUTES = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__", "__path__", "__spec__"
}
# Imports the package as perfbench's fresh_import does, and prints the root's names, each marked if it is a module.
ROOT_NAMES = (
    "import importlib, json, types; pkg = importlib.import_module('abovetight');"
    " [importlib.import_module('abovetight.' + m) for m in ('cli', 'instances')];"
    " print(json.dumps({k: isinstance(v, types.ModuleType) for k, v in vars(pkg).items()}))"
)
# Stages listed by the tracer whose functions the package no longer has.
GONE = {("maxlin", "auto_case"), ("gf2", "independent_columns"), ("gf2", "express_in_basis")}

ORIENTED = "p digraph 4 4\na 1 2 2\na 2 3 1\na 3 4 1\na 4 1 1\n"
UNIT = "p digraph 4 4\na 1 2 1\na 2 3 1\na 3 4 1\na 4 1 1\n"
# {1, 2, 3} meets every equation once; three equations stay under the odd-set bound of 4.
ODD_SET = "p lin2 4 3\ne 1 1 1\ne 1 1 2\ne 2 1 3 4\n"
RESTRICTED = "p ecnf 3 2 2\n1 2 0\n2 3 0\n"
COMPLETE_R2 = "p ecnf 2 4 2\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def present_stages(tracing) -> set[tuple[str, str]]:
    """The listed stages whose functions the package still has."""
    return {
        (mod, name)
        for mod, name, _ in tracing.STAGES
        if callable(getattr(importlib.import_module("abovetight." + mod), name, None))
    }


def test_every_traced_stage_still_names_a_package_function():
    tracing = load_tracing()
    missing = {(mod, name) for mod, name, _ in tracing.STAGES} - present_stages(tracing)
    assert missing <= GONE, sorted(missing - GONE)
    # Among them the one-line wrappers over the formula's cached overlap counts.
    assert {("rsat", "conflict_number"), ("moments", "pairwise_second_moment")} <= {
        (mod, name) for mod, name, _ in tracing.STAGES
    }


def test_every_traced_stage_is_reached_by_some_command(tmp_path):
    files = {}
    for name, text in (
        ("oriented", ORIENTED),
        ("unit", UNIT),
        ("odd", ODD_SET),
        ("restricted", RESTRICTED),
        ("complete", COMPLETE_R2),
    ):
        files[name] = str(tmp_path / (name + ".txt"))
        Path(files[name]).write_text(text)
    calls = [
        ["loalb", files["oriented"], "--k", "1"],
        ["fas", files["unit"], "--k", "1"],
        *(
            ["linalb", files["odd"], "--k", "1", "--case", case]
            for case in ("auto", "odd-set", "arity", "occurrence", "general")
        ),
        ["rsat", files["restricted"], "--k-num", "1"],
        ["rsat", files["complete"], "--k-num", "1", "--diagnostic"],
        *(["moments", files[kind], "--b", "64"] for kind in ("oriented", "odd", "restricted")),
        ["gen", "random-oriented", "--emit", str(tmp_path / "gen.txt")],
    ]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdicts = [cli.run(argv).verdict for argv in calls]
    finally:
        tracer.restore()
    assert "ERROR" not in verdicts and "REFUSED" not in verdicts, verdicts
    assert verdicts[:7] == ["YES_WITNESS"] * 7
    recorded = {span[0] for span in tracer.spans}
    expected = {"%s.%s" % stage for stage in present_stages(tracing)}
    assert expected <= recorded, sorted(expected - recorded)


def test_the_root_binds_what_the_benchmark_and_scripts_read_and_only_the_instance_types():
    read = {
        name
        for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
        for name in re.findall(r"\bpkg\.(\w+)", path.read_text())
    }
    assert INSTANCE_TYPES <= read
    src = str(Path(abovetight.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", ROOT_NAMES],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert read <= names.keys(), sorted(read - names.keys())
    surface = {name for name, is_module in names.items() if not is_module} - MODULE_ATTRIBUTES
    assert surface == INSTANCE_TYPES, sorted(surface ^ INSTANCE_TYPES)
