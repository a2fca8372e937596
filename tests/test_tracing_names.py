"""The package functions that perfbench's tracer rebinds must keep their names.

``Tracer.install`` skips a stage whose function is gone, so a rename or a
deletion would only show as a layer metric that reads 0. The tracer is
loaded by path; it uses only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# Stages listed by the tracer whose functions the package no longer has.
GONE = {("maxlin", "auto_case"), ("gf2", "independent_columns"), ("gf2", "express_in_basis")}


def test_every_traced_stage_still_names_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        (mod, name)
        for mod, name, _ in tracing.STAGES
        if not callable(getattr(importlib.import_module("abovetight." + mod), name, None))
    }
    assert missing <= GONE, sorted(missing - GONE)
    # Among them the one-line wrappers that only the tracer reads.
    assert {("rsat", "conflict_number"), ("moments", "pairwise_second_moment")} <= {
        (mod, name) for mod, name, _ in tracing.STAGES
    }
