"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that
the metric names match BENCHMARK.json; checks that the output checker flags
a corrupted witness, a flipped verdict and a changed diagnostic; checks that
the trace wrappers put every original function back; and checks that the
benchmark refuses to run in a directory holding only its own files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run  # sets up sys.path for the benchmark modules
import checks
import tracing
import workloads

SEED = 5
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_cmd(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_workloads_run_tiny() -> None:
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_cmd(run.ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))


def tiny_pass(workload: str):
    pkg = run.fresh_import()
    calls = workloads.build(workload, SEED, pkg, tiny=True)
    workdir = run.ROOT / ".perfbench_tmp" / ("smoke-%s" % workload)
    run.write_inputs(pkg, calls, workdir)
    _, _, results = run.run_pass(pkg.cli, [call.argv() for call in calls])
    return pkg, calls, results, workdir


def corruptions(call, witness: list[int]):
    """Altered copies of a witness: each bit flipped, or each adjacent pair of an order swapped, or truncated."""
    if call.command in ("loalb", "fas"):
        for i in range(len(witness) - 1):
            w = list(witness)
            w[i], w[i + 1] = w[i + 1], w[i]
            yield w
    else:
        for i in range(len(witness)):
            w = list(witness)
            w[i] ^= 1
            yield w
    yield witness[:-1]


def test_checker_flags_bad_outputs() -> None:
    _, calls, results, workdir = tiny_pass("exact_solve")
    try:
        flagged = 0
        for call, res in zip(calls, results):
            assert checks.check(call, res, None) is None, call.label
            if res.verdict == "YES_WITNESS":
                target_score = checks.witness_score(call, list(res.witness))
                for bad in corruptions(call, list(res.witness)):
                    score = checks.witness_score(call, bad)
                    if score != target_score:
                        assert checks.check(call, dataclasses.replace(res, witness=bad), None) is not None
                        flagged += 1
                # Flipped verdict: the echoed optimum reaches the target, so NO is inconsistent.
                assert checks.check(call, dataclasses.replace(res, verdict="NO", witness=None), None) is not None
            if res.verdict == "NO":
                assert checks.check(call, dataclasses.replace(res, verdict="YES_WITNESS"), None) is not None
                if call.expect == workloads.TIGHT:
                    assert checks.check(call, dataclasses.replace(res, verdict="YES_BY_BOUND"), None) is not None
        assert flagged > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_expected_records_are_compared() -> None:
    _, calls, results, workdir = tiny_pass("kernelize")
    try:
        expected = {call.label: checks.record(res) for call, res in zip(calls, results)}
        for call, res in zip(calls, results):
            assert checks.check(call, res, expected) is None, call.label
        # A bound verdict passes every self-consistency check, so only the
        # expected record can catch a changed threshold echo or verdict.
        call, res = next((c, r) for c, r in zip(calls, results) if r.verdict == "YES_BY_BOUND" and c.command == "loalb")
        diag = dict(res.diagnostics, w2=res.diagnostics["w2"] + 1)
        assert checks.check(call, dataclasses.replace(res, diagnostics=diag), expected) is not None
        flipped = dict(expected, **{call.label: dict(expected[call.label], verdict="KERNEL")})
        assert checks.check(call, res, flipped) is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_moment_identities_are_checked() -> None:
    _, calls, results, workdir = tiny_pass("moments")
    try:
        for call, res in zip(calls, results):
            assert checks.check(call, res, None) is None, call.label
            for key, value in (("e1", 1), ("e2", 0), ("second_moment_holds", False)):
                bad = dataclasses.replace(res, diagnostics=dict(res.diagnostics, **{key: value}))
                assert checks.check(call, bad, None) is not None, (call.label, key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def snapshot():
    names = ["abovetight"] + ["abovetight." + m for m in tracing.PACKAGE_MODULES]
    return {(n, attr): value for n in names for attr, value in vars(sys.modules[n]).items()}


def test_trace_restores_originals() -> None:
    pkg, calls, plain, workdir = tiny_pass("many_small")
    try:
        before = snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        assert pkg.cli.decide_loalb is not before[("abovetight.cli", "decide_loalb")]
        assert pkg.moments.digraph_stats is not before[("abovetight.moments", "digraph_stats")]
        try:
            _, _, traced = run.run_pass(pkg.cli, [call.argv() for call in calls])
        finally:
            tracer.restore()
        after = snapshot()
        assert before.keys() == after.keys()
        assert all(after[key] is value for key, value in before.items())
        assert [checks.full_record(r) for r in plain] == [checks.full_record(r) for r in traced]
        roots = sum(end - start for _, start, end, parent in tracer.spans if parent == -1)
        assert abs(sum(tracer.self_times().values()) - roots) < 1e-6 * max(1.0, roots)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_without_package() -> None:
    bare = run.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench_cmd(bare, "many_small", 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print("PASS %s" % test.__name__)
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print("FAIL %s: %r" % (test.__name__, exc))
    try:
        (run.ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
