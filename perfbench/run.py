"""Benchmark of the abovetight command line, run in-process through ``cli.run``.

    python3 perfbench/run.py --workload kernelize --seed 0 --seconds 16 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Workloads (see ``workloads.py``): kernelize, exact_solve, moments,
many_small. Each is a closed loop of one caller making one call at a time.

Set-up (fresh import of the package, instance generation, file writing and
one warm-up pass) is repeated three times and its median reported. Then
passes over the workload's fixed call list are timed until ``--seconds``
have gone by, and every result is checked. Times are reported in seconds at
a reference host speed (see REFERENCE_S). With ``--trace 0`` the last line
of standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` traced passes alternate with untraced ones and the per-layer
metrics are reported instead. Spans are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
# A shared host changes speed by up to 1.5x for tens of seconds at a time
# (other tenants); on a 2-core one this moved raw pass times by 20% between
# runs of one workload. Every timed interval is therefore bracketed by probes of
# fixed work and reported in seconds at the speed where the probe takes
# REFERENCE_S; a change in the program still moves its time, a change in
# the host's speed moves the probe as well and cancels.
CALIBRATION_SIZE = 20_000
REFERENCE_S = 0.010
SEGMENT_S = 0.25
VERDICTS = ("YES_BY_BOUND", "YES_WITNESS", "NO", "KERNEL", "OK", "REFUSED", "ERROR")


def fresh_import():
    """Import the package from scratch, dropping any module objects already loaded."""
    for name in [m for m in sys.modules if m == "abovetight" or m.startswith("abovetight.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("abovetight")
    importlib.import_module("abovetight.cli")
    importlib.import_module("abovetight.instances")
    if Path(pkg.__file__).resolve().parent != (SRC / "abovetight").resolve():
        raise RuntimeError("abovetight imported from %s, not from %s" % (pkg.__file__, SRC))
    return pkg


def write_inputs(pkg, calls, workdir: Path) -> None:
    """Serialize each call's instance to a file (shared instances share a file)."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths: dict[int, str] = {}
    for i, call in enumerate(calls):
        if call.command == "gen":
            call.path = str(workdir / ("gen-%05d.txt" % i))
            continue
        key = id(call.instance)
        if key not in paths:
            paths[key] = str(workdir / ("in-%05d.txt" % i))
            with open(paths[key], "w", encoding="utf-8") as handle:
                handle.write(pkg.instances.serialize_instance(call.instance).text)
        call.path = paths[key]


def calibrate() -> float:
    """Seconds taken by fixed dict, tuple and sort work: a probe of the host's current speed."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_SIZE):
        key = (i * 7919) % 20011
        table[key] = (i, key, i & 7)
    acc = 0
    for i in range(CALIBRATION_SIZE):
        acc += table.get((i * 104729) % 20011, (0, 0, 0))[2]
    sorted(table.values())
    return time.perf_counter() - start


def run_pass(cli, argvs):
    """One closed-loop pass: speed factor, per-call times and results (or the exception raised).

    The host is probed with ``calibrate`` before the pass, after it, and
    whenever SEGMENT_S of calls have run; the factor REFERENCE_S / mean(probe)
    turns the pass's times into seconds at the reference host speed.
    """
    gc.collect()
    clock = time.perf_counter
    probes = [calibrate()]
    times = []
    results = []
    last = clock()
    for argv in argvs:
        if clock() - last >= SEGMENT_S:
            probes.append(calibrate())
            last = clock()
        t0 = clock()
        try:
            res = cli.run(argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark abort
            res = exc
        times.append(clock() - t0)
        results.append(res)
    probes.append(calibrate())
    return REFERENCE_S / statistics.mean(probes), times, results


def check_pass(calls, results, expected, failures: list[str]) -> int:
    failed = 0
    for call, res in zip(calls, results):
        if isinstance(res, Exception):
            problem = "raised %r" % res
        else:
            problem = checks.check(call, res, expected)
        if problem is not None:
            failed += 1
            failures.append("%s: %s" % (call.label, problem))
    return failed


def set_up(workload: str, seed: int, tiny: bool, workdir: Path):
    """One set-up; its time is scaled by the speed factor of its warm-up pass."""
    gc.unfreeze()
    t0 = time.perf_counter()
    pkg = fresh_import()
    calls = workloads.build(workload, seed, pkg, tiny)
    write_inputs(pkg, calls, workdir)
    argvs = [call.argv() for call in calls]
    # The benchmark keeps every instance alive for the checks. Frozen, they
    # are skipped by the cyclic collector, which would otherwise walk them on
    # each full collection the program triggers and bill it for their size.
    gc.collect()
    gc.freeze()
    before_warm_up = time.perf_counter() - t0
    factor, times, _ = run_pass(pkg.cli, argvs)
    return (before_warm_up + sum(times)) * factor, pkg, calls, argvs


def peak_rss_mb(argvs, workdir: Path) -> float:
    """Peak RSS of a fresh process that reads the generated files and makes the calls once."""
    listing = workdir / "calls.json"
    listing.write_text(json.dumps(argvs), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(SRC), str(listing)],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return int(proc.stdout.split()[-1]) / 1024.0


def quantile(values, q: int) -> float:
    """The q-th percentile (exclusive method), e.g. q=90."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(args, workdir: Path) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        elapsed, pkg, calls, argvs = set_up(args.workload, args.seed, args.tiny, workdir)
        setups.append(elapsed)
    expected = None
    if args.seed == checks.DEFAULT_SEED and not args.tiny:
        expected = checks.load_expected(args.workload)
        if expected is None:
            raise RuntimeError("no expected-answers file for %s" % args.workload)
    failures: list[str] = []
    attempted = 0
    failed = 0
    pass_s, call_times = [], []
    tracer = tracing.Tracer() if args.trace else None
    traced_pass_s, per_pass = [], []
    correct = True
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        results = traced = None  # let the previous pass's results go before timing the next
        factor, times, results = run_pass(pkg.cli, argvs)
        pass_s.append(sum(times) * factor)
        call_times.extend(t * factor for t in times)
        attempted += len(results)
        failed += check_pass(calls, results, expected, failures)
        if tracer is None:
            continue
        # Traced passes alternate with untraced ones, so a drift in machine
        # speed during the run lands on both sides of trace.overhead_pct.
        since, counts_before = tracer.mark()
        tracer.install()
        try:
            factor, times, traced = run_pass(pkg.cli, argvs)
        finally:
            tracer.restore()
        traced_pass_s.append(sum(times) * factor)
        selfs = {name: t * factor for name, t in tracer.self_times(since).items()}
        per_pass.append((selfs, tracer.counts - counts_before))
        attempted += len(traced)
        failed += check_pass(calls, traced, expected, failures)
        for call, a, b in zip(calls, results, traced):
            if isinstance(a, Exception) or isinstance(b, Exception) or checks.full_record(a) != checks.full_record(b):
                correct = False
                failures.append("%s: traced result differs from the untraced one" % call.label)
        if per_pass[-1][1] != per_pass[0][1]:
            correct = False
            failures.append("per-pass counts differ between traced passes")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "batch_s": (statistics.median(pass_s), "s"),
            "call_ms.p50": (statistics.median(call_times) * 1000, "ms"),
            "call_ms.p90": (quantile(call_times, 90) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb(argvs, workdir), "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(calls, traced, pass_s, traced_pass_s, per_pass, tracer)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s-seed%d.csv" % (args.workload, args.seed)))
    for line in failures[:20]:
        print("FAIL %s" % line, file=sys.stderr)
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(calls, results, pass_s, traced_pass_s, per_pass, tracer) -> dict:
    passes = len(per_pass)
    metrics: dict[str, tuple[float, str]] = {}
    totals: Counter[str] = Counter()
    for selfs, _ in per_pass:
        totals.update(selfs)
    for name in tracing.SPAN_NAMES:
        metrics[name + ".self_s"] = (totals[name] / passes, "s")
    counts = per_pass[0][1]
    for name in tracing.COUNT_NAMES:
        metrics[name] = (counts[name], "count")
    moment_calls = sum(1 for call in calls if call.command == "moments")
    metrics["moments.enumerations_per_command"] = (
        counts["moments.enumerations"] / moment_calls if moment_calls else 0.0,
        "ratio",
    )
    verdicts = Counter(r.verdict for r in results if not isinstance(r, Exception))
    for verdict in VERDICTS:
        metrics["verdict." + verdict] = (verdicts[verdict], "count")
    traced = statistics.median(traced_pass_s)
    plain = statistics.median(pass_s)
    metrics["trace.batch_s"] = (traced, "s")
    metrics["trace.overhead_pct"] = ((traced / plain - 1) * 100, "%")
    metrics["trace.accounted_share"] = (sum(totals.values()) / sum(traced_pass_s), "ratio")
    metrics["trace.spans_per_pass"] = (len(tracer.spans) / passes, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "abovetight" / "__init__.py").is_file():
        print("perfbench: %s/abovetight not found; run from a repository checkout" % SRC, file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_tmp" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
