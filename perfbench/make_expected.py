"""Write the expected-answers files for the default seed.

    python3 perfbench/make_expected.py [workload ...]

For each workload, one untraced pass at the default seed is checked with the
benchmark's own checks, and every instance small enough for the brute-force
oracles in ``tests/helpers.py`` has its decision and optimum cross-checked
against them. Only then is ``perfbench/expected/<workload>.json`` written,
holding each call's verdict and stable diagnostics. Rerun it only when a
workload's instance generation changes, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # sets up sys.path for the package and the benchmark modules
import checks
import workloads

ORACLE_MAX_ORDER = 8  # active vertices; the oracle walks every permutation
ORACLE_MAX_ASSIGN = 16  # variables; the oracles walk every assignment


def oracle_best(helpers, call):
    """The optimum at the scale of checks.BEST_KEY, or None when out of the oracles' reach."""
    inst = call.instance
    if call.command in ("loalb", "fas"):
        active = {v for u, w, _ in inst.arcs for v in (u, w)}
        if len(active) > ORACLE_MAX_ORDER:
            return None
        # 2X is unchanged by 2-cycle cancellation, so the input's optimum is the kernel's.
        return 2 * helpers.brute_max_forward_weight(inst) - sum(w for _, _, w in inst.arcs)
    if inst.n > ORACLE_MAX_ASSIGN:
        return None
    if call.command == "linalb":
        return helpers.brute_best_x_lin2(inst)
    return helpers.brute_best_scaled_rsat(inst)


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "tests"))
    import helpers

    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    status = 0
    for name in names or workloads.WORKLOADS:
        workdir = run.ROOT / ".perfbench_tmp" / ("expected-%s" % name)
        try:
            pkg = run.fresh_import()
            calls = workloads.build(name, checks.DEFAULT_SEED, pkg)
            run.write_inputs(pkg, calls, workdir)
            _, _, results = run.run_pass(pkg.cli, [call.argv() for call in calls])
            problems = []
            crossed = 0
            for call, res in zip(calls, results):
                problem = "raised %r" % res if isinstance(res, Exception) else checks.check(call, res, None)
                if problem is None and call.command in checks.BEST_KEY and res.verdict in ("YES_WITNESS", "NO"):
                    best = oracle_best(helpers, call)
                    if best is not None:
                        crossed += 1
                        echoed = int(res.diagnostics[checks.BEST_KEY[call.command]])
                        decided = res.verdict == "YES_WITNESS"
                        if echoed != best or decided != (best >= checks.decision_target(call)):
                            problem = "oracle optimum %d, program echoed %d and said %s" % (best, echoed, res.verdict)
                if problem is not None:
                    problems.append("%s: %s" % (call.label, problem))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            status = 1
            print("%s: %d problems, file not written" % (name, len(problems)))
            for line in problems[:20]:
                print("  " + line)
            continue
        lines = ["  %s: %s" % (json.dumps(call.label), json.dumps(checks.record(res), sort_keys=True)) for call, res in zip(calls, results)]
        path = checks.EXPECTED_DIR / ("%s.json" % name)
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print("%s: %d records, %d cross-checked against the oracles -> %s" % (name, len(calls), crossed, path.name))
    try:
        (run.ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
