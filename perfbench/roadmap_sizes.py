"""Traced single calls at the baseline sizes the roadmap quotes for its open items.

    python3 perfbench/roadmap_sizes.py

These sizes are too slow for a steady workload pass, so they are measured
here once per call, through ``cli.run`` with the benchmark's trace wrappers,
and printed as call time plus the self time of the stages that dominate.
"""

from __future__ import annotations

import random
import shutil

import run  # sets up sys.path for the package and the benchmark modules
import tracing
import workloads


def cases(pkg, rng):
    for n in (16, 18):
        g = workloads.oriented_digraph(pkg, rng, n, 2 * n, 4)
        yield "exact_max_acyclic n=%d" % n, "loalb", ["--k", str(workloads.loalb_bound_k(g))], g
    s = workloads.regular_system(pkg, rng, 20, 3, workloads.mixed_sizes(20), 4)
    yield "maxlin.solve_exact n=20", "linalb", ["--k", "1", "--case", "general"], s
    while True:
        f = workloads.random_formula(pkg, rng, 20, 17, 3, 0.8)
        if len(f.occurring_variables()) == 20:
            break
    yield "rsat.solve_exact n=20 m=17", "rsat", ["--k-num", "1"], f
    g = workloads.oriented_digraph(pkg, rng, 9, 18, 4)
    yield "dist_linord n=9", "moments", ["--b", "64"], g
    s = workloads.random_system(pkg, rng, 2000, 200, (1, 2, 3), 4)
    yield "rank_reduce n=2000 m=200", "linalb", ["--k", "1", "--case", "general"], s


def main() -> int:
    pkg = run.fresh_import()
    workdir = run.ROOT / ".perfbench_tmp" / "roadmap"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for label, command, flags, instance in cases(pkg, random.Random("roadmap")):
            call = workloads.Call(label, command, flags, instance)
            run.write_inputs(pkg, [call], workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = pkg.cli.run(call.argv())
            finally:
                tracer.restore()
            wall = tracer.spans[0][2] - tracer.spans[0][1]
            top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:3]
            stages = ", ".join("%s %.3f s" % (name, t) for name, t in top if t > 0)
            print("%-28s %-12s %7.3f s  %s" % (label, result.verdict, wall, stages))
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
