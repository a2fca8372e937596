"""Check that another checkout gives the same output as this one on every benchmark call and probe.

Builds each workload's call list once per seed, with ``perfbench/workloads.py``
and this checkout's package, and writes the instance files to a temporary
directory. The fixed ``PROBES``, labelled ``probe ...``, follow them: calls
that reach the refusals and raised caps no workload does. Two child
processes, one importing this checkout's ``src/`` and one
``OTHER_CHECKOUT/src``, then make the same ``cli.run`` calls. Call by
call the script compares ``perfbench/checks.full_record``, ``to_json()``
without ``time_ms``, and the file each ``gen`` call writes, each diagnostic
key being a part of its own. It prints one line per part that differs on
some call: whether this checkout added, removed or changed it, on how many
calls, and the first such call's label with its two values. It exits 1 on
any difference; otherwise it prints the number of calls compared.

    python3 scripts/compare_outputs.py ../parent --seeds 0 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = str(Path(__file__).resolve())
ROOT = Path(SCRIPT).parent.parent
PERFBENCH = ROOT / "perfbench"
# The all-positive width-3 chain on 28 variables, clauses (i, i+1, i+2) for i = 1..26.
CHAIN = "p ecnf 28 26 3\n" + "".join("%d %d %d 0\n" % (i, i + 1, i + 2) for i in range(1, 27))
PATH = "p digraph 3 2\na 1 2 1\na 2 3 1\n"
CYCLE = "p digraph 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n"
# x1 = 1, x2 = 1 and x1 + x2 = 1: two of the three hold at best, and no variable set meets each once.
NO_ODD_SET = "p lin2 2 3\ne 1 1 1\ne 1 1 2\ne 1 1 1 2\n"
RESTRICTED = "p ecnf 3 2 2\n1 2 0\n2 3 0\n"
# Each probe's instance text and its command's flags after the file.
PROBES = [
    (CHAIN, ["rsat", "--k-num", "1"]),  # KERNEL at the cap
    (CHAIN, ["rsat", "--k-num", "1", "--cap", "40"]),  # KERNEL at the count budget
    (CHAIN, ["moments", "--cap", "40"]),  # ERROR at the count budget
    ("p ecnf 2 4 2\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", ["rsat", "--k-num", "1"]),  # REFUSED
    (NO_ODD_SET, ["linalb", "--k", "1", "--case", "odd-set"]),  # REFUSED
    (PATH, ["loalb", "--k", "1", "--cap", "30"]),
    (CYCLE, ["loalb", "--k", "1", "--cap", "30"]),
    (PATH, ["fas", "--k", "1", "--cap", "30"]),
    (CYCLE, ["fas", "--k", "1", "--cap", "30"]),
    ("p lin2 1 1\ne 2 0 1\n", ["linalb", "--k", "1", "--cap", "30"]),
    (NO_ODD_SET, ["linalb", "--k", "1", "--cap", "30"]),
    (RESTRICTED, ["rsat", "--k-num", "1", "--cap", "30"]),
    (RESTRICTED, ["rsat", "--k-num", "3", "--cap", "30"]),
]


def child(src: str, calls_path: str, out_path: str) -> None:
    """Make each listed call once and write what each gave, as JSON."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import checks
    from abovetight import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError("abovetight imported from %s, not from %s" % (cli.__file__, src))
    outputs = []
    for argv in json.loads(Path(calls_path).read_text(encoding="utf-8")):
        try:
            result = cli.run(argv)
        except Exception as exc:  # a crash is an output to compare, not a reason to stop
            outputs.append({"raised": repr(exc)})
            continue
        payload = json.loads(result.to_json())
        del payload["time_ms"]
        emitted = Path(argv[-1])
        gen = None
        if argv[0] == "gen" and emitted.is_file():
            gen = emitted.read_text(encoding="utf-8")
            emitted.unlink()
        outputs.append({"record": checks.full_record(result), "json": payload, "gen": gen})
    Path(out_path).write_text(json.dumps(outputs), encoding="utf-8")


def write_calls(seeds: list[int], tiny: bool, workdir: Path):
    """Labels and argv lists of every call; the instance files are written as the benchmark does."""
    import run  # perfbench/run.py, for its fresh import and file writer

    pkg = run.fresh_import()
    labels, argvs = [], []
    for seed in seeds:
        for workload in run.workloads.WORKLOADS:
            calls = run.workloads.build(workload, seed, pkg, tiny)
            run.write_inputs(pkg, calls, workdir / ("%s-%d" % (workload, seed)))
            labels += ["seed %d %s" % (seed, call.label) for call in calls]
            argvs += [call.argv() for call in calls]
    for i, (text, (command, *flags)) in enumerate(PROBES):
        path = workdir / ("probe-%02d.txt" % i)
        path.write_text(text, encoding="utf-8")
        labels.append("probe %d %s %s" % (i, command, " ".join(flags)))
        argvs.append([command, str(path), *flags])
    return labels, argvs


def parts(output: dict) -> dict[str, list]:
    """A call's output by part, each diagnostic a part of its own.

    The record and the JSON payload carry the same diagnostics, once as
    ``str()`` and once as written, so a diagnostic's part holds both.
    """
    flat: dict[str, list] = {}
    for part, value in output.items():
        if part == "record":
            verdict, diagnostics, *rest = value
            value = [verdict, *rest]
        elif part == "json":
            value = dict(value)
            diagnostics = value.pop("diagnostics").items()
        else:
            diagnostics = ()
        flat[part] = [value]
        for key, item in diagnostics:
            flat.setdefault("diagnostics." + key, []).append(item)
    return flat


def differences(labels, ours, theirs) -> list[str]:
    """One line per part that differs on some call, grouped by part and by how it differs."""
    groups: dict[tuple[str, str], list] = {}
    for label, a, b in zip(labels, map(parts, ours), map(parts, theirs)):
        for name in sorted(a.keys() | b.keys()):
            if a.get(name) != b.get(name):
                how = "added" if name not in b else "removed" if name not in a else "changed"
                groups.setdefault((name, how), []).append((label, a.get(name), b.get(name)))
    lines = [
        "%s %s on %d calls, first %s: this %.120s, other %.120s"
        % (name, how, len(found), found[0][0], json.dumps(found[0][1]), json.dumps(found[0][2]))
        for (name, how), found in groups.items()
    ]
    if len(ours) != len(theirs):
        lines.append("%d calls answered here, %d there" % (len(ours), len(theirs)))
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--tiny", action="store_true", help="smallest workload sizes")
    args = parser.parse_args(argv)
    other_src = args.other.resolve() / "src"
    if not (other_src / "abovetight" / "cli.py").is_file():
        print("compare_outputs: no package under %s" % other_src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(PERFBENCH))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        labels, argvs = write_calls(args.seeds, args.tiny, workdir)
        calls_path = workdir / "calls.json"
        calls_path.write_text(json.dumps(argvs), encoding="utf-8")
        outputs = []
        # One side after the other: both write each gen file to the same path.
        for side, src in (("this", ROOT / "src"), ("other", other_src)):
            out = workdir / ("%s.json" % side)
            command = [sys.executable, SCRIPT, "--child", str(src), str(calls_path), str(out)]
            if subprocess.run(command).returncode != 0:
                print("compare_outputs: the call run under %s failed" % src, file=sys.stderr)
                return 2
            outputs.append(json.loads(out.read_text(encoding="utf-8")))
    ours, theirs = outputs
    problems = differences(labels, ours, theirs)
    for problem in problems:
        print("compare_outputs: %s" % problem)
    if problems:
        return 1
    seeds = " ".join(map(str, args.seeds))
    counts = (len(labels) - len(PROBES), seeds, len(PROBES))
    print("compare_outputs: %d calls at seeds %s and %d probes, no difference" % counts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
