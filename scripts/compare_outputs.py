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

With ``--record`` it runs this checkout alone and writes what each call gave
to a record file, by default ``tests/golden_outputs.json``, which
``tests/test_scripts.py`` compares a fresh run with. The record keeps each
call's JSON payload, so the verdict, diagnostics, kernel and error as
written; each witness and gen text is a 16-hex-digit SHA-256 prefix, and
``time_ms`` and the temporary instance paths are left out, so two runs write
byte-identical files.

    python3 scripts/compare_outputs.py ../parent --seeds 0 7
    python3 scripts/compare_outputs.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = str(Path(__file__).resolve())
ROOT = Path(SCRIPT).parent.parent
PERFBENCH = ROOT / "perfbench"
RECORD = ROOT / "tests" / "golden_outputs.json"
# The all-positive width-3 chain on 28 variables, clauses (i, i+1, i+2) for i = 1..26.
CHAIN = "p ecnf 28 26 3\n" + "".join("%d %d %d 0\n" % (i, i + 1, i + 2) for i in range(1, 27))
PATH = "p digraph 3 2\na 1 2 1\na 2 3 1\n"
CYCLE = "p digraph 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n"
# x1 = 1, x2 = 1 and x1 + x2 = 1: two of the three hold at best, and no variable set meets each once.
NO_ODD_SET = "p lin2 2 3\ne 1 1 1\ne 1 1 2\ne 1 1 1 2\n"
RESTRICTED = "p ecnf 3 2 2\n1 2 0\n2 3 0\n"
# 25 pairs x_v = 0, x_v = 1 that cancel when merged, and x1 + x2 = 1 at weight 3: rank 25 before
# merging, 1 after.
CANCELLING = "p lin2 25 51\n" + "".join("e 1 0 %d\ne 1 1 %d\n" % (v, v) for v in range(1, 26)) + "e 3 1 1 2\n"
# A 12-cycle with every arc doubled back at its weight, and the arc 1 -> 7 at weight 2: 12 active
# vertices before the 2-cycles cancel, 2 after.
SYMMETRIC = "p digraph 12 25\n" + "".join("a %d %d 1\na %d %d 1\n" % (v, v % 12 + 1, v % 12 + 1, v) for v in range(1, 13))
SYMMETRIC += "a 1 7 2\n"
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
    (CANCELLING, ["moments"]),  # OK: the cap bounds the merged system's rank
    (SYMMETRIC, ["moments"]),  # OK: the cap bounds the active vertices left once 2-cycles cancel
    (PATH, ["loalb", "--k", "1", "--cap", "-1"]),  # ERROR naming --cap
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
        labels.append("probe %d %s" % (i, " ".join([command, *flags])))
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


def run_calls(seeds: list[int], tiny: bool, sources: list[Path]) -> tuple[list[str], list[list[dict]]]:
    """Every call's label, and what each call gave under each source tree, one child process per tree."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        labels, argvs = write_calls(seeds, tiny, workdir)
        calls_path = workdir / "calls.json"
        calls_path.write_text(json.dumps(argvs), encoding="utf-8")
        outputs = []
        # One source after the other: each writes each gen file to the same path.
        for i, src in enumerate(sources):
            out = workdir / ("out-%d.json" % i)
            command = [sys.executable, SCRIPT, "--child", str(src), str(calls_path), str(out)]
            if subprocess.run(command).returncode != 0:
                raise RuntimeError("the call run under %s failed" % src)
            outputs.append(json.loads(out.read_text(encoding="utf-8")))
    return labels, outputs


def _digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of ``value``'s JSON text."""
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


def hashed(output: dict) -> dict:
    """A call's output as the record keeps it: its JSON payload and gen file, the witness and gen text hashed.

    The record part is left out: it holds the verdict, diagnostics, witness,
    kernel and error again, each diagnostic as ``str()`` of what the payload
    writes.
    """
    if "raised" in output:
        return output
    payload = dict(output["json"])
    if payload["witness"] is not None:
        payload["witness"] = _digest(payload["witness"])
    return {"json": payload, "gen": None if output["gen"] is None else _digest(output["gen"])}


def write_record(path: Path, labels: list[str], outputs: list[dict]) -> None:
    """One JSON array, each call's [label, hashed output] on a line of its own, keys sorted."""
    lines = [json.dumps([label, hashed(output)], sort_keys=True) for label, output in zip(labels, outputs)]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


def read_record(path: Path) -> tuple[list[str], list[dict]]:
    """The labels and hashed outputs ``write_record`` wrote."""
    pairs = json.loads(path.read_text(encoding="utf-8"))
    return [label for label, _ in pairs], [output for _, output in pairs]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, nargs="?", help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--tiny", action="store_true", help="smallest workload sizes")
    parser.add_argument(
        "--record",
        type=Path,
        nargs="?",
        const=RECORD,
        help="write this checkout's outputs to this file (default %s) instead of comparing" % RECORD.relative_to(ROOT),
    )
    args = parser.parse_args(argv)
    if (args.other is None) == (args.record is None):
        parser.error("give either the other checkout or --record")
    sources = [ROOT / "src"]
    if args.other is not None:
        sources.append(args.other.resolve() / "src")
        if not (sources[1] / "abovetight" / "cli.py").is_file():
            print("compare_outputs: no package under %s" % sources[1], file=sys.stderr)
            return 2
    sys.path.insert(0, str(PERFBENCH))
    try:
        labels, outputs = run_calls(args.seeds, args.tiny, sources)
    except RuntimeError as exc:
        print("compare_outputs: %s" % exc, file=sys.stderr)
        return 2
    seeds = " ".join(map(str, args.seeds))
    counts = (len(labels) - len(PROBES), seeds, len(PROBES))
    if args.record is not None:
        write_record(args.record, labels, outputs[0])
        print("compare_outputs: %d calls at seeds %s and %d probes written to %s" % (*counts, args.record))
        return 0
    problems = differences(labels, *outputs)
    for problem in problems:
        print("compare_outputs: %s" % problem)
    if problems:
        return 1
    print("compare_outputs: %d calls at seeds %s and %d probes, no difference" % counts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
