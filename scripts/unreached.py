"""List each function of the package that no call of ``compare_outputs`` enters.

Writes the same benchmark calls and probes as ``scripts/compare_outputs.py``
and makes them in this process, through that script's child, with a
``sys.settrace`` hook that records every code object a call enters. It then
compiles each module under ``src/abovetight`` and prints, one per line, each
function, method or nested function (not a lambda or comprehension) whose
code was never entered, with its line, followed by a count. A function
listed here is reached by none of the calls the golden record pins. The
package is imported before the hook is set, so a function that runs only
at import, such as ``cli.build_parser``, is listed too.

    python3 scripts/unreached.py --seeds 0 7
    python3 scripts/unreached.py --tiny --seeds 0
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare_outputs  # noqa: E402

PACKAGE = compare_outputs.ROOT / "src" / "abovetight"


def functions(path: Path) -> list[tuple[str, int, str]]:
    """(file name, first line, qualified name) of every named function the module defines.

    A class body's code is walked for its methods but is not listed: it runs
    once, at import, and is not optimized as a function's code is.
    """
    found, stack = [], [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if hasattr(c, "co_code")]
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            found.append((path.name, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)))
    return sorted(found)


def entered(seeds: list[int], tiny: bool) -> tuple[int, set[tuple[str, int]]]:
    """The number of calls made, and (file name, first line) of each package code object they entered."""
    seen: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(str(PACKAGE)):
            seen.add((Path(code.co_filename).name, code.co_firstlineno))

    sys.path.insert(0, str(compare_outputs.PERFBENCH))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _, argvs = compare_outputs.write_calls(seeds, tiny, workdir)
        calls = workdir / "calls.json"
        calls.write_text(json.dumps(argvs), encoding="utf-8")
        sys.settrace(trace)
        try:
            compare_outputs.child(str(PACKAGE.parent), str(calls), str(workdir / "out.json"))
        finally:
            sys.settrace(None)
    return len(argvs), seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--tiny", action="store_true", help="smallest workload sizes")
    args = parser.parse_args(argv)
    calls, seen = entered(args.seeds, args.tiny)
    defined = [f for path in sorted(PACKAGE.glob("*.py")) for f in functions(path)]
    missed = [(name, line, qualname) for name, line, qualname in defined if (name, line) not in seen]
    for name, line, qualname in missed:
        print("%s:%d %s" % (name, line, qualname))
    print("unreached: %d of %d functions over %d calls" % (len(missed), len(defined), calls))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
