"""Show that every tight-bound family decides NO at the smallest parameter.

Symmetric digraphs sit exactly at forward weight W/2, cancelling equation
pairs at satisfied weight W/2, and complete width-r formulas at
(1 - 2^-r)m satisfied clauses, so none of them can beat its bound.

    python3 scripts/tight_families.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from abovetight.instances import gen_instance, parse_instance
from abovetight.linord import decide_loalb
from abovetight.maxlin import CaseKind, decide_linalb
from abovetight.rsat import decide_rsatalb


def main() -> int:
    rows = []
    for n in (3, 4, 5, 6):
        g = parse_instance(gen_instance("symmetric-digraph", seed=n, n=n).text)
        rows.append(("symmetric-digraph n=%d" % n, decide_loalb(g, 1).verdict.value))
    for pairs in (2, 3, 4):
        s = parse_instance(
            gen_instance("cancelling-pairs-lin2", seed=pairs, n=6, pairs=pairs).text
        )
        verdict = decide_linalb(s, 1, CaseKind.GENERAL).verdict.value
        rows.append(("cancelling-pairs p=%d" % pairs, verdict))
    for r in (2, 3, 4):
        f = parse_instance(gen_instance("complete-rcnf", r=r).text)
        verdict = decide_rsatalb(f, 1, diagnostic=True).verdict.value
        rows.append(("complete-rcnf r=%d" % r, verdict))
        f2 = parse_instance(gen_instance("disjoint-complete-rcnf", r=r, blocks=2).text)
        verdict = decide_rsatalb(f2, 1, diagnostic=True).verdict.value
        rows.append(("disjoint-complete r=%d" % r, verdict))
    width = max(len(name) for name, _ in rows)
    for name, verdict in rows:
        print("%-*s  %s" % (width, name, verdict))
    bad = [name for name, verdict in rows if verdict != "NO"]
    if bad:
        print("UNEXPECTED verdicts:", ", ".join(bad))
        return 1
    print("all families NO at the smallest positive parameter")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
