"""Output checks for benchmark calls, written independently of the package.

Witnesses are re-scored here from the instance the benchmark built, moment
identities are recomputed from the instance's weights, and verdicts are held
to what the construction allows. For the default seed every verdict record
is also compared with the expected-answers file of its workload.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Diagnostics whose values follow from the instance and the parameter alone,
# so any correct implementation echoes them unchanged. Keys that name an
# implementation choice (the odd set found, the cap in force, kernel sizes
# before compression) are left out.
STABLE_KEYS = frozenset(
    {
        # loalb and fas
        "k", "w2", "w2_threshold", "kernel_arcs", "best_2x", "target_2x",
        "arc_count", "fas_bound_doubled",
        # linalb
        "case", "m", "m_threshold", "kernel_vars", "kernel_eqs", "best_x", "target_x",
        # rsat
        "k_num", "cn", "cn_bound", "best_scaled_x", "target_scaled_x",
        # moments
        "e1", "e2", "e4", "symmetric", "scale", "total", "second_moment_target",
        "second_moment_holds", "pairwise_e2", "tail_b", "tail_probability", "tail_holds",
        # gen
        "kind", "seed", "format",
    }
)

# The diagnostic holding the optimum each exact decider found.
BEST_KEY = {"loalb": "best_2x", "fas": "best_2x", "linalb": "best_x", "rsat": "best_scaled_x"}


def record(result) -> dict[str, Any]:
    """The stable part of a result: verdict and the stable diagnostics, as text."""
    diag = {k: str(v) for k, v in result.diagnostics.items() if k in STABLE_KEYS}
    return {"verdict": result.verdict, "diag": dict(sorted(diag.items()))}


def full_record(result) -> tuple:
    """Everything a result carries except its wall time."""
    diag = tuple(sorted((k, str(v)) for k, v in result.diagnostics.items()))
    witness = None if result.witness is None else tuple(result.witness)
    kernel = None if result.kernel is None else tuple(sorted(result.kernel.items()))
    return (result.verdict, diag, witness, kernel, result.error)


def load_expected(workload: str) -> dict[str, Any] | None:
    path = EXPECTED_DIR / ("%s.json" % workload)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Independent evaluators


def order_balance(g, tokens: list[int]) -> int | None:
    """2X of a 1-based vertex sequence, or None if it is not an order of all vertices."""
    if sorted(tokens) != list(range(1, g.n + 1)):
        return None
    pos = {v - 1: i for i, v in enumerate(tokens)}
    forward = sum(w for u, v, w in g.arcs if pos[u] < pos[v])
    return 2 * forward - sum(w for _, _, w in g.arcs)


def equation_balance(s, z: list[int]) -> int | None:
    """Satisfied minus unsatisfied weight of a 0/1 assignment."""
    if len(z) != s.n or any(b not in (0, 1) for b in z):
        return None
    total = 0
    for eq in s.equations:
        parity = sum(z[v] for v in eq.variables) & 1
        total += eq.weight if parity == eq.rhs else -eq.weight
    return total


def clause_balance(f, z: list[int]) -> int | None:
    """2^r times satisfied clauses minus (2^r - 1) m."""
    if len(z) != f.n or any(b not in (0, 1) for b in z):
        return None
    sat = sum(1 for clause in f.clauses if any((z[abs(lit) - 1] == 1) == (lit > 0) for lit in clause))
    scale = 1 << f.r
    return scale * sat - (scale - 1) * len(f.clauses)


def witness_score(call, witness: list[int]) -> int | None:
    if call.command in ("loalb", "fas"):
        return order_balance(call.instance, witness)
    if call.command == "linalb":
        return equation_balance(call.instance, witness)
    return clause_balance(call.instance, witness)


def decision_target(call) -> int:
    """The value the decider's balance must reach, at the scale of BEST_KEY."""
    return call.target if call.command == "rsat" else 2 * call.target


# ---------------------------------------------------------------------------
# Per-kind checks; each returns a failure message or None.


def check_decision(call, result) -> str | None:
    best = result.diagnostics.get(BEST_KEY[call.command])
    if result.verdict == "YES_WITNESS":
        if result.witness is None:
            return "YES_WITNESS without a witness"
        score = witness_score(call, list(result.witness))
        if score is None:
            return "witness is not a complete order or assignment"
        if score < decision_target(call):
            return "witness scores %d below target %d" % (score, decision_target(call))
        if best is not None and int(best) != score:
            return "witness scores %d but best is echoed as %s" % (score, best)
    elif result.verdict == "NO" and best is not None and int(best) >= decision_target(call):
        return "NO although the echoed best %s reaches target %d" % (best, decision_target(call))
    return None


def check_moments(call, result) -> str | None:
    inst = call.instance
    diag = result.diagnostics
    e1 = Fraction(str(diag["e1"]))
    e2 = Fraction(str(diag["e2"]))
    if e1 != 0:
        return "E(X) = %s, expected 0" % e1
    if hasattr(inst, "arcs"):
        target = Fraction(sum(w * w for _, _, w in inst.arcs), 12)
        ok = e2 >= target
    elif hasattr(inst, "equations"):
        target = Fraction(sum(eq.weight**2 for eq in inst.equations))
        ok = e2 == target
    else:
        target = Fraction(len(inst.clauses), 4**inst.r)
        ok = e2 >= target
    if not ok:
        return "E(X^2) = %s fails its claim against %s" % (e2, target)
    if str(diag.get("second_moment_holds")) != "True":
        return "second-moment claim reported as %s" % diag.get("second_moment_holds")
    # Where its preconditions hold, the fourth-moment tail bound is a theorem.
    if "tail_holds" in diag and str(diag["tail_holds"]) != "True":
        return "fourth-moment tail reported as %s" % diag["tail_holds"]
    return None


def check_gen(call, result) -> str | None:
    """The emitted file has a header of the family's format and as many records as it announces."""
    fmt = {"digraph": ("symmetric-digraph", "random-oriented"),
           "lin2": ("cancelling-pairs-lin2", "random-lin2", "remark2"),
           "ecnf": ("complete-rcnf", "disjoint-complete-rcnf")}
    try:
        with open(call.path, encoding="utf-8") as handle:
            lines = [ln.split() for ln in handle if ln.strip() and not ln.startswith("c")]
    except OSError as exc:
        return "gen output unreadable: %s" % exc
    header = lines[0] if lines else []
    if len(header) < 4 or header[0] != "p" or call.gen_kind not in fmt.get(header[1], ()):
        return "gen header %r does not fit kind %s" % (header, call.gen_kind)
    if int(header[3]) != len(lines) - 1:
        return "gen header announces %s records, file has %d" % (header[3], len(lines) - 1)
    if call.gen_kind == "symmetric-digraph":
        arcs = {(a[1], a[2]): a[3] for a in lines[1:]}
        if any(arcs.get((v, u)) != w for (u, v), w in arcs.items()):
            return "symmetric digraph has an arc without its equal-weight reverse"
    # Removed so that the next pass is checked on a file it wrote itself.
    os.remove(call.path)
    return None


def check(call, result, expected: dict[str, Any] | None) -> str | None:
    """Failure message for one call's result, or None when it is correct."""
    if result.verdict not in call.expect:
        return "verdict %s not in %s (%s)" % (result.verdict, sorted(call.expect), result.error)
    if call.command == "moments":
        problem = check_moments(call, result)
    elif call.command == "gen":
        problem = check_gen(call, result)
    else:
        problem = check_decision(call, result)
    if problem is None and expected is not None:
        want = expected.get(call.label)
        got = record(result)
        if want is None:
            problem = "no expected record for %s" % call.label
        elif got["verdict"] != want["verdict"]:
            problem = "verdict %s, expected %s" % (got["verdict"], want["verdict"])
        else:
            for key, value in want["diag"].items():
                if got["diag"].get(key) != value:
                    problem = "%s = %s, expected %s" % (key, got["diag"].get(key), value)
                    break
    return problem
