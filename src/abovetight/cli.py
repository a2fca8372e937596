"""Command-line front end: parse instances, decide, verify moments, generate."""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Any, Sequence

from . import instances, maxlin, moments, rsat
from .linord import LinearOrder, WeightedDigraph, decide_fas_below, decide_loalb
from .maxlin import CaseKind, Lin2System
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated
from .rsat import ExactCnfFormula

# Every size some generator kind reads, in table order; each is a gen flag.
GEN_SIZES = tuple(
    dict.fromkeys(name for sizes in instances.GENERATOR_SIZES.values() for name in sizes)
)


@dataclass
class RunResult:
    """Structured outcome of one command invocation."""

    verdict: str
    diagnostics: dict[str, Any] = field(default_factory=dict)
    witness: Sequence[int] | None = None
    kernel: dict[str, int] | None = None
    time_ms: float = 0.0
    error: str | None = None

    @property
    def exit_code(self) -> int:
        return 2 if self.verdict in ("REFUSED", "ERROR") else 0

    def lines(self) -> list[str]:
        out = ["verdict %s" % self.verdict]
        for key in sorted(self.diagnostics):
            out.append("%s %s" % (key, self.diagnostics[key]))
        if self.witness is not None:
            out.append("witness %s" % " ".join(str(x) for x in self.witness))
        if self.kernel is not None:
            for key in sorted(self.kernel):
                out.append("kernel.%s %s" % (key, self.kernel[key]))
        if self.error is not None:
            out.append("error %s" % self.error)
        out.append("time_ms %.2f" % self.time_ms)
        return out

    def to_json(self) -> str:
        # bool is an int; Fraction and float diagnostics are written with str().
        diagnostics = {
            k: v if isinstance(v, (int, str)) else str(v) for k, v in self.diagnostics.items()
        }
        return json.dumps(dict(vars(self), diagnostics=diagnostics), indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    # No parser takes an abbreviated flag: "--k" is not "--k-num", nor "--ca" "--cap".
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="abovetight",
        description="Deciders and moment verifiers for problems parameterized "
        "above tight lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("file", help="instance file path")
    instance.add_argument("--cap", type=int, default=None, help="exact-solve size cap")
    instance.add_argument("--emit", default=None, help="write a JSON result here")
    target = argparse.ArgumentParser(add_help=False, parents=[instance])
    target.add_argument("--k", type=int, required=True)

    sub.add_parser("loalb", parents=[target], help="acyclic-subdigraph weight above W/2 + k")
    sub.add_parser("fas", parents=[target], help="feedback arc set below |A|/2 - k (unit weights)")
    p = sub.add_parser("linalb", parents=[target], help="satisfied equation weight above W/2 + k")
    p.add_argument("--case", choices=["auto", *(c.value for c in CaseKind)], default="auto")

    p = sub.add_parser(
        "rsat", parents=[instance], help="satisfied clauses above (1-2^-r)m + k_num/2^r"
    )
    p.add_argument("--k-num", type=int, required=True, dest="k_num")
    p.add_argument(
        "--diagnostic",
        action="store_true",
        help="solve exactly even when the conflict-number restriction fails",
    )

    p = sub.add_parser("moments", parents=[instance], help="exact moment report for an instance")
    p.add_argument("--b", default=None, help="fourth-moment ratio bound, e.g. 8 or 3/2")
    p.add_argument("--estimate", type=int, default=None, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=None, help="--estimate sampling seed (default 0)")

    p = sub.add_parser("gen", help="write a seeded instance of a named family")
    p.add_argument("kind", choices=instances.GENERATOR_KINDS)
    p.add_argument("--seed", type=int, default=0)
    for name in GEN_SIZES:
        readers = [
            "%s (%s)" % (kind, "derived" if sizes[name] is None else sizes[name])
            for kind, sizes in instances.GENERATOR_SIZES.items()
            if name in sizes
        ]
        p.add_argument("--" + name, type=int, default=None, help="read by " + ", ".join(readers))
    p.add_argument("--emit", default=None, help="write the instance here instead of stdout")
    return parser


_PARSER = build_parser()


def _plain_entry(name: str, sub: argparse.ArgumentParser) -> tuple:
    """A command's parser, positional, flags by option string, required actions and defaults.

    All of it is read from the parser's own actions. -h, whose default is
    SUPPRESS, prints and exits, and a flag that takes a list reads more than
    one token, so neither enters the table. Every command has one
    positional of one token; the unpacking below fails at import otherwise.
    """
    kept = [a for a in sub._actions if argparse.SUPPRESS not in (a.dest, a.default) and a.nargs in (None, 0)]
    (positional,) = [a for a in kept if not a.option_strings]
    flags = {s: a for a in kept for s in a.option_strings}
    defaults = {"command": name, **{a.dest: a.default for a in kept}}
    return sub, positional, flags, {a for a in sub._actions if a.required}, defaults


(_COMMANDS,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
_PLAIN = {name: _plain_entry(name, sub) for name, sub in _COMMANDS.choices.items()}


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """What ``_PARSER.parse_args(argv)`` gives for a plain argv; None for any other.

    A plain argv is a command, its positional, then distinct flags of its
    table, each written in full and followed by its value, if it takes one.
    A value that starts with "-" declines, and so does a required flag left
    out; argparse's own code converts and checks each value, and one that
    fails declines too. So argparse alone writes usage errors and help.
    """
    entry = _PLAIN.get(argv[0]) if argv else None
    if entry is None:
        return None
    sub, positional, flags, required, defaults = entry
    namespace, seen = argparse.Namespace(**defaults), set()
    # The positional reads the first token as its value; each flag read after it from the same
    # iterator reads the next token, if it takes a value. A missing value reads "-", which declines.
    tokens = iter(argv[1:])
    for action in chain([positional], map(flags.get, tokens)):
        text = next(tokens, "-") if action is not None and action.nargs is None else None
        if action is None or action in seen or text is not None and text.startswith("-"):
            return None
        seen.add(action)
        try:
            # store_true has no type and no choices: its None passes, and it stores its const.
            value = sub._get_value(action, text)
            sub._check_value(action, value)
        except argparse.ArgumentError:
            return None
        action(sub, namespace, value)
    return namespace if required <= seen else None


def _witness_tokens(witness: Any) -> Sequence[int]:
    """The printed tokens of a witness: an order's vertices numbered from 1, or an assignment as it is.

    An assignment witness is ``maxlin.lift_assignment``'s tuple of the ints 0
    and 1, already what is printed, so it is passed on without a copy of its
    n pointers.
    """
    if not isinstance(witness, LinearOrder):
        return witness
    # The tokens are the order's own int objects, not n new ones. Sorted, the
    # order holds v at index v, so index v of the shifted copy holds v + 1. A
    # witness order is the solved vertices, then runs of the others in index
    # order, so the sort merges a few runs.
    shifted = sorted(witness.vertices)
    shifted.append(len(shifted))
    del shifted[0]
    return list(map(shifted.__getitem__, witness.vertices))


def _kernel_stats(kernel: Any) -> dict[str, int]:
    if isinstance(kernel, WeightedDigraph):
        return {"n": kernel.n, "arcs": len(kernel.weights)}
    if isinstance(kernel, Lin2System):
        return {"n": kernel.n, "m": len(kernel.equations)}
    return {"n": kernel.n, "m": len(kernel.clauses)}


def _from_outcome(outcome: DecisionOutcome) -> RunResult:
    witness = None if outcome.witness is None else _witness_tokens(outcome.witness)
    kernel = None if outcome.kernel is None else _kernel_stats(outcome.kernel)
    return RunResult(
        verdict=outcome.verdict.value,
        diagnostics=dict(outcome.diagnostics),
        witness=witness,
        kernel=kernel,
    )


def _load(path: str, expected: type = object) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        instance = instances.parse_instance(handle.read())
    if not isinstance(instance, expected):
        raise ValueError(
            "expected a %s instance, found %s" % (expected.__name__, type(instance).__name__)
        )
    return instance


def _run_moments(args: argparse.Namespace) -> RunResult:
    if args.estimate is not None and (args.b is not None or args.cap is not None):
        raise ValueError("--estimate samples without enumerating; it takes neither --b nor --cap")
    if args.estimate is None and args.seed is not None:
        raise ValueError("--seed seeds the --estimate sampling; it needs --estimate")
    instance = _load(args.file)
    if args.estimate is not None:
        est = moments.estimate_moments(instance, samples=args.estimate, seed=args.seed or 0)
        return RunResult(verdict="OK", diagnostics=dict(est))
    if isinstance(instance, WeightedDigraph):
        dist = moments.dist_linord(instance, **_cap_kw(args))
    elif isinstance(instance, Lin2System):
        dist = moments.dist_lin2(instance, **_cap_kw(args))
    else:
        dist = moments.dist_rsat(instance, **_cap_kw(args))
    diag: dict[str, Any] = dict(vars(moments.moment_report(dist)))
    diag["scale"] = dist.scale
    diag["total"] = dist.total
    try:
        claim = moments.verify_second_moment_claims(dist)
        diag["second_moment_target"] = claim.target
        diag["second_moment_holds"] = claim.holds
        diag["pairwise_e2"] = claim.pairwise_e2
    except (ValueError, CapExceeded) as exc:
        diag["second_moment_skipped"] = str(exc)
    if args.b is not None:
        # No exponent, whose power of ten Fraction would build in full, and no zero denominator.
        if not re.fullmatch(r"[-+]?\d+(\.\d+|/0*[1-9]\d*)?", args.b):
            raise ValueError("--b must be an integer, a decimal or a/b with b > 0: %r" % args.b)
        b = Fraction(args.b)
        tail = moments.verify_fourth_moment_tail(dist, b)
        diag["tail_b"] = b
        if tail.failed_precondition is None:
            diag["tail_probability"] = tail.probability
            diag["tail_holds"] = tail.holds
        else:
            diag["tail_skipped"] = tail.failed_precondition
    return RunResult(verdict="OK", diagnostics=diag)


def run(argv: Sequence[str]) -> RunResult:
    """Execute one command and return its structured result.

    A refusal, an --emit file that cannot be written and a diagnostic too
    long to print all come back as a REFUSED or ERROR result, so that
    ``main`` can print any result it is given.
    """
    args = _read_plain(argv) or _PARSER.parse_args(list(argv))
    started = time.perf_counter()
    try:
        if getattr(args, "cap", None) is not None and args.cap < 0:  # gen takes no --cap
            raise ValueError("--cap must be nonnegative, not %d" % args.cap)
        if args.command in ("loalb", "fas"):
            decide = decide_loalb if args.command == "loalb" else decide_fas_below
            outcome = decide(_load(args.file, WeightedDigraph), args.k, **_cap_kw(args))
            result = _from_outcome(outcome)
        elif args.command == "linalb":
            system = _load(args.file, Lin2System)
            case = None if args.case == "auto" else CaseKind(args.case)
            outcome = maxlin.decide_linalb(system, args.k, case, **_cap_kw(args))
            result = _from_outcome(outcome)
        elif args.command == "rsat":
            formula = _load(args.file, ExactCnfFormula)
            outcome = rsat.decide_rsatalb(
                formula, args.k_num, diagnostic=args.diagnostic, **_cap_kw(args)
            )
            result = _from_outcome(outcome)
        elif args.command == "moments":
            result = _run_moments(args)
        else:  # gen, the last command the parser accepts
            sizes = {name: getattr(args, name) for name in GEN_SIZES}
            out = instances.gen_instance(args.kind, seed=args.seed, **sizes)
            result = RunResult(
                verdict="OK",
                diagnostics={"kind": args.kind, "seed": args.seed, "format": out.format},
            )
            if args.emit:
                _emit(args.emit, out.text)
            else:
                result.diagnostics["text"] = out.text
    except RestrictionViolated as exc:
        result = RunResult(verdict="REFUSED", error=str(exc))
    except (OSError, ValueError, CapExceeded) as exc:
        result = RunResult(verdict="ERROR", error=str(exc))
    result.time_ms = (time.perf_counter() - started) * 1000
    try:
        for key, value in result.diagnostics.items():
            str(value)  # raises past the interpreter's int-to-str digit limit
    except ValueError as exc:
        error = "cannot print %s: %s" % (key, exc)
        result = RunResult(verdict="ERROR", error=error, time_ms=result.time_ms)
    if args.emit and args.command != "gen":
        try:
            _emit(args.emit, result.to_json() + "\n")
        except OSError as exc:
            result = RunResult(verdict="ERROR", error=str(exc), time_ms=result.time_ms)
    return result


def _emit(path: str, text: str) -> None:
    """Write an --emit file; an OSError names the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cap_kw(args: argparse.Namespace) -> dict[str, int]:
    return {} if args.cap is None else {"cap": args.cap}


def main(argv: Sequence[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    for line in result.lines():
        print(line)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
