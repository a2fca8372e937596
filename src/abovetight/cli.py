"""Command-line front end: parse instances, decide, verify moments, generate."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from . import instances, maxlin, moments, rsat
from .linord import LinearOrder, WeightedDigraph, decide_fas_below, decide_loalb
from .maxlin import CaseTag, Lin2System
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated
from .rsat import ExactCnfFormula

DECISION_VERDICTS = {"YES_BY_BOUND", "YES_WITNESS", "NO", "KERNEL"}


@dataclass
class RunResult:
    """Structured outcome of one command invocation."""

    verdict: str
    diagnostics: dict[str, Any] = field(default_factory=dict)
    witness: list[int] | None = None
    kernel: dict[str, int] | None = None
    time_ms: float = 0.0
    error: str | None = None

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in DECISION_VERDICTS or self.verdict == "OK" else 2

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
        payload = {
            "verdict": self.verdict,
            "diagnostics": {k: str(v) for k, v in self.diagnostics.items()},
            "witness": self.witness,
            "kernel": self.kernel,
            "time_ms": self.time_ms,
            "error": self.error,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abovetight",
        description="Deciders and moment verifiers for problems parameterized "
        "above tight lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="instance file path")
        p.add_argument("--cap", type=int, default=None, help="exact-solve size cap")
        p.add_argument("--workers", type=int, default=1, help="enumeration workers")
        p.add_argument("--emit", default=None, help="write a JSON result here")

    p = sub.add_parser("loalb", help="acyclic-subdigraph weight above W/2 + k")
    add_common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("fas", help="feedback arc set below |A|/2 - k (unit weights)")
    add_common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("linalb", help="satisfied equation weight above W/2 + k")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--case",
        choices=["auto", "odd-set", "arity", "occurrence", "general"],
        default="auto",
    )

    p = sub.add_parser("rsat", help="satisfied clauses above (1-2^-r)m + k_num/2^r")
    add_common(p)
    p.add_argument("--k-num", type=int, required=True, dest="k_num")
    p.add_argument(
        "--diagnostic",
        action="store_true",
        help="solve exactly even when the conflict-number restriction fails",
    )

    p = sub.add_parser("moments", help="exact moment report for an instance")
    add_common(p)
    p.add_argument("--b", default=None, help="fourth-moment ratio bound, e.g. 8 or 3/2")
    p.add_argument("--estimate", type=int, default=None, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="write a seeded instance of a named family")
    p.add_argument("kind", choices=list(instances.GENERATOR_KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--wmax", type=int, default=None)
    p.add_argument("--emit", default=None, help="write the instance here instead of stdout")
    return parser


def _witness_tokens(witness: Any) -> list[int]:
    if isinstance(witness, LinearOrder):
        return [v + 1 for v in witness.sequence()]
    return [int(b) for b in witness]


def _kernel_stats(kernel: Any) -> dict[str, int]:
    if isinstance(kernel, WeightedDigraph):
        return {"n": kernel.n, "arcs": len(kernel.arcs)}
    if isinstance(kernel, Lin2System):
        return {"n": kernel.n, "m": len(kernel.equations)}
    if isinstance(kernel, ExactCnfFormula):
        return {"n": kernel.n, "m": len(kernel.clauses)}
    return {}


def _from_outcome(outcome: DecisionOutcome) -> RunResult:
    witness = None if outcome.witness is None else _witness_tokens(outcome.witness)
    kernel = None if outcome.kernel is None else _kernel_stats(outcome.kernel)
    return RunResult(
        verdict=outcome.verdict.value,
        diagnostics=dict(outcome.diagnostics),
        witness=witness,
        kernel=kernel,
    )


def _load(path: str, expected: type) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        instance = instances.parse_instance(handle.read())
    if not isinstance(instance, expected):
        raise ValueError(
            "expected a %s instance, found %s" % (expected.__name__, type(instance).__name__)
        )
    return instance


def _case_tag(name: str, system: Lin2System, k: int) -> CaseTag:
    if name == "auto":
        return maxlin.auto_case(system, k)
    if name == "odd-set":
        return CaseTag.for_odd_set()
    if name == "arity":
        stats = maxlin.system_stats(maxlin.merge_duplicates(system))
        return CaseTag.for_arity(max(stats.r, 1))
    if name == "occurrence":
        stats = maxlin.system_stats(maxlin.merge_duplicates(system))
        return CaseTag.for_occurrence(max(stats.rho, 1))
    return CaseTag.general()


def _run_moments(args: argparse.Namespace) -> RunResult:
    instance = None
    with open(args.file, "r", encoding="utf-8") as handle:
        instance = instances.parse_instance(handle.read())
    diag: dict[str, Any] = {}
    if args.estimate is not None:
        est = moments.estimate_moments(instance, samples=args.estimate, seed=args.seed)
        for key, value in est.items():
            diag[key] = value
        return RunResult(verdict="OK", diagnostics=diag)
    if isinstance(instance, WeightedDigraph):
        dist = moments.dist_linord(instance, **_cap_kw(args))
    elif isinstance(instance, Lin2System):
        dist = moments.dist_lin2(instance, workers=args.workers, **_cap_kw(args))
    else:
        dist = moments.dist_rsat(instance, workers=args.workers, **_cap_kw(args))
    report = moments.moment_report(dist)
    diag["e1"] = report.e1
    diag["e2"] = report.e2
    diag["e4"] = report.e4
    diag["symmetric"] = report.symmetric
    diag["scale"] = dist.scale
    diag["total"] = dist.total
    try:
        claim = moments.verify_second_moment_claims(instance, dist=dist)
        diag["second_moment_target"] = claim.target
        diag["second_moment_holds"] = claim.holds
        if claim.pairwise_e2 is not None:
            diag["pairwise_e2"] = claim.pairwise_e2
    except ValueError as exc:
        diag["second_moment_skipped"] = str(exc)
    if args.b is not None:
        b = Fraction(args.b)
        tail = moments.verify_fourth_moment_tail(dist, b)
        diag["tail_b"] = b
        if tail.preconditions_ok:
            diag["tail_probability"] = tail.probability
            diag["tail_holds"] = tail.holds
        else:
            diag["tail_skipped"] = tail.failed_precondition
    return RunResult(verdict="OK", diagnostics=diag)


def run(argv: Sequence[str]) -> RunResult:
    """Execute one command and return its structured result."""
    args = build_parser().parse_args(list(argv))
    started = time.perf_counter()
    try:
        if args.command == "loalb":
            g = _load(args.file, WeightedDigraph)
            outcome = decide_loalb(g, args.k, **_cap_kw(args))
            result = _from_outcome(outcome)
        elif args.command == "fas":
            g = _load(args.file, WeightedDigraph)
            outcome = decide_fas_below(g, args.k, **_cap_kw(args))
            result = _from_outcome(outcome)
        elif args.command == "linalb":
            system = _load(args.file, Lin2System)
            tag = _case_tag(args.case, system, args.k)
            outcome = maxlin.decide_linalb(
                system, args.k, tag, workers=args.workers, **_cap_kw(args)
            )
            result = _from_outcome(outcome)
        elif args.command == "rsat":
            formula = _load(args.file, ExactCnfFormula)
            outcome = rsat.decide_rsatalb(
                formula,
                args.k_num,
                workers=args.workers,
                diagnostic=args.diagnostic,
                **_cap_kw(args),
            )
            result = _from_outcome(outcome)
        elif args.command == "moments":
            result = _run_moments(args)
        elif args.command == "gen":
            out = instances.gen_instance(
                args.kind,
                seed=args.seed,
                n=args.n,
                m=args.m,
                r=args.r,
                pairs=args.pairs,
                blocks=args.blocks,
                wmax=args.wmax,
            )
            if args.emit:
                with open(args.emit, "w", encoding="utf-8") as handle:
                    handle.write(out.text)
            result = RunResult(
                verdict="OK",
                diagnostics={"kind": args.kind, "seed": args.seed, "format": out.format},
            )
            if not args.emit:
                result.diagnostics["text"] = out.text
            result.time_ms = (time.perf_counter() - started) * 1000
            return result
        else:  # pragma: no cover - argparse rejects unknown commands
            raise ValueError("unknown command %r" % args.command)
    except RestrictionViolated as exc:
        result = RunResult(verdict="REFUSED", error=str(exc))
    except (OSError, ValueError, CapExceeded) as exc:
        result = RunResult(verdict="ERROR", error=str(exc))
    result.time_ms = (time.perf_counter() - started) * 1000
    if getattr(args, "emit", None) and args.command != "gen":
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
    return result


def _cap_kw(args: argparse.Namespace) -> dict[str, int]:
    return {} if args.cap is None else {"cap": args.cap}


def main(argv: Sequence[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    for line in result.lines():
        print(line)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
