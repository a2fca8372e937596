"""Spans and counts recorded from outside the package, by rebinding its functions.

``Tracer.install`` replaces each listed stage function with a wrapper under
every module-level name in the package that refers to it (``cli`` and
``moments`` import some of them by name), and ``Tracer.restore`` puts the
originals back. A wrapper records (name, start, end, parent) in memory; self
time is a span's duration minus the durations of its direct children. The
counts are computed by the benchmark from each call's arguments and result,
not counted by the program.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from typing import Any, Callable

PACKAGE = "abovetight"
PACKAGE_MODULES = ("cli", "instances", "linord", "maxlin", "gf2", "rsat", "moments", "outcome")


def _active(arcs) -> int:
    return len({v for u, w, _ in arcs for v in (u, w)})


def _count_parse(counts, args, kwargs, result):
    counts["instances.bytes_in"] += len(args[0])


def _count_merge(counts, args, kwargs, result):
    counts["maxlin.equations_merged"] += len(args[0].equations) - len(result.equations)


def _count_rank(counts, args, kwargs, result):
    counts["maxlin.rank_dropped"] += args[0].n - result.reduced.n


def _count_dp(counts, args, kwargs, result):
    counts["linord.dp_states"] += 1 << _active(args[0].arcs)


def _count_lin2_scan(counts, args, kwargs, result):
    counts["maxlin.assignments_scanned"] += 1 << args[0].n


def _count_rsat_scan(counts, args, kwargs, result):
    counts["rsat.assignments_scanned"] += 1 << len(args[0].occurring_variables())


def _count_orders(counts, args, kwargs, result):
    counts["moments.orders_enumerated"] += math.factorial(_active(args[0].arcs))
    counts["moments.enumerations"] += 1


def _count_enumeration(counts, args, kwargs, result):
    counts["moments.enumerations"] += 1


def _count_express(counts, args, kwargs, result):
    counts["gf2.express_in_basis.calls"] += 1


# (module, function, count hook). Hot inner helpers (pair_relation, _reduce,
# BitMatrix.column_bits, evaluate_x) are not wrapped: a span per inner step
# would cost more than the step.
STAGES: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "run", None),
    ("instances", "parse_instance", _count_parse),
    ("instances", "gen_instance", None),
    ("linord", "decide_loalb", None),
    ("linord", "decide_fas_below", None),
    ("linord", "reduce_two_cycles", None),
    ("linord", "digraph_stats", None),
    ("linord", "exact_max_acyclic", _count_dp),
    ("maxlin", "decide_linalb", None),
    ("maxlin", "merge_duplicates", _count_merge),
    ("maxlin", "system_stats", None),
    ("maxlin", "auto_case", None),
    ("maxlin", "find_odd_set", None),
    ("maxlin", "rank_reduce", _count_rank),
    ("maxlin", "solve_exact", _count_lin2_scan),
    ("maxlin", "lift_assignment", None),
    ("maxlin", "x_distribution_counts", None),
    ("gf2", "independent_columns", None),
    ("gf2", "express_in_basis", _count_express),
    ("gf2", "solve_affine", None),
    ("rsat", "decide_rsatalb", None),
    ("rsat", "conflict_number", None),
    ("rsat", "solve_exact", _count_rsat_scan),
    ("rsat", "scaled_x_counts", None),
    ("rsat", "overlap_histogram", None),
    ("moments", "dist_linord", _count_orders),
    ("moments", "dist_lin2", _count_enumeration),
    ("moments", "dist_rsat", _count_enumeration),
    ("moments", "moment_report", None),
    ("moments", "verify_second_moment_claims", None),
    ("moments", "verify_fourth_moment_tail", None),
    ("moments", "pairwise_second_moment", None),
)

SPAN_NAMES = tuple("%s.%s" % (mod, fn) for mod, fn, _ in STAGES)
COUNT_NAMES = (
    "instances.bytes_in",
    "linord.dp_states",
    "maxlin.equations_merged",
    "maxlin.rank_dropped",
    "maxlin.assignments_scanned",
    "gf2.express_in_basis.calls",
    "rsat.assignments_scanned",
    "moments.orders_enumerated",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed stage the package still has; absent ones are skipped."""
        namespaces = [sys.modules[PACKAGE]] + [
            sys.modules[name] for name in ("%s.%s" % (PACKAGE, mod) for mod in PACKAGE_MODULES) if name in sys.modules
        ]
        for mod, fn_name, count in STAGES:
            original = getattr(sys.modules.get("%s.%s" % (PACKAGE, mod)), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap("%s.%s" % (mod, fn_name), original, count)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def mark(self) -> tuple[int, Counter[str]]:
        """Position to summarise from, so that each pass is summarised on its own."""
        return len(self.spans), Counter(self.counts)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self seconds per span name over the spans recorded after ``since``."""
        spans = self.spans
        child = [0.0] * (len(spans) - since)
        for name, start, end, parent in spans[since:]:
            if parent >= since:
                child[parent - since] += end - start
        out: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent) in enumerate(spans[since:]):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write("%d,%s,%.9f,%.9f,%d\n" % (i, name, start, end, parent))
