"""Exact-width CNF satisfaction parameterized above the random-assignment count.

Clauses have exactly r distinct literals over distinct variables, so a random
assignment satisfies (1 - 2^-r)m clauses in expectation. The target of the
decision is m(x) >= (1 - 2^-r)m + k for a positive rational k with denominator
2^r; all arithmetic is carried at scale 2^r, where the balance of an
assignment is the integer 2^r * m(x) - (2^r - 1) * m and the target is its
numerator k_num.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gf2
from .maxlin import DEFAULT_ASSIGNMENT_CAP, fourth_moment_threshold
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated, Verdict, check_cap


def _check_formula(n: int, r: int, widths: Iterable[int], columns: Sequence[Sequence[int]]) -> None:
    """Refuse a formula unless r >= 2, n >= 0 and each clause has r increasing variables in 1..n.

    ``widths`` holds the clause widths, and ``columns[i][j]`` is literal i of
    clause j. Reports the first fault kind present, in the order clause
    width bound, variable count, clause width, repeated variable, variable
    order, range; with several faults it does not say which clause carries
    them.
    """
    if r < 2:
        raise ValueError("clause width must be at least 2")
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    if any(width != r for width in widths):
        raise ValueError("every clause must have exactly %d literals" % r)
    variables = [list(map(abs, column)) for column in columns]
    if not all(all(map(operator.lt, a, b)) for a, b in zip(variables, variables[1:])):
        if any(len(set(clause)) < r for clause in zip(*variables)):
            raise ValueError("clause variables must be distinct")
        raise ValueError("clause literals must be sorted by variable")
    # Each clause's variables strictly increase, so its first and last bound them all.
    if variables and variables[0] and (min(variables[0]) < 1 or max(variables[-1]) > n):
        raise ValueError("literal out of range")


@dataclass(frozen=True)
class ExactCnfFormula:
    """Multiset of width-r clauses; literals are nonzero ints over vars 1..n.

    Each clause lists its literals by increasing variable. The constructor
    checks the clauses a column at a time (``_check_formula``).
    """

    n: int
    r: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_formula(self.n, self.r, map(len, self.clauses), list(zip(*self.clauses)))

    @classmethod
    def from_columns(cls, n: int, r: int, columns: Sequence[Sequence[int]]) -> ExactCnfFormula:
        """The formula whose clause j has literal i at ``columns[i][j]``, checked as the constructor does.

        The r columns are of equal length; the clauses are built only after the check.
        """
        _check_formula(n, r, (len(columns),), columns)
        f = object.__new__(cls)
        # From a list: see WeightedDigraph._fill on tuple() of an iterator.
        vars(f).update(n=n, r=r, clauses=tuple(list(zip(*columns))))
        return f

    @classmethod
    def from_clauses(cls, n: int, r: int, clauses: Iterable[Sequence[int]]) -> ExactCnfFormula:
        """Build a formula, sorting each clause's literals by variable index."""
        return cls(n, r, tuple(tuple(sorted(clause, key=abs)) for clause in clauses))

    def occurring_variables(self) -> list[int]:
        seen = {abs(lit) for clause in self.clauses for lit in clause}
        return sorted(seen)


def conflict_number(f: ExactCnfFormula) -> int:
    """Ordered conflicting clause pairs minus ordered overlapping clause pairs."""
    conflicts, shared_counts = overlap_histogram(f)
    return conflicts - sum(shared_counts.values())


def overlap_histogram(f: ExactCnfFormula) -> tuple[int, Counter[int]]:
    """Ordered conflict count and ordered overlap counts keyed by shared size.

    A pair conflicts when some literal of one clause is negated in the other,
    and otherwise overlaps on its shared literals. Pairs sharing no variable
    are disjoint, so each clause meets only the earlier clauses found through
    its variables' clause lists, and memory stays O(m * r).
    """
    by_var: dict[int, list[int]] = {}
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(j)
    conflicts = 0
    shared_counts: Counter[int] = Counter()
    for a in reversed(range(len(f.clauses))):
        clause = f.clauses[a]
        # a ends each of its variables' lists; dropping it leaves the earlier clauses.
        for lit in clause:
            by_var[abs(lit)].pop()
        lits = set(clause)
        negated = {-lit for lit in clause}
        for b in set().union(*(by_var[abs(lit)] for lit in clause)):
            other = f.clauses[b]
            if negated.isdisjoint(other):
                shared_counts[len(lits.intersection(other))] += 2
            else:
                conflicts += 2
    return conflicts, shared_counts


def _is_true(lit: int, assignment: Sequence[int]) -> bool:
    value = assignment[abs(lit) - 1]
    return bool(value) if lit > 0 else not value


def satisfied_count(f: ExactCnfFormula, assignment: Sequence[int]) -> int:
    if len(assignment) != f.n:
        raise ValueError("assignment must cover all variables")
    return sum(1 for clause in f.clauses if any(_is_true(lit, assignment) for lit in clause))


def x_value_scaled(f: ExactCnfFormula, assignment: Sequence[int]) -> int:
    """Balance at scale 2^r: 2^r * m(x) - (2^r - 1) * m."""
    return _scaled(f, satisfied_count(f, assignment))


def _scaled(f: ExactCnfFormula, satisfied: int) -> int:
    return (1 << f.r) * satisfied - ((1 << f.r) - 1) * len(f.clauses)


def _satisfied_count(f: ExactCnfFormula, variables: list[int]) -> list[int]:
    """``gf2.tally`` slices of the satisfied-clause count, over bit p = ``variables[p]``.

    A clause is unsatisfied exactly where each of its variables takes the
    value that makes its literal false.
    """
    index = {v: p for p, v in enumerate(variables)}
    full = (1 << (1 << len(variables))) - 1
    unsatisfied = (
        gf2.cube_mask(
            sum(1 << index[abs(lit)] for lit in clause),
            sum(1 << index[-lit] for lit in clause if lit < 0),
            len(variables),
        )
        for clause in f.clauses
    )
    return gf2.tally((full ^ mask, 1) for mask in unsatisfied)


def solve_exact(f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP) -> tuple[int, tuple[int, ...]]:
    """Exhaustive optimum of the scaled balance with a witness assignment.

    Enumerates only the variables that occur in clauses; the rest of the
    witness is 0. Deterministic: fewest unsatisfied clauses, smallest
    assignment on ties.
    """
    variables = f.occurring_variables()
    check_cap("exact solve", len(variables), "occurring variables", cap)
    satisfied, z = gf2.top(_satisfied_count(f, variables), len(variables))
    witness = [0] * f.n
    for p, v in enumerate(variables):
        witness[v - 1] = (z >> p) & 1
    return _scaled(f, satisfied), tuple(witness)


def scaled_x_counts(f: ExactCnfFormula) -> Counter[int]:
    """Exact multiset of scaled-balance values over the assignments of the occurring variables."""
    variables = f.occurring_variables()
    slices = _satisfied_count(f, variables)
    return gf2.histogram(slices, len(variables), f.r, _scaled(f, 0))


def conflict_bound(f: ExactCnfFormula) -> int:
    """The admissible conflict-number ceiling (2^r - 2) * m."""
    return ((1 << f.r) - 2) * len(f.clauses)


def decide_rsatalb(
    f: ExactCnfFormula,
    k_num: int,
    cap: int = DEFAULT_ASSIGNMENT_CAP,
    diagnostic: bool = False,
) -> DecisionOutcome:
    """Decide whether some assignment satisfies at least (1 - 2^-r)m + k clauses.

    Requires conflict number at most (2^r - 2)m; outside that family the bound
    shortcut is unsound and the call is refused unless ``diagnostic`` is set,
    in which case the instance is solved exhaustively. Within the family,
    m >= 16 * 64^r * k_num^2 certifies YES outright.
    """
    if k_num < 1:
        raise ValueError("the target numerator must be positive")
    m = len(f.clauses)
    cn = conflict_number(f)
    bound = conflict_bound(f)
    diag: dict[str, object] = {"k_num": k_num, "m": m, "cn": cn, "cn_bound": bound}
    restricted = cn <= bound
    if not restricted and not diagnostic:
        raise RestrictionViolated("conflict number %d exceeds (2^r - 2)m = %d" % (cn, bound))
    if restricted:
        threshold = fourth_moment_threshold(k_num, f.r)
        diag["m_threshold"] = threshold
        if m >= threshold:
            return DecisionOutcome(Verdict.YES_BY_BOUND, diagnostics=diag)
    try:
        best, witness = solve_exact(f, cap=cap)
    except CapExceeded as exc:
        diag["cap"] = cap
        diag["kernel_vars"] = exc.needed
        return DecisionOutcome(Verdict.KERNEL, kernel=f, diagnostics=diag)
    diag["best_scaled_x"] = best
    diag["target_scaled_x"] = k_num
    if best >= k_num:
        return DecisionOutcome(Verdict.YES_WITNESS, witness=witness, diagnostics=diag)
    return DecisionOutcome(Verdict.NO, diagnostics=diag)
