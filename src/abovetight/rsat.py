"""Exact-width CNF satisfaction parameterized above the random-assignment count.

Clauses have exactly r distinct literals over distinct variables, so a random
assignment satisfies (1 - 2^-r)m clauses in expectation. The target of the
decision is m(x) >= (1 - 2^-r)m + k for a positive rational k with denominator
2^r; all arithmetic is carried at scale 2^r, where the balance of an
assignment is the integer 2^r * m(x) - (2^r - 1) * m and the target is its
numerator k_num.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .maxlin import DEFAULT_ASSIGNMENT_CAP, walk
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated, Verdict, check_cap


@dataclass(frozen=True)
class ExactCnfFormula:
    """Multiset of width-r clauses; literals are nonzero ints over vars 1..n."""

    n: int
    r: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("clause width must be at least 2")
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in self.clauses:
            if len(clause) != self.r:
                raise ValueError("every clause must have exactly %d literals" % self.r)
            variables = [abs(lit) for lit in clause]
            if len(set(variables)) != self.r:
                raise ValueError("clause variables must be distinct")
            if variables != sorted(variables):
                raise ValueError("clause literals must be sorted by variable")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError("literal out of range")

    @classmethod
    def from_clauses(cls, n: int, r: int, clauses: Iterable[Sequence[int]]) -> ExactCnfFormula:
        """Build a formula, sorting each clause's literals by variable index."""
        canon = []
        for clause in clauses:
            lits = sorted(clause, key=abs)
            variables = {abs(lit) for lit in lits}
            if len(variables) != len(lits):
                raise ValueError("clause contains a variable twice")
            canon.append(tuple(lits))
        return cls(n, r, tuple(canon))

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
    m = len(f.clauses)
    return (1 << f.r) * satisfied_count(f, assignment) - ((1 << f.r) - 1) * m


def _clause_constraints(
    f: ExactCnfFormula, variables: list[int]
) -> list[tuple[list[tuple[int, bool]], list[int]]]:
    """Each clause as a ``walk`` constraint over bit p = ``variables[p]``.

    A clause scores 1 - 2^r with no true literal and 1 otherwise, so the
    scores sum to the scaled balance 2^r * m(x) - (2^r - 1) * m.
    """
    index = {v: p for p, v in enumerate(variables)}
    score = [1 - (1 << f.r)] + [1] * f.r
    return [([(index[abs(lit)], lit > 0) for lit in clause], score) for clause in f.clauses]


def solve_exact(f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP) -> tuple[int, tuple[int, ...]]:
    """Exhaustive optimum of the scaled balance with a witness assignment.

    Enumerates only the variables that occur in clauses; the rest of the
    witness is 0. Deterministic: fewest unsatisfied clauses, smallest
    assignment on ties.
    """
    variables = f.occurring_variables()
    check_cap("exact solve", len(variables), "occurring variables", cap)
    scan = walk(len(variables), _clause_constraints(f, variables))
    best_z, best = max(enumerate(scan), key=itemgetter(1))
    witness = [0] * f.n
    for p, v in enumerate(variables):
        witness[v - 1] = (best_z >> p) & 1
    return best, tuple(witness)


def scaled_x_counts(f: ExactCnfFormula) -> tuple[Counter[int], int]:
    """Scaled-balance multiset over the occurring variables plus a multiplier.

    The multiplier 2^(n - occurring) turns the counts into the mass over all
    2^n assignments.
    """
    variables = f.occurring_variables()
    counts = Counter(walk(len(variables), _clause_constraints(f, variables)))
    return counts, 1 << (f.n - len(variables))


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
        threshold = 16 * 64**f.r * k_num * k_num
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
