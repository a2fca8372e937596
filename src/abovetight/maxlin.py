"""Weighted GF(2) equation systems parameterized above half the total weight.

An instance assigns 0/1 values to n variables; equation j asks that the sum
of its variables equal b_j and carries a positive integer weight. X denotes
satisfied weight minus unsatisfied weight, so the target "satisfied weight
at least W/2 + k" reads X >= 2k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import gf2
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated, Verdict, check_cap

DEFAULT_ASSIGNMENT_CAP = 20


@dataclass(frozen=True)
class Lin2Equation:
    """A weighted parity constraint: sum of ``variables`` equals ``rhs``."""

    variables: tuple[int, ...]
    rhs: int
    weight: int

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("equations must involve at least one variable")
        if list(self.variables) != sorted(set(self.variables)):
            raise ValueError("variables must be strictly increasing")
        if self.rhs not in (0, 1):
            raise ValueError("right-hand side must be 0 or 1")
        if self.weight < 1:
            raise ValueError("weights must be positive integers")


@dataclass(frozen=True)
class Lin2System:
    """Weighted linear system over GF(2) on variables 0..n-1."""

    n: int
    equations: tuple[Lin2Equation, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for eq in self.equations:
            if eq.variables[-1] >= self.n:
                raise ValueError("equation references a variable beyond n")

    @classmethod
    def from_tuples(cls, n: int, eqs: Iterable[tuple[Sequence[int], int, int]]) -> Lin2System:
        """Build from (variables, rhs, weight) triples; variable sets are sorted."""
        out = []
        for variables, rhs, weight in eqs:
            out.append(Lin2Equation(tuple(sorted(set(variables))), rhs, weight))
        return cls(n, tuple(out))

    def masks(self) -> list[int]:
        return [sum(1 << v for v in eq.variables) for eq in self.equations]

    def is_merge_normalized(self) -> bool:
        keys = [eq.variables for eq in self.equations]
        return len(keys) == len(set(keys))


@dataclass(frozen=True)
class SystemStats:
    """Counts: equations m, total weight W, max arity r, max occurrence rho."""

    m: int
    W: int
    r: int
    rho: int


@dataclass(frozen=True)
class RankReduction:
    """Restriction of a system to an independent set of variable columns.

    ``reduced`` is renumbered over 0..len(basis)-1 in basis order.
    Zero-padding a reduced assignment back onto the original variables
    satisfies exactly the corresponding equations.
    """

    reduced: Lin2System
    basis: tuple[int, ...]
    original_n: int


class CaseKind(Enum):
    ODD_SET = "odd-set"
    BOUNDED_ARITY = "arity"
    BOUNDED_OCCURRENCE = "occurrence"
    GENERAL = "general"


def merge_duplicates(s: Lin2System) -> Lin2System:
    """Combine equations with identical variable sets.

    Same right side: weights add. Opposite right sides: the heavier side
    survives with the weight difference; exact ties cancel and disappear.
    X is preserved pointwise, so decisions agree for every k.
    """
    order: list[tuple[int, ...]] = []
    signed: dict[tuple[int, ...], int] = {}
    for eq in s.equations:
        key = eq.variables
        if key not in signed:
            signed[key] = 0
            order.append(key)
        # Positive sign tallies rhs=0 weight, negative tallies rhs=1.
        signed[key] += eq.weight if eq.rhs == 0 else -eq.weight
    out = []
    for key in order:
        net = signed[key]
        if net > 0:
            out.append(Lin2Equation(key, 0, net))
        elif net < 0:
            out.append(Lin2Equation(key, 1, -net))
    return Lin2System(s.n, tuple(out))


def system_stats(s: Lin2System) -> SystemStats:
    occ: Counter[int] = Counter()
    for eq in s.equations:
        occ.update(eq.variables)
    return SystemStats(
        m=len(s.equations),
        W=sum(eq.weight for eq in s.equations),
        r=max((len(eq.variables) for eq in s.equations), default=0),
        rho=max(occ.values(), default=0),
    )


def find_odd_set(s: Lin2System) -> frozenset[int] | None:
    """A variable set meeting every equation in an odd number of variables.

    Exists iff the system with every right side replaced by 1 is solvable;
    the set is the support of that solution. Returns None otherwise.
    """
    masks = s.masks()
    # The right side sits just above the highest occurring variable, not at
    # the declared n, so row operations cost what the equations hold.
    x = gf2.solve_affine(masks, (1 << len(masks)) - 1, max(masks, default=0).bit_length())
    if x is None:
        return None
    support = []
    while x:
        low = x & -x
        support.append(low.bit_length() - 1)
        x ^= low
    return frozenset(support)


def rank_reduce(s: Lin2System) -> RankReduction:
    """Drop every variable outside the greedy-leftmost independent column basis.

    The basis is the pivot set of one row echelon of the equation masks.

    Each equation keeps only its basis variables (renumbered by basis
    position). The eliminated columns lie in the basis span, so every
    achievable satisfied/unsatisfied pattern of the original system is
    achievable in the reduction and vice versa; no equation loses all of
    its variables.
    """
    basis = sorted(gf2.echelon(s.masks()))
    position = {v: i for i, v in enumerate(basis)}
    new_eqs = []
    for eq in s.equations:
        kept = tuple(sorted(position[v] for v in eq.variables if v in position))
        new_eqs.append(Lin2Equation(kept, eq.rhs, eq.weight))
    reduced = Lin2System(len(basis), tuple(new_eqs))
    return RankReduction(reduced=reduced, basis=tuple(basis), original_n=s.n)


def lift_assignment(reduction: RankReduction, y: Sequence[int]) -> tuple[int, ...]:
    """Extend a reduced assignment to the original variables, zeroing the rest."""
    if len(y) != len(reduction.basis):
        raise ValueError("assignment length must match the basis size")
    z = [0] * reduction.original_n
    for value, variable in zip(y, reduction.basis):
        if value not in (0, 1):
            raise ValueError("assignment values must be 0 or 1")
        z[variable] = value
    return tuple(z)


def evaluate_x(s: Lin2System, z: Sequence[int]) -> int:
    """Satisfied weight minus unsatisfied weight of assignment z."""
    if len(z) != s.n:
        raise ValueError("assignment must cover all variables")
    total = 0
    for eq in s.equations:
        parity = 0
        for v in eq.variables:
            parity ^= z[v]
        total += eq.weight if parity == eq.rhs else -eq.weight
    return total


def walk(n: int, constraints: list[tuple[list[tuple[int, bool]], list[int]]]) -> Iterator[int]:
    """Total score of each assignment 0, 1, ..., 2^n - 1 in order; z sets bit b to (z >> b) & 1.

    Constraint ``(literals, score)`` scores ``score[c]`` when c of its literals are true;
    each literal ``(bit, positive)`` is on a distinct bit and true when the bit equals positive.
    """
    # Counting up to z sets the lowest set bit t of z and clears bits 0..t-1:
    # changes[t] lists each constraint whose true count that step changes, by how much.
    changes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (literals, _) in enumerate(constraints):
        gain = {b: 1 if positive else -1 for b, positive in literals}
        cleared = 0
        for t in range(min(gain, default=n), n):
            d = cleared + gain.get(t, 0)
            if d:
                changes[t].append((j, d))
            cleared -= gain.get(t, 0)
    scores = [score for _, score in constraints]
    # Assignment 0 makes exactly the negative literals true.
    counts = [sum(1 for _, positive in literals if not positive) for literals, _ in constraints]
    x = sum(score[c] for score, c in zip(scores, counts))
    yield x
    for z in range(1, 1 << n):
        for j, d in changes[(z & -z).bit_length() - 1]:
            score = scores[j]
            c = counts[j]
            x += score[c + d] - score[c]
            counts[j] = c + d
        yield x


def _parity_constraints(s: Lin2System) -> list[tuple[list[tuple[int, bool]], list[int]]]:
    """Each equation as a ``walk`` constraint: w when its true count has parity rhs, else -w."""
    out = []
    for eq in s.equations:
        score = [eq.weight * (-1) ** (c + eq.rhs) for c in range(len(eq.variables) + 1)]
        out.append(([(v, True) for v in eq.variables], score))
    return out


def solve_exact(s: Lin2System, cap: int = DEFAULT_ASSIGNMENT_CAP) -> tuple[int, tuple[int, ...]]:
    """Exhaustive optimum of X with a witness assignment.

    Deterministic: maximum X, smallest assignment on ties. Refuses systems
    with more than ``cap`` variables.
    """
    check_cap("exact solve", s.n, "variables", cap)
    best_z, best_x = max(enumerate(walk(s.n, _parity_constraints(s))), key=itemgetter(1))
    return best_x, tuple((best_z >> v) & 1 for v in range(s.n))


def x_distribution_counts(s: Lin2System) -> Counter[int]:
    """Exact multiset of X values over all 2^n assignments."""
    return Counter(walk(s.n, _parity_constraints(s)))


def occurrence_f(k: int, r: int) -> int:
    """Equation-count threshold 16(2k-1)^2 64^r of the arity case and the occurrence rule."""
    return 16 * (2 * k - 1) ** 2 * 64**r


def occurrence_reduce(s: Lin2System, k: int, r: int) -> Lin2System:
    """Remove every equation containing a rarely occurring variable.

    While some variable occurs in at most m - f(k, r) of the current m
    equations, all equations containing it are dropped (least occurrences
    first, ties by variable index). The survivor count never falls below
    f(k, r), so removal preserves the decision, and a solution of the result
    extends to the input by assigning 0 to the variables that disappeared.
    Expects a merge-normalized system with arity at most r.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not s.is_merge_normalized():
        raise ValueError("system must be merge-normalized first")
    stats = system_stats(s)
    if stats.r > r:
        raise ValueError("system arity %d exceeds the declared bound %d" % (stats.r, r))
    f = occurrence_f(k, r)
    eqs = list(s.equations)
    while True:
        m = len(eqs)
        occ: Counter[int] = Counter()
        for eq in eqs:
            occ.update(eq.variables)
        candidates = [v for v, c in occ.items() if c <= m - f]
        if not candidates:
            break
        victim = min(candidates, key=lambda v: (occ[v], v))
        eqs = [eq for eq in eqs if victim not in eq.variables]
    return Lin2System(s.n, tuple(eqs))


def case_threshold(case: CaseKind, k: int, stats: SystemStats) -> int | None:
    """Equation count at which the case certifies YES outright.

    The arity and occurrence bounds are the merged system's own r and rho,
    taken as at least 1 and 2.
    """
    if case is CaseKind.ODD_SET:
        return 4 * k * k
    if case is CaseKind.BOUNDED_ARITY:
        return occurrence_f(k, max(stats.r, 1))
    if case is CaseKind.BOUNDED_OCCURRENCE:
        rho = max(2, stats.rho)
        return 32 * rho * rho * (2 * k - 1) ** 2
    return None


def decide_linalb(
    s: Lin2System,
    k: int,
    case: CaseKind | None = None,
    cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> DecisionOutcome:
    """Decide whether some assignment satisfies weight at least W/2 + k.

    The system is merge-normalized first; every case reads its structure
    from the result. The odd-set case needs a variable set meeting every
    equation an odd number of times and is refused without one. With
    ``case`` None the applicable case with the smallest threshold is used,
    ties going to odd set, then arity, then occurrence. Large systems are
    YES outright at the case's threshold; otherwise the rank-reduced kernel
    is solved exhaustively and a witness is lifted back by zero-padding.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    merged = merge_duplicates(s)
    stats = system_stats(merged)
    odd_set = find_odd_set(merged) if case in (None, CaseKind.ODD_SET) else None
    if case is None:
        # The empty set is odd-hitting for an empty system, so this is never empty.
        cases = [CaseKind.ODD_SET] if odd_set is not None else []
        if stats.m:
            cases += [CaseKind.BOUNDED_ARITY, CaseKind.BOUNDED_OCCURRENCE]
        case = min(cases, key=lambda c: case_threshold(c, k, stats))
    elif case is CaseKind.ODD_SET and odd_set is None:
        raise RestrictionViolated("no variable set meets every equation an odd number of times")
    diag: dict[str, object] = {"k": k, "case": case.value, "m": stats.m}
    if case is CaseKind.ODD_SET:
        diag["odd_set_size"] = len(odd_set)
    threshold = case_threshold(case, k, stats)
    if threshold is not None:
        diag["m_threshold"] = threshold
        if stats.m >= threshold:
            return DecisionOutcome(Verdict.YES_BY_BOUND, diagnostics=diag)
    reduction = rank_reduce(merged)
    diag["kernel_vars"] = reduction.reduced.n
    diag["kernel_eqs"] = len(reduction.reduced.equations)
    try:
        best, y = solve_exact(reduction.reduced, cap=cap)
    except CapExceeded:
        diag["cap"] = cap
        return DecisionOutcome(Verdict.KERNEL, kernel=reduction.reduced, diagnostics=diag)
    diag["best_x"] = best
    diag["target_x"] = 2 * k
    if best >= 2 * k:
        witness = lift_assignment(reduction, y)
        return DecisionOutcome(Verdict.YES_WITNESS, witness=witness, diagnostics=diag)
    return DecisionOutcome(Verdict.NO, diagnostics=diag)
