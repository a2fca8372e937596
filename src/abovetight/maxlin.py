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
from functools import cached_property, partial
from itertools import chain, compress
from typing import Iterable, Sequence

from . import gf2
from .outcome import DecisionOutcome, Record, RestrictionViolated, Verdict, check_cap, settle

DEFAULT_ASSIGNMENT_CAP = 20


@dataclass(frozen=True)
class Lin2Equation(Record):
    """A weighted parity constraint: sum of ``variables`` equals ``rhs``.

    ``_unchecked`` skips the checks, for an equation derived from checked
    ones or checked while parsed: its variables are nonempty and strictly
    increasing, rhs is 0 or 1 and weight a positive int.
    """

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
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError("weights must be positive integers")


@dataclass(frozen=True)
class Lin2System(Record):
    """Weighted linear system over GF(2) on variables 0..n-1.

    ``_unchecked`` skips the check, for equations over variables 0..n-1
    derived from checked ones or parsed.
    """

    n: int
    equations: tuple[Lin2Equation, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for eq in self.equations:
            # Variables are strictly increasing, so the ends bound them all.
            if eq.variables[0] < 0 or eq.variables[-1] >= self.n:
                raise ValueError("equation references a variable outside 0..n-1")

    @classmethod
    def from_tuples(cls, n: int, eqs: Iterable[tuple[Sequence[int], int, int]]) -> Lin2System:
        """Build from (variables, rhs, weight) triples; variables are sorted and may not repeat."""
        return cls(n, tuple(Lin2Equation(tuple(sorted(vs)), rhs, w) for vs, rhs, w in eqs))

    @cached_property
    def occurrences(self) -> Counter[int]:
        """How many equations hold each variable, counted once per system."""
        return Counter(chain.from_iterable(eq.variables for eq in self.equations))

    @cached_property
    def occurring_echelon(self) -> tuple[list[int], dict[int, int]]:
        """The occurring variables in increasing order, and one row echelon of the equation masks over them.

        Bit i of a mask is the i-th occurring variable and every row carries a
        1 at bit ``len(occurring)``, so row operations cost what the equations
        hold, not the highest index. Built once per system: ``find_odd_set``
        back-substitutes it and ``rank_reduce`` reads its pivots below the top
        bit, which are those of the plain masks.
        """
        occurring = sorted(self.occurrences)
        position = {v: i for i, v in enumerate(occurring)}
        top = 1 << len(occurring)
        return occurring, gf2.echelon(sum((1 << position[v] for v in eq.variables), top) for eq in self.equations)


@dataclass(frozen=True)
class SystemStats:
    """Counts: equations m, max arity r, max occurrence rho."""

    m: int
    r: int
    rho: int


@dataclass(frozen=True)
class RankReduction:
    """Restriction of a system to an independent set of variable columns.

    ``reduced`` is renumbered over 0..len(basis)-1 in basis order.
    Zero-padding a reduced assignment back onto the original variables
    (``lift_assignment``) satisfies exactly the corresponding equations.
    """

    reduced: Lin2System
    basis: tuple[int, ...]


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
    # Keys in first-seen order. Positive sign tallies rhs=0 weight, negative tallies rhs=1.
    signed: dict[tuple[int, ...], int] = {}
    for eq in s.equations:
        key = eq.variables
        signed[key] = signed.get(key, 0) + (eq.weight if eq.rhs == 0 else -eq.weight)
    # Each key is a checked equation's variables, and each weight a nonzero difference of ints.
    out = []
    for key, net in signed.items():
        if net > 0:
            out.append(Lin2Equation._unchecked(variables=key, rhs=0, weight=net))
        elif net < 0:
            out.append(Lin2Equation._unchecked(variables=key, rhs=1, weight=-net))
    return Lin2System._unchecked(n=s.n, equations=tuple(out))


def system_stats(s: Lin2System) -> SystemStats:
    return SystemStats(
        m=len(s.equations),
        r=max((len(eq.variables) for eq in s.equations), default=0),
        rho=max(s.occurrences.values(), default=0),
    )


def find_odd_set(s: Lin2System) -> frozenset[int] | None:
    """A variable set meeting every equation in an odd number of variables.

    Exists iff the system with every right side replaced by 1 is solvable;
    the set is the support of that solution, back-substituted from the
    system's ``occurring_echelon``, whose top bit is that right side.
    Returns None otherwise.
    """
    occurring, ech = s.occurring_echelon
    x = gf2.solve_affine(ech, len(occurring))
    if x is None:
        return None
    # Bit i of x, the digit at i from the right, is the value of occurring[i].
    return frozenset(compress(occurring, map(int, reversed(format(x, "b")))))


def rank_reduce(s: Lin2System) -> RankReduction:
    """Drop every variable outside the greedy-leftmost independent column basis.

    The basis is the pivot set below the top bit of the system's
    ``occurring_echelon``: an echelon keyed by lowest set bit reduces the
    low bits of a row with a top bit exactly as it reduces the row without.

    Each equation keeps only its basis variables (renumbered by basis
    position). The eliminated columns lie in the basis span, so every
    achievable satisfied/unsatisfied pattern of the original system is
    achievable in the reduction and vice versa; no equation loses all of
    its variables.
    """
    occurring, ech = s.occurring_echelon
    basis = [occurring[p] for p in sorted(ech) if p < len(occurring)]
    position = {v: i for i, v in enumerate(basis)}
    # Basis positions grow with the variables, so each equation's stay strictly
    # increasing. Tuples from lists, as Record says.
    new_eqs = []
    for eq in s.equations:
        variables = tuple([position[v] for v in eq.variables if v in position])
        new_eqs.append(Lin2Equation._unchecked(variables=variables, rhs=eq.rhs, weight=eq.weight))
    reduced = Lin2System._unchecked(n=len(basis), equations=tuple(new_eqs))
    return RankReduction(reduced=reduced, basis=tuple(basis))


def lift_assignment(basis: Sequence[int], n: int, y: Sequence[int]) -> tuple[int, ...]:
    """The assignment of variables 0..n-1 giving ``basis[i]`` the value ``y[i]`` and every other variable 0.

    Widens a kernel's witness to the declared variables: ``basis`` is a rank
    reduction's basis for linalb, and the occurring variables, less one, for
    rsat. ``outcome.settle`` calls it only for a YES_WITNESS verdict, so the
    n-long assignment is built only for a witness that is printed. It is
    filled as one byte per variable, so at its peak it holds n bytes beside
    the tuple's n pointers to the shared ints 0 and 1.
    """
    if len(y) != len(basis):
        raise ValueError("assignment length must match the basis size")
    z = bytearray(n)
    for value, variable in zip(y, basis):
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


def _satisfied_weight(s: Lin2System, refused: str) -> tuple[list[int], int]:
    """``gf2.tally`` slices of the satisfied weight Y of each assignment, and W; X = 2Y - W.

    The slices take 2^n times the bit length of W, refused as ``refused``
    past the count budget (``gf2.check_counter``). A distribution's
    transposed copy of the slices takes at most twice that once W has 8
    bits or more (one byte per 8 bits, padded to a native word).
    """
    total = sum(eq.weight for eq in s.equations)
    gf2.check_counter(refused, total, s.n)
    pairs = ((sum(1 << v for v in eq.variables), eq) for eq in s.equations)
    slices = gf2.tally((gf2.parity_mask(mask, eq.rhs, s.n), eq.weight) for mask, eq in pairs)
    return slices, total


def solve_exact(s: Lin2System, cap: int = DEFAULT_ASSIGNMENT_CAP) -> tuple[int, tuple[int, ...]]:
    """Exhaustive optimum of X with a witness assignment.

    Deterministic: maximum X, smallest assignment on ties. Refuses systems
    with more than ``cap`` variables or a counter past the count budget.
    """
    check_cap("exact solve", s.n, "variables", cap, ("cap", "kernel_vars"))
    slices, total = _satisfied_weight(s, "exact solve")
    best_y, z = gf2.top(slices, s.n)
    return 2 * best_y - total, tuple((z >> v) & 1 for v in range(s.n))


def x_distribution_counts(s: Lin2System) -> Counter[int]:
    """Exact multiset of X values over all 2^n assignments; refused past the count budget."""
    slices, total = _satisfied_weight(s, "distribution")
    return gf2.histogram(slices, s.n, 1, -total)


def fourth_moment_threshold(t: int, r: int) -> int:
    """16 t^2 64^r: the fourth-moment tail bound with b = 64^r, shared by lin2 and rsat."""
    return 16 * t * t * 64**r


def occurrence_f(k: int, r: int) -> int:
    """Equation-count threshold 16(2k-1)^2 64^r of the arity case and the occurrence rule."""
    return fourth_moment_threshold(2 * k - 1, r)


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
    ``case`` None the odd-set case is used whenever such a set exists, its
    threshold being the smallest, and otherwise the one of arity and
    occurrence with the smaller threshold, ties going to arity. Large
    systems are YES outright at the case's threshold; otherwise the
    rank-reduced kernel is solved exhaustively and a witness is lifted back
    by zero-padding. A kernel with more than ``cap`` variables, or whose
    weight counter passes the count budget, is returned as KERNEL; the
    diagnostics name which.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    merged = merge_duplicates(s)
    stats = system_stats(merged)
    odd_set = find_odd_set(merged) if case in (None, CaseKind.ODD_SET) else None
    if case is None:
        # An odd set's 4k^2 lies below every arity threshold (1,024(2k-1)^2 and up) and every
        # occurrence threshold (128(2k-1)^2 and up); an empty system has the empty odd set.
        cases = (CaseKind.BOUNDED_ARITY, CaseKind.BOUNDED_OCCURRENCE) if odd_set is None else (CaseKind.ODD_SET,)
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
    # Free the merged system and its cached echelon before the kernel is solved: held
    # through the solve, the system and its masks raised perfbench's kernelize peak RSS
    # by 1.6 MB (5%).
    del merged
    diag["kernel_vars"] = reduction.reduced.n
    diag["kernel_eqs"] = len(reduction.reduced.equations)
    solve = partial(solve_exact, reduction.reduced, cap=cap)
    lift = partial(lift_assignment, reduction.basis, s.n)
    return settle(diag, reduction.reduced, solve, ("best_x", "target_x"), 2 * k, lift)
