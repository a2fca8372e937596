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
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain, combinations, compress, repeat
from math import comb
from typing import Iterable, Iterator, Sequence

from . import gf2
from .maxlin import DEFAULT_ASSIGNMENT_CAP, fourth_moment_threshold, lift_assignment
from .outcome import DecisionOutcome, Record, RestrictionViolated, Verdict, check_cap, settle

# Sub-clause keys of size 2 and up that ``overlap_histogram`` may count, summed
# over the sizes it reaches. At this many keys, formulas of width 2-20 sharing
# 1-19 variables took at most 0.95 s (three width-16 clauses sharing 10-15
# variables, where each index set's fixed cost dominates) and 53 MiB traced
# (200,000 width-2 clauses sharing one variable), within the 64 MiB count
# budget of ``gf2`` (Python 3.11, 2 cores).
SUBCLAUSE_KEY_BUDGET = 200_000

# The widest clause an ecnf header may declare. Past it the threshold 16 * 64^r = 2^(6r + 4)
# that rsat prints at k_num = 1, the largest printed value that grows with r alone, has more
# digits than the interpreter's int-to-str limit (taken as CPython's default of 4300 where the
# interpreter has none or it is off). 2^(6r + 4) < 10^limit exactly when 6r + 5 is at most the
# bit length of 10^limit.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)() or 4300
MAX_CLAUSE_WIDTH = ((10**_DIGITS).bit_length() - 5) // 6


class ClauseOrderError(ValueError):
    """A clause lists distinct variables out of increasing order, the one fault sorting repairs."""


def _check_formula(n: int, r: int, widths: Iterable[int], columns: Sequence[Sequence[int]]) -> None:
    """Refuse a formula unless r >= 2, n >= 0 and each clause has r increasing variables in 1..n.

    ``widths`` holds the clause widths, and ``columns[i][j]`` is literal i of
    clause j. Reports the first fault kind present, in the order clause
    width bound, variable count, clause width, repeated variable, variable
    order, range; with several faults it does not say which clause carries
    them. The variable order refusal is a ``ClauseOrderError``, every other
    one a plain ValueError.
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
        raise ClauseOrderError("clause literals must be sorted by variable")
    # Each clause's variables strictly increase, so its first and last bound them all.
    if variables and variables[0] and (min(variables[0]) < 1 or max(variables[-1]) > n):
        raise ValueError("literal out of range")


@dataclass(frozen=True)
class ExactCnfFormula(Record):
    """Multiset of width-r clauses; literals are nonzero ints over vars 1..n.

    Each clause lists its literals by increasing variable. The constructor
    and ``from_columns`` check the clauses a column at a time
    (``_check_formula``); ``from_columns`` then skips ``__post_init__``.
    Clauses out of variable order are refused with a ``ClauseOrderError``;
    ``from_clauses`` sorts them first.
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
        # From a list, as Record says.
        return cls._unchecked(n=n, r=r, clauses=tuple(list(zip(*columns))))

    @classmethod
    def from_clauses(cls, n: int, r: int, clauses: Iterable[Sequence[int]]) -> ExactCnfFormula:
        """Build a formula, sorting each clause's literals by variable index."""
        return cls(n, r, tuple(tuple(sorted(clause, key=abs)) for clause in clauses))

    def occurring_variables(self) -> list[int]:
        seen = {abs(lit) for clause in self.clauses for lit in clause}
        return sorted(seen)

    @cached_property
    def overlap_counts(self) -> tuple[int, int, int]:
        """``overlap_histogram`` of the formula, counted on first use.

        ``conflict_number`` and ``moments.pairwise_second_moment`` both read
        it, so a command that needs both counts the formula once.
        """
        return overlap_histogram(self)


def conflict_number(f: ExactCnfFormula) -> int:
    """Ordered conflicting clause pairs minus ordered overlapping clause pairs.

    Of the S ordered pairs that share a variable (``overlap_histogram``), m
    pair a clause with itself and C conflict, so S - m - C overlap and the
    difference is 2C - S + m.
    """
    conflicts, sharing, _ = f.overlap_counts
    return 2 * conflicts - sharing + len(f.clauses)


def overlap_histogram(f: ExactCnfFormula) -> tuple[int, int, int]:
    """(C, S, Q): ordered conflicting clause pairs, ordered pairs sharing a variable, 4^r E(X^2).

    S counts each clause paired with itself. No clause pair is visited. For
    each size t, N(L) counts the clauses holding the signed sub-clause L,
    M(V) those holding the variable tuple V, and T(V) sums over them
    (-1)^(their negated literals on V). Inclusion-exclusion over the sets on
    which a pair disagrees, or that it shares, gives
    C = sum (-1)^(t+1) N(L) N(-L) and S = sum (-1)^(t+1) M(V)^2. Parseval over
    the Fourier expansion of X (Alon, Gutin, Kim, Szeider and Yeo, SODA 2010)
    gives Q = sum T(V)^2.

    Were every key in one clause, M(V) = T(V)^2 = 1 would give S = m and
    Q = m(2^r - 1); each size counted adds its excess over that. Once no
    variable tuple of some size lies in two clauses, no larger one does, and
    the count stops. Before each size t >= 2 is counted, its m * C(r, t) keys
    and those of the sizes before it are checked against SUBCLAUSE_KEY_BUDGET.
    Size 1 counts the formula's own literals and is never refused.
    """
    m, r = len(f.clauses), f.r
    columns = list(zip(*f.clauses))
    negated = [list(map(operator.neg, column)) for column in columns]
    # Size 1 keys are ints: M(v)^2 and T(v)^2 are N(v)^2 + N(-v)^2 +- 2 N(v) N(-v).
    literals = Counter(chain.from_iterable(columns))
    excess = sum(map(operator.mul, literals.values(), literals.values())) - m * r
    conflicts = sum(map(literals.get, chain.from_iterable(negated), repeat(0)))
    sharing, fourier = m + excess + conflicts, m * ((1 << r) - 1) + excess - conflicts
    if sharing == m:  # no variable lies in two clauses
        return conflicts, sharing, fourier
    variables = [list(map(abs, column)) for column in columns]
    negative = [list(map((0).__gt__, column)) for column in columns]
    keys = 0
    for t in range(2, r + 1):
        level = m * comb(r, t)
        keys += level
        check_cap("pair counts", keys, "sub-clause keys", SUBCLAUSE_KEY_BUDGET)
        index_sets = list(combinations(range(r), t))
        shared = Counter(_sub_clauses(variables, index_sets))
        if len(shared) == level:
            break
        signed = Counter(_sub_clauses(columns, index_sets))
        parities = (reduce(partial(map, operator.xor), map(negative.__getitem__, i)) for i in index_sets)
        odd = Counter(compress(_sub_clauses(variables, index_sets), chain.from_iterable(parities)))
        # T(V) = M(V) - 2 P(V), P(V) counting the clauses with odd negations on V.
        excess = sum(map(operator.mul, shared.values(), shared.values())) - level
        cross = sum(map(operator.mul, odd.values(), map(shared.__getitem__, odd)))
        sign = 1 if t % 2 else -1
        conflicts += sign * sum(map(signed.get, _sub_clauses(negated, index_sets), repeat(0)))
        sharing += sign * excess
        fourier += excess - 4 * cross + 4 * sum(map(operator.mul, odd.values(), odd.values()))
    return conflicts, sharing, fourier


def _sub_clauses(table: list, index_sets: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Each row's entries at each index set, read a whole column at a time."""
    return chain.from_iterable(zip(*map(table.__getitem__, index)) for index in index_sets)


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


def _satisfied_count(f: ExactCnfFormula, variables: list[int], refused: str) -> list[int]:
    """``gf2.tally`` slices of the satisfied-clause count, over bit p = ``variables[p]``.

    Refused as ``refused`` past the count budget (``gf2.check_counter``). A
    clause is unsatisfied exactly where each of its variables takes the
    value that makes its literal false.
    """
    gf2.check_counter(refused, len(f.clauses), len(variables))
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
    """Exhaustive optimum of the scaled balance with a witness over the occurring variables.

    The formula's kernel is its occurring variables: only they are
    enumerated, and bit p of the witness is the value of the p-th of them in
    increasing order, as ``maxlin.solve_exact`` gives bits over a rank
    kernel. ``maxlin.lift_assignment`` widens it to all n variables, the rest
    0. Deterministic: fewest unsatisfied clauses, smallest assignment on
    ties.
    """
    variables = f.occurring_variables()
    check_cap("exact solve", len(variables), "occurring variables", cap, ("cap", "kernel_vars"))
    satisfied, z = gf2.top(_satisfied_count(f, variables, "exact solve"), len(variables))
    return _scaled(f, satisfied), tuple((z >> p) & 1 for p in range(len(variables)))


def scaled_x_counts(f: ExactCnfFormula) -> Counter[int]:
    """Exact multiset of scaled-balance values over the assignments of the occurring variables."""
    variables = f.occurring_variables()
    return gf2.histogram(_satisfied_count(f, variables, "distribution"), len(variables), f.r, _scaled(f, 0))


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
    m >= 16 * 64^r * k_num^2 certifies YES outright. A formula whose conflict
    number would count more sub-clause keys than SUBCLAUSE_KEY_BUDGET raises
    CapExceeded.
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
    solve = partial(solve_exact, f, cap=cap)
    # The occurring variables are found again only for a witness, whose lift is O(n) anyway.
    lift = lambda y: lift_assignment([v - 1 for v in f.occurring_variables()], f.n, y)
    return settle(diag, f, solve, ("best_scaled_x", "target_scaled_x"), k_num, lift, f.n)
