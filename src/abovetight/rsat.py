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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .maxlin import DEFAULT_ASSIGNMENT_CAP
from .outcome import CapExceeded, DecisionOutcome, RestrictionViolated, Verdict


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


class RelationKind(Enum):
    CONFLICT = "conflict"
    OVERLAP = "overlap"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class PairRelation:
    kind: RelationKind
    shared: int = 0


@dataclass(frozen=True)
class ConflictStats:
    """Ordered pair counts: conflicts c, overlaps o, and their difference."""

    conflicts: int
    overlaps: int
    conflict_number: int


@dataclass(frozen=True)
class RationalTarget:
    """Positive rational k = numerator / 2^width for the decision target."""

    numerator: int
    width: int

    def __post_init__(self) -> None:
        if self.numerator < 1:
            raise ValueError("the target numerator must be positive")
        if self.width < 2:
            raise ValueError("the denominator exponent must be at least 2")

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 2**self.width)


def pair_relation(y: Sequence[int], z: Sequence[int]) -> PairRelation:
    """Classify a clause pair: conflicting literal, shared literals, or neither."""
    zset = set(z)
    if any(-lit in zset for lit in y):
        return PairRelation(RelationKind.CONFLICT)
    shared = sum(1 for lit in y if lit in zset)
    if shared:
        return PairRelation(RelationKind.OVERLAP, shared=shared)
    return PairRelation(RelationKind.DISJOINT)


def _variable_sharing_pairs(f: ExactCnfFormula) -> set[tuple[int, int]]:
    by_var: dict[int, list[int]] = {}
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(j)
    pairs: set[tuple[int, int]] = set()
    for indices in by_var.values():
        for a, b in combinations(indices, 2):
            pairs.add((a, b))
    return pairs


def conflict_number(f: ExactCnfFormula) -> ConflictStats:
    """Ordered-pair conflict and overlap counts over all distinct clause indices.

    Pairs sharing no variable are disjoint, so only variable-sharing pairs
    are classified.
    """
    conflicts = 0
    overlaps = 0
    for a, b in _variable_sharing_pairs(f):
        rel = pair_relation(f.clauses[a], f.clauses[b])
        if rel.kind is RelationKind.CONFLICT:
            conflicts += 2
        elif rel.kind is RelationKind.OVERLAP:
            overlaps += 2
    return ConflictStats(conflicts, overlaps, conflicts - overlaps)


def overlap_histogram(f: ExactCnfFormula) -> tuple[int, Counter[int]]:
    """Ordered conflict count and ordered overlap counts keyed by shared size."""
    conflicts = 0
    shared_counts: Counter[int] = Counter()
    for a, b in _variable_sharing_pairs(f):
        rel = pair_relation(f.clauses[a], f.clauses[b])
        if rel.kind is RelationKind.CONFLICT:
            conflicts += 2
        elif rel.kind is RelationKind.OVERLAP:
            shared_counts[rel.shared] += 2
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


def _scan_setup(f: ExactCnfFormula, variables: list[int], start: int):
    index = {v: p for p, v in enumerate(variables)}
    # For each variable position: (clause index, literal-positive flag).
    touching: list[list[tuple[int, bool]]] = [[] for _ in variables]
    true_counts = []
    zero_count = 0
    for j, clause in enumerate(f.clauses):
        cnt = 0
        for lit in clause:
            p = index[abs(lit)]
            touching[p].append((j, lit > 0))
            bit = (start >> p) & 1
            if (lit > 0) == bool(bit):
                cnt += 1
        true_counts.append(cnt)
        if cnt == 0:
            zero_count += 1
    return touching, true_counts, zero_count


def _scan_best(f: ExactCnfFormula, variables: list[int], lo: int, hi: int) -> tuple[int, int]:
    touching, true_counts, zero_count = _scan_setup(f, variables, lo)
    m = len(f.clauses)
    scale = 1 << f.r
    best_value = m - scale * zero_count
    best_z = lo
    for z in range(lo + 1, hi):
        diff = z ^ (z - 1)
        while diff:
            p = (diff & -diff).bit_length() - 1
            diff &= diff - 1
            bit = (z >> p) & 1
            for j, positive in touching[p]:
                if positive == bool(bit):
                    true_counts[j] += 1
                    if true_counts[j] == 1:
                        zero_count -= 1
                else:
                    true_counts[j] -= 1
                    if true_counts[j] == 0:
                        zero_count += 1
        value = m - scale * zero_count
        if value > best_value:
            best_value, best_z = value, z
    return best_value, best_z


def _scan_mass(f: ExactCnfFormula, variables: list[int], lo: int, hi: int) -> Counter[int]:
    touching, true_counts, zero_count = _scan_setup(f, variables, lo)
    m = len(f.clauses)
    scale = 1 << f.r
    counts: Counter[int] = Counter()
    counts[m - scale * zero_count] += 1
    for z in range(lo + 1, hi):
        diff = z ^ (z - 1)
        while diff:
            p = (diff & -diff).bit_length() - 1
            diff &= diff - 1
            bit = (z >> p) & 1
            for j, positive in touching[p]:
                if positive == bool(bit):
                    true_counts[j] += 1
                    if true_counts[j] == 1:
                        zero_count -= 1
                else:
                    true_counts[j] -= 1
                    if true_counts[j] == 0:
                        zero_count += 1
        counts[m - scale * zero_count] += 1
    return counts


def _chunk_ranges(nbits: int, workers: int) -> list[tuple[int, int]]:
    size = 1 << nbits
    parts = max(1, min(workers, size))
    step = size // parts
    bounds = [i * step for i in range(parts)] + [size]
    return [(bounds[i], bounds[i + 1]) for i in range(parts) if bounds[i] < bounds[i + 1]]


def solve_exact(
    f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP, workers: int = 1
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive optimum of the scaled balance with a witness assignment.

    Enumerates only the variables that occur in clauses; the rest of the
    witness is 0. Deterministic and independent of the worker count.
    """
    variables = f.occurring_variables()
    if len(variables) > cap:
        raise CapExceeded(
            "exact solve refused: %d occurring variables exceed cap %d"
            % (len(variables), cap),
            instance=f,
            needed=len(variables),
            cap=cap,
        )
    ranges = _chunk_ranges(len(variables), workers)
    if len(ranges) == 1:
        best_value, best_z = _scan_best(f, variables, *ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda rg: _scan_best(f, variables, *rg), ranges))
        best_value, best_z = results[0]
        for value, z in results[1:]:
            if value > best_value:
                best_value, best_z = value, z
    witness = [0] * f.n
    for p, v in enumerate(variables):
        witness[v - 1] = (best_z >> p) & 1
    return best_value, tuple(witness)


def scaled_x_counts(f: ExactCnfFormula, workers: int = 1) -> tuple[Counter[int], int]:
    """Scaled-balance multiset over the occurring variables plus a multiplier.

    The multiplier 2^(n - occurring) turns the counts into the mass over all
    2^n assignments.
    """
    variables = f.occurring_variables()
    ranges = _chunk_ranges(len(variables), workers)
    if len(ranges) == 1:
        counts = _scan_mass(f, variables, *ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda rg: _scan_mass(f, variables, *rg), ranges))
        counts = Counter()
        for part in parts:
            counts.update(part)
    return counts, 1 << (f.n - len(variables))


def conflict_bound(f: ExactCnfFormula) -> int:
    """The admissible conflict-number ceiling (2^r - 2) * m."""
    return ((1 << f.r) - 2) * len(f.clauses)


def decide_rsatalb(
    f: ExactCnfFormula,
    k_num: int | RationalTarget,
    cap: int = DEFAULT_ASSIGNMENT_CAP,
    workers: int = 1,
    diagnostic: bool = False,
) -> DecisionOutcome:
    """Decide whether some assignment satisfies at least (1 - 2^-r)m + k clauses.

    Requires conflict number at most (2^r - 2)m; outside that family the bound
    shortcut is unsound and the call is refused unless ``diagnostic`` is set,
    in which case the instance is solved exhaustively. Within the family,
    m >= 16 * 64^r * k_num^2 certifies YES outright.
    """
    if isinstance(k_num, RationalTarget):
        if k_num.width != f.r:
            raise ValueError("target denominator exponent must equal the clause width")
        k_num = k_num.numerator
    if k_num < 1:
        raise ValueError("the target numerator must be positive")
    m = len(f.clauses)
    stats = conflict_number(f)
    bound = conflict_bound(f)
    diag: dict[str, object] = {
        "k_num": k_num,
        "m": m,
        "cn": stats.conflict_number,
        "cn_bound": bound,
    }
    restricted = stats.conflict_number <= bound
    if not restricted and not diagnostic:
        raise RestrictionViolated(
            "conflict number %d exceeds (2^r - 2)m = %d" % (stats.conflict_number, bound)
        )
    if restricted:
        threshold = 16 * 64**f.r * k_num * k_num
        diag["m_threshold"] = threshold
        if m >= threshold:
            return DecisionOutcome(Verdict.YES_BY_BOUND, diagnostics=diag)
    try:
        best, witness = solve_exact(f, cap=cap, workers=workers)
    except CapExceeded as exc:
        diag["cap"] = exc.cap
        diag["kernel_vars"] = exc.needed
        return DecisionOutcome(Verdict.KERNEL, kernel=f, diagnostics=diag)
    diag["best_scaled_x"] = best
    diag["target_scaled_x"] = k_num
    if best >= k_num:
        return DecisionOutcome(Verdict.YES_WITNESS, witness=witness, diagnostics=diag)
    return DecisionOutcome(Verdict.NO, diagnostics=diag)
