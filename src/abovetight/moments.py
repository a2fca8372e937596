"""Exact distributions of the three balance variables and their moment checks.

Each sample space is counted completely. The n! vertex orders of a digraph
are counted by a dynamic program over subsets of its n' non-isolated
vertices that keeps the exact forward-weight distribution of each subset,
in O(2^n' * n' * support) time rather than n'!; equation systems and
formulas enumerate all 2^n assignments. Values are stored at an integer
scale (2 for orders, 1 for equation systems, 2^r for formulas) and every
probability or moment is an exact rational; square roots and other
irrational thresholds are compared by raising both sides to integer powers,
so no floating point enters any verification path. A Monte-Carlo estimator
exists for larger instances but is labeled as an estimate and is never used
in assertions.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import maxlin, rsat
from .linord import LinearOrder, WeightedDigraph, active_in_arcs, digraph_stats, x_value
from .maxlin import DEFAULT_ASSIGNMENT_CAP, Lin2Equation, Lin2System
from .outcome import check_cap
from .rsat import ExactCnfFormula

DEFAULT_ORDER_CAP = 9


@dataclass(frozen=True)
class ExactDistribution:
    """Exact mass of a scaled integer variable over a finite uniform space.

    ``mass`` lists (value, count) pairs sorted by value; counts sum to
    ``total`` and stored values are scale * X.
    """

    scale: int
    mass: tuple[tuple[int, int], ...]
    total: int

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.total < 1:
            raise ValueError("total must be positive")
        values = [v for v, _ in self.mass]
        if values != sorted(values) or len(values) != len(set(values)):
            raise ValueError("mass must be sorted by value without repeats")
        if any(c < 1 for _, c in self.mass):
            raise ValueError("counts must be positive")
        if sum(c for _, c in self.mass) != self.total:
            raise ValueError("counts must sum to the sample-space size")

    @classmethod
    def from_counts(cls, scale: int, counts: Counter[int], multiplier: int = 1) -> ExactDistribution:
        mass = tuple(sorted((v, c * multiplier) for v, c in counts.items()))
        total = sum(c for _, c in mass)
        return cls(scale=scale, mass=mass, total=total)

    def is_symmetric(self) -> bool:
        table = dict(self.mass)
        return all(table.get(-v, 0) == c for v, c in self.mass)

    def probability(self, value_scaled: int) -> Fraction:
        table = dict(self.mass)
        return Fraction(table.get(value_scaled, 0), self.total)


@dataclass(frozen=True)
class MomentReport:
    """First, second and fourth moments at unit scale, plus symmetry."""

    e1: Fraction
    e2: Fraction
    e4: Fraction
    symmetric: bool


@dataclass(frozen=True)
class SymmetryCheck:
    """Outcome of the symmetric-distribution positive-tail check.

    When the distribution is symmetric the event X >= sqrt(E(X^2)) must have
    positive probability; ``holds`` is None when symmetry fails and the check
    does not apply.
    """

    symmetric: bool
    holds: bool | None
    event_count: int
    total: int
    e2: Fraction


@dataclass(frozen=True)
class TailCheck:
    """Outcome of the fourth-moment tail check at ratio bound b.

    Preconditions are E(X) = 0, E(X^2) > 0 and E(X^4) <= b * E(X^2)^2; when
    they hold, Prob(X > sigma / (4 sqrt(b))) must be at least 4^(-4/3) / b,
    compared exactly as 256 * (count * b_num)^3 >= (total * b_den)^3.
    """

    preconditions_ok: bool
    failed_precondition: str | None
    holds: bool | None
    probability: Fraction
    b: Fraction


@dataclass(frozen=True)
class SecondMomentCheck:
    """Second-moment identity or lower bound for one instance kind."""

    kind: str
    e1: Fraction
    e2: Fraction
    target: Fraction
    holds: bool
    pairwise_e2: Fraction | None = None


def dist_linord(g: WeightedDigraph, cap: int = DEFAULT_ORDER_CAP) -> ExactDistribution:
    """Exact mass of 2X over all n! vertex orders (scale 2).

    Orders of the n' non-isolated vertices are counted by a dynamic program
    over vertex subsets: the orders of a set S end in some v of S, and each
    adds to an order of S - v the weight of arcs from S - v into v. Each
    subset keeps a Counter of forward weight over its orders, so the cost is
    O(2^n' * n' * support). Every order of the active vertices accounts for
    n!/n'! full orders.
    """
    check_cap("distribution", g.n, "vertices", cap)
    active, in_arcs = active_in_arcs(g)
    nv = len(active)
    full = (1 << nv) - 1
    forward: list[Counter[int]] = [Counter() for _ in range(full + 1)]
    forward[0][0] = 1
    for mask in range(full):
        base = forward[mask]
        for i in range(nv):
            bit = 1 << i
            if mask & bit:
                continue
            gain = 0
            for ubit, w in in_arcs[i]:
                if mask & ubit:
                    gain += w
            target = forward[mask | bit]
            for f, c in base.items():
                target[f + gain] += c
    total_weight = sum(w for _, _, w in g.arcs)
    counts = Counter({2 * f - total_weight: c for f, c in forward[full].items()})
    multiplier = math.factorial(g.n) // math.factorial(nv)
    return ExactDistribution.from_counts(2, counts, multiplier)


def dist_lin2(s: Lin2System, cap: int = DEFAULT_ASSIGNMENT_CAP) -> ExactDistribution:
    """Exact mass of X over all 2^n assignments (scale 1)."""
    check_cap("distribution", s.n, "variables", cap)
    counts = maxlin.x_distribution_counts(s)
    return ExactDistribution.from_counts(1, counts)


def dist_rsat(f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP) -> ExactDistribution:
    """Exact mass of 2^r * X over all 2^n assignments (scale 2^r)."""
    check_cap("distribution", f.n, "variables", cap)
    counts, multiplier = rsat.scaled_x_counts(f)
    return ExactDistribution.from_counts(1 << f.r, counts, multiplier)


def moment_p(d: ExactDistribution, p: int) -> Fraction:
    """Exact p-th moment at unit scale: sum(count * value^p) / (total * scale^p)."""
    if p < 1:
        raise ValueError("moment order must be positive")
    numerator = sum(c * v**p for v, c in d.mass)
    return Fraction(numerator, d.total * d.scale**p)


def moment_report(d: ExactDistribution) -> MomentReport:
    return MomentReport(
        e1=moment_p(d, 1),
        e2=moment_p(d, 2),
        e4=moment_p(d, 4),
        symmetric=d.is_symmetric(),
    )


def verify_symmetric_tail(d: ExactDistribution) -> SymmetryCheck:
    """Check Prob(X >= sqrt(E(X^2))) > 0 for a symmetric distribution.

    The event is evaluated exactly: a positive value v qualifies iff
    v^2 * total >= sum(count * value^2); the value 0 qualifies only when the
    second moment vanishes.
    """
    e2 = moment_p(d, 2)
    s2 = sum(c * v * v for v, c in d.mass)  # total * scale^2 * E(X^2)
    symmetric = d.is_symmetric()
    event = 0
    for v, c in d.mass:
        if v > 0:
            if v * v * d.total >= s2:
                event += c
        elif v == 0 and s2 == 0:
            event += c
    holds = event > 0 if symmetric else None
    return SymmetryCheck(
        symmetric=symmetric, holds=holds, event_count=event, total=d.total, e2=e2
    )


def verify_fourth_moment_tail(d: ExactDistribution, b: Fraction | int) -> TailCheck:
    """Check the positive-tail bound implied by a fourth-moment ratio bound b."""
    b = Fraction(b)
    if b <= 0:
        raise ValueError("b must be positive")
    e1 = moment_p(d, 1)
    s2 = sum(c * v * v for v, c in d.mass)
    s4 = sum(c * v**4 for v, c in d.mass)
    failed = None
    if e1 != 0:
        failed = "E(X) = %s is not zero" % e1
    elif s2 == 0:
        failed = "E(X^2) is zero"
    # E(X^4) <= b E(X^2)^2 at scaled numerators: den(b) s4 total <= num(b) s2^2.
    elif b.denominator * s4 * d.total > b.numerator * s2 * s2:
        failed = "E(X^4) = %s exceeds b E(X^2)^2" % moment_p(d, 4)
    if failed is not None:
        return TailCheck(False, failed, None, Fraction(0), b)
    # X > sigma/(4 sqrt(b))  <=>  v > 0 and 16 num(b) total v^2 > den(b) s2.
    event = sum(
        c
        for v, c in d.mass
        if v > 0 and 16 * b.numerator * d.total * v * v > b.denominator * s2
    )
    prob = Fraction(event, d.total)
    # Prob >= 4^(-4/3)/b  <=>  256 (Prob b)^3 >= 1.
    lhs = 256 * (event * b.numerator) ** 3
    rhs = (d.total * b.denominator) ** 3
    return TailCheck(True, None, lhs >= rhs, prob, b)


def pairwise_second_moment(f: ExactCnfFormula) -> Fraction:
    """E(X^2) of a formula from per-clause and per-pair closed forms.

    Each clause contributes (2^r - 1)/4^r; an ordered conflicting pair
    contributes -1/4^r, an ordered pair sharing t literals (2^t - 1)/4^r,
    and variable-disjoint pairs contribute nothing.
    """
    return _pairwise_e2(f, *rsat.overlap_histogram(f))


def _pairwise_e2(f: ExactCnfFormula, conflicts: int, shared_counts: Counter[int]) -> Fraction:
    q = 4**f.r
    acc = Fraction(len(f.clauses) * ((1 << f.r) - 1), q)
    acc += Fraction(-conflicts, q)
    for t, count in shared_counts.items():
        acc += Fraction(count * ((1 << t) - 1), q)
    return acc


def verify_second_moment_claims(
    instance: WeightedDigraph | Lin2System | ExactCnfFormula,
    dist: ExactDistribution,
) -> SecondMomentCheck:
    """Check the second-moment claim on the instance's exact distribution.

    Oriented digraphs must satisfy E(X^2) >= W2/12, merge-normalized equation
    systems the identities E(X) = 0 and E(X^2) = sum of squared weights, and
    formulas within the conflict-number restriction E(X^2) >= m/4^r; formula
    checks also cross-check the enumerated E(X^2) against the pairwise closed
    form. ``dist`` is the instance's distribution from ``dist_*``.
    Precondition violations raise ValueError, checked before ``dist`` is read.
    """
    if isinstance(instance, WeightedDigraph):
        st = digraph_stats(instance)
        if not st.oriented:
            raise ValueError("digraph must be oriented (no 2-cycles)")
        e1 = moment_p(dist, 1)
        e2 = moment_p(dist, 2)
        target = Fraction(st.W2, 12)
        return SecondMomentCheck("linord", e1, e2, target, e1 == 0 and e2 >= target)
    if isinstance(instance, Lin2System):
        if not instance.is_merge_normalized():
            raise ValueError("system must be merge-normalized")
        e1 = moment_p(dist, 1)
        e2 = moment_p(dist, 2)
        target = Fraction(sum(eq.weight**2 for eq in instance.equations))
        return SecondMomentCheck("lin2", e1, e2, target, e1 == 0 and e2 == target)
    if isinstance(instance, ExactCnfFormula):
        # One pass over clause pairs serves the restriction and the closed form.
        conflicts, shared_counts = rsat.overlap_histogram(instance)
        cn = conflicts - sum(shared_counts.values())
        bound = rsat.conflict_bound(instance)
        if cn > bound:
            raise ValueError("conflict number %d exceeds (2^r - 2)m = %d" % (cn, bound))
        e1 = moment_p(dist, 1)
        e2 = moment_p(dist, 2)
        pairwise = _pairwise_e2(instance, conflicts, shared_counts)
        target = Fraction(len(instance.clauses), 4**instance.r)
        holds = e1 == 0 and e2 == pairwise and e2 >= target
        return SecondMomentCheck("rsat", e1, e2, target, holds, pairwise_e2=pairwise)
    raise TypeError("unsupported instance type: %r" % type(instance))


def all_subsets_system(n: int) -> Lin2System:
    """Unit-weight system with one equation sum = 1 per nonempty variable subset.

    The family has m = 2^n - 1 equations, each variable occurring 2^(n-1)
    times, and its fourth-moment-to-second-moment ratio grows with n, which
    rules the fourth-moment tail route out for unrestricted systems.
    """
    if not 3 <= n <= 6:
        raise ValueError("n must be between 3 and 6")
    eqs = []
    for mask in range(1, 1 << n):
        variables = tuple(v for v in range(n) if (mask >> v) & 1)
        eqs.append(Lin2Equation(variables, 1, 1))
    return Lin2System(n, tuple(eqs))


def estimate_moments(
    instance: WeightedDigraph | Lin2System | ExactCnfFormula,
    samples: int = 10000,
    seed: int = 0,
) -> dict[str, object]:
    """Monte-Carlo moment estimates for instances too large to enumerate.

    Returns floats labeled as estimates; never used by any verification.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    values: list[float] = []
    if isinstance(instance, WeightedDigraph):
        # The active vertices of a uniform order are in uniform relative order,
        # so X has the same law on the digraph they induce.
        active, _ = active_in_arcs(instance)
        index = {v: i for i, v in enumerate(active)}
        g = WeightedDigraph(len(active), tuple((index[u], index[v], w) for u, v, w in instance.arcs))
        vertices = list(range(g.n))
        for _ in range(samples):
            rng.shuffle(vertices)
            values.append(x_value(g, LinearOrder.from_sequence(vertices)) / 2)
    elif isinstance(instance, Lin2System):
        # Every satisfaction pattern is hit by 2^(n - rank) assignments, so X
        # has the same law on the rank-reduced system.
        reduced = maxlin.rank_reduce(instance).reduced
        for _ in range(samples):
            z = [rng.randint(0, 1) for _ in range(reduced.n)]
            values.append(float(maxlin.evaluate_x(reduced, z)))
    elif isinstance(instance, ExactCnfFormula):
        # Variables in no clause leave X unchanged, so X has the same law on
        # the formula renumbered over the occurring variables.
        index = {v: i for i, v in enumerate(instance.occurring_variables(), start=1)}
        clauses = tuple(
            tuple(index[lit] if lit > 0 else -index[-lit] for lit in c) for c in instance.clauses
        )
        f = ExactCnfFormula(len(index), instance.r, clauses)
        for _ in range(samples):
            x = [rng.randint(0, 1) for _ in range(f.n)]
            values.append(rsat.x_value_scaled(f, x) / (1 << f.r))
    else:
        raise TypeError("unsupported instance type: %r" % type(instance))
    e1 = sum(values) / samples
    e2 = sum(v * v for v in values) / samples
    e4 = sum(v**4 for v in values) / samples
    return {"estimate": True, "samples": samples, "e1": e1, "e2": e2, "e4": e4}
