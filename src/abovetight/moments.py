"""Exact distributions of the three balance variables and their moment checks.

Each sample space is counted completely, on the kernel the kind's decider
solves. The orders of a digraph's n' non-isolated vertices, once 2-cycles
are cancelled, are counted by forward weight in ``linord``, beside the exact
solver that shares their subset DP. Equation systems (merged, then rank
reduced) and formulas (over their occurring variables) are counted by the
bit-sliced counter of ``gf2``, through ``maxlin`` and ``rsat``. This module
applies the caps on what is counted, and the multiplier of n!/n'!,
2^(n - rank) or 2^(n - occurring) that turns the counts into the full
space. Values are stored at an integer scale (2 for orders, 1 for equation
systems, 2^r for formulas) and every probability or moment is an exact
rational; square roots and other irrational thresholds are compared by
raising both sides to integer powers, so no floating point enters any
verification path. A Monte-Carlo estimator for larger instances is labeled
as an estimate and is never used in assertions.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import maxlin, rsat
from .linord import WeightedDigraph, active_vertices, digraph_stats, forward_weight_counts, reduce_two_cycles
from .maxlin import DEFAULT_ASSIGNMENT_CAP, Lin2System
from .outcome import check_cap
from .rsat import ExactCnfFormula

DEFAULT_ORDER_CAP = 9
# Bits allowed in the count of full orders or assignments that each counted
# one stands for (n!/n'! or 2^(n - kernel)), so a header declaring millions
# of unused vertices or variables is refused at once, not multiplied out.
MULTIPLIER_BITS = 1024


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


@dataclass(frozen=True)
class SecondMomentCheck:
    """The enumerated E(X^2), the paper's lower bound on it, and whether the claim holds.

    ``pairwise_e2`` is E(X^2) in closed form, from the instance's weights
    or clauses rather than from its distribution.
    """

    e2: Fraction
    target: Fraction
    holds: bool
    pairwise_e2: Fraction


def dist_linord(g: WeightedDigraph, cap: int = DEFAULT_ORDER_CAP) -> ExactDistribution:
    """Exact mass of 2X over all n! vertex orders (scale 2).

    The kernel counted is the one ``linord.decide_loalb`` solves,
    ``reduce_two_cycles(g)``: cancelling a 2-cycle lowers an order's forward
    weight and W/2 by the same amount, so every order has the same X on
    both. ``linord.forward_weight_counts`` counts the orders of the kernel's
    n' non-isolated vertices by forward weight f. Each has 2X = 2f - W and
    stands for n!/n'! full orders. ``cap`` bounds n', as ``--cap`` bounds
    the same vertices in loalb.
    """
    kernel = reduce_two_cycles(g)
    active = active_vertices(kernel)
    nv = len(active)
    check_cap("distribution", nv, "active vertices", cap)
    # n!/n'!, multiplied up so that a long header stops at the budget.
    multiplier = 1
    for factor in range(nv + 1, g.n + 1):
        multiplier *= factor
        _check_multiplier(multiplier.bit_length())
    total_weight = sum(kernel.weights)
    counts = Counter({2 * f - total_weight: c for f, c in forward_weight_counts(kernel, active).items()})
    return ExactDistribution.from_counts(2, counts, multiplier)


def dist_lin2(s: Lin2System, cap: int = DEFAULT_ASSIGNMENT_CAP) -> ExactDistribution:
    """Exact mass of X over all 2^n assignments (scale 1).

    The kernel counted is the one ``maxlin.decide_linalb`` solves, the rank
    reduction of ``merge_duplicates(s)``: merging keeps every assignment's
    X, and every satisfaction pattern of the merged system is hit by
    exactly 2^(n - rank) assignments. ``cap`` bounds the rank, as ``--cap``
    bounds the same kernel variables in linalb.
    """
    reduced = maxlin.rank_reduce(maxlin.merge_duplicates(s)).reduced
    check_cap("distribution", reduced.n, "kernel variables", cap)
    _check_multiplier(s.n - reduced.n + 1)
    counts = maxlin.x_distribution_counts(reduced)
    return ExactDistribution.from_counts(1, counts, 1 << (s.n - reduced.n))


def dist_rsat(f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP) -> ExactDistribution:
    """Exact mass of 2^r * X over all 2^n assignments (scale 2^r).

    The kernel counted is the one ``rsat.solve_exact`` solves, the occurring
    variables; ``cap`` bounds their number, as ``--cap`` does in rsat.
    """
    occurring = len(f.occurring_variables())
    check_cap("distribution", occurring, "occurring variables", cap)
    _check_multiplier(f.n - occurring + 1)
    counts = rsat.scaled_x_counts(f)
    return ExactDistribution.from_counts(1 << f.r, counts, 1 << (f.n - occurring))


def _check_multiplier(bits: int) -> None:
    check_cap("distribution", bits, "multiplier bits", MULTIPLIER_BITS)


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
    return SymmetryCheck(symmetric=symmetric, holds=holds)


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
        return TailCheck(False, failed, None, Fraction(0))
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
    return TailCheck(True, None, lhs >= rhs, prob)


def pairwise_second_moment(f: ExactCnfFormula) -> Fraction:
    """E(X^2) of a formula by Parseval over the Fourier expansion of X, not by enumeration.

    ``rsat.overlap_histogram`` sums the squared Fourier coefficients from
    sub-clause counts, and the formula keeps its result (``overlap_counts``).
    The sum equals the per-clause and per-pair closed forms: each clause
    contributes (2^r - 1)/4^r, an ordered conflicting pair -1/4^r, an
    ordered pair sharing t literals (2^t - 1)/4^r, and variable-disjoint
    pairs nothing.
    """
    return Fraction(f.overlap_counts[2], 4**f.r)


def verify_second_moment_claims(
    instance: WeightedDigraph | Lin2System | ExactCnfFormula,
    dist: ExactDistribution,
) -> SecondMomentCheck:
    """Check the second-moment claim on the instance's exact distribution.

    Each kind has a paper target and a closed form for E(X^2), and the claim
    is E(X) = 0 and E(X^2) = closed form >= target. Both are read from the
    kernel ``dist_*`` counts, on which X has the instance's law. Digraphs,
    once ``reduce_two_cycles`` leaves them oriented, have target W2/12 and
    closed form (W2 + sum over v of (out_v - in_v)^2)/12, equal to the target
    exactly when every vertex is balanced; equation systems, once
    ``merge_duplicates`` normalizes them, have the sum of squared weights for
    both; formulas within the conflict-number restriction have target m/4^r
    and Parseval's sum (``pairwise_second_moment``). ``dist`` is the
    instance's distribution from ``dist_*``. A formula outside the
    restriction raises ValueError, checked before ``dist`` is read; one past
    ``rsat.SUBCLAUSE_KEY_BUDGET`` raises CapExceeded.
    """
    if isinstance(instance, WeightedDigraph):
        st = digraph_stats(reduce_two_cycles(instance))
        target, closed = Fraction(st.W2, 12), Fraction(st.W2 + st.imbalance2, 12)
    elif isinstance(instance, Lin2System):
        merged = maxlin.merge_duplicates(instance)
        target = closed = Fraction(sum(eq.weight**2 for eq in merged.equations))
    elif isinstance(instance, ExactCnfFormula):
        cn, bound = rsat.conflict_number(instance), rsat.conflict_bound(instance)
        if cn > bound:
            raise ValueError("conflict number %d exceeds (2^r - 2)m = %d" % (cn, bound))
        target, closed = Fraction(len(instance.clauses), 4**instance.r), pairwise_second_moment(instance)
    else:
        raise TypeError("unsupported instance type: %r" % type(instance))
    e2 = moment_p(dist, 2)
    return SecondMomentCheck(e2, target, moment_p(dist, 1) == 0 and e2 == closed >= target, closed)


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
    if isinstance(instance, WeightedDigraph):
        # The active vertices of a uniform order are in uniform relative order,
        # so X has the same law on the orders of them alone.
        active = active_vertices(instance)
        total_weight = sum(instance.weights)

        def draw() -> float:
            rng.shuffle(active)
            pos = dict(zip(active, range(len(active))))
            arcs = zip(instance.tails, instance.heads, instance.weights)
            forward = sum(w for u, v, w in arcs if pos[u] < pos[v])
            # Not forward - W / 2: past 2^53 the two round differently.
            return (2 * forward - total_weight) / 2

    elif isinstance(instance, Lin2System):
        # Every satisfaction pattern is hit by 2^(n - rank) assignments, so X
        # has the same law on the rank-reduced system.
        reduced = maxlin.rank_reduce(instance).reduced

        def draw() -> float:
            z = [rng.randint(0, 1) for _ in range(reduced.n)]
            return float(maxlin.evaluate_x(reduced, z))

    elif isinstance(instance, ExactCnfFormula):
        # Variables in no clause leave X unchanged, so X has the same law on
        # the formula renumbered over the occurring variables.
        index = {v: i for i, v in enumerate(instance.occurring_variables(), start=1)}
        clauses = tuple(
            tuple(index[lit] if lit > 0 else -index[-lit] for lit in c) for c in instance.clauses
        )
        f = ExactCnfFormula(len(index), instance.r, clauses)

        def draw() -> float:
            x = [rng.randint(0, 1) for _ in range(f.n)]
            return rsat.x_value_scaled(f, x) / (1 << f.r)

    else:
        raise TypeError("unsupported instance type: %r" % type(instance))
    # Running sums keep memory flat however many samples are drawn. Added in
    # sample order, they equal ``sum`` over a list of the samples on Python 3.11.
    s1 = s2 = s4 = 0.0
    for _ in range(samples):
        x = draw()
        s1 += x
        s2 += x * x
        s4 += x**4
    return {"estimate": True, "samples": samples, "e1": s1 / samples, "e2": s2 / samples, "e4": s4 / samples}
