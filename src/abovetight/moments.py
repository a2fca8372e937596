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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial

from . import maxlin, rsat
from .instances import Instance
from .linord import DEFAULT_ORDER_CAP, WeightedDigraph, active_vertices, digraph_stats
from .linord import forward_weight_counts, reduce_two_cycles
from .maxlin import DEFAULT_ASSIGNMENT_CAP, Lin2System
from .outcome import check_cap
from .rsat import ExactCnfFormula

# Bits allowed in the count of full orders or assignments that each counted
# one stands for (n!/n'! or 2^(n - kernel)), so a header declaring millions
# of unused vertices or variables is refused at once, not multiplied out.
MULTIPLIER_BITS = 1024


@dataclass(frozen=True)
class ExactDistribution:
    """Exact mass of a scaled integer variable over a finite uniform space.

    ``mass`` lists (value, count) pairs sorted by value and stored values
    are scale * X. ``total`` is the size of the sample space, n! orders or
    2^n assignments, which a ``dist_*`` caller declares and the counts must
    reach exactly. ``power_sums`` sums the mass once, for every moment
    check that reads this distribution. ``kernel`` is the instance
    that ``dist_*`` counted, on which X has the input's law, and from which
    ``verify_second_moment_claims`` reads its target and closed form; it is
    None on a hand-built law and takes no part in ``==``, ``hash`` or ``repr``.
    """

    scale: int
    mass: tuple[tuple[int, int], ...]
    total: int
    kernel: Instance | None = field(default=None, compare=False, repr=False)

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
    def from_counts(
        cls, scale: int, counts: Counter[int], multiplier: int, total: int, kernel: Instance
    ) -> ExactDistribution:
        mass = tuple(sorted((v, c * multiplier) for v, c in counts.items()))
        return cls(scale=scale, mass=mass, total=total, kernel=kernel)

    @cached_property
    def power_sums(self) -> dict[int, int]:
        """sum(count * value^p) over the mass at the stored scale, for p = 1, 2 and 4."""
        return {p: sum(c * v**p for v, c in self.mass) for p in (1, 2, 4)}

    def is_symmetric(self) -> bool:
        return all(v == -w and c == e for (v, c), (w, e) in zip(self.mass, reversed(self.mass)))


@dataclass(frozen=True)
class MomentReport:
    """First, second and fourth moments at unit scale, plus symmetry."""

    e1: Fraction
    e2: Fraction
    e4: Fraction
    symmetric: bool


@dataclass(frozen=True)
class TailCheck:
    """Outcome of the fourth-moment tail check at ratio bound b.

    Preconditions are E(X) = 0, E(X^2) > 0 and E(X^4) <= b * E(X^2)^2;
    ``failed_precondition`` names the first that fails, or is None when all
    hold. Then Prob(X > sigma / (4 sqrt(b))) must be at least 4^(-4/3) / b,
    compared exactly as 256 * (count * b_num)^3 >= (total * b_den)^3; when
    a precondition fails, ``holds`` is None and ``probability`` 0.
    """

    failed_precondition: str | None
    holds: bool | None
    probability: Fraction


@dataclass(frozen=True)
class SecondMomentCheck:
    """The paper's lower bound on E(X^2), E(X^2) in closed form, and whether the claim holds.

    ``pairwise_e2`` is read from the counted kernel's weights or clauses
    rather than from its distribution; the enumerated E(X^2) is
    ``moment_report``'s ``e2``.
    """

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
    return ExactDistribution.from_counts(2, counts, multiplier, multiplier * factorial(nv), kernel)


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
    return ExactDistribution.from_counts(1, counts, 1 << (s.n - reduced.n), 1 << s.n, reduced)


def dist_rsat(f: ExactCnfFormula, cap: int = DEFAULT_ASSIGNMENT_CAP) -> ExactDistribution:
    """Exact mass of 2^r * X over all 2^n assignments (scale 2^r).

    The kernel counted is the one ``rsat.solve_exact`` solves, the occurring
    variables; ``cap`` bounds their number, as ``--cap`` does in rsat.
    """
    occurring = len(f.occurring_variables())
    check_cap("distribution", occurring, "occurring variables", cap)
    _check_multiplier(f.n - occurring + 1)
    counts = rsat.scaled_x_counts(f)
    return ExactDistribution.from_counts(1 << f.r, counts, 1 << (f.n - occurring), 1 << f.n, f)


def _check_multiplier(bits: int) -> None:
    check_cap("distribution", bits, "multiplier bits", MULTIPLIER_BITS)


def moment_p(d: ExactDistribution, p: int) -> Fraction:
    """Exact p-th moment at unit scale, ``power_sums[p] / (total * scale^p)``, for p = 1, 2 or 4."""
    if p not in d.power_sums:
        raise ValueError("moment order must be 1, 2 or 4")
    return Fraction(d.power_sums[p], d.total * d.scale**p)


def moment_report(d: ExactDistribution) -> MomentReport:
    return MomentReport(
        e1=moment_p(d, 1),
        e2=moment_p(d, 2),
        e4=moment_p(d, 4),
        symmetric=d.is_symmetric(),
    )


def verify_symmetric_tail(d: ExactDistribution) -> bool | None:
    """Check Prob(X >= sqrt(E(X^2))) > 0 for a symmetric distribution.

    Returns whether the event has positive probability, or None when the
    distribution is not symmetric and the check does not apply. The event
    is evaluated exactly: a value v >= 0 qualifies iff
    v^2 * total >= sum(count * value^2), so the value 0 qualifies only when
    the second moment vanishes. Every count is positive, so the event has
    positive probability iff some value qualifies.
    """
    if not d.is_symmetric():
        return None
    s2 = d.power_sums[2]  # total * scale^2 * E(X^2)
    return any(v >= 0 and v * v * d.total >= s2 for v, _ in d.mass)


def verify_fourth_moment_tail(d: ExactDistribution, b: Fraction | int) -> TailCheck:
    """Check the positive-tail bound implied by a fourth-moment ratio bound b."""
    b = Fraction(b)
    if b <= 0:
        raise ValueError("b must be positive")
    e1 = moment_p(d, 1)
    s2, s4 = d.power_sums[2], d.power_sums[4]
    failed = None
    if e1 != 0:
        failed = "E(X) = %s is not zero" % e1
    elif s2 == 0:
        failed = "E(X^2) is zero"
    # E(X^4) <= b E(X^2)^2 at scaled numerators: den(b) s4 total <= num(b) s2^2.
    elif b.denominator * s4 * d.total > b.numerator * s2 * s2:
        failed = "E(X^4) = %s exceeds b E(X^2)^2" % moment_p(d, 4)
    if failed is not None:
        return TailCheck(failed, None, Fraction(0))
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
    return TailCheck(None, lhs >= rhs, prob)


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


def verify_second_moment_claims(dist: ExactDistribution) -> SecondMomentCheck:
    """Check the second-moment claim on the kernel a ``dist_*`` distribution counted.

    Each kind has a paper target and a closed form for E(X^2), and the claim
    is E(X) = 0 and E(X^2) = closed form >= target. Both are read from
    ``dist.kernel``, on which X has the instance's law. A digraph kernel is
    2-cycle free, with target W2/12 and closed form
    (W2 + sum over v of (out_v - in_v)^2)/12, equal to the target exactly
    when every vertex is balanced; an equation-system kernel, the rank
    reduction of a merged system, keeps the merged weights, whose sum of
    squares is both; a formula within the conflict-number restriction has
    target m/4^r and Parseval's sum (``pairwise_second_moment``). A formula
    outside the restriction raises ValueError, checked before the mass is
    read; one past ``rsat.SUBCLAUSE_KEY_BUDGET`` raises CapExceeded.
    """
    kernel = dist.kernel
    if isinstance(kernel, WeightedDigraph):
        st = digraph_stats(kernel)
        target, closed = Fraction(st.W2, 12), Fraction(st.W2 + st.imbalance2, 12)
    elif isinstance(kernel, Lin2System):
        target = closed = Fraction(sum(eq.weight**2 for eq in kernel.equations))
    elif isinstance(kernel, ExactCnfFormula):
        cn, bound = rsat.conflict_number(kernel), rsat.conflict_bound(kernel)
        if cn > bound:
            raise ValueError("conflict number %d exceeds (2^r - 2)m = %d" % (cn, bound))
        target, closed = Fraction(len(kernel.clauses), 4**kernel.r), pairwise_second_moment(kernel)
    else:
        raise TypeError("unsupported instance type: %r" % type(kernel))
    return SecondMomentCheck(target, moment_p(dist, 1) == 0 and moment_p(dist, 2) == closed >= target, closed)


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
