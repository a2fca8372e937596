"""Seeded call lists for the four benchmark workloads.

Every instance is built here from the workload seed (or by
``instances.gen_instance`` with a seed drawn from it) and reaches the
program only as a file written with ``serialize_instance``. Sizes are fixed
per workload and the builders keep the work per instance independent of the
seed: every vertex of an exact-solve digraph is active, every variable of a
scanned system or formula occurs equally often, and systems solved exactly
have full column rank. Verdict classes are fixed by construction: the
parameter of a bound call sits below its threshold, the parameter of a
kernel call sits above every threshold on an instance far beyond any cap,
and tight families decide NO.

The ``pkg`` argument is the freshly imported ``abovetight`` package, so
instances are built from the same module objects the calls run against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("kernelize", "exact_solve", "moments", "many_small")

BOUND = frozenset({"YES_BY_BOUND"})
KERNEL = frozenset({"KERNEL"})
EXACT = frozenset({"YES_WITNESS", "NO"})
TIGHT = frozenset({"NO"})
SMALL = frozenset({"YES_BY_BOUND", "YES_WITNESS", "NO"})
WITNESS = frozenset({"YES_WITNESS"})
OK = frozenset({"OK"})


@dataclass
class Call:
    """One ``cli.run`` invocation and what its output must satisfy.

    ``instance`` is the object serialized into the input file (None for
    ``gen``); ``target`` is k for loalb, fas and linalb and k_num for rsat;
    ``expect`` lists the verdicts the construction allows. For ``gen`` the
    path is the file the command emits.
    """

    label: str
    command: str
    flags: list[str]
    instance: Any = None
    target: int | None = None
    expect: frozenset[str] = OK
    gen_kind: str | None = None
    path: str = ""

    def argv(self) -> list[str]:
        if self.command == "gen":
            return ["gen", *self.flags, "--emit", self.path]
        return [self.command, self.path, *self.flags]


# ---------------------------------------------------------------------------
# Instance builders


def dense_digraph(pkg, rng: random.Random, n: int, m: int, wmax: int):
    """m distinct random arcs on n vertices; 2-cycles occur and cancel."""
    seen: set[tuple[int, int]] = set()
    arcs = []
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v, rng.randint(1, wmax)))
    return pkg.WeightedDigraph.from_arcs(n, arcs)


def oriented_digraph(pkg, rng: random.Random, n: int, m: int, wmax: int):
    """Oriented digraph with m arcs in which every vertex is active.

    A random Hamiltonian path fixes the active set; further pairs are drawn
    until there are m, and each pair gets a random direction.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError("an oriented digraph on %d active vertices needs %d..%d arcs" % (n, n - 1, n * (n - 1) // 2))
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = {tuple(sorted(perm[i : i + 2])) for i in range(n - 1)}
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    arcs = []
    for u, v in sorted(pairs):
        w = rng.randint(1, wmax)
        arcs.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    return pkg.WeightedDigraph.from_arcs(n, arcs)


def gf2_rank(masks: list[int]) -> int:
    """Rank over GF(2), computed here so that input generation does not run the code under test."""
    basis: dict[int, int] = {}
    for vec in masks:
        while vec:
            p = vec.bit_length() - 1
            if p not in basis:
                basis[p] = vec
                break
            vec ^= basis[p]
    return len(basis)


def regular_system(pkg, rng: random.Random, n: int, rounds: int, sizes: tuple[int, ...], wmax: int):
    """Merge-normalized full-rank lin2 system; every variable occurs ``rounds`` times.

    Each round shuffles the variables and cuts them into equations of the
    given sizes (which sum to n). Rounds are redrawn until all variable sets
    are distinct and the coefficient matrix has rank n.
    """
    assert sum(sizes) == n
    for _ in range(1000):
        eqs = []
        for _ in range(rounds):
            perm = list(range(n))
            rng.shuffle(perm)
            start = 0
            for size in sizes:
                eqs.append((tuple(sorted(perm[start : start + size])), rng.randint(0, 1), rng.randint(1, wmax)))
                start += size
        keys = [vs for vs, _, _ in eqs]
        masks = [sum(1 << v for v in vs) for vs in keys]
        if len(set(keys)) == len(keys) and gf2_rank(masks) == n:
            return pkg.Lin2System(n, tuple(pkg.Lin2Equation(vs, b, w) for vs, b, w in eqs))
    raise RuntimeError("no full-rank regular system with n=%d, sizes=%r" % (n, sizes))


def mixed_sizes(n: int) -> tuple[int, ...]:
    """Equation sizes summing to n: a triple, then pairs, then a single if n is even.

    Each round's equations sum to the all-ones vector, so three rounds span at
    most 3 * len(sizes) - 2 dimensions; these sizes leave room for rank n.
    """
    rest = n - 3
    return (3,) + (2,) * (rest // 2) + (1,) * (rest % 2)


def random_system(pkg, rng: random.Random, n: int, m: int, arities: tuple[int, ...], wmax: int):
    """m random equations whose sizes are drawn from ``arities``; may repeat sets."""
    eqs = []
    for _ in range(m):
        vs = tuple(sorted(rng.sample(range(n), rng.choice(arities))))
        eqs.append(pkg.Lin2Equation(vs, rng.randint(0, 1), rng.randint(1, wmax)))
    return pkg.Lin2System(n, tuple(eqs))


def conflict_ok(clauses: list[tuple[int, ...]], r: int) -> bool:
    """Conflict number at most (2^r - 2)m, counted over ordered clause pairs.

    Counted here rather than by ``rsat.conflict_number`` so that input
    generation does not run the code under test.
    """
    by_var: dict[int, list[int]] = {}
    for j, clause in enumerate(clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(j)
    pairs = {(a, b) for js in by_var.values() for a in js for b in js if a < b}
    cn = 0
    for a, b in pairs:
        other = set(clauses[b])
        if any(-lit in other for lit in clauses[a]):
            cn += 2
        else:
            cn -= 2
    return cn <= ((1 << r) - 2) * len(clauses)


def regular_formula(pkg, rng: random.Random, n: int, r: int, rounds: int, positive: float):
    """Restricted width-r formula on n variables (r divides n), each occurring ``rounds`` times.

    Literals lean positive so the conflict number stays below (2^r - 2)m;
    draws that break the restriction are redrawn.
    """
    assert n % r == 0
    while True:
        clauses = []
        for _ in range(rounds):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            for i in range(0, n, r):
                clauses.append(tuple(v if rng.random() < positive else -v for v in sorted(perm[i : i + r])))
        if conflict_ok(clauses, r):
            return pkg.ExactCnfFormula(n, r, tuple(clauses))


def random_formula(pkg, rng: random.Random, n: int, m: int, r: int, positive: float):
    """m random width-r clauses over n variables, redrawn until restricted."""
    while True:
        clauses = []
        for _ in range(m):
            clauses.append(tuple(v if rng.random() < positive else -v for v in sorted(rng.sample(range(1, n + 1), r))))
        if conflict_ok(clauses, r):
            return pkg.ExactCnfFormula(n, r, tuple(clauses))


def generated(pkg, kind: str, seed: int, **sizes):
    """Instance object of a named family, through the package's own generator."""
    text = pkg.instances.gen_instance(kind, seed=seed, **sizes).text
    return pkg.instances.parse_instance(text)


def loalb_bound_k(g) -> int:
    """Smallest k with 12k^2 > W2 of the input, so no reduction reaches the bound."""
    w2 = sum(w * w for _, _, w in g.arcs)
    return math.isqrt(w2 // 12) + 1


# ---------------------------------------------------------------------------
# Workloads


def kernelize(pkg, rng: random.Random, tiny: bool) -> list[Call]:
    """Large inputs settled by a bound or returned as KERNEL, plus header-heavy inputs."""
    div = 10 if tiny else 1
    calls: list[Call] = []
    for i in range(2):
        g = dense_digraph(pkg, rng, 400 // div, 3000 // div, 4)
        calls.append(Call("loalb/small%d/k1" % i, "loalb", ["--k", "1"], g, 1, BOUND))
        calls.append(Call("loalb/small%d/kernel" % i, "loalb", ["--k", str(loalb_bound_k(g))], g, None, KERNEL))
    for i in range(3):
        g = dense_digraph(pkg, rng, 1500 // div, 10000 // div, 4)
        calls.append(Call("loalb/dense%d/k1" % i, "loalb", ["--k", "1"], g, 1, BOUND))
        calls.append(Call("loalb/dense%d/kernel" % i, "loalb", ["--k", str(loalb_bound_k(g))], g, None, KERNEL))
    g = dense_digraph(pkg, rng, 1500 // div, 10000 // div, 1)
    calls.append(Call("fas/dense0/k1", "fas", ["--k", "1"], g, 1, BOUND))
    calls.append(Call("fas/dense0/kernel", "fas", ["--k", str(loalb_bound_k(g))], g, None, KERNEL))
    g = dense_digraph(pkg, rng, 2500 // div, 15000 // div, 4)
    calls.append(Call("loalb/dense15k/kernel", "loalb", ["--k", str(loalb_bound_k(g))], g, None, KERNEL))
    # A header declaring many vertices around a tiny graph: the cost should
    # follow the three arcs, not the declared size.
    u, v, w = rng.sample(range(200000 // div), 3)
    g = pkg.WeightedDigraph.from_arcs(200000 // div, [(u, v, 2), (v, w, 1), (w, u, 1)])
    calls.append(Call("loalb/header", "loalb", ["--k", "1"], g, 1, WITNESS))
    f = random_formula(pkg, rng, 1500 // div, 4000 // div, 2, 0.75)
    calls.append(Call("rsat/r2-0/kernel", "rsat", ["--k-num", "1"], f, 1, KERNEL))
    f = random_formula(pkg, rng, 1000 // div, 2000 // div, 3, 0.75)
    calls.append(Call("rsat/r3/kernel", "rsat", ["--k-num", "1"], f, 1, KERNEL))
    for i in range(2):
        odd = random_system(pkg, rng, 300 // div, 1500 // div, (1, 3), 4)
        calls.append(Call("linalb/odd%d/auto-k1" % i, "linalb", ["--k", "1", "--case", "auto"], odd, 1, BOUND))
        big_k = str(math.isqrt(len(odd.equations)) + 1)
        calls.append(Call("linalb/odd%d/auto-kernel" % i, "linalb", ["--k", big_k, "--case", "auto"], odd, None, KERNEL))
    calls.append(Call("linalb/odd1/odd-set", "linalb", ["--k", "1", "--case", "odd-set"], odd, 1, BOUND))
    # At k = 2 the arity (16*9*64^3) and occurrence (32*rho^2*9) thresholds
    # exceed m for any occurrence the draw can give.
    mixed = random_system(pkg, rng, 300 // div, 1500 // div, (1, 2, 3), 4)
    calls.append(Call("linalb/mixed/arity", "linalb", ["--k", "2", "--case", "arity"], mixed, None, KERNEL))
    calls.append(Call("linalb/mixed/occurrence", "linalb", ["--k", "2", "--case", "occurrence"], mixed, None, KERNEL))
    # Rank min(n, m) stays above the 20-variable cap at both sizes.
    wide = random_system(pkg, rng, 250 // div, max(40 // div, 24), tuple(range(1, 21)), 4)
    calls.append(Call("linalb/wide/general", "linalb", ["--k", "1", "--case", "general"], wide, None, KERNEL))
    # Two equations under a header declaring many variables: rank 2, solved
    # exactly, witness lifted over every declared variable.
    for i in range(2):
        n = 10000 // div
        a, b, c = rng.sample(range(n), 3)
        eqs = (pkg.Lin2Equation(tuple(sorted((a, b))), 1, 3), pkg.Lin2Equation((c,), 0, 2))
        h = pkg.Lin2System(n, eqs)
        calls.append(Call("linalb/header%d/general" % i, "linalb", ["--k", "1", "--case", "general"], h, 1, WITNESS))
    return calls


def exact_solve(pkg, rng: random.Random, tiny: bool) -> list[Call]:
    """Kernels below every bound and inside the caps, plus tight families.

    One instance of each decider gets a target above the largest balance
    possible (half the total weight, or m for formulas), so a full exact
    solve ends in NO.
    """
    d = 6 if tiny else 0
    calls: list[Call] = []
    for i, n in enumerate((14, 14, 14, 15, 15)):
        g = oriented_digraph(pkg, rng, n - d, 2 * (n - d), 4)
        k = loalb_bound_k(g) if i != 2 else sum(w for _, _, w in g.arcs) // 2 + 1
        calls.append(Call("loalb/n%d-%d" % (n, i), "loalb", ["--k", str(k)], g, k, EXACT))
    for i in range(2):
        g = oriented_digraph(pkg, rng, 14 - d, 28 - 2 * d, 1)
        k = loalb_bound_k(g) if i != 1 else len(g.arcs) // 2 + 1
        calls.append(Call("fas/n14-%d" % i, "fas", ["--k", str(k)], g, k, EXACT))
    for i, case in enumerate(("general", "general", "general", "arity", "auto")):
        n = 16 - d
        s = regular_system(pkg, rng, n, 3, mixed_sizes(n), 4)
        total = sum(eq.weight for eq in s.equations)
        k = rng.randint(1, total // 4) if i != 2 else total // 2 + 1
        # For auto, a k with 4k^2 above m keeps every case threshold out of reach.
        if case == "auto":
            k = max(k, math.isqrt(len(s.equations)) + 1)
        calls.append(Call("linalb/n%d-%d/%s" % (n, i, case), "linalb", ["--k", str(k), "--case", case], s, k, EXACT))
    for i in range(4):
        n = 15 - d
        f = regular_formula(pkg, rng, n, 3, 4, 0.8)
        k = rng.randint(1, len(f.clauses)) if i != 3 else len(f.clauses) + 1
        calls.append(Call("rsat/r3-n%d-%d" % (n, i), "rsat", ["--k-num", str(k)], f, k, EXACT))
    f = regular_formula(pkg, rng, 16 - d, 2, 4, 0.8)
    k = rng.randint(1, len(f.clauses))
    calls.append(Call("rsat/r2-n%d-0" % (16 - d), "rsat", ["--k-num", str(k)], f, k, EXACT))
    for i in range(4):
        g = generated(pkg, "symmetric-digraph", rng.randrange(1 << 30), n=24 - d, m=60 - 2 * d)
        calls.append(Call("tight/symmetric%d" % i, "loalb", ["--k", "1"], g, 1, TIGHT))
        s = generated(pkg, "cancelling-pairs-lin2", rng.randrange(1 << 30), n=16 - d, pairs=40 - 2 * d)
        calls.append(Call("tight/cancelling%d" % i, "linalb", ["--k", "1", "--case", "general"], s, 1, TIGHT))
    for r, blocks in ((4, 1), (2, 8 - d // 2), (3, 5 - d // 3), (4, 3 - d // 3)):
        kind = "complete-rcnf" if blocks == 1 else "disjoint-complete-rcnf"
        sizes = {"r": r} if blocks == 1 else {"r": r, "blocks": blocks}
        f = generated(pkg, kind, 0, **sizes)
        calls.append(Call("tight/%s-r%d-b%d" % (kind, r, blocks), "rsat", ["--k-num", "1", "--diagnostic"], f, 1, TIGHT))
    return calls


def moments(pkg, rng: random.Random, tiny: bool) -> list[Call]:
    """Exact moment reports; each command enumerates its instance twice today."""
    calls: list[Call] = []
    flags = ["--b", "64"]
    for i, n in enumerate((5, 5, 6) if tiny else (7, 7, 8, 8)):
        g = oriented_digraph(pkg, rng, n, 2 * n, 4)
        calls.append(Call("digraph/n%d-%d" % (n, i), "moments", flags, g))
    # Nine declared vertices, eight active: the order cap is met at n = 9
    # while enumeration covers the 8! orders of the active vertices.
    active = 6 if tiny else 8
    g = oriented_digraph(pkg, rng, active, 2 * active, 4)
    g = pkg.WeightedDigraph(active + 1, g.arcs)
    calls.append(Call("digraph/n9-active8", "moments", flags, g))
    for i, n in enumerate((10,) * 3 if tiny else (14,) * 6 + (15,)):
        s = regular_system(pkg, rng, n, 3, mixed_sizes(n), 4)
        calls.append(Call("lin2/n%d-%d" % (n, i), "moments", flags, s))
    sizes = ((9, 3), (8, 2)) if tiny else ((12, 3),) * 6 + ((15, 3), (14, 2), (14, 2), (14, 2))
    for i, (n, r) in enumerate(sizes):
        f = regular_formula(pkg, rng, n, r, 4 if r == 3 else 3, 0.8)
        calls.append(Call("rsat/r%d-n%d-%d" % (r, n, i), "moments", flags, f))
    for n in (4, 5) if tiny else (5, 6):
        s = generated(pkg, "remark2", 0, n=n)
        calls.append(Call("lin2/remark2-n%d" % n, "moments", flags, s))
    return calls


def many_small(pkg, rng: random.Random, tiny: bool) -> list[Call]:
    """Several hundred default-size instances across every command and case."""
    reps = 3 if tiny else 32
    calls: list[Call] = []

    def seed() -> int:
        return rng.randrange(1 << 30)

    for i in range(reps):
        g = generated(pkg, "random-oriented", seed())
        calls.append(Call("loalb/oriented%d/k1" % i, "loalb", ["--k", "1"], g, 1, SMALL))
        calls.append(Call("loalb/oriented%d/k3" % i, "loalb", ["--k", "3"], g, 3, SMALL))
        g = generated(pkg, "symmetric-digraph", seed())
        calls.append(Call("loalb/symmetric%d" % i, "loalb", ["--k", "1"], g, 1, TIGHT))
        g = generated(pkg, "random-oriented", seed(), wmax=1)
        calls.append(Call("fas/oriented%d/k1" % i, "fas", ["--k", "1"], g, 1, SMALL))
        calls.append(Call("fas/oriented%d/k2" % i, "fas", ["--k", "2"], g, 2, SMALL))
        s = generated(pkg, "random-lin2", seed())
        for case in ("auto", "arity", "occurrence", "general"):
            calls.append(Call("linalb/random%d/%s" % (i, case), "linalb", ["--k", "2", "--case", case], s, 2, SMALL))
        odd = random_system(pkg, rng, 6, 12, (1, 3), 4)
        calls.append(Call("linalb/odd%d/odd-set" % i, "linalb", ["--k", "3", "--case", "odd-set"], odd, 3, SMALL))
        s = generated(pkg, "cancelling-pairs-lin2", seed())
        calls.append(Call("linalb/cancelling%d" % i, "linalb", ["--k", "1", "--case", "auto"], s, 1, TIGHT))
        f = random_formula(pkg, rng, 6, 8, 2, 0.7)
        calls.append(Call("rsat/random%d" % i, "rsat", ["--k-num", "2"], f, 2, SMALL))
        f = generated(pkg, "complete-rcnf", 0)
        calls.append(Call("rsat/complete%d" % i, "rsat", ["--k-num", "1", "--diagnostic"], f, 1, TIGHT))
        f = generated(pkg, "disjoint-complete-rcnf", 0)
        calls.append(Call("rsat/disjoint%d" % i, "rsat", ["--k-num", "1", "--diagnostic"], f, 1, TIGHT))
        g = oriented_digraph(pkg, rng, 5, 8, 4)
        calls.append(Call("moments/digraph%d" % i, "moments", ["--b", "64"], g))
        s = regular_system(pkg, rng, 6, 3, mixed_sizes(6), 4)
        calls.append(Call("moments/lin2-%d" % i, "moments", ["--b", "64"], s))
        f = regular_formula(pkg, rng, 6, 2, 2, 0.8)
        calls.append(Call("moments/rsat%d" % i, "moments", ["--b", "64"], f))
        kind = pkg.instances.GENERATOR_KINDS[i % len(pkg.instances.GENERATOR_KINDS)]
        calls.append(Call("gen/%s-%d" % (kind, i), "gen", [kind, "--seed", str(seed())], gen_kind=kind))
    return calls


BUILDERS = {
    "kernelize": kernelize,
    "exact_solve": exact_solve,
    "moments": moments,
    "many_small": many_small,
}


def build(workload: str, seed: int, pkg, tiny: bool = False) -> list[Call]:
    """The workload's call list for this seed; equal seeds give equal lists."""
    rng = random.Random("%s/%d" % (workload, seed))
    return BUILDERS[workload](pkg, rng, tiny)
