"""Metamorphic invariants at sizes the brute-force oracles cannot reach.

Each transformation of an instance must leave the command's verdict and
diagnostic lines as they were, and move a witness by the same relabelling.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.cli import run
from abovetight.instances import serialize_instance
from abovetight.linord import (
    WeightedDigraph,
    loalb_threshold,
    reduce_two_cycles,
    solve_loalb_faithful,
)
from abovetight.maxlin import Lin2Equation, Lin2System, merge_duplicates
from abovetight.rsat import ExactCnfFormula, conflict_bound, conflict_number

from helpers import brute_overlap_histogram, faithful_outcome, rsat_scaled_x, witness_balance


def low_rank_system(rng: random.Random, n: int, m: int, rank: int) -> Lin2System:
    """m equations on n variables whose masks lie in the span of ``rank`` sparse masks.

    Each equation is the sum of one or three of the spanning masks, so the
    kernel has at most ``rank`` variables, the equations repeat often, and a
    set meeting each spanning mask an odd number of times meets every
    equation so.
    """
    base = [sum(1 << v for v in rng.sample(range(n), 25)) for _ in range(rank)]
    eqs = []
    for _ in range(m):
        mask = 0
        while not mask:
            for b in rng.sample(base, rng.choice((1, 3))):
                mask ^= b
        variables = tuple(v for v in range(n) if mask >> v & 1)
        eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, 4)))
    return Lin2System(n, tuple(eqs))


def outcome(tmp_path, command: str, text: str, *flags: str) -> tuple[list[str], list[int] | None]:
    """The verdict and diagnostic lines of ``command`` on an instance text, and its witness."""
    path = tmp_path / "instance.txt"
    path.write_text(text)
    result = run([command, str(path), *flags])
    lines = [line for line in result.lines() if not line.startswith(("witness", "time_ms"))]
    return lines, result.witness


def linalb(tmp_path, s: Lin2System, k: int) -> tuple[list[str], list[int] | None]:
    """The verdict and diagnostic lines of ``linalb --k k`` on s, and its witness."""
    return outcome(tmp_path, "linalb", serialize_instance(s).text, "--k", str(k))


def test_lin2_verdicts_survive_reordering_splitting_cancelling_and_relabelling(tmp_path):
    rng = random.Random(4096)
    s = low_rank_system(rng, n=300, m=1500, rank=12)
    eqs = list(s.equations)
    merged = merge_duplicates(s)
    # The optimum, from a k no assignment reaches; then a YES and a NO around it.
    best = int(dict(line.split() for line in linalb(tmp_path, s, 10**6)[0])["best_x"])
    ks = (best // 2, best // 2 + 1)
    expected = [linalb(tmp_path, s, k) for k in ks]
    assert [lines[0] for lines, _ in expected] == ["verdict YES_WITNESS", "verdict NO"]
    assert all("case odd-set" in lines for lines, _ in expected)

    shuffled = eqs[:]
    rng.shuffle(shuffled)
    # Split weights, the second part after every first occurrence: the merge keeps its order.
    split = eqs[:]
    for i in rng.sample(range(len(eqs)), 200):
        eq = eqs[i]
        if eq.weight > 1:
            part = rng.randint(1, eq.weight - 1)
            split[i] = Lin2Equation(eq.variables, eq.rhs, part)
            split.append(Lin2Equation(eq.variables, eq.rhs, eq.weight - part))
    # Opposite-side pairs of equal weight, on present and on new variable sets.
    paired = eqs[:]
    for variables in [eq.variables for eq in rng.sample(eqs, 100)] + [(0, 1, 2), (7,), (5, 299)]:
        w = rng.randint(1, 9)
        paired += [Lin2Equation(variables, 0, w), Lin2Equation(variables, 1, w)]
    for variant in (split, paired):
        assert merge_duplicates(Lin2System(s.n, tuple(variant))) == merged
    for variant in (shuffled, split, paired):
        t = Lin2System(s.n, tuple(variant))
        assert [linalb(tmp_path, t, k) for k in ks] == expected

    # An increasing map into 200,000 variables moves the witness with it.
    n = 200_000
    label = sorted(rng.sample(range(n), s.n))
    relabelled = Lin2System.from_tuples(
        n, [(tuple(label[v] for v in eq.variables), eq.rhs, eq.weight) for eq in eqs]
    )
    for k, (lines, witness) in zip(ks, expected):
        got_lines, got_witness = linalb(tmp_path, relabelled, k)
        assert got_lines == lines
        if witness is not None:
            moved = [0] * n
            for v, value in enumerate(witness):
                moved[label[v]] = value
            assert list(got_witness) == moved


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_faithful_lifting_follows_an_increasing_relabelling(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = rng.randint(2, 40)
    pairs = rng.sample(range(n * n), rng.randint(0, min(4 * n, n * n)))
    arcs = [(p // n, p % n, rng.randint(1, 5)) for p in pairs if p // n != p % n]
    g = WeightedDigraph.from_arcs(n, arcs)
    k = data.draw(st.sampled_from((1, 2)))
    # An increasing map that leaves room for new isolated vertices around and between.
    big = n + data.draw(st.integers(0, 50))
    label = sorted(rng.sample(range(big), n))
    moved = WeightedDigraph.from_arcs(big, [(label[u], label[v], w) for u, v, w in g.arcs])
    before = faithful_outcome(solve_loalb_faithful, g, k)
    after = faithful_outcome(solve_loalb_faithful, moved, k)
    if not isinstance(before, tuple):
        assert after == before
        return
    # The non-isolated vertices keep their order; the isolated ones lead or trail by index.
    reduced = reduce_two_cycles(g)
    active = {v for u, w, _ in reduced.arcs for v in (u, w)}
    mapped = [label[v] for v in before if v in active]
    isolated = sorted(set(range(big)) - set(mapped))
    lead = len(reduced.arcs) >= loalb_threshold(k)
    assert after == tuple(isolated + mapped if lead else mapped + isolated)


Arc = tuple[int, int, int]


def digraph_text(n: int, arcs: list[Arc]) -> str:
    """A digraph file with one record per arc, in list order."""
    body = "".join("a %d %d %d\n" % (u + 1, v + 1, w) for u, v, w in arcs)
    return "p digraph %d %d\n" % (n, len(arcs)) + body


def noisy(rng: random.Random, text: str) -> str:
    """The same records among comments and blank lines, with runs of spaces and tabs."""

    def gap() -> str:
        return rng.choice((" ", "  ", "\t", " \t "))

    out = ["c a comment before the header", ""]
    for line in text.splitlines():
        out.append(rng.choice(("", gap())) + "".join(tok + gap() for tok in line.split()))
        if rng.random() < 0.1:
            out.append(rng.choice(("", "c", "c a comment", "   ", "\t")))
    return "\n".join(out) + "\n"


def digraph_edits(rng: random.Random, n: int, arcs: list[Arc], unit: bool):
    """(name, arcs, text) for each edit that must keep a digraph command's output.

    With ``unit`` only the edits that keep unit weights and the arc count.
    The split parts and the 2-cycles go after the last record.
    """
    shuffled = arcs[:]
    rng.shuffle(shuffled)
    label = rng.sample(range(n), n)
    relabelled = [(label[u], label[v], w) for u, v, w in arcs]
    edits = [("shuffle", shuffled), ("relabel", relabelled)]
    if not unit:
        split = arcs[:]
        for i in rng.sample(range(len(arcs)), min(200, len(arcs))):
            u, v, w = arcs[i]
            if w > 1:
                part = rng.randint(1, w - 1)
                split[i] = (u, v, part)
                split.append((u, v, w - part))
        # A 2-cycle on an arc whose reverse is absent, and two on pairs with no arc.
        present = {(u, v) for u, v, _ in arcs}
        pairs = [next((u, v) for u, v, _ in arcs if (v, u) not in present)]
        while len(pairs) < 3:
            u, v = rng.sample(range(n), 2)
            if (u, v) not in present and (v, u) not in present and (u, v) not in pairs:
                pairs.append((u, v))
        cycled = arcs[:]
        for u, v in pairs:
            w = rng.randint(1, 9)
            cycled += [(v, u, w), (u, v, w)]
        edits += [("split", split), ("two-cycle", cycled)]
    out = [(name, edited, digraph_text(n, edited)) for name, edited in edits]
    return out + [("noise", arcs, noisy(rng, digraph_text(n, arcs)))]


def test_digraph_verdicts_survive_shuffling_noise_splitting_cancelling_and_relabelling(tmp_path):
    rng = random.Random(2500)
    n, m = 2500, 15000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        pairs.add(tuple(rng.sample(range(n), 2)))
    for command, unit in (("loalb", False), ("fas", True)):
        arcs = [(u, v, 1 if unit else rng.randint(1, 4)) for u, v in sorted(pairs)]
        w2 = sum(w * w for _, _, w in reduce_two_cycles(WeightedDigraph.from_arcs(n, arcs)).arcs)
        # Settled by the bound at k = 1; the next k past W2 leaves a kernel above the cap.
        ks = (1, math.isqrt(w2 // 12) + 1)
        text = digraph_text(n, arcs)
        expected = [outcome(tmp_path, command, text, "--k", str(k))[0] for k in ks]
        assert [lines[0] for lines in expected] == ["verdict YES_BY_BOUND", "verdict KERNEL"]
        assert all("w2 %d" % w2 in lines for lines in expected)
        for name, _, edited in digraph_edits(rng, n, arcs, unit):
            for k, lines in zip(ks, expected):
                assert outcome(tmp_path, command, edited, "--k", str(k))[0] == lines, (command, name)

    # A path with one arc back: exact, YES at k = 2, and the witness moves with every edit.
    n = 9
    arcs = [(v, v + 1, w) for v, w in enumerate((2, 1, 3, 1, 2, 1, 1, 2))] + [(8, 0, 1)]
    lines, witness = outcome(tmp_path, "loalb", digraph_text(n, arcs), "--k", "2")
    assert lines[0] == "verdict YES_WITNESS"
    score = witness_balance(WeightedDigraph.from_arcs(n, arcs), witness)
    assert score == 12
    for name, edited, text in digraph_edits(rng, n, arcs, unit=False):
        got_lines, got_witness = outcome(tmp_path, "loalb", text, "--k", "2")
        assert got_lines == lines, name
        assert witness_balance(WeightedDigraph.from_arcs(n, edited), got_witness) == score, name


def ecnf_text(n: int, r: int, clauses: list[tuple[int, ...]]) -> str:
    body = "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)
    return "p ecnf %d %d %d\n" % (n, len(clauses), r) + body


def restricted_clauses(rng: random.Random, n: int, m: int, r: int) -> list[tuple[int, ...]]:
    """m random width-r clauses, three literals in four positive, within the conflict restriction."""
    while True:
        clauses = [
            tuple(v if rng.random() < 0.75 else -v for v in sorted(rng.sample(range(1, n + 1), r)))
            for _ in range(m)
        ]
        f = ExactCnfFormula(n, r, tuple(clauses))
        if conflict_number(f) <= conflict_bound(f):
            return clauses


def ecnf_edits(rng: random.Random, n: int, clauses: list[tuple[int, ...]]):
    """(name, clauses) for each edit that must keep a formula command's output."""
    shuffled = clauses[:]
    rng.shuffle(shuffled)
    reordered = [tuple(rng.sample(clause, len(clause))) for clause in clauses]
    label = [0] + rng.sample(range(1, n + 1), n)
    relabelled = [tuple(label[lit] if lit > 0 else -label[-lit] for lit in c) for c in clauses]
    # Negating one variable everywhere keeps every pair's conflicts and overlaps.
    v = abs(clauses[-1][-1])
    flipped = [tuple(-lit if abs(lit) == v else lit for lit in c) for c in clauses]
    return [
        ("shuffle", shuffled),
        ("literal order", reordered),
        ("relabel", relabelled),
        ("flip", flipped),
    ]


def test_formula_verdicts_survive_reordering_relabelling_and_sign_flips(tmp_path):
    rng = random.Random(4000)
    for n, m, r in ((1500, 4000, 2), (1000, 2000, 3)):
        clauses = restricted_clauses(rng, n, m, r)
        expected, _ = outcome(tmp_path, "rsat", ecnf_text(n, r, clauses), "--k-num", "1")
        assert expected[0] == "verdict KERNEL"
        for name, edited in ecnf_edits(rng, n, clauses):
            got, _ = outcome(tmp_path, "rsat", ecnf_text(n, r, edited), "--k-num", "1")
            assert got == expected, (r, name)

    # Small enough to solve and enumerate: the pair counts and every moment are checked too.
    n, r = 12, 3
    clauses = restricted_clauses(rng, n, 14, r)
    conflicts, shared = brute_overlap_histogram(ExactCnfFormula(n, r, tuple(clauses)))
    flags = ("--k-num", "1", "--diagnostic")
    solved, witness = outcome(tmp_path, "rsat", ecnf_text(n, r, clauses), *flags)
    assert solved[0] == "verdict YES_WITNESS"
    assert "cn %d" % (conflicts - sum(shared.values())) in solved
    best = int(dict(line.split() for line in solved)["best_scaled_x"])
    moment_lines, _ = outcome(tmp_path, "moments", ecnf_text(n, r, clauses), "--b", "64")
    report = dict(line.split(" ", 1) for line in moment_lines)
    assert report["second_moment_holds"] == "True"
    assert report["pairwise_e2"] == report["e2"]
    for name, edited in ecnf_edits(rng, n, clauses):
        text = ecnf_text(n, r, edited)
        got, got_witness = outcome(tmp_path, "rsat", text, *flags)
        assert got == solved, name
        assert rsat_scaled_x(ExactCnfFormula.from_clauses(n, r, edited), got_witness) == best
        assert outcome(tmp_path, "moments", text, "--b", "64")[0] == moment_lines, name
