"""Metamorphic invariants at sizes the brute-force oracles cannot reach.

Each transformation of an instance must leave the command's verdict and
diagnostic lines as they were, and move a witness by the same relabelling.
"""

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

from helpers import faithful_outcome


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


def linalb(tmp_path, s: Lin2System, k: int) -> tuple[list[str], list[int] | None]:
    """The verdict and diagnostic lines of ``linalb --k k`` on s, and its witness."""
    path = tmp_path / "s.txt"
    path.write_text(serialize_instance(s).text)
    result = run(["linalb", str(path), "--k", str(k)])
    lines = [line for line in result.lines() if not line.startswith(("witness", "time_ms"))]
    return lines, result.witness


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
            assert got_witness == moved


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
