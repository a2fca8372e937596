import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.instances import (
    GENERATOR_KINDS,
    ParseError,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from abovetight.linord import WeightedDigraph
from abovetight.maxlin import CaseKind, Lin2System, decide_linalb, merge_duplicates
from abovetight.outcome import Verdict
from abovetight.rsat import ExactCnfFormula, decide_rsatalb

from helpers import random_digraph, random_formula, random_lin2


def test_parse_digraph():
    g = parse_instance("c tiny\np digraph 2 1\na 1 2 2\n")
    assert g == WeightedDigraph.from_arcs(2, [(0, 1, 2)])


def test_parse_digraph_merges_parallel_arcs():
    g = parse_instance("p digraph 2 2\na 1 2 2\na 1 2 3\n")
    assert g.arcs == ((0, 1, 5),)


def test_parse_lin2():
    s = parse_instance("p lin2 2 2\ne 1 1 1\ne 2 1 1 2\n")
    assert s == Lin2System.from_tuples(2, [((0,), 1, 1), ((0, 1), 1, 2)])


def test_parse_ecnf():
    f = parse_instance("p ecnf 3 2 2\n1 2 0\n-1 3 0\n")
    assert f == ExactCnfFormula.from_clauses(3, 2, [(1, 2), (-1, 3)])


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("p digraph 2 1\na 1 1 1\n", 2, "loop"),
        ("p digraph 2 1\na 1 2 0\n", 2, "positive"),
        ("p digraph 2 1\na 1 3 1\n", 2, "range"),
        ("p digraph 2 2\na 1 2 1\n", 1, "announces"),
        ("p lin2 2 1\ne 0 1 1\n", 2, "positive"),
        ("p lin2 2 1\ne 1 2 1\n", 2, "right side"),
        ("p lin2 2 1\ne 1 1 1 1\n", 2, "repeated"),
        ("p ecnf 2 1 2\n1 2\n", 2, "end with 0"),
        ("p ecnf 2 1 2\n1 2 1 0\n", 2, "width"),
        ("p ecnf 2 1 2\n1 -1 0\n", 2, "repeats"),
        ("p ecnf 2 1 1\n1 0\n", 1, "at least 2"),
        ("p nonsense 1 1\n", 1, "unknown format"),
        ("", 1, "empty"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == line
    assert needle in str(info.value)


def test_round_trip_random_instances():
    rng = random.Random(909)
    for _ in range(40):
        g = random_digraph(rng, n_max=7)
        assert parse_instance(serialize_instance(g).text) == g
        s = random_lin2(rng, n_max=7, m_max=8)
        assert parse_instance(serialize_instance(s).text) == s
        f = random_formula(rng, rng.choice([2, 3]), n_max=7, m_max=6)
        assert parse_instance(serialize_instance(f).text) == f


_TOKENS = st.sampled_from(["p", "a", "e", "c", "x", "lin2", "ecnf", "-1", "0", "1", "2", "7"])


@st.composite
def _edited_instance_text(draw):
    """A small serialized instance with up to three tokens deleted, inserted or replaced."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    build = draw(
        st.sampled_from(
            [
                lambda: random_digraph(rng, n_max=5),
                lambda: random_lin2(rng, n_max=5, m_max=5),
                lambda: random_formula(rng, 2, n_max=5, m_max=4),
            ]
        )
    )
    lines = [line.split() for line in serialize_instance(build()).text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        j = draw(st.integers(0, len(line)))
        token = draw(st.one_of(st.none(), _TOKENS))
        if token is None:
            del line[j : j + 1]
        elif draw(st.booleans()):
            line.insert(j, token)
        else:
            line[j : j + 1] = [token]
    return "\n".join(map(" ".join, lines))


_TEXT = st.one_of(st.text(max_size=60), _edited_instance_text())


@given(_TEXT)
@settings(max_examples=1000, deadline=None)
def test_parse_rejects_or_round_trips_any_text(text):
    try:
        instance = parse_instance(text)
    except ParseError:
        return
    assert parse_instance(serialize_instance(instance).text) == instance


def test_generators_are_seed_deterministic():
    for kind in GENERATOR_KINDS:
        a = gen_instance(kind, seed=7)
        b = gen_instance(kind, seed=7)
        assert a.text == b.text
    assert gen_instance("random-lin2", seed=1).text != gen_instance("random-lin2", seed=2).text


def test_generator_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        gen_instance("symmetric-digraph", n=1)
    with pytest.raises(ValueError):
        gen_instance("complete-rcnf", r=1)
    with pytest.raises(ValueError):
        gen_instance("remark2", n=9)
    with pytest.raises(ValueError):
        gen_instance("no-such-kind")


def test_symmetric_digraph_family_is_tight():
    from abovetight.linord import decide_loalb

    for seed in range(5):
        g = parse_instance(gen_instance("symmetric-digraph", seed=seed, n=5).text)
        assert decide_loalb(g, 1).verdict is Verdict.NO


def test_symmetric_digraph_pairs_every_arc():
    g = parse_instance(gen_instance("symmetric-digraph", seed=3, n=4).text)
    weights = {(u, v): w for u, v, w in g.arcs}
    assert weights
    for (u, v), w in weights.items():
        assert weights[(v, u)] == w


def test_complete_rcnf_has_all_sign_patterns():
    f = parse_instance(gen_instance("complete-rcnf", r=2).text)
    assert f.n == 2 and len(f.clauses) == 4
    assert len(set(f.clauses)) == 4


def test_cancelling_pairs_equation_count():
    s = parse_instance(gen_instance("cancelling-pairs-lin2", seed=0, n=6, pairs=3).text)
    assert len(s.equations) == 6


def test_cancelling_pairs_family_is_tight():
    for seed in range(5):
        s = parse_instance(gen_instance("cancelling-pairs-lin2", seed=seed, n=5).text)
        assert merge_duplicates(s).equations == ()
        assert decide_linalb(s, 1, CaseKind.GENERAL).verdict is Verdict.NO


def test_complete_formula_families_are_tight():
    for r in (2, 3):
        f = parse_instance(gen_instance("complete-rcnf", r=r).text)
        assert decide_rsatalb(f, 1, diagnostic=True).verdict is Verdict.NO
        f2 = parse_instance(gen_instance("disjoint-complete-rcnf", r=r, blocks=2).text)
        assert decide_rsatalb(f2, 1, diagnostic=True).verdict is Verdict.NO


def test_remark2_generator_matches_library_family():
    from abovetight.moments import all_subsets_system

    s = parse_instance(gen_instance("remark2", n=4).text)
    assert s == all_subsets_system(4)
