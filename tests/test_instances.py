import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.instances import (
    GENERATOR_KINDS,
    GENERATOR_SIZES,
    ParseError,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from abovetight.linord import LinearOrder, WeightedDigraph
from abovetight.maxlin import CaseKind, Lin2Equation, Lin2System, decide_linalb, merge_duplicates
from abovetight.outcome import Verdict
from abovetight.rsat import MAX_CLAUSE_WIDTH, ExactCnfFormula, decide_rsatalb

from helpers import parse_instance_by_lines, random_digraph, random_formula, random_lin2


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
        ("p ecnf 2 1 2\n1 3 0\n", 2, "variable out of range 1..2"),
        ("p ecnf 2 1 1\n1 0\n", 1, "at least 2"),
        # Refused at the header, before the r literal columns are built.
        ("p ecnf 1 0 %d\n" % (MAX_CLAUSE_WIDTH + 1), 1, "at most %d" % MAX_CLAUSE_WIDTH),
        ("p nonsense 1 1\n", 1, "unknown format"),
        ("", 1, "empty"),
        ("p digraph 2\n", 1, "header needs"),
        ("p ecnf 2 1\n", 1, "header needs"),
        ("p lin2 2 1 3\n", 1, "header needs"),
        ("p digraph -1 0\n", 1, "nonnegative"),
        ("p lin2 2 -1\n", 1, "nonnegative"),
        ("p ecnf 2 x 2\n", 1, "clause count"),
        ("p lin2 2 2\ne 1 1 1\n", 1, "announces"),
        ("p ecnf 2 2 2\n1 2 0\n", 1, "announces"),
        ("x lin2 1 1\n", 1, "header"),
        ("p digraph 2 1\nb 1 2 1\n", 2, "expected 'a"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == line
    assert needle in str(info.value)


def test_serialize_refuses_other_objects():
    with pytest.raises(TypeError, match="unsupported instance type"):
        serialize_instance((3, ()))


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


def _parsed(parse, text):
    """What ``parse`` returns for ``text``, or the line number and text of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


def _noisy_digraph_text(rng: random.Random) -> str:
    """A serialized random digraph with parallel and reversed arcs, rewritten with legal noise.

    Comments (before the header too), blank lines, tabs and runs of blanks,
    CRLF line ends and ``+`` signs all leave the instance unchanged. One
    text in three then has one token replaced, dropped or doubled, so the
    parsers also meet loops, zero weights, vertices out of range, words
    where integers belong and records of the wrong width.
    """
    g = random_digraph(rng, n_max=6, n_min=0, wmax=3, allow_two_cycles=True)
    arcs = list(g.arcs)
    for u, v, w in rng.sample(arcs, min(len(arcs), rng.randint(0, 3))):
        arcs.append((u, v, rng.randint(1, 3)) if rng.random() < 0.5 else (v, u, w))
    rng.shuffle(arcs)
    records = [["a", str(u + 1), str(v + 1), str(w)] for u, v, w in arcs]
    header = ["p", "digraph", str(g.n), str(len(records))]
    if records and rng.random() < 1 / 3:
        rec = rng.choice(records)
        j = rng.randrange(4)
        fault = rng.choice(["0", "-1", str(g.n + 1), rec[1], "x", "a", "1.5", None, "dup"])
        if fault is None:
            del rec[j]
        elif fault == "dup":
            rec.insert(j, rec[j])
        else:
            rec[j] = fault
    lines = []
    for tokens in [header, *records]:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "\t", "c", "c a 1 2 3", "comment 7"]))
        if rng.random() < 0.3:
            tokens = [("+" + t) if t.isdigit() and rng.random() < 0.5 else t for t in tokens]
        seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in tokens]
        line = "".join(sep + t for sep, t in zip(seps, tokens))
        lines.append(line if rng.random() < 0.5 else line.strip())
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice(["", end, end + end])


def test_digraph_parse_matches_the_line_oracle_on_noisy_files():
    rng = random.Random(1414)
    errors = instances = 0
    for _ in range(1500):
        text = _noisy_digraph_text(rng)
        got = _parsed(parse_instance, text)
        assert got == _parsed(parse_instance_by_lines, text), text
        if isinstance(got, tuple):
            errors += 1
        else:
            instances += 1
    assert errors > 200 and instances > 800


def _noisy_ecnf_text(rng: random.Random) -> str:
    """A serialized random formula of width 2-5, rewritten with legal noise and some faults.

    Comments (before the header too), blank lines, tabs and runs of blanks,
    CRLF line ends and ``+`` signs leave the formula unchanged, and so does
    listing a clause's literals out of variable order, which the column
    pass leaves to the sorting line walk. One text in three then has one
    fault: a token replaced (by a repeated or complementary variable, a 0
    inside the clause, a variable out of range or a word), dropped or
    doubled, a terminator dropped, a terminator moved to a line of its own,
    or a terminator carried to the front of the next clause line, which
    keeps every token count and every zero in its column.
    """
    r = rng.randint(2, 5)
    f = random_formula(rng, r, n_max=r + 4, m_max=6, m_min=0)
    records = [[str(lit) for lit in clause] + ["0"] for clause in f.clauses]
    for rec in records:
        if rng.random() < 0.2:
            body = rec[:-1]
            rng.shuffle(body)
            rec[:-1] = body
    header = ["p", "ecnf", str(f.n), str(len(records)), str(r)]
    split = None
    if records and rng.random() < 1 / 3:
        i = rng.randrange(len(records))
        rec = records[i]
        j = rng.randrange(r)
        faults = ["repeat", "negate", "zero", "range", "x", "drop", "dup", "unterminated", "split", "carry"]
        fault = rng.choice(faults)
        if fault == "repeat":
            rec[j] = rec[(j + 1) % r]
        elif fault == "negate":
            rec[j] = str(-int(rec[(j + 1) % r]))
        elif fault == "zero":
            rec[j] = rng.choice(["0", "-0", "+0"])
        elif fault == "range":
            rec[j] = str(rng.choice([1, -1]) * (f.n + rng.randint(1, 3)))
        elif fault == "x":
            rec[j] = rng.choice(["x", "1.5", "a", "c"])
        elif fault == "drop":
            del rec[j]
        elif fault == "dup":
            rec.insert(j, rec[j])
        elif fault == "unterminated":
            del rec[-1]
        elif fault == "carry" and i + 1 < len(records):
            records[i + 1].insert(0, rec.pop())
        elif fault == "split":
            split = i
    lines = []
    for i, tokens in enumerate([header, *records], start=-1):
        while rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "\t", "c", "c 1 2 0", "comment 7"]))
        if rng.random() < 0.3:
            tokens = [("+" + t) if t.isdigit() and rng.random() < 0.5 else t for t in tokens]
        parts = [tokens[:-1], tokens[-1:]] if i == split else [tokens]
        for part in parts:
            seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in part]
            line = "".join(sep + t for sep, t in zip(seps, part))
            lines.append(line if rng.random() < 0.5 else line.strip())
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice(["", end, end + end])


def test_ecnf_parse_matches_the_line_oracle_on_noisy_files():
    rng = random.Random(1919)
    errors = instances = 0
    for _ in range(1500):
        text = _noisy_ecnf_text(rng)
        got = _parsed(parse_instance, text)
        assert got == _parsed(parse_instance_by_lines, text), text
        if isinstance(got, tuple):
            errors += 1
        else:
            instances += 1
    assert errors > 200 and instances > 800


@pytest.mark.parametrize(
    "text",
    [
        "p ecnf 0 0 2\n",
        "p ecnf 3 1 2\n1 2\n",
        # Zeros where the columns expect them, but the first line has no terminator.
        "p ecnf 4 2 2\n1 2\n0 3 4 0\n",
        "p ecnf 4 2 2\n1 2 0 3\n4 0\n",
        "p ecnf 3 2 2\n2 1 0\n-3 1 0\n",
        "p ecnf 3 2 2\n1 2 0\n2 -2 0\n",
        "p ecnf 3 2 2\n1 2 0\n0 2 0\n",
        "p ecnf 3 2 2\n1 2 00\n-1 +3 -0\n",
        "p ecnf 3 2 2\n1 2 0\n1 4 0\n",
        "p ecnf 3 2 2\n1 2 0\n1 2 3\n",
        "p ecnf 3 1 2\n1 x 0\n",
        "p ecnf 3 1 3\n3 -1 2 0\n",
        "p ecnf 2 1 2\n1 %s 0\n" % ("9" * 5000),
    ],
)
def test_ecnf_parse_matches_the_line_oracle_on_edge_cases(text):
    assert _parsed(parse_instance, text) == _parsed(parse_instance_by_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        "p digraph 0 0\n",
        "p digraph 5 0\n",
        "c before\n\np digraph 3 0\nc after\n",
        "p digraph 3 2\r\na +1 +2 +3\r\na 2\t1\t1\r\n",
        "p digraph 3 3\na 1 2 1\na 2 1 4\na 1 2 2\n",
        "p digraph 2 1\na 1 2 1 0\n",
        "p digraph 2 2\na 1 2\na 2 1 1 1\n",
        "p digraph 2 2\na 1 2 1 a\n1 2 1\n",
        "p digraph 2 2\na 1 2 1\nab 2 1 1\n",
        "p digraph 2 2\na 1 2 -1\na 1 2 2\n",
        "p digraph 3 2\na 1 3 1\na 1 1 x\n",
        "p digraph 2 1\na 1 2 %s\n" % ("9" * 5000),
    ],
)
def test_digraph_parse_matches_the_line_oracle_on_edge_cases(text):
    assert _parsed(parse_instance, text) == _parsed(parse_instance_by_lines, text)


@given(_TEXT)
@settings(max_examples=1000, deadline=None)
def test_parse_matches_the_line_oracle_on_any_text(text):
    assert _parsed(parse_instance, text) == _parsed(parse_instance_by_lines, text)


def test_generators_are_seed_deterministic():
    for kind in GENERATOR_KINDS:
        a = gen_instance(kind, seed=7)
        b = gen_instance(kind, seed=7)
        assert a.text == b.text
    assert gen_instance("random-lin2", seed=1).text != gen_instance("random-lin2", seed=2).text


def test_random_lin2_refuses_an_equation_size_past_n():
    for r in (0, 4, 9):
        with pytest.raises(ValueError, match="r must be in 1..n"):
            gen_instance("random-lin2", n=3, r=r)
    assert gen_instance("random-lin2", n=3, r=3).text == gen_instance("random-lin2", n=3).text


def test_generator_refuses_sizes_its_kind_does_not_read():
    with pytest.raises(ValueError, match="--pairs"):
        gen_instance("random-oriented", pairs=3)
    with pytest.raises(ValueError, match="--wmax"):
        gen_instance("complete-rcnf", wmax=2)
    with pytest.raises(ValueError, match="--n"):
        gen_instance("disjoint-complete-rcnf", n=4)
    with pytest.raises(ValueError, match="--blocks"):
        gen_instance("complete-rcnf", blocks=2)


def test_generator_defaults_come_from_the_table():
    assert GENERATOR_KINDS == tuple(GENERATOR_SIZES)
    for kind, sizes in GENERATOR_SIZES.items():
        given = {name: value for name, value in sizes.items() if value is not None}
        assert gen_instance(kind, seed=7).text == gen_instance(kind, seed=7, **given).text


# sha256 over the texts for seeds 0, 1 and 7 of each (kind, sizes), taken
# before the size table replaced per-kind keyword defaults. Generated
# instances feed the benchmark's expected records, so a changed draw order
# fails here first.
GENERATOR_PINS = [
    ("symmetric-digraph", {},
     "ff635060b18985c7b04ac92e816f7cc26a28f80d41dca5e3eb943b1a49d06d4d"),
    ("symmetric-digraph", {"n": 5},
     "6be637c008d273146afb7ede7183c1b11b6167c75b83a1f303e7d1f8dc0a795e"),
    ("symmetric-digraph", {"n": 7, "m": 12, "wmax": 9},
     "7565c5b9e856adb819f4db17baee5609b9d1f595185c984750b273098af32f6d"),
    ("symmetric-digraph", {"n": 3, "m": 0},
     "70da444553eebd172968d5b268a05d76249068d9ed370dc01b72b76ce3540af8"),
    ("random-oriented", {},
     "1d0ea3e32d0a457cc294b1b0f8d5385689008f4b592ca9a520c80ecf747c17c0"),
    ("random-oriented", {"n": 8},
     "e7892814b8f043b59d1cfe379a712ef4d107e87cfb30156b778a9564d34f6bce"),
    ("random-oriented", {"n": 5, "m": 4, "wmax": 1},
     "7c048a4a7c793e9ebeb63c784f14fe29d1160367de728ac1876b8b179a0c327e"),
    ("random-oriented", {"n": 10, "wmax": 20},
     "349278d0861db7c1efe46d857d5fc2b7bf5c1c16fdc8887fddefb387a48020ca"),
    ("cancelling-pairs-lin2", {},
     "8486c7825ab292b810a2372659c65c76aea66c625655d571f37b13add3c1ae18"),
    ("cancelling-pairs-lin2", {"n": 4},
     "c2399837099be8b940be9cc502356dc7656d279ffc6578d89ea6bce617d19611"),
    ("cancelling-pairs-lin2", {"n": 8, "pairs": 20, "wmax": 7},
     "18a46c4030c026acc177f97e3a79f53590ef5d2513583dc1fba41654e02215a4"),
    ("cancelling-pairs-lin2", {"n": 1, "pairs": 1},
     "27c06afae877533751c03b3d1d08bbff7bd8711cd8ec1f63ac5ac1f0fe893f3a"),
    ("random-lin2", {},
     "38f7aa4a6c0cd8e6d5c2d9959035cd7b1d43560537fc5fae63a9d7d17831822f"),
    ("random-lin2", {"n": 3},
     "9613e0ee2474ad7725f1bec0385bfb27039a648a084954dde43da27f9591e4ee"),
    ("random-lin2", {"n": 10, "m": 15, "r": 5, "wmax": 9},
     "a4948f773be5d474aa7503ae9daa79f14010de66e672b3fa2774f0d857b94ff0"),
    # r defaults to min(3, n), the size the old silent clip of r to n drew at.
    ("random-lin2", {"n": 2},
     "e7a87b876000436559fefb5f68f30cd2f0ce1ba2e2c5d0724244f86b763b6c34"),
    ("random-lin2", {"m": 0},
     "b2eff02ddcf4361fb6ac5ba892ba27b7f268f71773f1e03a7379fd2070e11166"),
    ("complete-rcnf", {},
     "84d0da74df5bbb8b6358688e86872b4d62f2fc6128151cc72b90f94132c51045"),
    ("complete-rcnf", {"r": 3},
     "92f8ef838c74c2ea2b2918f2b708a3800208ac80c3a0ab69aaf62d0e2a2e06b5"),
    ("complete-rcnf", {"r": 6},
     "ff30c8649aa83407fee1f080278d42a2fbe46cc936af2321c63efc79d4172b8c"),
    ("disjoint-complete-rcnf", {},
     "6c00cfcf6b4b5d97a42cb59387d57d8ceccffec900ef54fde68381bb47850004"),
    ("disjoint-complete-rcnf", {"r": 3, "blocks": 1},
     "92f8ef838c74c2ea2b2918f2b708a3800208ac80c3a0ab69aaf62d0e2a2e06b5"),
    ("disjoint-complete-rcnf", {"r": 2, "blocks": 8},
     "99a9dbedd60fdb197a86139a9d0e9bb32f9098dddb394b731b5d586775df2002"),
    ("disjoint-complete-rcnf", {"blocks": 3},
     "6fafc99cc5d7fa72afe0a67493fe4ef867cfc861ddb266026d8441ecae8c3c28"),
    ("remark2", {},
     "ac1c62cc94200d26393d7db455bd8bf0186333894b8f0cc2ae743e5e5a9eef43"),
    ("remark2", {"n": 4},
     "225c54e0b76fde9f4f2df379df882a1543104c0dbbdb7071b5e533f4656c8652"),
    ("remark2", {"n": 6},
     "c0cf73acd5f4e5b300516067bcfb87180b638e04eee0e32d205a45a3608fc4fd"),
]


@pytest.mark.parametrize("kind,sizes,digest", GENERATOR_PINS)
def test_generator_output_is_pinned(kind, sizes, digest):
    h = hashlib.sha256()
    for seed in (0, 1, 7):
        h.update(gen_instance(kind, seed=seed, **sizes).text.encode())
    assert h.hexdigest() == digest


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
    from abovetight.instances import all_subsets_system

    s = parse_instance(gen_instance("remark2", n=4).text)
    assert s == all_subsets_system(4)


_EQUATION = Lin2Equation((0, 2), 1, 3)


@pytest.mark.parametrize(
    "checked, fields",
    [
        (_EQUATION, dict(variables=(0, 2), rhs=1, weight=3)),
        (Lin2System(3, (_EQUATION,)), dict(n=3, equations=(_EQUATION,))),
        (LinearOrder((2, 0, 1)), dict(vertices=(2, 0, 1))),
        (
            WeightedDigraph.from_arcs(3, [(2, 0, 1), (0, 1, 2), (0, 1, 1)]),
            dict(n=3, tails=(0, 2), heads=(1, 0), weights=(3, 1), pair_keys=(1, 6)),
        ),
        (ExactCnfFormula(3, 2, ((1, -2), (-1, 3))), dict(n=3, r=2, clauses=((1, -2), (-1, 3)))),
    ],
)
def test_unchecked_record_is_the_checked_one(checked, fields):
    unchecked = type(checked)._unchecked(**fields)
    assert vars(unchecked) == vars(checked)
    assert unchecked == checked and hash(unchecked) == hash(checked)
