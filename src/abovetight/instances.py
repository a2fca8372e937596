"""Instance file formats and seeded generators.

Three line-oriented dialects, each with a header line and one record per
line; lines starting with ``c`` are comments and blank lines are ignored.

digraph   header ``p digraph <n> <m>``, then m arc lines ``a <u> <v> <w>``
          with 1-based endpoints and positive integer weights. Parallel
          same-direction arcs are merged by summing weights; loops are
          rejected.
lin2      header ``p lin2 <n> <m>``, then m lines ``e <w> <b> <i1> ... <it>``
          listing an equation of weight w, right side b and distinct
          1-based variable indices.
ecnf      header ``p ecnf <n> <m> <r>``, then m clause lines of exactly r
          nonzero signed literals terminated by ``0``. The header refuses
          an r outside 2..``rsat.MAX_CLAUSE_WIDTH``.

Every dialect is read by columns, and one header check reads and validates
all its sizes. A plain body, under a header on line 1 of an ASCII text
whose only line break is ``\\n`` (no ``\\r``, ``\\v``, ``\\f`` or
``\\x1c``-``\\x1e``, where ``splitlines`` also breaks), that is m lines, is
read as it stands. Any other body, and a plain one that reader refuses, is
split into lines, each stripped, and the blank and comment lines dropped;
the records left are joined again and read by the same reader, unless they
are the lines as they stood, which that reader has refused already. Arc and
clause lines have a fixed width: the int columns go to the
``WeightedDigraph`` or ``ExactCnfFormula`` column constructor, which checks
them once. A digraph keeps its columns; a formula's clause tuples are built
from its columns after the check.
Equation lines vary in width: their weight and right-side columns and one
stream of all their indices are checked for the whole file at once, and the
equations are built without a further check. Vertex tokens, right sides
and indices are converted once per distinct token (``_int_values``);
weights, which may all differ, take one ``int()`` each. Clauses whose
literals are out of variable order are sorted in the column pass, so every
dialect has that one way to succeed. Only input that the reader refuses is
walked line by line; the walk finds nothing to build and only names the
first bad line.

``_DIALECTS`` holds each dialect's header field names, in the order
n, m[, r], its record noun, its column reader and its line walk. Every
reader takes n, m[, r] and the body text; every walk takes n[, r] and the
numbered significant lines. ``serialize_instance`` writes the ``p`` line
from a format name and a size tuple in the same order.

``gen_instance`` writes a seeded instance of one of seven named families.
``GENERATOR_SIZES`` lists the sizes each family reads and their defaults;
a size the family does not read is refused rather than dropped, and the
command line's ``gen`` flags are built from the same table. Every family
takes a seed; the three deterministic ones (``complete-rcnf``,
``disjoint-complete-rcnf``, ``remark2``) give the same text for any seed.
``complete-rcnf`` is the one-block ``disjoint-complete-rcnf``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .linord import WeightedDigraph
from .maxlin import Lin2Equation, Lin2System
from .rsat import MAX_CLAUSE_WIDTH, ClauseOrderError, ExactCnfFormula

Instance = WeightedDigraph | Lin2System | ExactCnfFormula

# The sizes each generator kind reads, with their defaults; None where the
# default is derived from other sizes (m from n, and random-lin2's r as min(3, n)).
GENERATOR_SIZES: dict[str, dict[str, int | None]] = {
    "symmetric-digraph": {"n": 4, "m": None, "wmax": 4},
    "random-oriented": {"n": 6, "m": None, "wmax": 4},
    "cancelling-pairs-lin2": {"n": 6, "pairs": 3, "wmax": 4},
    "random-lin2": {"n": 6, "m": None, "r": None, "wmax": 4},
    "complete-rcnf": {"r": 2},
    "disjoint-complete-rcnf": {"r": 2, "blocks": 2},
    "remark2": {"n": 3},
}
GENERATOR_KINDS = tuple(GENERATOR_SIZES)
# The most equations a lin2 generator writes.
MAX_GEN_EQUATIONS = 4096


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


@dataclass(frozen=True)
class InstanceFile:
    """A serialized instance: format name and full text."""

    format: str
    text: str


def _significant_lines(lines: list[str], first_no: int) -> list[tuple[int, list[str]]]:
    """Line number and tokens of each line that is neither blank nor a comment."""
    numbered = enumerate(map(str.split, lines), start=first_no)
    return [(line_no, tokens) for line_no, tokens in numbered if tokens and not tokens[0].startswith("c")]


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, "%s is not an integer: %r" % (what, token)) from None


def _int_values(tokens, offset: int = 0) -> dict[str, int]:
    """Each distinct token of ``tokens`` mapped to ``int(token) + offset``.

    A column whose tokens repeat is then read by dict lookups, which cost
    less than ``int()`` once each distinct token occurs a few times.
    Raises ValueError where ``int()`` does.
    """
    return {token: int(token) + offset for token in set(tokens)}


def _digraph_by_columns(n: int, m: int, body: str) -> WeightedDigraph:
    """The digraph whose m arc lines are the lines of ``body``, read a column at a time.

    Raises ValueError on any fault, without saying where. Its lines must
    each start with the letter ``a``, which no integer does; so if their
    tokens also number 4m, with ``a`` at every fourth place and integers
    elsewhere, each line's first token sits at a multiple of 4, and each
    line is exactly ``a <u> <v> <w>``. The int columns go to the digraph as
    they are; no arc triple is built. Each distinct tail or head token is
    converted once. Weights may all differ, and a file of distinct weights
    parses slower through a dict than by one ``int()`` per token, so each
    weight token is converted on its own.
    """
    tokens = body.split()
    if body.startswith("a") + body.count("\na") != m or len(tokens) != 4 * m or tokens[0::4].count("a") != m:
        raise ValueError("records are not all 'a <u> <v> <w>'")
    vertex = _int_values(chain(tokens[1::4], tokens[2::4]), -1)
    tails, heads = (list(map(vertex.__getitem__, tokens[i::4])) for i in (1, 2))
    return WeightedDigraph.from_columns(n, tails, heads, list(map(int, tokens[3::4])))


def _first_bad_arc_line(n: int, records: list[tuple[int, list[str]]]) -> ParseError:
    """The error for the first arc line that breaks the digraph dialect."""
    for line_no, rec in records:
        if len(rec) != 4 or rec[0] != "a":
            return ParseError(line_no, "expected 'a <u> <v> <w>'")
        u = _int(rec[1], line_no, "tail")
        v = _int(rec[2], line_no, "head")
        w = _int(rec[3], line_no, "weight")
        if not (1 <= u <= n and 1 <= v <= n):
            return ParseError(line_no, "vertex out of range 1..%d" % n)
        if u == v:
            return ParseError(line_no, "loop arcs are not allowed")
        if w < 1:
            return ParseError(line_no, "weights must be positive")
    raise AssertionError("the column pass refused arc lines that each pass the line checks")


def _formula_by_columns(n: int, m: int, r: int, body: str) -> ExactCnfFormula:
    """The formula whose m clause lines are the lines of ``body``, read a column at a time.

    Raises ValueError on any fault, without saying where. Each record must
    be exactly r + 1 tokens, so token i of every record is one column: the
    last must be all zeros, and ``ExactCnfFormula.from_columns`` checks the
    r literal columns for range and strictly increasing variables. Only its
    ``ClauseOrderError``, clauses of distinct variables listed out of order,
    is repaired: the formula is then built through
    ``ExactCnfFormula.from_clauses``, which sorts each clause and checks the
    rest. Every other fault is raised before any clause is sorted.
    """
    rows = list(map(str.split, body.splitlines()))
    if len(rows) != m or not set(map(len, rows)) <= {r + 1}:
        raise ValueError("records are not all r literals and 0")
    tokens = list(chain.from_iterable(rows))
    if any(map(int, tokens[r :: r + 1])):
        raise ValueError("a record does not end with 0")
    columns = [list(map(int, tokens[i :: r + 1])) for i in range(r)]
    try:
        return ExactCnfFormula.from_columns(n, r, columns)
    except ClauseOrderError:
        return ExactCnfFormula.from_clauses(n, r, zip(*columns))


def _first_bad_clause_line(n: int, r: int, records: list[tuple[int, list[str]]]) -> ParseError:
    """The error for the first clause line that breaks the ecnf dialect; literal order is no fault."""
    for line_no, rec in records:
        lits = [_int(tok, line_no, "literal") for tok in rec]
        if lits[-1] != 0:
            return ParseError(line_no, "clause line must end with 0")
        variables = [abs(lit) for lit in lits[:-1]]
        if 0 in variables:
            return ParseError(line_no, "literal 0 inside a clause")
        if len(variables) != r:
            return ParseError(line_no, "clause width %d, expected %d" % (len(variables), r))
        if any(not 1 <= v <= n for v in variables):
            return ParseError(line_no, "variable out of range 1..%d" % n)
        if len(set(variables)) != r:
            return ParseError(line_no, "clause repeats a variable or has complementary literals")
    raise AssertionError("the column pass refused clause lines that each pass the line checks")


def _lin2_by_columns(n: int, m: int, body: str) -> Lin2System:
    """The system whose m equation lines are the lines of ``body``, read a column at a time.

    Raises ValueError on any fault, without saying where. Each record must
    be ``e <w> <b>`` and at least one index, so its tokens 1 and 2 form the
    weight and right-side columns and the rest one stream of indices; each
    check then covers the whole file at once. Right sides and indices are
    converted once per distinct token, and weights, which may all differ,
    one ``int()`` each, as in ``_digraph_by_columns``.
    """
    rows = list(map(str.split, body.splitlines()))
    if len(rows) != m or min(map(len, rows), default=4) < 4 or list(map(itemgetter(0), rows)).count("e") != m:
        raise ValueError("records are not all 'e <w> <b> <i1> ...'")
    weights = list(map(int, map(itemgetter(1), rows)))
    rhs, index_rows = (list(map(itemgetter(i), rows)) for i in (2, slice(3, None)))
    side, index = _int_values(rhs), _int_values(chain.from_iterable(index_rows), -1)
    if min(weights, default=1) < 1 or not {*side.values()} <= {0, 1}:
        raise ValueError("a weight below 1 or a right side other than 0 and 1")
    variables = [tuple(sorted(map(index.__getitem__, row))) for row in index_rows]
    in_range = all(map(range(n).__contains__, index.values()))
    if not in_range or sum(map(len, map(set, variables))) != sum(map(len, variables)):
        raise ValueError("an index out of range or repeated in its equation")
    columns = zip(variables, map(side.__getitem__, rhs), weights)
    eqs = [Lin2Equation._unchecked(variables=v, rhs=b, weight=w) for v, b, w in columns]
    return Lin2System._unchecked(n=n, equations=tuple(eqs))


def _first_bad_equation_line(n: int, records: list[tuple[int, list[str]]]) -> ParseError:
    """The error for the first equation line that breaks the lin2 dialect."""
    for line_no, rec in records:
        if len(rec) < 4 or rec[0] != "e":
            return ParseError(line_no, "expected 'e <w> <b> <i1> ...'")
        w = _int(rec[1], line_no, "weight")
        b = _int(rec[2], line_no, "right side")
        if w < 1:
            return ParseError(line_no, "weights must be positive")
        if b not in (0, 1):
            return ParseError(line_no, "right side must be 0 or 1")
        indices = [_int(tok, line_no, "variable index") for tok in rec[3:]]
        if any(not 1 <= i <= n for i in indices):
            return ParseError(line_no, "variable index out of range 1..%d" % n)
        if len(set(indices)) != len(indices):
            return ParseError(line_no, "repeated variable in the equation")
    raise AssertionError("the column pass refused equation lines that each pass the line checks")


# Each dialect's header field names, in the order n, m[, r], its record noun,
# its column reader and its line walk.
_DIALECTS = {
    "digraph": (("vertex count", "arc count"), "arcs", _digraph_by_columns, _first_bad_arc_line),
    "lin2": (("variable count", "equation count"), "equations", _lin2_by_columns, _first_bad_equation_line),
    "ecnf": (("variable count", "clause count", "clause width"), "clauses",
             _formula_by_columns, _first_bad_clause_line),
}


def parse_instance(text: str) -> Instance:
    """Parse one instance in any of the three dialects.

    Every dialect's body is read by columns (``_digraph_by_columns``,
    ``_lin2_by_columns``, ``_formula_by_columns``, which also sorts clauses
    listed out of variable order). A plain body, under a header on line 1
    in an ASCII text whose only line break is ``\\n``, is read as it stands
    if it is m lines. Any other body, and a plain one that reader refuses,
    is split into lines, each stripped, and the blank and comment lines
    dropped; the records left are read, unless they are the plain lines as
    they stood and so were refused already. Only if that read too is
    refused, by its pass or by the constructor's check, are they walked line
    by line, which names the first bad line.
    """
    first, _, body = text.partition("\n")
    header, header_no = first.split(), 1
    # Plain: ASCII, with no \r, \v, \f or \x1c-\x1e, where splitlines also breaks, and
    # the header on line 1.
    plain = text.isascii() and not any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e"))
    if not (plain and header and not header[0].startswith("c")):
        lines = text.splitlines()
        for header_no, raw in enumerate(lines, start=1):
            header = raw.split()
            if header and not header[0].startswith("c"):
                break
        else:
            raise ParseError(1, "empty instance")
        plain = False
    if header[0] != "p" or len(header) < 2:
        raise ParseError(header_no, "expected a 'p <format> ...' header")
    fmt = header[1]
    if fmt not in _DIALECTS:
        raise ParseError(header_no, "unknown format %r" % fmt)
    fields, noun, by_columns, first_bad_line = _DIALECTS[fmt]
    if len(header) != 2 + len(fields):
        usage = " ".join("<%s>" % name for name in "nmr"[: len(fields)])
        raise ParseError(header_no, "%s header needs 'p %s %s'" % (fmt, fmt, usage))
    n, m, *width = [_int(tok, header_no, what) for tok, what in zip(header[2:], fields)]
    if n < 0 or m < 0:
        raise ParseError(header_no, "counts must be nonnegative")
    if width and not 2 <= width[0] <= MAX_CLAUSE_WIDTH:
        bound = "at least 2" if width[0] < 2 else "at most %d" % MAX_CLAUSE_WIDTH
        raise ParseError(header_no, "clause width must be " + bound)
    as_is = plain and body.count("\n") + (not body.endswith("\n")) == m
    if as_is:
        try:
            return by_columns(n, m, *width, body)
        except ValueError:
            pass
    lines = body.splitlines() if plain else lines[header_no:]
    records = [s for s in map(str.strip, lines) if s and s[0] != "c"]
    if len(records) != m:
        raise ParseError(header_no, "header announces %d %s, found %d" % (m, noun, len(records)))
    if not as_is or records != lines:
        try:
            return by_columns(n, m, *width, "\n".join(records))
        except ValueError:
            pass
    raise first_bad_line(n, *width, _significant_lines(lines, header_no + 1))


def serialize_instance(instance: Instance) -> InstanceFile:
    """Render an instance in its dialect; parse(serialize(x)) == x."""
    if isinstance(instance, WeightedDigraph):
        fmt, sizes = "digraph", (instance.n, len(instance.weights))
        arcs = zip(instance.tails, instance.heads, instance.weights)
        body = ["a %d %d %d" % (u + 1, v + 1, w) for u, v, w in arcs]
    elif isinstance(instance, Lin2System):
        fmt, sizes = "lin2", (instance.n, len(instance.equations))
        body = [
            "e %d %d %s" % (eq.weight, eq.rhs, " ".join(str(v + 1) for v in eq.variables))
            for eq in instance.equations
        ]
    elif isinstance(instance, ExactCnfFormula):
        fmt, sizes = "ecnf", (instance.n, len(instance.clauses), instance.r)
        body = [" ".join(str(lit) for lit in clause) + " 0" for clause in instance.clauses]
    else:
        raise TypeError("unsupported instance type: %r" % type(instance))
    header = ("p %s" + " %d" * len(sizes)) % (fmt, *sizes)
    return InstanceFile(fmt, "\n".join([header, *body]) + "\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


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


def gen_instance(kind: str, seed: int = 0, **sizes: int | None) -> InstanceFile:
    """Build a seeded instance of the given kind and serialize it.

    ``sizes`` may name only the sizes the kind reads in ``GENERATOR_SIZES``;
    the rest, and any given as None, take the table's defaults. The tight
    families (symmetric digraphs, cancelling equation pairs, complete and
    disjoint-complete width-r formulas) meet their lower bound exactly and
    decide NO at every positive parameter value.
    """
    if kind not in GENERATOR_SIZES:
        raise ValueError("unknown generator kind %r" % kind)
    values = dict(GENERATOR_SIZES[kind])
    for name, value in sizes.items():
        if value is not None:
            _require(name in values, "%s does not read --%s" % (kind, name))
            values[name] = value
    n, m, r = values.get("n"), values.get("m"), values.get("r")
    pairs, blocks, wmax = values.get("pairs"), values.get("blocks", 1), values.get("wmax")
    rng = random.Random(seed)
    _require(wmax is None or wmax >= 1, "wmax must be positive")
    if kind in ("symmetric-digraph", "random-oriented"):
        symmetric = kind == "symmetric-digraph"
        _require(2 <= n <= 64, "n must be in 2..64")
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if m is None:
            m = n if symmetric else min(2 * n, len(all_pairs))
        _require(0 <= m <= len(all_pairs), "m must be at most n(n-1)/2")
        arcs = []
        for u, v in sorted(rng.sample(all_pairs, m)):
            w = rng.randint(1, wmax)
            if symmetric:
                arcs += [(u, v, w), (v, u, w)]
            else:
                arcs.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
        return serialize_instance(WeightedDigraph.from_arcs(n, arcs))
    if kind == "cancelling-pairs-lin2":
        _require(1 <= n <= 30, "n must be in 1..30")
        most = min((1 << n) - 1, MAX_GEN_EQUATIONS // 2)
        _require(1 <= pairs <= most, "pairs must be in 1..%d" % most)
        subset_masks = rng.sample(range(1, 1 << n), pairs)
        eqs = []
        for mask in sorted(subset_masks):
            variables = tuple(v for v in range(n) if (mask >> v) & 1)
            w = rng.randint(1, wmax)
            eqs.append(Lin2Equation(variables, 1, w))
            eqs.append(Lin2Equation(variables, 0, w))
        return serialize_instance(Lin2System(n, tuple(eqs)))
    if kind == "random-lin2":
        _require(1 <= n <= 30, "n must be in 1..30")
        m = 2 * n if m is None else m
        _require(0 <= m <= MAX_GEN_EQUATIONS, "m must be in 0..%d" % MAX_GEN_EQUATIONS)
        r = min(3, n) if r is None else r
        _require(1 <= r <= n, "r must be in 1..n")
        eqs = []
        for _ in range(m):
            size = rng.randint(1, r)
            variables = tuple(sorted(rng.sample(range(n), size)))
            eqs.append(Lin2Equation(variables, rng.randint(0, 1), rng.randint(1, wmax)))
        return serialize_instance(Lin2System(n, tuple(eqs)))
    if kind in ("complete-rcnf", "disjoint-complete-rcnf"):
        _require(2 <= r <= 6, "r must be in 2..6")
        _require(1 <= blocks <= 8, "blocks must be in 1..8")
        clauses = []
        for block in range(blocks):
            base = block * r
            for signs in range(1 << r):
                clause = tuple(
                    (base + v + 1) if (signs >> v) & 1 else -(base + v + 1)
                    for v in range(r)
                )
                clauses.append(clause)
        return serialize_instance(ExactCnfFormula(blocks * r, r, tuple(clauses)))
    # remark2
    return serialize_instance(all_subsets_system(n))
