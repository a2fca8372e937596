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

Arc and clause lines have a fixed width, so they are read by columns: the
int columns go to the ``WeightedDigraph`` or ``ExactCnfFormula`` column
constructor, which checks them once. A digraph keeps its columns; a
formula's clause tuples are built from its columns after the check. Only
input that a column pass refuses is walked line by line, and the error
names the first bad line; clauses whose literals are out of variable order
take the same walk, which sorts them. Equation lines vary in width and are
always walked.

``_HEADER_FIELDS`` holds each dialect's header field names, in the order
n, m[, r], and its record noun; one header check reads and validates all
three, and ``serialize_instance`` writes the ``p`` line from a format name
and a size tuple in the same order.

``gen_instance`` writes a seeded instance of one of seven named families.
``GENERATOR_SIZES`` lists the sizes each family reads and their defaults;
a size the family does not read is refused rather than dropped, and the
command line's ``gen`` flags are built from the same table. Every family
takes a seed; the three deterministic ones (``complete-rcnf``,
``disjoint-complete-rcnf``, ``remark2``) give the same text for any seed.
``complete-rcnf`` is the one-block ``disjoint-complete-rcnf``.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import chain, repeat

from .linord import WeightedDigraph
from .maxlin import Lin2Equation, Lin2System
from .rsat import MAX_CLAUSE_WIDTH, ExactCnfFormula

Instance = WeightedDigraph | Lin2System | ExactCnfFormula

_HEADER_FIELDS: dict[str, tuple[tuple[str, ...], str]] = {
    "digraph": (("vertex count", "arc count"), "arcs"),
    "lin2": (("variable count", "equation count"), "equations"),
    "ecnf": (("variable count", "clause count", "clause width"), "clauses"),
}

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
    out = []
    for line_no, raw in enumerate(lines, start=first_no):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("c"):
            out.append((line_no, tokens))
    return out


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, "%s is not an integer: %r" % (what, token)) from None


def _digraph_by_columns(n: int, records: list[str]) -> WeightedDigraph:
    """The digraph whose arc lines are ``records``, read a column at a time.

    Raises ValueError on any fault, without saying where. The records must
    each start with the letter ``a``, which no integer does; so if their
    tokens also number 4m, with ``a`` at every fourth place and integers
    elsewhere, each record's first token sits at a multiple of 4, and each
    record is exactly ``a <u> <v> <w>``. The int columns go to the digraph
    as they are; no arc triple is built.
    """
    m = len(records)
    body = "\n" + "\n".join(records)
    tokens = body.split()
    if body.count("\na") != m or len(tokens) != 4 * m or tokens[0::4].count("a") != m:
        raise ValueError("records are not all 'a <u> <v> <w>'")
    tails, heads = (list(map(operator.sub, map(int, tokens[i::4]), repeat(1))) for i in (1, 2))
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


def _formula_by_columns(n: int, r: int, records: list[str]) -> ExactCnfFormula:
    """The formula whose clause lines are ``records``, read a column at a time.

    Raises ValueError on any fault, without saying where, and also when a
    clause lists its literals out of variable order. Each record must be
    exactly r + 1 tokens, so token i of every record is one column: the
    last must be all zeros, and ``ExactCnfFormula.from_columns`` checks the
    r literal columns for range and strictly increasing variables.
    """
    rows = list(map(str.split, records))
    if not set(map(len, rows)) <= {r + 1}:
        raise ValueError("records are not all r literals and 0")
    tokens = list(chain.from_iterable(rows))
    if any(map(int, tokens[r :: r + 1])):
        raise ValueError("a record does not end with 0")
    columns = [list(map(int, tokens[i :: r + 1])) for i in range(r)]
    return ExactCnfFormula.from_columns(n, r, columns)


def _formula_by_lines(n: int, r: int, records: list[tuple[int, list[str]]]) -> ExactCnfFormula:
    """The formula whose numbered clause lines are ``records``, checked and sorted line by line."""
    clauses = []
    for line_no, rec in records:
        lits = [_int(tok, line_no, "literal") for tok in rec]
        if not lits or lits[-1] != 0:
            raise ParseError(line_no, "clause line must end with 0")
        lits = lits[:-1]
        if any(lit == 0 for lit in lits):
            raise ParseError(line_no, "literal 0 inside a clause")
        if len(lits) != r:
            raise ParseError(line_no, "clause width %d, expected %d" % (len(lits), r))
        variables = [abs(lit) for lit in lits]
        if any(not 1 <= v <= n for v in variables):
            raise ParseError(line_no, "variable out of range 1..%d" % n)
        if len(set(variables)) != r:
            raise ParseError(line_no, "clause repeats a variable or has complementary literals")
        clauses.append(tuple(sorted(lits, key=abs)))
    return ExactCnfFormula(n, r, tuple(clauses))


def _lin2_by_lines(n: int, records: list[tuple[int, list[str]]]) -> Lin2System:
    """The system whose numbered equation lines are ``records``, checked one line at a time.

    The line checks are the constructors' and more, so the equations and the
    system are built without them.
    """
    eqs = []
    for line_no, rec in records:
        if len(rec) < 4 or rec[0] != "e":
            raise ParseError(line_no, "expected 'e <w> <b> <i1> ...'")
        w = _int(rec[1], line_no, "weight")
        b = _int(rec[2], line_no, "right side")
        if w < 1:
            raise ParseError(line_no, "weights must be positive")
        if b not in (0, 1):
            raise ParseError(line_no, "right side must be 0 or 1")
        indices = [_int(tok, line_no, "variable index") for tok in rec[3:]]
        if any(not 1 <= i <= n for i in indices):
            raise ParseError(line_no, "variable index out of range 1..%d" % n)
        if len(set(indices)) != len(indices):
            raise ParseError(line_no, "repeated variable in the equation")
        variables = tuple(sorted(i - 1 for i in indices))
        eqs.append(Lin2Equation._unchecked(variables=variables, rhs=b, weight=w))
    return Lin2System._unchecked(n=n, equations=tuple(eqs))


def parse_instance(text: str) -> Instance:
    """Parse one instance in any of the three dialects.

    Arc and clause lines, fixed-width records, are read by columns
    (``_digraph_by_columns``, ``_formula_by_columns``); only if that pass
    or the constructor's check refuses them are they walked line by line,
    which names the first bad line or, for clauses out of variable order,
    sorts them. Equation lines vary in width and are always walked.
    """
    lines = text.splitlines()
    for header_no, raw in enumerate(lines, start=1):
        header = raw.split()
        if header and not header[0].startswith("c"):
            break
    else:
        raise ParseError(1, "empty instance")
    if header[0] != "p" or len(header) < 2:
        raise ParseError(header_no, "expected a 'p <format> ...' header")
    fmt = header[1]
    if fmt not in _HEADER_FIELDS:
        raise ParseError(header_no, "unknown format %r" % fmt)
    fields, noun = _HEADER_FIELDS[fmt]
    if len(header) != 2 + len(fields):
        usage = " ".join("<%s>" % name for name in "nmr"[: len(fields)])
        raise ParseError(header_no, "%s header needs 'p %s %s'" % (fmt, fmt, usage))
    sizes = [_int(tok, header_no, what) for tok, what in zip(header[2:], fields)]
    n, m = sizes[0], sizes[1]
    if n < 0 or m < 0:
        raise ParseError(header_no, "counts must be nonnegative")
    if fmt == "ecnf" and not 2 <= sizes[2] <= MAX_CLAUSE_WIDTH:
        bound = "at least 2" if sizes[2] < 2 else "at most %d" % MAX_CLAUSE_WIDTH
        raise ParseError(header_no, "clause width must be " + bound)
    body = lines[header_no:]
    if fmt == "lin2":
        records = _significant_lines(body, header_no + 1)
    else:
        records = [s for s in map(str.strip, body) if s and s[0] != "c"]
    if len(records) != m:
        raise ParseError(header_no, "header announces %d %s, found %d" % (m, noun, len(records)))
    if fmt == "lin2":
        return _lin2_by_lines(n, records)
    try:
        if fmt == "digraph":
            return _digraph_by_columns(n, records)
        return _formula_by_columns(n, sizes[2], records)
    except ValueError:
        pass
    numbered = _significant_lines(body, header_no + 1)
    if fmt == "digraph":
        raise _first_bad_arc_line(n, numbered)
    return _formula_by_lines(n, sizes[2], numbered)


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
