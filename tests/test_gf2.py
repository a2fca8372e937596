import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight import gf2
from abovetight.gf2 import echelon, solve_affine
from helpers import brute_first_solution, brute_independent_columns, solve_affine_rows


def pack(rows):
    """Row masks of 0/1 lists, entry j of a row at bit j."""
    return [sum(c << j for j, c in enumerate(row)) for row in rows]


def rank(rows):
    return len(echelon(rows))


def basis(rows):
    return sorted(echelon(rows))


def augment(rows, rhs, cols):
    """Each row with bit i of ``rhs`` at bit ``cols``."""
    return [row | ((rhs >> i) & 1) << cols for i, row in enumerate(rows)]


def solve(rows, rhs, cols):
    return solve_affine(echelon(augment(rows, rhs, cols)), cols)


# Columns a1=(1,0,1), a2=(1,1,0), a3=(0,1,1); a3 = a1 + a2 over GF(2).
DEPENDENT = pack([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
IDENTITY = pack([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_rank_identity():
    assert rank(IDENTITY) == 3


def test_rank_dependent_columns():
    assert rank(DEPENDENT) == 2


def test_rank_zero_matrix():
    assert rank(pack([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0


def test_rank_empty_matrix():
    assert echelon([]) == {}


def test_independent_columns_identity():
    assert basis(IDENTITY) == [0, 1, 2]


def test_independent_columns_greedy_leftmost():
    assert basis(DEPENDENT) == [0, 1]


def test_independent_columns_skips_zero_column():
    assert basis(pack([[0, 1], [0, 1]])) == [1]


def test_echelon_rows_are_keyed_by_their_lowest_bit():
    ech = echelon(DEPENDENT)
    for p, row in ech.items():
        assert row & -row == 1 << p


def test_solve_affine_small_system():
    # z1+z2=1, z2+z3=1
    x = solve(pack([[1, 1, 0], [0, 1, 1]]), 0b11, 3)
    assert x is not None
    assert (x ^ (x >> 1)) & 1 == 1 and ((x >> 1) ^ (x >> 2)) & 1 == 1


def test_solve_affine_contradiction():
    assert solve(pack([[1], [1]]), 0b01, 1) is None


def test_solve_affine_empty_system():
    assert solve_affine({}, 3) == 0


def _random_rows(rng: random.Random, rows: int, cols: int) -> list[int]:
    """Random rows, with some rows and some columns forced to zero."""
    keep = rng.getrandbits(cols) if rng.random() < 0.3 else (1 << cols) - 1
    out = [rng.getrandbits(cols) & keep for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            out[i] = 0
    return out


def _column_walk_corpus():
    """3,000 seeded (rows, cols) systems, a third each square-ish, tall and wide."""
    rng = random.Random(20261018)
    for trial in range(3000):
        rows = rng.randint(0, 14)
        cols = rng.randint(0, 14)
        if trial % 3 == 1:  # more rows than columns
            rows = cols + rng.randint(1, 6)
        elif trial % 3 == 2:  # more columns than rows
            cols = rows + rng.randint(1, 6)
        yield _random_rows(rng, rows, cols), cols


def test_echelon_pivots_match_the_column_walk():
    for masks, cols in _column_walk_corpus():
        assert basis(masks) == brute_independent_columns(masks, cols), (masks, cols)


def test_augmented_echelon_serves_the_basis_and_the_solve():
    # One echelon of the rows with a right side at bit cols: its pivots below cols
    # are the plain rows' pivots, and back-substituting it solves as the rows oracle.
    rng = random.Random(29)
    seen = Counter()
    for masks, cols in _column_walk_corpus():
        for rhs in (rng.getrandbits(len(masks)) if masks else 0, (1 << len(masks)) - 1):
            ech = echelon(augment(masks, rhs, cols))
            assert sorted(p for p in ech if p < cols) == basis(masks), (masks, cols)
            x = solve_affine(ech, cols)
            assert x == solve_affine_rows(masks, rhs, cols), (masks, rhs, cols)
            seen["empty" if not masks else "deficient" if len(basis(masks)) < cols else "full"] += 1
            seen["inconsistent" if x is None else "solved"] += 1
    assert min(seen[kind] for kind in ("empty", "deficient", "full", "inconsistent", "solved")) > 0


def test_rank_equals_basis_size_and_expansions_reproduce_columns():
    rng = random.Random(20240915)
    for _ in range(300):
        rows = rng.randint(0, 12)
        cols = rng.randint(0, 12)
        masks = _random_rows(rng, rows, cols)
        picked = basis(masks)
        assert rank(masks) == len(picked) == len(brute_independent_columns(masks, cols))

        def column(j):
            return sum(((row >> j) & 1) << i for i, row in enumerate(masks))

        ech = {}  # the basis columns in echelon form, keyed by leading bit

        def reduce(v):
            while v and v.bit_length() in ech:
                v ^= ech[v.bit_length()]
            return v

        for j in picked:
            v = reduce(column(j))
            assert v, "basis columns must be independent"
            ech[v.bit_length()] = v
        for j in range(cols):
            assert reduce(column(j)) == 0, "column %d is outside the span" % j


def test_rhs_pivot_matches_brute_solvability():
    rng = random.Random(5)
    for _ in range(1000):
        rows = rng.randint(0, 7)
        cols = rng.randint(0, 7)
        masks = _random_rows(rng, rows, cols)
        rhs = rng.getrandbits(rows) if rows else 0
        augmented = augment(masks, rhs, cols)
        solvable = brute_first_solution(masks, rhs, cols) is not None
        assert (cols in echelon(augmented)) == (not solvable)


def test_solve_affine_agrees_with_brute_force():
    rng = random.Random(77)
    for _ in range(400):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 8)
        masks = _random_rows(rng, rows, cols)
        rhs = rng.getrandbits(rows) if rows else 0
        x = solve(masks, rhs, cols)
        brute = brute_first_solution(masks, rhs, cols)
        assert (x is None) == (brute is None)
        if x is not None:
            for i, row in enumerate(masks):
                assert (row & x).bit_count() & 1 == (rhs >> i) & 1
            # Free variables are 0: the solution lies on the pivot columns.
            pivots = sum(1 << p for p in echelon(masks))
            assert x & ~pivots == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_operations(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 8))
    masks = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    base = rank(masks)

    perm = data.draw(st.permutations(range(rows)))
    assert rank([masks[i] for i in perm]) == base

    src = data.draw(st.integers(0, rows - 1))
    dst = data.draw(st.integers(0, rows - 1))
    if src != dst:
        added = list(masks)
        added[dst] ^= added[src]
        assert rank(added) == base


def count_of(slices, z):
    """Bit z of each slice, read back as a number."""
    return sum(((s >> z) & 1) << i for i, s in enumerate(slices))


def test_masks_hold_the_assignments_they_describe():
    rng = random.Random(12)
    for n in range(9):
        for _ in range(20):
            support, care, value = (rng.getrandbits(n) for _ in range(3))
            value &= care
            parity = rng.randint(0, 1)
            even_or_odd = gf2.parity_mask(support, parity, n)
            cube = gf2.cube_mask(care, value, n)
            for z in range(1 << n):
                assert (even_or_odd >> z) & 1 == ((z & support).bit_count() % 2 == parity)
                assert (cube >> z) & 1 == (z & care == value)
            assert even_or_odd >> (1 << n) == 0 and cube >> (1 << n) == 0


def test_tally_top_and_histogram_match_a_count_of_each_assignment():
    rng = random.Random(13)
    seen_transposed = 0
    widths = set()
    for trial in range(400):
        n = rng.randint(0, 10)
        weights = [1, 2, 3, rng.getrandbits(rng.choice((16, 30, 60, 70, 140))) + 1]
        masks = [(rng.getrandbits(1 << n), rng.choice(weights)) for _ in range(rng.randint(0, 12))]
        if trial % 4 == 0:
            # A distinct weight per variable gives a distinct count per assignment.
            masks = [(gf2.parity_mask(1 << v, 1, n), (1 << v) + rng.getrandbits(v)) for v in range(n)]
        slices = gf2.tally(masks)
        counts = [sum(w for mask, w in masks if (mask >> z) & 1) for z in range(1 << n)]
        assert [count_of(slices, z) for z in range(1 << n)] == counts
        best = max(counts)
        assert gf2.top(slices, n) == (best, counts.index(best))
        shift, offset = rng.randint(0, 3), rng.randint(-(1 << 80), 1 << 80) >> rng.randint(0, 80)
        hist = Counter((c << shift) + offset for c in counts)
        assert gf2.histogram(slices, n, shift, offset) == hist
        assert gf2._transposed_histogram(slices, n, shift, offset) == hist
        # Counts of up to 8, 16, 32 and 64 bits, and of two and three 8-byte words.
        widths.add(min(max(3, (len(slices) - 1).bit_length()), 8))
        # More leaves than the trie may split: the transpose answers.
        seen_transposed += len(hist) > gf2._TRIE_SPLITS_PER_SLICE * len(slices)
    assert seen_transposed > 10
    assert widths == {3, 4, 5, 6, 7, 8}
