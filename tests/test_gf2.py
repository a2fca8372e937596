import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abovetight.gf2 import (
    BitMatrix,
    BitVec,
    independent_columns,
    rank,
    solve_affine,
)

# Columns a1=(1,0,1), a2=(1,1,0), a3=(0,1,1); a3 = a1 + a2 over GF(2).
DEPENDENT = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def test_rank_identity():
    assert rank(BitMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_dependent_columns():
    assert rank(DEPENDENT) == 2


def test_rank_zero_matrix():
    assert rank(BitMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0


def test_rank_empty_matrix():
    assert rank(BitMatrix(0, 0, ())) == 0


def test_independent_columns_identity():
    assert independent_columns(BitMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [0, 1, 2]


def test_independent_columns_greedy_leftmost():
    assert independent_columns(DEPENDENT) == [0, 1]


def test_independent_columns_skips_zero_column():
    mat = BitMatrix.from_rows([[0, 1], [0, 1]])
    assert independent_columns(mat) == [1]


def test_solve_affine_small_system():
    # z1+z2=1, z2+z3=1
    mat = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    sol = solve_affine(mat, BitVec.from_coords([1, 1]))
    assert sol is not None
    assert (sol[0] ^ sol[1]) == 1 and (sol[1] ^ sol[2]) == 1


def test_solve_affine_contradiction():
    mat = BitMatrix.from_rows([[1], [1]])
    assert solve_affine(mat, BitVec.from_coords([1, 0])) is None


def test_solve_affine_empty_system():
    mat = BitMatrix(0, 3, ())
    assert solve_affine(mat, BitVec(0, 0)) == (0, 0, 0)


def test_solve_affine_dimension_mismatch():
    mat = BitMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        solve_affine(mat, BitVec.from_coords([1, 0]))


def _random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_row_masks([rng.getrandbits(cols) for _ in range(rows)], cols)


def test_rank_equals_basis_size_and_expansions_reproduce_columns():
    rng = random.Random(20240915)
    for _ in range(300):
        rows = rng.randint(0, 12)
        cols = rng.randint(0, 12)
        mat = _random_matrix(rng, rows, cols)
        basis = independent_columns(mat)
        assert rank(mat) == len(basis)
        assert basis == sorted(basis)
        ech = {}  # the basis columns in echelon form, keyed by leading bit

        def reduce(v):
            while v and v.bit_length() in ech:
                v ^= ech[v.bit_length()]
            return v

        for j in basis:
            v = reduce(mat.column_bits(j))
            assert v, "basis columns must be independent"
            ech[v.bit_length()] = v
        for j in range(cols):
            assert reduce(mat.column_bits(j)) == 0, "column %d is outside the span" % j


def test_solve_affine_agrees_with_brute_force():
    rng = random.Random(77)
    for _ in range(200):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 8)
        mat = _random_matrix(rng, rows, cols)
        rhs_bits = rng.getrandbits(rows) if rows else 0
        rhs = BitVec(rows, rhs_bits)
        solution = solve_affine(mat, rhs)
        brute = None
        for bits in itertools.product((0, 1), repeat=cols):
            ok = True
            for i in range(rows):
                parity = 0
                for j in range(cols):
                    if (mat.row_bits[i] >> j) & 1:
                        parity ^= bits[j]
                if parity != (rhs_bits >> i) & 1:
                    ok = False
                    break
            if ok:
                brute = bits
                break
        assert (solution is None) == (brute is None)
        if solution is not None:
            for i in range(rows):
                parity = 0
                for j in range(cols):
                    if (mat.row_bits[i] >> j) & 1:
                        parity ^= solution[j]
                assert parity == (rhs_bits >> i) & 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_operations(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 8))
    masks = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    mat = BitMatrix.from_row_masks(masks, cols)
    base = rank(mat)

    perm = data.draw(st.permutations(range(rows)))
    permuted = BitMatrix.from_row_masks([masks[i] for i in perm], cols)
    assert rank(permuted) == base

    src = data.draw(st.integers(0, rows - 1))
    dst = data.draw(st.integers(0, rows - 1))
    if src != dst:
        added = list(masks)
        added[dst] ^= added[src]
        assert rank(BitMatrix.from_row_masks(added, cols)) == base


def test_bitvec_round_trip():
    v = BitVec.from_coords([1, 0, 1, 1])
    assert v.to_tuple() == (1, 0, 1, 1)
    assert v.coord(0) == 1 and v.coord(1) == 0
    with pytest.raises(IndexError):
        v.coord(4)
