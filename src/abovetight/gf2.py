"""Exact linear algebra over GF(2) using packed-integer bit vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BitVec:
    """Fixed-length vector over GF(2); coordinate i is bit i of ``bits``."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits set outside the declared length")

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> BitVec:
        bits = 0
        length = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << i
            length = i + 1
        return cls(length, bits)

    def coord(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError("coordinate out of range")
        return (self.bits >> i) & 1

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); ``row_bits[i]`` packs row i with column j at bit j."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.row_bits) != self.rows:
            raise ValueError("row_bits length must equal rows")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits outside the declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> BitMatrix:
        if not rows:
            return cls(0, 0, ())
        cols = len(rows[0])
        masks = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            mask = 0
            for j, c in enumerate(row):
                if c not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                mask |= c << j
            masks.append(mask)
        return cls(len(rows), cols, tuple(masks))

    @classmethod
    def from_row_masks(cls, masks: Sequence[int], cols: int) -> BitMatrix:
        return cls(len(masks), cols, tuple(masks))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry out of range")
        return (self.row_bits[i] >> j) & 1

    def column_bits(self, j: int) -> int:
        """Column j packed as an integer with row i at bit i."""
        if not 0 <= j < self.cols:
            raise IndexError("column out of range")
        v = 0
        for i, row in enumerate(self.row_bits):
            v |= ((row >> j) & 1) << i
        return v


def _reduce(vec: int, basis: dict[int, int]) -> int:
    """Reduce ``vec`` against an echelon basis keyed by leading-bit position."""
    while vec:
        p = vec.bit_length() - 1
        if p not in basis:
            return vec
        vec ^= basis[p]
    return 0


def rank(mat: BitMatrix) -> int:
    """Rank over GF(2); the empty matrix has rank 0."""
    basis: dict[int, int] = {}
    for row in mat.row_bits:
        v = _reduce(row, basis)
        if v:
            basis[v.bit_length() - 1] = v
    return len(basis)


def independent_columns(mat: BitMatrix) -> list[int]:
    """Greedy leftmost maximal set of linearly independent column indices."""
    basis: dict[int, int] = {}
    picked: list[int] = []
    for j in range(mat.cols):
        v = _reduce(mat.column_bits(j), basis)
        if v:
            basis[v.bit_length() - 1] = v
            picked.append(j)
    return picked


def solve_affine(mat: BitMatrix, rhs: BitVec) -> tuple[int, ...] | None:
    """One solution of ``mat @ x = rhs`` over GF(2), or None if inconsistent.

    Free variables are set to 0, so the returned solution is deterministic.
    """
    if rhs.length != mat.rows:
        raise ValueError("right-hand side length must equal the row count")
    n = mat.cols
    rhs_bit = 1 << n
    # Echelon rows keyed by pivot column (lowest set variable bit).
    ech: dict[int, int] = {}
    for i in range(mat.rows):
        row = mat.row_bits[i] | (((rhs.bits >> i) & 1) << n)
        while True:
            vars_part = row & (rhs_bit - 1)
            if not vars_part:
                if row:
                    return None  # 0 = 1
                break
            p = (vars_part & -vars_part).bit_length() - 1
            if p not in ech:
                ech[p] = row
                break
            row ^= ech[p]
    x = 0
    for p in sorted(ech, reverse=True):
        row = ech[p]
        acc = (row >> n) & 1
        rest = (row & (rhs_bit - 1)) ^ (1 << p)
        acc ^= (rest & x).bit_count() & 1
        x |= acc << p
    return tuple((x >> j) & 1 for j in range(n))
