"""Exact linear algebra over GF(2) on rows packed as integers (column j at bit j)."""

from __future__ import annotations

from typing import Iterable


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """Row echelon form of ``rows``, each echelon row keyed by its lowest set bit.

    The keys are the pivot columns: column j is a key exactly when it is
    not in the span of columns 0..j-1, so the sorted keys are the greedy
    leftmost column basis and their number is the rank.
    """
    ech: dict[int, int] = {}
    for row in rows:
        while row:
            p = (row & -row).bit_length() - 1
            if p not in ech:
                ech[p] = row
                break
            row ^= ech[p]
    return ech


def solve_affine(rows: Iterable[int], rhs: int, cols: int) -> int | None:
    """One solution of the system row i . x = bit i of ``rhs``, or None if inconsistent.

    Every row must lie below bit ``cols``. The solution is packed with x_j
    at bit j and every free variable at 0, so it is deterministic.
    """
    ech = echelon(row | ((rhs >> i) & 1) << cols for i, row in enumerate(rows))
    if cols in ech:
        return None  # some combination of rows reads 0 = 1
    x = 0
    for p in sorted(ech, reverse=True):
        row = ech[p]
        x |= (((row >> cols) ^ (row & x).bit_count()) & 1) << p
    return x
