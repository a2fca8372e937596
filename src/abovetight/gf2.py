"""Packed-integer code: GF(2) row echelon, and counting over all assignments.

Echelon rows are packed with column j at bit j. The counter is bit-sliced:
bit z of each packed int belongs to assignment z, which sets variable v to
bit v of z, and a count is kept as slices, bit z of slices[i] being bit i
of z's count.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat
from operator import add, lshift
from typing import Iterable

from .outcome import check_cap


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


def solve_affine(ech: dict[int, int], cols: int) -> int | None:
    """One solution of the system whose augmented row echelon is ``ech``, or None if inconsistent.

    ``ech`` is an ``echelon`` of rows each holding its coefficients below bit
    ``cols`` and its right side at bit ``cols``. The solution is packed with
    x_j at bit j and every free variable at 0, so it is deterministic.
    """
    if cols in ech:
        return None  # some combination of rows reads 0 = 1
    x = 0
    for p in sorted(ech, reverse=True):
        row = ech[p]
        x |= (((row >> cols) ^ (row & x).bit_count()) & 1) << p
    return x


_BITS = bytes.maketrans(b"01", b"\0\1")
# Bytes an exact count may hold: the bit-sliced counter of ``maxlin`` and ``rsat``
# (``check_counter``) and the packed order polynomials of
# ``linord.forward_weight_counts`` (64 MiB).
COUNT_BUDGET_BYTES = 1 << 26
# Native unsigned integer formats by width in bytes, for memoryview.cast.
WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# Splits per slice after which the trie of ``histogram`` gives way to the
# transpose. Of the budgets timed at n = 16 and 20 in BENCH_8.json
# ``histogram_switch``, this one kept ``histogram`` within about 2x of the
# faster path on every case.
_TRIE_SPLITS_PER_SLICE = 32


def parity_mask(support: int, parity: int, n: int) -> int:
    """The assignments z < 2^n under which z & ``support`` has parity ``parity``."""
    mask, width = parity ^ 1, 1
    for v in range(n):
        # Assignments width..2*width-1 repeat 0..width-1 with variable v set.
        upper = mask ^ ((1 << width) - 1) if (support >> v) & 1 else mask
        mask |= upper << width
        width <<= 1
    return mask


def cube_mask(care: int, value: int, n: int) -> int:
    """The assignments z < 2^n with z & ``care`` == ``value``."""
    mask = 1
    for v in range(n):
        if not (care >> v) & 1:
            mask |= mask << (1 << v)
        elif (value >> v) & 1:
            mask <<= 1 << v
    return mask


def check_counter(refused: str, total: int, n: int) -> None:
    """Refuse, reported as ``refused``, a ``tally`` of weights summing to ``total`` over 2^n assignments.

    Its slices take 2^n times the bit length of ``total``; past the bits of
    ``COUNT_BUDGET_BYTES`` the count raises CapExceeded with ``counter_cap``,
    ``counter_bits`` and ``kernel_vars``, the n the counter was sized for.
    """
    needed = total.bit_length() << n
    keys = ("counter_cap", "counter_bits")
    check_cap(refused, needed, "counter bits", 8 * COUNT_BUDGET_BYTES, keys, kernel_vars=n)


def tally(weighted_masks: Iterable[tuple[int, int]]) -> list[int]:
    """Slices of the total weight of the masks holding each assignment.

    Each mask is ripple-added at its nonnegative integer weight, one weight
    bit per slice, so long weights cost long carry chains, not repeats.
    """
    slices: list[int] = []
    for mask, weight in weighted_masks:
        carry, i = 0, 0
        while weight or carry:
            add = mask if weight & 1 else 0
            if i == len(slices):
                slices.append(0)
            s = slices[i]
            slices[i] = s ^ add ^ carry
            carry = (s & add) | (carry & (s ^ add))
            weight >>= 1
            i += 1
    return slices


def top(slices: list[int], n: int) -> tuple[int, int]:
    """The largest count over the 2^n assignments, and the smallest assignment holding it."""
    candidates = (1 << (1 << n)) - 1
    best = 0
    for i in reversed(range(len(slices))):
        kept = candidates & slices[i]
        if kept:
            candidates = kept
            best |= 1 << i
    return best, (candidates & -candidates).bit_length() - 1


def histogram(slices: list[int], n: int, shift: int = 0, offset: int = 0) -> Counter[int]:
    """How many of the 2^n assignments hold each value (count << ``shift``) + ``offset``.

    A trie splits the assignments slice by slice from the top and counts
    each leaf with ``bit_count``, so its cost follows the number of
    distinct counts. When the splits outgrow what a transpose costs, it
    stops, and every assignment's count is read whole from a transposed
    copy of the slices instead.
    """
    out: Counter[int] = Counter()
    budget = _TRIE_SPLITS_PER_SLICE * len(slices)
    stack = [(len(slices), 0, (1 << (1 << n)) - 1)]
    while stack:
        i, count, mask = stack.pop()
        if not i:
            out[(count << shift) + offset] = mask.bit_count()
            continue
        budget -= 1
        if budget < 0:
            return _transposed_histogram(slices, n, shift, offset)
        i -= 1
        ones = mask & slices[i]
        if ones:
            stack.append((i, count | 1 << i, ones))
        if ones != mask:
            stack.append((i, count, mask ^ ones))
    return out


def _transposed_histogram(slices: list[int], n: int, shift: int, offset: int) -> Counter[int]:
    """``histogram`` read from fixed-width native words, one run of words per assignment.

    Slice i becomes bit i % 8 of byte i // 8 of each assignment's count.
    The bytes are padded to one word of 1, 2, 4 or 8 bytes, or to several
    8-byte words past 64 slices, and read through a memoryview.
    """
    size = 1 << n
    count_bytes = max(1, -(-len(slices) // 8))
    word = 1 << (min(count_bytes, 8) - 1).bit_length()
    words = -(-count_bytes // word)
    stride = word * words
    lanes = bytearray(stride * size)
    digits = "0%db" % size
    for g in range(0, len(slices), 8):
        group = 0
        for i, s in enumerate(slices[g : g + 8]):
            # One byte per assignment, 0 or 1, assignment z at byte z.
            group |= int.from_bytes(format(s, digits).encode().translate(_BITS), "big") << i
        b = g // 8
        if sys.byteorder == "big":
            b += word - 1 - 2 * (b % word)
        lanes[b::stride] = group.to_bytes(size, "little")
    view = memoryview(lanes).cast(WORDS[word])
    counts: Iterable[int] = view[::words]
    for j in range(1, words):
        counts = map(add, counts, map(lshift, view[j::words], repeat(64 * j)))
    return Counter(map(add, map(lshift, counts, repeat(shift)), repeat(offset)))
