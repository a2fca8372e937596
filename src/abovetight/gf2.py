"""Packed-integer code: GF(2) column elimination, and counting over all assignments.

A column is packed with row i at bit i. The counter is bit-sliced:
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


def column_basis(columns: Iterable[int]) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """The greedy leftmost basis of the packed ``columns``, and its echelon.

    Column j is picked exactly when it is not in the span of columns 0..j-1,
    so the picks are the leftmost basis and their number is the rank. Each
    column is reduced by the echelon entries keyed by its highest bit until
    that bit is new, when it becomes an entry, or until nothing is left,
    when it lies in the span. An entry pairs the reduced column with its
    terms: bit i is set when the i-th picked column is one of them. The
    work is the columns times the rank. An entry's column holds no more
    bits than the column it came from, and the i-th pick's terms at most
    i + 1, so with ``columns`` an iterator that drops each column once read,
    the columns and the echelon together hold at most the columns' bits
    plus rank(rank + 1)/2. Returns the picked indices and the echelon.
    """
    picked: list[int] = []
    ech: dict[int, tuple[int, int]] = {}
    for j, col in enumerate(columns):
        terms = 0
        while top := col.bit_length():
            entry = ech.get(top)
            if entry is None:
                ech[top] = col, terms | 1 << len(picked)
                picked.append(j)
                break
            col, terms = col ^ entry[0], terms ^ entry[1]
    return picked, ech


def solve_affine(ech: dict[int, tuple[int, int]], target: int) -> int | None:
    """The picked columns that sum to ``target``, packed with the i-th pick at bit i, or None if none do.

    ``ech`` is a ``column_basis`` echelon. The picked columns are
    independent, so the answer is unique: it is the one solution of
    A x = ``target``, A the columns ``column_basis`` was given, with x at 0
    on every unpicked column.
    """
    terms = 0
    while top := target.bit_length():
        entry = ech.get(top)
        if entry is None:
            return None  # target lies outside the columns' span
        target, terms = target ^ entry[0], terms ^ entry[1]
    return terms


_BITS = bytes.maketrans(b"01", b"\0\1")
# Bytes an exact count may hold: the bit-sliced counter of ``maxlin`` and ``rsat``
# (``check_counter``) and the packed order polynomials of
# ``linord.forward_weight_counts`` (64 MiB).
COUNT_BUDGET_BYTES = 1 << 26
# Bits the columns and echelon of ``maxlin.Lin2System.occurring_echelon`` may hold,
# 1 GiB: a path of m two-variable equations holds about m^2 bits, so up to about
# 92,000 of them are eliminated. Past it the elimination is refused, so linalb and
# moments answer ERROR.
ELIMINATION_BUDGET_BITS = 1 << 33
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
