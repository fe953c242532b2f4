"""Shared pieces of the kernel ladder: the route rule, NOT, and the oracle.

Every bitwise combine and count over compressed bins goes through the two
entries of :mod:`repro.bitmap.kernels`
(``repro.bitmap.kernels.auto_op_many`` / ``repro.bitmap.kernels.auto_count_many``,
any k >= 1; pairwise is k = 2).  This module keeps what those
entries and their tests share:

* :func:`prefers_runmerge` -- the one place an operand's compression
  ratio is compared with a threshold; the ladder picks its run-merge
  path when it holds, its dense path otherwise.
* :data:`STREAMING_COUNT_RATIO_THRESHOLD` -- the calibrated k = 2
  crossover (the k >= 3 one is
  ``repro.bitmap.kernels.KWAY_RUNMERGE_RATIO_THRESHOLD``).
* :func:`logical_not` -- the one unary op (incomplete-data analysis,
  range-index complements).
* :func:`logical_op_streaming` -- the **scalar oracle**: the classic WAH
  two-cursor run merge on compressed words, ported from the
  bitmap-index literature (Wu et al. [41]).  It expands nothing and
  shares no code with the ladder, which is why the parity suite and the
  ablation benchmarks use its left fold as the reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bitmap.wah import (
    FILL_COUNT_MASK,
    FILL_FLAG,
    FILL_VALUE_FLAG,
    WAHBitVector,
    compress_groups,
)
from repro.util.bits import GROUP_BITS, GROUP_FULL, last_group_mask

_SCALAR_KERNELS: dict[str, Callable[[int, int], int]] = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & (b ^ 0x7FFFFFFF),
}

#: Compression-ratio (words per group, <= 1.0) threshold at or below which
#: both operands of a k = 2 combine must sit for the run merge to beat the
#: dense sweep.  The merge does ~10 vectorised passes over O(runs) words
#: versus the dense path's ~5 passes over O(groups) words -- and hardware
#: popcount (``np.bitwise_count``) made the dense side ~4x cheaper,
#: pulling the crossover down from ~0.42 (pre-hardware, threshold 0.25)
#: to ~0.06; recalibrated with ``benchmarks/bench_kernel_dispatch.py`` on
#: 1.24M-bit vectors (see DESIGN.md, "Kernel dispatch policy").
STREAMING_COUNT_RATIO_THRESHOLD = 0.05


def prefers_runmerge(vectors, threshold: float) -> bool:
    """True when *every* operand compresses to at or below ``threshold``
    words per group -- the route rule of the kernel ladder and of the
    index-level joint kernels (which pass whole
    :class:`~repro.bitmap.index.BitmapIndex` objects).

    One rule, one place: the run merge's cost is O(total runs), so a
    single dense operand (ratio near 1.0) drags the merge to O(groups)
    work at a higher per-word constant than the group kernels -- *all*
    operands must compress for the compressed domain to win.  (A plain
    loop: this runs once per ladder call, and ``all()`` over a generator
    costs twice as much at k = 2.)
    """
    for v in vectors:
        if v.compression_ratio() > threshold:
            return False
    return True


def logical_not(a: WAHBitVector) -> WAHBitVector:
    """Bitwise complement (padding bits stay zero)."""
    g = np.bitwise_xor(a.to_groups(), GROUP_FULL)
    if a.n_bits and g.size:
        g[-1] &= last_group_mask(a.n_bits)
    return WAHBitVector(compress_groups(g), a.n_bits)


# ------------------------------------------------------------ scalar oracle
class _RunCursor:
    """Iterates a WAH word stream as (n_groups, is_fill, value) runs.

    ``value`` is the literal payload for literal words, or 0 /
    ``GROUP_FULL`` for fills.  The cursor supports consuming a run
    partially, which is what makes the two-pointer merge linear.
    """

    __slots__ = ("words", "pos", "run_groups", "run_value", "run_is_fill")

    def __init__(self, words: np.ndarray) -> None:
        self.words = words
        self.pos = 0
        self.run_groups = 0
        self.run_value = 0
        self.run_is_fill = False
        self._advance()

    def _advance(self) -> None:
        if self.pos >= len(self.words):
            self.run_groups = 0
            return
        w = int(self.words[self.pos])
        self.pos += 1
        if w & int(FILL_FLAG):
            self.run_is_fill = True
            self.run_groups = (w & int(FILL_COUNT_MASK)) // GROUP_BITS
            self.run_value = int(GROUP_FULL) if w & int(FILL_VALUE_FLAG) else 0
        else:
            self.run_is_fill = False
            self.run_groups = 1
            self.run_value = w

    def consume(self, n: int) -> None:
        self.run_groups -= n
        if self.run_groups == 0:
            self._advance()

    @property
    def exhausted(self) -> bool:
        return self.run_groups == 0


class _WordAppender:
    """Builds a compressed word stream, merging adjacent compatible fills."""

    __slots__ = ("out",)

    def __init__(self) -> None:
        self.out: list[int] = []

    def append_fill(self, value: int, n_groups: int) -> None:
        bits = n_groups * GROUP_BITS
        header = 0xC0000000 if value else 0x80000000
        if self.out:
            last = self.out[-1]
            if (last & 0xC0000000) == header:
                have = last & int(FILL_COUNT_MASK)
                room = (int(FILL_COUNT_MASK) - have) // GROUP_BITS * GROUP_BITS
                take = min(bits, room)
                if take:
                    self.out[-1] = header | (have + take)
                    bits -= take
        while bits > 0:
            take = min(bits, int(FILL_COUNT_MASK) // GROUP_BITS * GROUP_BITS)
            self.out.append(header | take)
            bits -= take

    def append_literal(self, value: int) -> None:
        if value == 0:
            self.append_fill(0, 1)
        elif value == int(GROUP_FULL):
            self.append_fill(1, 1)
        else:
            self.out.append(value)

    def words(self) -> np.ndarray:
        return np.asarray(self.out, dtype=np.uint32)


def logical_op_streaming(a: WAHBitVector, b: WAHBitVector, op: str) -> WAHBitVector:
    """Two-cursor run merge on compressed words (reference implementation)."""
    if a.n_bits != b.n_bits:
        raise ValueError(f"operand length mismatch: {a.n_bits} != {b.n_bits} bits")
    try:
        scalar = _SCALAR_KERNELS[op]
    except KeyError:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(_SCALAR_KERNELS)}")
    ca, cb = _RunCursor(a.words), _RunCursor(b.words)
    out = _WordAppender()
    while not ca.exhausted and not cb.exhausted:
        n = min(ca.run_groups, cb.run_groups)
        if ca.run_is_fill and cb.run_is_fill:
            value = scalar(ca.run_value, cb.run_value)
            if value == 0:
                out.append_fill(0, n)
            elif value == int(GROUP_FULL):
                out.append_fill(1, n)
            else:  # pragma: no cover - fills only combine to fills
                for _ in range(n):
                    out.append_literal(value)
            ca.consume(n)
            cb.consume(n)
        else:
            # At least one side is a literal: emit one group.
            out.append_literal(scalar(ca.run_value, cb.run_value))
            ca.consume(1)
            cb.consume(1)
    if not (ca.exhausted and cb.exhausted):
        raise AssertionError("operand word streams encode different lengths")
    words = out.words()
    result = WAHBitVector(words, a.n_bits)
    # XOR/ANDNOT against a padded final literal can set padding bits; strip.
    if a.n_bits % GROUP_BITS != 0 and words.size:
        g = result.to_groups()
        masked = np.uint32(g[-1] & last_group_mask(a.n_bits))
        if masked != g[-1]:
            g[-1] = masked
            result = WAHBitVector(compress_groups(g), a.n_bits)
    return result
