"""Word-Aligned Hybrid (WAH) compressed bitvectors, paper-faithful layout.

A compressed bitvector is a sequence of 32-bit words.  Following the exact
constants of Algorithm 1 in the paper:

* **Literal word** -- MSB (bit 31) is 0; the low 31 bits hold one 31-bit
  *group* of the bitvector, LSB-first.
* **Fill word** -- MSB is 1; bit 30 is the fill value (1 for a run of ones,
  0 for a run of zeros); the low 30 bits hold the run length **in bits**
  (always a multiple of 31).  So ``0xC000001F`` is a 1-fill of 31 bits and
  ``0x8000001F`` a 0-fill of 31 bits, exactly as pushed by Algorithm 1, and
  extending a fill adds 31 to the count (``LastSeg += 31``).

A fill word can represent at most ``0x3FFFFFFF`` bits (~1 Gbit); longer runs
are split across several fill words.

The logical length ``n_bits`` need not be a multiple of 31; the trailing
padding bits of the final group are always zero (an invariant enforced by
every constructor and checked by :meth:`WAHBitVector.check_invariants`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.bits import (
    GROUP_BITS,
    GROUP_FULL,
    groups_needed,
    last_group_mask,
    pack_bits_to_groups,
    popcount_total,
    popcount_u32,
    unpack_groups_to_bits,
)

#: Fill-word flag (MSB of the 32-bit word).
FILL_FLAG = np.uint32(0x80000000)
#: Fill-value flag (bit 30): set for 1-fills.
FILL_VALUE_FLAG = np.uint32(0x40000000)
#: Low 30 bits of a fill word: run length in bits (multiple of 31).
FILL_COUNT_MASK = np.uint32(0x3FFFFFFF)
#: Largest bit count representable by one fill word, rounded down to a
#: multiple of 31.
MAX_FILL_BITS = int(FILL_COUNT_MASK) - int(FILL_COUNT_MASK) % GROUP_BITS

ONE_FILL_HEADER = np.uint32(0xC0000000)
ZERO_FILL_HEADER = FILL_FLAG


def is_fill(word: int) -> bool:
    """True if ``word`` is a fill word."""
    return bool(np.uint32(word) & FILL_FLAG)


def fill_value(word: int) -> int:
    """Fill value (0 or 1) of a fill word."""
    return int(bool(np.uint32(word) & FILL_VALUE_FLAG))


def fill_bit_count(word: int) -> int:
    """Run length in bits of a fill word."""
    return int(np.uint32(word) & FILL_COUNT_MASK)


def make_fill(value: int, n_bits: int) -> int:
    """Construct a fill word for ``n_bits`` bits of ``value``."""
    if n_bits % GROUP_BITS != 0 or not 0 < n_bits <= MAX_FILL_BITS:
        raise ValueError(f"fill length must be a multiple of 31 in (0, {MAX_FILL_BITS}], got {n_bits}")
    header = ONE_FILL_HEADER if value else ZERO_FILL_HEADER
    return int(header | np.uint32(n_bits))


def _emit_words(
    run_val: np.ndarray, run_len: np.ndarray, run_fill: np.ndarray
) -> np.ndarray:
    """Emit WAH words from merged runs (value, group count, fillable flag).

    Literal runs always have length 1; fill runs emit one word, or several
    for giant runs exceeding :data:`MAX_FILL_BITS`.
    """
    cap_groups = MAX_FILL_BITS // GROUP_BITS
    n_words = np.where(run_fill, -(-run_len // cap_groups), 1)
    total = int(n_words.sum())
    out = np.empty(total, dtype=np.uint32)
    out_pos = np.concatenate(([0], np.cumsum(n_words)[:-1]))

    lit = ~run_fill
    out[out_pos[lit]] = run_val[lit]

    fills = np.flatnonzero(run_fill)
    if fills.size:
        simple = fills[n_words[fills] == 1]
        if simple.size:
            header = np.where(
                run_val[simple] == GROUP_FULL, ONE_FILL_HEADER, ZERO_FILL_HEADER
            ).astype(np.uint32)
            out[out_pos[simple]] = header | (
                run_len[simple].astype(np.uint32) * np.uint32(GROUP_BITS)
            )
        # Rare giant runs: loop only over runs needing splitting.
        for r in fills[n_words[fills] > 1]:
            value = 1 if run_val[r] == GROUP_FULL else 0
            remaining = int(run_len[r])
            pos = int(out_pos[r])
            while remaining > 0:
                take = min(remaining, cap_groups)
                out[pos] = make_fill(value, take * GROUP_BITS)
                pos += 1
                remaining -= take
    return out


def compress_groups(groups: np.ndarray) -> np.ndarray:
    """Run-length encode an array of 31-bit groups into WAH words.

    Fully vectorised: classifies each group as 0-fill / 1-fill / literal,
    finds run boundaries with a change-point scan, and emits one word per
    literal group and one (or more, for giant runs) per fill run.
    """
    groups = np.asarray(groups, dtype=np.uint32)
    m = groups.size
    if m == 0:
        return np.empty(0, dtype=np.uint32)

    fillable = (groups == 0) | (groups == GROUP_FULL)
    # A run starts wherever the value changes, or at any literal (literals
    # are always single-group runs).
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    starts[1:] = (groups[1:] != groups[:-1]) | ~fillable[1:] | ~fillable[:-1]
    start_idx = np.flatnonzero(starts)
    run_len = np.diff(np.append(start_idx, m))
    return _emit_words(groups[start_idx], run_len, fillable[start_idx])


def compress_runs(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Run-length encode (group value, group count) runs into WAH words.

    The run-domain sibling of :func:`compress_groups`: adjacent runs with
    the same fillable value are merged, literal values become literal
    words, and nothing is ever expanded to the group domain -- the cost is
    O(runs), not O(groups).  Zero-length runs are permitted and ignored;
    literal (non-fill) values must have count 1.
    """
    values = np.asarray(values, dtype=np.uint32)
    counts = np.asarray(counts, dtype=np.int64)
    keep = counts > 0
    if not keep.all():
        values, counts = values[keep], counts[keep]
    m = values.size
    if m == 0:
        return np.empty(0, dtype=np.uint32)
    fillable = (values == 0) | (values == GROUP_FULL)
    if np.any(counts[~fillable] != 1):
        raise ValueError("literal runs must have count 1")
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    starts[1:] = (values[1:] != values[:-1]) | ~fillable[1:] | ~fillable[:-1]
    start_idx = np.flatnonzero(starts)
    run_len = np.add.reduceat(counts, start_idx)
    return _emit_words(values[start_idx], run_len, fillable[start_idx])


def decompress_words(words: np.ndarray) -> np.ndarray:
    """Expand WAH words into the flat array of 31-bit groups they encode."""
    words = np.asarray(words, dtype=np.uint32)
    if words.size == 0:
        return np.empty(0, dtype=np.uint32)
    fills = (words & FILL_FLAG) != 0
    counts = np.where(
        fills, (words & FILL_COUNT_MASK) // np.uint32(GROUP_BITS), np.uint32(1)
    ).astype(np.int64)
    values = np.where(
        fills,
        np.where((words & FILL_VALUE_FLAG) != 0, GROUP_FULL, np.uint32(0)),
        words & np.uint32(0x7FFFFFFF),
    ).astype(np.uint32)
    return np.repeat(values, counts)


@dataclass(frozen=True)
class WAHBitVector:
    """An immutable WAH-compressed bitvector of logical length ``n_bits``.

    ``words`` is the compressed word stream; it always encodes exactly
    ``ceil(n_bits / 31)`` groups, and padding bits beyond ``n_bits`` in the
    final group are zero.
    """

    words: np.ndarray
    n_bits: int

    # ---------------------------------------------------------------- ctor
    def __post_init__(self) -> None:
        object.__setattr__(
            self, "words", np.ascontiguousarray(self.words, dtype=np.uint32)
        )
        if self.n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {self.n_bits}")

    @classmethod
    def from_bools(cls, bits: np.ndarray) -> "WAHBitVector":
        """Compress a boolean (or 0/1) array."""
        bits = np.asarray(bits, dtype=bool).ravel()
        groups = pack_bits_to_groups(bits)
        return cls(compress_groups(groups), bits.size)

    @classmethod
    def from_groups(cls, groups: np.ndarray, n_bits: int) -> "WAHBitVector":
        """Compress an already-packed array of 31-bit groups."""
        if np.asarray(groups).size != groups_needed(n_bits):
            raise ValueError(
                f"{np.asarray(groups).size} groups cannot encode {n_bits} bits"
            )
        return cls(compress_groups(groups), n_bits)

    @classmethod
    def from_indices(cls, indices: np.ndarray, n_bits: int) -> "WAHBitVector":
        """Build a bitvector with ones at the given positions."""
        bits = np.zeros(n_bits, dtype=bool)
        bits[np.asarray(indices, dtype=np.int64)] = True
        return cls.from_bools(bits)

    @classmethod
    def zeros(cls, n_bits: int) -> "WAHBitVector":
        """An all-zero bitvector."""
        return cls.from_groups(np.zeros(groups_needed(n_bits), dtype=np.uint32), n_bits)

    @classmethod
    def ones(cls, n_bits: int) -> "WAHBitVector":
        """An all-one bitvector (padding bits still zero)."""
        g = np.full(groups_needed(n_bits), GROUP_FULL, dtype=np.uint32)
        if n_bits:
            g[-1] = np.uint32(g[-1] & last_group_mask(n_bits))
        return cls.from_groups(g, n_bits)

    # ------------------------------------------------------------ content
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-run (cumulative group end, group value) decode, memoised.

        ``values[i]`` is the literal payload for literal runs and 0 /
        ``GROUP_FULL`` for fills; ``ends[i]`` is the group offset one past
        run ``i``.  One entry per compressed word, so the decode is
        O(words); the result is cached because the run-merge path of the
        kernel ladder (:mod:`repro.bitmap.kernels`) reuses each operand
        across many merges.  Callers must treat both arrays as read-only.
        """
        cached = self.__dict__.get("_runs")
        if cached is None:
            words = self.words
            fills = (words & FILL_FLAG) != 0
            counts = np.where(
                fills,
                (words & FILL_COUNT_MASK) // np.uint32(GROUP_BITS),
                np.uint32(1),
            ).astype(np.int64)
            values = np.where(
                fills,
                np.where((words & FILL_VALUE_FLAG) != 0, GROUP_FULL, np.uint32(0)),
                words & np.uint32(0x7FFFFFFF),
            ).astype(np.uint32)
            cached = (np.cumsum(counts), values)
            object.__setattr__(self, "_runs", cached)
        return cached

    def to_groups(self) -> np.ndarray:
        """Decompress to the flat array of 31-bit groups."""
        return decompress_words(self.words)

    def to_bools(self) -> np.ndarray:
        """Decompress to a boolean array of length ``n_bits``."""
        return unpack_groups_to_bits(self.to_groups(), self.n_bits)

    def to_indices(self) -> np.ndarray:
        """Positions of the set bits."""
        return np.flatnonzero(self.to_bools())

    def count(self) -> int:
        """Number of set bits, computed on the *compressed* form.

        Literal words contribute their payload popcount; 1-fill words
        contribute their bit count directly -- no decompression.
        """
        words = self.words
        if words.size == 0:
            return 0
        fills = (words & FILL_FLAG) != 0
        lit_total = popcount_total(words[~fills] & np.uint32(0x7FFFFFFF))
        one_fills = words[fills & ((words & FILL_VALUE_FLAG) != 0)]
        fill_total = int((one_fills & FILL_COUNT_MASK).astype(np.int64).sum())
        return lit_total + fill_total

    def density(self) -> float:
        """Fraction of set bits (0 for the empty vector)."""
        return self.count() / self.n_bits if self.n_bits else 0.0

    # ----------------------------------------------------------- geometry
    @property
    def n_words(self) -> int:
        return int(self.words.size)

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes."""
        return int(self.words.nbytes)

    @property
    def n_groups(self) -> int:
        return groups_needed(self.n_bits)

    def compression_ratio(self) -> float:
        """Compressed words / uncompressed groups (lower is better)."""
        g = self.n_groups
        return self.n_words / g if g else 1.0

    # ------------------------------------------------------------- checks
    def check_invariants(self) -> None:
        """Validate the word stream; raises ``AssertionError`` on corruption."""
        words = self.words
        fills = (words & FILL_FLAG) != 0
        counts = words[fills] & FILL_COUNT_MASK
        assert np.all(counts % GROUP_BITS == 0), "fill count not a multiple of 31"
        assert np.all(counts > 0), "empty fill word"
        fill_groups = int(counts.astype(np.int64).sum()) // GROUP_BITS
        groups_encoded = fill_groups + int((~fills).sum())
        assert groups_encoded == self.n_groups, (
            f"words encode {groups_encoded} groups, expected {self.n_groups}"
        )
        if self.n_bits % GROUP_BITS != 0 and words.size:
            groups = self.to_groups()
            pad_mask = np.uint32(~int(last_group_mask(self.n_bits)) & 0x7FFFFFFF)
            assert groups[-1] & pad_mask == 0, "padding bits set in final group"

    # ------------------------------------------------------------ dunders
    def __len__(self) -> int:
        return self.n_bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WAHBitVector):
            return NotImplemented
        return self.n_bits == other.n_bits and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.n_bits, self.words.tobytes()))

    def __getitem__(self, pos: int) -> bool:
        """Test a single bit (decompresses up to the containing group)."""
        if not 0 <= pos < self.n_bits:
            raise IndexError(pos)
        target_group, offset = divmod(pos, GROUP_BITS)
        seen = 0
        for w in self.words:
            w = int(w)
            span = fill_bit_count(w) // GROUP_BITS if is_fill(w) else 1
            if seen + span > target_group:
                if is_fill(w):
                    return bool(fill_value(w))
                return bool((w >> offset) & 1)
            seen += span
        raise AssertionError("corrupt word stream")  # pragma: no cover

    def __repr__(self) -> str:
        return (
            f"WAHBitVector(n_bits={self.n_bits}, n_words={self.n_words}, "
            f"count={self.count()})"
        )
