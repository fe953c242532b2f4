"""Bitmap indices: single-level and multi-level (Figure 1 of the paper).

A :class:`BitmapIndex` holds one WAH bitvector per bin over ``n_elements``
elements.  Because each bin's popcount *is* the bin's element count, the
value distribution of the indexed data comes for free (§3.2: "the individual
value distributions ... are already generated during the bitmaps generation
process").

A :class:`MultiLevelBitmapIndex` stacks a low-level index with one or more
high-level indices whose bins are unions of consecutive low-level bins
(Figure 1's interval bitvectors).  Correlation mining (§4.2) walks levels
top-down to prune uncorrelated value subsets early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.bitmap.ordering import RowOrdering

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.builder import OnlineBitmapBuilder, build_bitvectors
from repro.bitmap.codec import codec_for_name
from repro.bitmap.kernels import auto_op_many, stack_groups
from repro.bitmap.wah import (
    FILL_COUNT_MASK,
    FILL_FLAG,
    FILL_VALUE_FLAG,
    WAHBitVector,
)
from repro.util.bits import GROUP_BITS, groups_needed

BuildMethod = Literal["vectorized", "online"]


@dataclass
class BitmapIndex:
    """A compressed bitmap index over one variable's data.

    ``bitvectors`` are WAH.  ``codec`` names the storage codec the index
    is written under (``"wah"``, ``"roaring"`` or ``"auto"``, see
    :mod:`repro.bitmap.codec`); only the writer reads it, and a loaded
    index records its file's codec.

    ``ordering`` (optional) records the row permutation applied before
    encoding (:mod:`repro.bitmap.ordering`): bit ``i`` of every
    bitvector covers simulation row ``ordering.permutation[i]``.  Bin
    counts and joint histograms are ordering-invariant; element masks
    must be mapped back with ``ordering.unpermute_mask`` before they are
    compared or spliced with simulation-order data.
    """

    binning: Binning
    bitvectors: list
    n_elements: int
    ordering: "RowOrdering | None" = None
    codec: str = field(default="wah", compare=False)
    _counts: np.ndarray | None = field(default=None, repr=False, compare=False)
    _groups: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bitvectors) != self.binning.n_bins:
            raise ValueError(
                f"{len(self.bitvectors)} bitvectors != {self.binning.n_bins} bins"
            )
        for v in self.bitvectors:
            if v.n_bits != self.n_elements:
                raise ValueError(
                    f"bitvector length {v.n_bits} != n_elements {self.n_elements}"
                )
        if self.ordering is not None and self.ordering.n_rows != self.n_elements:
            raise ValueError(
                f"ordering covers {self.ordering.n_rows} rows, index covers "
                f"{self.n_elements} elements"
            )
        if self.codec != "auto":
            codec_for_name(self.codec)

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        data: np.ndarray,
        binning: Binning,
        *,
        method: BuildMethod = "vectorized",
        chunk_elements: int = 1 << 20,
        codec: str = "wah",
        ordering: "RowOrdering | str | None" = None,
    ) -> "BitmapIndex":
        """Index ``data`` (any shape, flattened C-order) under ``binning``.

        ``codec`` is the storage codec the index is written under: a
        registered codec name, or ``"auto"`` for the smallest payload
        per bin (:func:`repro.bitmap.codec.select_codec`).  The bins are
        WAH in memory whatever the codec.

        ``ordering`` optionally permutes rows before encoding
        (:mod:`repro.bitmap.ordering`): a method name ("lex", "gray",
        "hist") computes the permutation from this data's bin ids; a
        prebuilt :class:`~repro.bitmap.ordering.RowOrdering` (e.g. one
        shared across several variables) is applied as-is.  The
        permutation rides with the index and its serialized record, so
        masks map back to simulation order exactly.
        """
        flat = np.asarray(data).ravel()
        if ordering is not None:
            if isinstance(ordering, str):
                from repro.bitmap.ordering import compute_ordering

                ordering = compute_ordering([flat], binning, ordering)
            flat = ordering.apply(flat)
        if method == "vectorized":
            vectors = build_bitvectors(flat, binning, chunk_elements=chunk_elements)
        elif method == "online":
            builder = OnlineBitmapBuilder(binning)
            for start in range(0, flat.size, chunk_elements):
                builder.push(flat[start : start + chunk_elements])
            vectors = builder.finalize()
        else:
            raise ValueError(f"unknown build method {method!r}")
        return cls(binning, vectors, flat.size, ordering, codec)

    # ------------------------------------------------------------- queries
    @property
    def n_bins(self) -> int:
        return self.binning.n_bins

    def bin_counts(self) -> np.ndarray:
        """Element count per bin (the value distribution), via popcounts."""
        if self._counts is None:
            self._counts = np.asarray(
                [v.count() for v in self.bitvectors], dtype=np.int64
            )
        return self._counts

    def group_matrix(self) -> np.ndarray:
        """Every bin's 31-bit groups stacked into a (n_bins, n_groups)
        matrix, built at most once per index (memoised).

        Decompressing each bin once turns the m x n pairwise AND/XOR loops
        of §3.2/§4.2 into row-wise numpy kernels for dense indices
        (well-compressed ones take :meth:`bin_ids` instead).  This is a
        *working-set* expansion (bins x groups words),
        not a per-element expansion.  Callers must treat the matrix as
        read-only -- it is shared across every analysis touching this
        index.
        """
        if self._groups is None:
            # Fused decode: rows are written straight into one
            # preallocated matrix (repro.bitmap.kernels.stack_groups) --
            # no intermediate list-of-rows + vstack copy.
            self._groups = stack_groups(self.bitvectors, self.n_elements)
        return self._groups

    def bin_ids(self) -> np.ndarray:
        """Every row's bin id: the ``int32`` column this index encodes.

        The bins partition the rows, so the index *is* a run-length-encoded
        bin-id column; this recovers it in one vectorised decode across all
        bins.  The WAH words of every bin are concatenated and tagged with
        their bin; a word's first row comes from the running group total
        minus its bin's offset (every bin encodes the same number of
        groups), literals are expanded in one ``np.unpackbits`` pass and
        1-fills are painted by slice.

        Not memoised: the column costs 4 B per row, far more than the
        compressed index, and rebuilding it is one cheap pass.  Raises
        ``ValueError`` when the bins do not partition the rows.
        """
        n = self.n_elements
        ids = np.full(n, -1, dtype=np.int32)
        if n == 0:
            return ids
        per_bin = [v.words for v in self.bitvectors]
        lengths = np.fromiter((w.size for w in per_bin), np.int64, len(per_bin))
        words = np.concatenate(per_bin)
        tags = np.repeat(np.arange(self.n_bins, dtype=np.int32), lengths)
        fill = (words & FILL_FLAG) != 0
        n_groups = np.where(fill, (words & FILL_COUNT_MASK) // GROUP_BITS, 1)
        first_group = np.cumsum(n_groups, dtype=np.int64) - n_groups
        first_row = (first_group - tags * np.int64(groups_needed(n))) * GROUP_BITS

        lit = np.flatnonzero(~fill)
        raw = words[lit].astype("<u4").view(np.uint8).reshape(-1, 4)
        word, bit = np.nonzero(np.unpackbits(raw, axis=1, bitorder="little"))
        ids[first_row[lit][word] + bit] = tags[lit][word]
        claimed = word.size

        ones = np.flatnonzero(fill & ((words & FILL_VALUE_FLAG) != 0))
        stops = first_row[ones] + (words[ones] & FILL_COUNT_MASK)
        for start, stop, tag in zip(
            first_row[ones].tolist(), stops.tolist(), tags[ones].tolist()
        ):
            ids[start:stop] = tag
            claimed += stop - start

        unclaimed = np.flatnonzero(ids < 0)
        if unclaimed.size or claimed != n:
            where = f"row {unclaimed[0]} is in no bin" if unclaimed.size else (
                f"{claimed - n} rows are in more than one bin"
            )
            raise ValueError(f"bins do not partition the rows: {where}")
        return ids

    def compression_ratio(self) -> float:
        """Mean WAH words per uncompressed 31-bit group across all bins
        (lower is better; the dispatch signal of
        :func:`~repro.bitmap.ops.prefers_runmerge`)."""
        total_groups = self.n_bins * groups_needed(self.n_elements)
        if total_groups == 0:
            return 1.0
        return sum(v.n_words for v in self.bitvectors) / total_groups

    def distribution(self) -> np.ndarray:
        """Normalised value distribution ``P(bin)``."""
        counts = self.bin_counts()
        total = counts.sum()
        return counts / total if total else counts.astype(np.float64)

    def query_bins(self, bin_ids: np.ndarray) -> WAHBitVector:
        """OR of the chosen bins: elements whose value falls in any of them.

        Fused k-way OR (:func:`~repro.bitmap.kernels.auto_op_many`): one
        decode per bin and one reduce sweep, not k - 1 pairwise merges.
        """
        ids = np.atleast_1d(np.asarray(bin_ids, dtype=np.int64))
        if ids.size == 0:
            return WAHBitVector.zeros(self.n_elements)
        return auto_op_many([self.bitvectors[int(i)] for i in ids], "or")

    def query_value_range(self, lo: float, hi: float) -> WAHBitVector:
        """Elements whose *bin* overlaps [lo, hi] (bin-granular, like FastBit)."""
        return self.query_bins(overlapping_bins(self.binning, lo, hi))

    # ------------------------------------------------------------ geometry
    @property
    def nbytes(self) -> int:
        """Total compressed size in bytes."""
        return sum(v.nbytes for v in self.bitvectors)

    def size_ratio(self, element_bytes: int = 8) -> float:
        """Index size relative to the raw data it summarises (§2.2 claim)."""
        raw = self.n_elements * element_bytes
        return self.nbytes / raw if raw else 0.0

    def check_invariants(self) -> None:
        """Every element is in exactly one bin: bitvectors partition the set."""
        for v in self.bitvectors:
            v.check_invariants()
        assert int(self.bin_counts().sum()) == self.n_elements, (
            "bin counts do not partition the element set"
        )

    def __repr__(self) -> str:
        return (
            f"BitmapIndex(n_elements={self.n_elements}, n_bins={self.n_bins}, "
            f"nbytes={self.nbytes})"
        )


def overlapping_bins(binning: Binning, lo: float, hi: float) -> np.ndarray:
    """Bin ids whose value range overlaps [lo, hi].

    Needs only the binning, not materialised bitvectors -- this is what
    lets the query service (:mod:`repro.service`) plan the *minimal* set
    of bin loads for a value predicate before touching the store.
    """
    hits = [
        b for b in range(binning.n_bins) if _bin_overlaps(binning, b, lo, hi)
    ]
    return np.asarray(hits, dtype=np.int64)


def _bin_overlaps(binning: Binning, bin_id: int, lo: float, hi: float) -> bool:
    edges = getattr(binning, "edges", None)
    if edges is not None:
        # Bins are half-open [a, b): a bin overlaps [lo, hi] iff a <= hi, b > lo.
        return bool(edges[bin_id] <= hi and edges[bin_id + 1] > lo)
    values = getattr(binning, "values", None)
    if values is not None:
        return bool(lo <= values[bin_id] <= hi)
    raise TypeError(f"binning {type(binning).__name__} exposes no edges/values")


@dataclass
class LevelSpec:
    """One high level: consecutive low-level bins grouped ``fanout`` at a time."""

    fanout: int

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")


@dataclass
class MultiLevelBitmapIndex:
    """Low-level index plus derived high-level interval indices.

    ``levels[0]`` is the low-level (finest) index; each subsequent level is
    coarser.  :meth:`children` maps a high-level bin back to the bins of the
    level below, which is what top-down correlation mining traverses.
    """

    levels: list[BitmapIndex]
    fanouts: list[int]

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        binning: Binning,
        level_specs: list[LevelSpec] | None = None,
        **build_kwargs,
    ) -> "MultiLevelBitmapIndex":
        """Build the low level from data, then roll up by OR per level spec."""
        low = BitmapIndex.build(data, binning, **build_kwargs)
        specs = level_specs if level_specs is not None else [LevelSpec(4)]
        levels = [low]
        fanouts: list[int] = []
        for spec in specs:
            levels.append(_rollup(levels[-1], spec.fanout))
            fanouts.append(spec.fanout)
        return cls(levels, fanouts)

    @property
    def low(self) -> BitmapIndex:
        return self.levels[0]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def children(self, level: int, bin_id: int) -> list[int]:
        """Bins of ``level - 1`` covered by ``bin_id`` at ``level``."""
        if level <= 0 or level >= self.n_levels:
            raise ValueError(f"level must be in [1, {self.n_levels - 1}], got {level}")
        fanout = self.fanouts[level - 1]
        lo = bin_id * fanout
        hi = min(lo + fanout, self.levels[level - 1].n_bins)
        return list(range(lo, hi))

    @property
    def nbytes(self) -> int:
        return sum(level.nbytes for level in self.levels)


def _rollup(index: BitmapIndex, fanout: int) -> BitmapIndex:
    """Build a coarser index by fused k-way OR over ``fanout`` bins."""
    from repro.bitmap.binning import ExplicitBinning

    groups: list[WAHBitVector] = []
    edges: list[float] = []
    low_edges = getattr(index.binning, "edges", None)
    for start in range(0, index.n_bins, fanout):
        members = index.bitvectors[start : start + fanout]
        groups.append(auto_op_many(members, "or"))
        if low_edges is not None:
            edges.append(float(low_edges[start]))
    if low_edges is not None:
        edges.append(float(low_edges[-1]))
        binning: Binning = ExplicitBinning(np.asarray(edges))
    else:
        # Distinct-value binnings roll up to synthetic integer intervals.
        n_high = len(groups)
        binning = ExplicitBinning(np.arange(n_high + 1, dtype=np.float64))
    return BitmapIndex(binning, groups, index.n_elements)
