"""Range-encoded bitmap index -- the O'Neil & Quass variant [26].

§2.1 cites "Improved query performance with variant indexes"; the
*range-encoded* variant stores, per bin ``i``, the bitvector of elements
whose value falls in bins ``0..i`` (a cumulative encoding).  Consequences:

* any one-sided range predicate (``value <= x`` / ``value > x``) is a
  *single* stored bitvector (or its complement) -- no OR cascade;
* any two-sided range needs at most one ANDNOT of two stored vectors,
  versus OR-ing up to ``m`` equality-encoded bitvectors;
* the trade-off folklore says cumulative bitvectors cost more space, but
  *under WAH* the two encodings are size-comparable on real data: each
  cumulative vector has a single 0->1 transition region (one run
  boundary), while each equality bin has two -- the ablation benchmark
  quantifies this.

Equality-encoded bins can be recovered as ``cum[i] ANDNOT cum[i-1]``, so a
range index can also serve the analyses of :mod:`repro.metrics`; the test
suite checks that recovery is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_op_many, logical_accumulate
from repro.bitmap.ops import logical_not
from repro.bitmap.wah import WAHBitVector


@dataclass
class RangeBitmapIndex:
    """Cumulative ("range-encoded") bitmap index over one variable.

    ``cumulative[i]`` has a 1 at every position whose value lies in bins
    ``0..i``; ``cumulative[-1]`` is all ones by construction.
    """

    binning: Binning
    cumulative: list[WAHBitVector]
    n_elements: int
    _counts: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.cumulative) != self.binning.n_bins:
            raise ValueError(
                f"{len(self.cumulative)} vectors != {self.binning.n_bins} bins"
            )
        for v in self.cumulative:
            if v.n_bits != self.n_elements:
                raise ValueError("cumulative vector length mismatch")

    # ------------------------------------------------------------ building
    @classmethod
    def build(cls, data: np.ndarray, binning: Binning) -> "RangeBitmapIndex":
        """Build directly from data (one vectorised cumulative pass)."""
        flat = np.asarray(data).ravel()
        ids = binning.assign_checked(flat)
        vectors = [
            WAHBitVector.from_bools(ids <= i) for i in range(binning.n_bins)
        ]
        return cls(binning, vectors, flat.size)

    @classmethod
    def from_equality_index(cls, index: BitmapIndex) -> "RangeBitmapIndex":
        """Convert an equality-encoded index by cumulative OR.

        Fused: one chunked ``bitwise_or.accumulate`` sweep over the
        decoded bins (:func:`~repro.bitmap.kernels.logical_accumulate`)
        produces every cumulative vector at once -- bit-identical to the
        old one-OR-at-a-time loop, without its k - 1 intermediate
        decode/encode round trips.
        """
        vectors = (
            logical_accumulate(index.bitvectors, "or")
            if index.bitvectors
            else []
        )
        return cls(index.binning, vectors, index.n_elements)

    # ------------------------------------------------------------- queries
    @property
    def n_bins(self) -> int:
        return self.binning.n_bins

    def leq_bin(self, bin_id: int) -> WAHBitVector:
        """Elements with value in bins ``0..bin_id`` -- one stored vector."""
        if not 0 <= bin_id < self.n_bins:
            raise IndexError(bin_id)
        return self.cumulative[bin_id]

    def gt_bin(self, bin_id: int) -> WAHBitVector:
        """Elements with value strictly above bin ``bin_id``."""
        return logical_not(self.leq_bin(bin_id))

    def bin_range(self, lo_bin: int, hi_bin: int) -> WAHBitVector:
        """Elements in bins ``lo_bin..hi_bin`` -- at most one ANDNOT."""
        if lo_bin > hi_bin:
            raise ValueError(f"empty bin range [{lo_bin}, {hi_bin}]")
        upper = self.leq_bin(hi_bin)
        if lo_bin == 0:
            return upper
        return auto_op_many([upper, self.cumulative[lo_bin - 1]], "andnot")

    def equality_bin(self, bin_id: int) -> WAHBitVector:
        """Recover an equality-encoded bin: ``cum[i] ANDNOT cum[i-1]``."""
        return self.bin_range(bin_id, bin_id)

    def bin_counts(self) -> np.ndarray:
        """Per-bin counts via cumulative popcount differences."""
        if self._counts is None:
            cum = np.asarray([v.count() for v in self.cumulative], dtype=np.int64)
            self._counts = np.diff(np.concatenate([[0], cum]))
        return self._counts

    def query_value_range(self, lo: float, hi: float) -> WAHBitVector:
        """Bin-granular value range query (same semantics as BitmapIndex)."""
        from repro.bitmap.index import _bin_overlaps

        hits = [
            b for b in range(self.n_bins) if _bin_overlaps(self.binning, b, lo, hi)
        ]
        if not hits:
            return WAHBitVector.zeros(self.n_elements)
        return self.bin_range(min(hits), max(hits))

    # ------------------------------------------------------------ geometry
    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.cumulative)

    def to_equality_index(self) -> BitmapIndex:
        """Materialise the equivalent equality-encoded index."""
        vectors = [self.equality_bin(b) for b in range(self.n_bins)]
        return BitmapIndex(self.binning, vectors, self.n_elements)

    def check_invariants(self) -> None:
        """Cumulative vectors are monotone and end at all-ones."""
        prev = 0
        for v in self.cumulative:
            v.check_invariants()
            count = v.count()
            assert count >= prev, "cumulative counts must be non-decreasing"
            prev = count
        assert prev == self.n_elements, "last cumulative vector must be all ones"

    def __repr__(self) -> str:
        return (
            f"RangeBitmapIndex(n_elements={self.n_elements}, "
            f"n_bins={self.n_bins}, nbytes={self.nbytes})"
        )
