"""Approximate aggregation from bitmaps (prior-work substrate, §2.2/§4).

The paper lists "approximate data aggregation" among the analyses its
earlier work [38] supports purely from bitmaps.  With bin popcounts and
bin value ranges, aggregates are computable without raw data, with
deterministic error bounds set by the bin widths:

* COUNT -- exact (popcounts);
* SUM / AVG -- approximate, using bin midpoints as representatives;
  the worst-case error is half a bin width per element;
* MIN / MAX -- bounded to the first/last non-empty bin's range.

All aggregators optionally restrict to a mask bitvector (subset queries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_count_many
from repro.bitmap.wah import WAHBitVector


@dataclass(frozen=True)
class ApproximateValue:
    """An estimate with a hard (not statistical) error interval."""

    estimate: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.estimate <= self.hi:
            raise ValueError(
                f"estimate {self.estimate} outside bound [{self.lo}, {self.hi}]"
            )

    @property
    def max_error(self) -> float:
        return max(self.estimate - self.lo, self.hi - self.estimate)


def _bin_geometry(index: BitmapIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lows, highs, midpoints) of every bin's value range."""
    edges = getattr(index.binning, "edges", None)
    if edges is not None:
        lows = np.asarray(edges[:-1], dtype=np.float64)
        highs = np.asarray(edges[1:], dtype=np.float64)
    else:
        values = getattr(index.binning, "values", None)
        if values is None:
            raise TypeError(
                f"binning {type(index.binning).__name__} exposes no edges/values"
            )
        lows = highs = np.asarray(values, dtype=np.float64)
    return lows, highs, (lows + highs) / 2.0


def _masked_counts(index: BitmapIndex, mask: WAHBitVector | None) -> np.ndarray:
    if mask is None:
        return index.bin_counts()
    return np.asarray(
        [auto_count_many((v, mask), "and") for v in index.bitvectors],
        dtype=np.int64,
    )


def approximate_count(index: BitmapIndex, mask: WAHBitVector | None = None) -> int:
    """Element count (exact -- counting needs no value information)."""
    return int(_masked_counts(index, mask).sum())


def approximate_sum(
    index: BitmapIndex, mask: WAHBitVector | None = None
) -> ApproximateValue:
    """Sum estimate from bin midpoints, with hard lo/hi bounds."""
    counts = _masked_counts(index, mask).astype(np.float64)
    lows, highs, mids = _bin_geometry(index)
    return ApproximateValue(
        float(counts @ mids), float(counts @ lows), float(counts @ highs)
    )


def approximate_mean(
    index: BitmapIndex, mask: WAHBitVector | None = None
) -> ApproximateValue:
    """Mean estimate; zero-count subsets return a zero-width interval at 0."""
    counts = _masked_counts(index, mask).astype(np.float64)
    n = counts.sum()
    if n == 0:
        return ApproximateValue(0.0, 0.0, 0.0)
    s = approximate_sum(index, mask)
    return ApproximateValue(s.estimate / n, s.lo / n, s.hi / n)


def approximate_min(
    index: BitmapIndex, mask: WAHBitVector | None = None
) -> ApproximateValue:
    """Min bounded by the first non-empty bin's value range."""
    counts = _masked_counts(index, mask)
    nz = np.flatnonzero(counts)
    if nz.size == 0:
        raise ValueError("cannot take min of an empty subset")
    lows, highs, mids = _bin_geometry(index)
    b = int(nz[0])
    return ApproximateValue(float(mids[b]), float(lows[b]), float(highs[b]))


def approximate_max(
    index: BitmapIndex, mask: WAHBitVector | None = None
) -> ApproximateValue:
    """Max bounded by the last non-empty bin's value range."""
    counts = _masked_counts(index, mask)
    nz = np.flatnonzero(counts)
    if nz.size == 0:
        raise ValueError("cannot take max of an empty subset")
    lows, highs, mids = _bin_geometry(index)
    b = int(nz[-1])
    return ApproximateValue(float(mids[b]), float(lows[b]), float(highs[b]))
