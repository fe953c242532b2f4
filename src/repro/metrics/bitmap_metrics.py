"""Analysis metrics computed *purely from bitmaps* -- §3.2 of the paper.

No function in this module ever touches raw data; everything is popcounts
and compressed bitwise operations on :class:`~repro.bitmap.index.BitmapIndex`
objects whose raw arrays have long been discarded:

* individual value distributions -- each bin's popcount (free at build time);
* joint value distributions -- ``popcount(AND)`` over bin pairs;
* count-based EMD -- differences of bin popcounts;
* spatial EMD -- ``popcount(XOR)`` per aligned bin pair;
* Shannon entropy / mutual information / conditional entropy -- the shared
  distribution-level formulas of :mod:`repro.metrics.entropy` applied to
  bitmap-derived counts.

The joint kernels take one of two routes, chosen by
:func:`~repro.bitmap.ops.prefers_runmerge` at the k = 2 count threshold.
When both indices compress well, each index is decoded once into its
bin-id column (:meth:`~repro.bitmap.index.BitmapIndex.bin_ids` -- the bins
partition the rows, so an index *is* a run-length-encoded column) and the
whole ``m x n`` histogram is one ``np.bincount``.  Otherwise the pairwise
ANDs/XORs are row ops over the memoised group matrices.

At equal binning every value equals its full-data counterpart exactly
(property-tested) -- the paper's central "no accuracy loss" claim.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, prefers_runmerge
from repro.bitmap.ordering import orderings_compatible
from repro.metrics.emd import emd_from_counts, emd_from_diffs
from repro.metrics.entropy import (
    conditional_entropy_from_joint,
    mutual_information_from_joint,
    shannon_entropy_from_counts,
)
from repro.util.bits import popcount_u32


def _check_same_elements(index_a: BitmapIndex, index_b: BitmapIndex) -> None:
    if index_a.n_elements != index_b.n_elements:
        raise ValueError(
            "indices cover different element sets: "
            f"{index_a.n_elements} != {index_b.n_elements}"
        )


def check_aligned(index_a: BitmapIndex, index_b: BitmapIndex) -> None:
    """Raise ``ValueError`` unless bit ``i`` of both indices names the same
    row: equal element counts and compatible row orderings
    (:func:`~repro.bitmap.ordering.orderings_compatible`).

    Every pairwise analysis that combines bits across two indices (joint
    histograms, XOR differences, mining) needs this; bin counts alone are
    ordering-invariant and need only the element check.
    """
    _check_same_elements(index_a, index_b)
    a, b = index_a.ordering, index_b.ordering
    if a is not b and not orderings_compatible(a, b):
        raise ValueError(
            "indices are stored under different row orderings; "
            "bitwise results would not be row-aligned"
        )


def _joint_counts_column(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Bin-id route: ``J[i, j]`` counts the rows whose two ids are ``(i, j)``."""
    m, n = index_a.n_bins, index_b.n_bins
    cells = index_a.bin_ids().astype(np.int64) * n + index_b.bin_ids()
    return np.bincount(cells, minlength=m * n).reshape(m, n)


def _joint_counts_dense(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Group-matrix route: row-wise vectorised ANDs over the group matrices."""
    ga = index_a.group_matrix()
    gb = index_b.group_matrix()
    out = np.zeros((index_a.n_bins, index_b.n_bins), dtype=np.int64)
    counts_b = index_b.bin_counts()
    nonempty_b = counts_b > 0
    for i in range(index_a.n_bins):
        row = ga[i]
        # Sparsity cut: bin i only intersects B inside its own nonzero
        # groups (each element lives in exactly one bin, so rows are
        # sparse whenever bins outnumber a handful) -- the same effect WAH
        # fill-skipping gives the paper's word-level ANDs.
        cols = np.flatnonzero(row)
        if cols.size == 0:
            continue
        if cols.size < row.size // 2:
            sub = row[cols][None, :] & gb[:, cols][nonempty_b]
        else:
            sub = row[None, :] & gb[nonempty_b]
        out[i, nonempty_b] = popcount_u32(sub).sum(axis=1, dtype=np.int64)
    return out


def joint_counts(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Joint histogram ``J[i, j] = popcount(A_i AND B_j)`` -- Figure 5.

    The bitmap replacement for scanning both arrays to build the joint
    value distribution, dispatched by density: when both indices compress
    well (:func:`~repro.bitmap.ops.prefers_runmerge` at the k = 2
    threshold) it is one ``np.bincount`` over the two recovered bin-id
    columns (``J[i, j]`` counts the rows whose ids are ``(i, j)``), with no
    per-pair work at all; otherwise each row of ``J`` is a vectorised AND
    over the memoised group matrices.  Both routes return identical
    counts.
    """
    check_aligned(index_a, index_b)
    if prefers_runmerge((index_a, index_b), STREAMING_COUNT_RATIO_THRESHOLD):
        return _joint_counts_column(index_a, index_b)
    return _joint_counts_dense(index_a, index_b)


def shannon_entropy_bitmap(index: BitmapIndex) -> float:
    """Equation 4 from bin popcounts (the free value distribution)."""
    return shannon_entropy_from_counts(index.bin_counts())


def mutual_information_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Equation 5 from the AND-derived joint distribution."""
    return mutual_information_from_joint(joint_counts(index_a, index_b))


def conditional_entropy_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Equation 6, ``H(A|B)``, computed entirely from bitmaps (Figure 5)."""
    return conditional_entropy_from_joint(joint_counts(index_a, index_b))


def emd_count_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Count-based EMD: per-bin popcount differences, then Equation 3.

    Requires both indices to share one binning scale (same bin count), as
    the paper requires for time-steps under comparison.  Bin counts are
    ordering-invariant, so the two indices may differ in row ordering.
    """
    _check_same_elements(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    return emd_from_counts(index_a.bin_counts(), index_b.bin_counts())


def spatial_bin_differences_bitmap(
    index_a: BitmapIndex, index_b: BitmapIndex
) -> np.ndarray:
    """Per-bin ``popcount(A_j XOR B_j)`` -- Figure 4's m XOR operations.

    Density-dispatched like :func:`joint_counts`.  On the bin-id route a
    row is in ``A_j XOR B_j`` iff exactly one side puts it in bin ``j``, so
    the count is ``|A_j| + |B_j| - 2 |A_j AND B_j|`` with the AND counts
    read off the diagonal (rows whose two ids agree); dense pairs XOR the
    memoised group matrices row-wise.
    """
    check_aligned(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    if prefers_runmerge((index_a, index_b), STREAMING_COUNT_RATIO_THRESHOLD):
        m = index_a.n_bins
        ids_a, ids_b = index_a.bin_ids(), index_b.bin_ids()
        diag = np.bincount(ids_a[ids_a == ids_b], minlength=m)
        counts_a = np.bincount(ids_a, minlength=m)
        counts_b = np.bincount(ids_b, minlength=m)
        return counts_a + counts_b - 2 * diag
    ga = index_a.group_matrix()
    gb = index_b.group_matrix()
    return popcount_u32(ga ^ gb).sum(axis=1, dtype=np.int64)


def emd_spatial_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Spatial EMD from XOR popcounts (Figure 4), Equation 3 accumulation."""
    return emd_from_diffs(spatial_bin_differences_bitmap(index_a, index_b))
