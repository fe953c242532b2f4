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

At equal binning every value equals its full-data counterpart exactly
(property-tested) -- the paper's central "no accuracy loss" claim.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_count_many
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, prefers_runmerge
from repro.metrics.emd import emd_from_counts, emd_from_diffs
from repro.metrics.entropy import (
    conditional_entropy_from_joint,
    mutual_information_from_joint,
    shannon_entropy_from_counts,
)
from repro.util.bits import popcount_u32


def _check_aligned(index_a: BitmapIndex, index_b: BitmapIndex) -> None:
    if index_a.n_elements != index_b.n_elements:
        raise ValueError(
            "indices cover different element sets: "
            f"{index_a.n_elements} != {index_b.n_elements}"
        )


def _group_matrix(index: BitmapIndex) -> np.ndarray:
    """The index's memoised (n_bins, n_groups) decompressed matrix.

    Delegates to :meth:`BitmapIndex.group_matrix`, which builds it at most
    once per index -- the dense-path working set shared by every analysis.
    """
    return index.group_matrix()


def _joint_counts_dense(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Dense route: row-wise vectorised ANDs over the group matrices."""
    ga = _group_matrix(index_a)
    gb = _group_matrix(index_b)
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


def _joint_counts_streaming(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Compressed route: m x n pairwise ladder counts, no group matrix."""
    out = np.zeros((index_a.n_bins, index_b.n_bins), dtype=np.int64)
    counts_a = index_a.bin_counts()
    counts_b = index_b.bin_counts()
    nonempty_j = np.flatnonzero(counts_b)
    for i in range(index_a.n_bins):
        if counts_a[i] == 0:
            continue
        va = index_a.bitvectors[i]
        for j in nonempty_j:
            out[i, j] = auto_count_many((va, index_b.bitvectors[j]), "and")
    return out


def joint_counts(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Joint histogram ``J[i, j] = popcount(A_i AND B_j)`` -- Figure 5.

    The bitmap replacement for scanning both arrays to build the joint
    value distribution, dispatched by density: when both indices compress
    well (:func:`~repro.bitmap.ops.prefers_runmerge` at the k = 2
    threshold) the ``m x n`` ANDs are ladder counts
    (``repro.bitmap.kernels.auto_count_many``) that never build a group
    matrix; otherwise each is a vectorised row op over the memoised group
    matrices.  Both routes return identical counts, for any codec.
    """
    _check_aligned(index_a, index_b)
    if prefers_runmerge((index_a, index_b), STREAMING_COUNT_RATIO_THRESHOLD):
        return _joint_counts_streaming(index_a, index_b)
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
    the paper requires for time-steps under comparison.
    """
    _check_aligned(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    return emd_from_counts(index_a.bin_counts(), index_b.bin_counts())


def spatial_bin_differences_bitmap(
    index_a: BitmapIndex, index_b: BitmapIndex
) -> np.ndarray:
    """Per-bin ``popcount(A_j XOR B_j)`` -- Figure 4's m XOR operations.

    Density-dispatched like :func:`joint_counts`: compressible index pairs
    run the m XORs as ladder counts; dense pairs XOR the memoised group
    matrices row-wise.
    """
    _check_aligned(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    if prefers_runmerge((index_a, index_b), STREAMING_COUNT_RATIO_THRESHOLD):
        return np.asarray(
            [
                auto_count_many(pair, "xor")
                for pair in zip(index_a.bitvectors, index_b.bitvectors)
            ],
            dtype=np.int64,
        )
    ga = _group_matrix(index_a)
    gb = _group_matrix(index_b)
    return popcount_u32(ga ^ gb).sum(axis=1, dtype=np.int64)


def emd_spatial_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Spatial EMD from XOR popcounts (Figure 4), Equation 3 accumulation."""
    return emd_from_diffs(spatial_bin_differences_bitmap(index_a, index_b))
