"""Correlation mining between two variables -- Algorithm 2 of the paper.

Given bitmap indices of two variables over the same (Z-ordered) element
set, find the *value subsets* (bin pairs) and *spatial subsets* (Z-order
units within a bin pair) with high mutual information:

1. **joint step** -- for every bitvector pair ``(A_i, B_j)`` compute the
   popcount of ``A_i AND B_j``: the whole joint histogram at once
   (:func:`~repro.metrics.bitmap_metrics.joint_counts`);
2. **value pruning** -- evaluate the pairwise MI contribution
   ``I(A_i; B_j)`` (Equation 7 cell term); discard pairs below
   ``value_threshold`` (the paper's THRESHOLD1 / T);
3. **spatial step** -- for surviving pairs, partition the joint bitvector
   into ``unit_bits``-sized spatial units and keep units whose local MI
   exceeds ``spatial_threshold`` (THRESHOLD2 / T').

The per-unit MI uses the unit-local joint/marginal counts, i.e. it treats
the unit as its own region -- exactly what "calculate the mutual
information within each spatial unit" prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_op_many
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, prefers_runmerge
from repro.bitmap.units import (
    n_units,
    unit_popcounts,
    unit_popcounts_groups,
    unit_sizes,
)
from repro.bitmap.wah import WAHBitVector, compress_groups
from repro.metrics.bitmap_metrics import check_aligned, joint_counts
from repro.metrics.entropy import mi_term_from_cell


@dataclass(frozen=True)
class ValueSubsetHit:
    """A correlated value subset: bin ``a_bin`` of A with bin ``b_bin`` of B."""

    a_bin: int
    b_bin: int
    joint_count: int
    mutual_information: float


@dataclass(frozen=True)
class SpatialSubsetHit:
    """A correlated spatial unit inside a correlated value subset."""

    a_bin: int
    b_bin: int
    unit: int
    joint_count: int
    mutual_information: float


@dataclass
class MiningResult:
    """Everything Algorithm 2 reports, plus work counters for benchmarks."""

    value_hits: list[ValueSubsetHit] = field(default_factory=list)
    spatial_hits: list[SpatialSubsetHit] = field(default_factory=list)
    n_pairs_evaluated: int = 0
    n_pairs_survived: int = 0
    n_units_evaluated: int = 0

    def spatial_units(self) -> set[int]:
        """Distinct spatial units flagged by any bin pair."""
        return {h.unit for h in self.spatial_hits}

    def __repr__(self) -> str:
        return (
            f"MiningResult(value_hits={len(self.value_hits)}, "
            f"spatial_hits={len(self.spatial_hits)}, "
            f"pairs={self.n_pairs_survived}/{self.n_pairs_evaluated})"
        )


def _unit_mi(
    joint_u: np.ndarray,
    a_u: np.ndarray,
    b_u: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Vectorised per-unit MI cell term (unit-local distributions)."""
    out = np.zeros(joint_u.size, dtype=np.float64)
    ok = (joint_u > 0) & (sizes > 0)
    if not np.any(ok):
        return out
    p_ab = joint_u[ok] / sizes[ok]
    p_a = a_u[ok] / sizes[ok]
    p_b = b_u[ok] / sizes[ok]
    out[ok] = p_ab * np.log2(p_ab / (p_a * p_b))
    return out


def correlation_mining(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    *,
    value_threshold: float,
    spatial_threshold: float,
    unit_bits: int,
) -> MiningResult:
    """Algorithm 2: mine correlated value and spatial subsets via bitmaps.

    The m x n joint step is one :func:`~repro.metrics.bitmap_metrics.joint_counts`
    matrix (a ``bincount`` over two bin-id columns when both indices
    compress below :data:`~repro.bitmap.ops.STREAMING_COUNT_RATIO_THRESHOLD`,
    row ops over the memoised group matrices otherwise).  Only pairs that
    survive value pruning build their joint bitvector for the spatial
    step: a compressed-domain AND
    (``repro.bitmap.kernels.auto_op_many``) on the first route, a row AND
    of the group matrices on the second.
    """
    check_aligned(index_a, index_b)
    n = index_a.n_elements
    total_units = n_units(n, unit_bits)
    sizes = unit_sizes(n, unit_bits)
    result = MiningResult()

    compressed = prefers_runmerge((index_a, index_b), STREAMING_COUNT_RATIO_THRESHOLD)
    group_aligned = unit_bits % 31 == 0
    joint = joint_counts(index_a, index_b)  # Alg. 2 line 3, every pair at once
    if not compressed:  # the group matrices joint_counts just used
        ga = index_a.group_matrix()
        gb = index_b.group_matrix()

    # Per-unit marginals of every bin, computed once (reused across pairs).
    a_units = [unit_popcounts(v, unit_bits) for v in index_a.bitvectors]
    b_units = [unit_popcounts(v, unit_bits) for v in index_b.bitvectors]
    counts_a = index_a.bin_counts()
    counts_b = index_b.bin_counts()

    for i in range(index_a.n_bins):  # Alg. 2 line 1
        if counts_a[i] == 0:
            result.n_pairs_evaluated += index_b.n_bins
            continue
        for j in range(index_b.n_bins):  # line 2
            result.n_pairs_evaluated += 1
            if counts_b[j] == 0:
                continue
            jc = int(joint[i, j])
            value_mi = mi_term_from_cell(jc, int(counts_a[i]), int(counts_b[j]), n)
            if value_mi < value_threshold:  # line 5 pruning
                continue
            result.n_pairs_survived += 1
            result.value_hits.append(ValueSubsetHit(i, j, jc, value_mi))
            # lines 6-11: per-spatial-unit MI over the joint bitvector,
            # materialised only for survivors.
            if compressed:
                pair = (index_a.bitvectors[i], index_b.bitvectors[j])
                joint_u = unit_popcounts(auto_op_many(pair, "and"), unit_bits)
            else:
                joint_groups = ga[i] & gb[j]
                if group_aligned:
                    joint_u = unit_popcounts_groups(joint_groups, n, unit_bits)
                else:
                    joint_u = unit_popcounts(
                        WAHBitVector(compress_groups(joint_groups), n), unit_bits
                    )
            result.n_units_evaluated += total_units
            unit_mi = _unit_mi(joint_u, a_units[i], b_units[j], sizes)
            for unit in np.flatnonzero(unit_mi >= spatial_threshold):
                result.spatial_hits.append(
                    SpatialSubsetHit(
                        i, j, int(unit), int(joint_u[unit]), float(unit_mi[unit])
                    )
                )
    return result


def suggest_value_threshold(
    index_a: BitmapIndex, index_b: BitmapIndex, unit_bits: int
) -> float:
    """The paper's rule for T: "even if all the 1-bits of this joint
    bitvector is located within the same spatial unit, we still consider it
    as uncorrelated".

    A joint bitvector whose 1-bits all land in one unit of ``unit_bits``
    elements has joint count <= unit_bits; its largest possible global MI
    contribution (joint count = unit_bits, marginals equal to it) is
    ``(u/n) * log2(n/u)``.  Anything at or below that is noise.
    """
    n = index_a.n_elements
    if n <= unit_bits:
        return 0.0
    u = float(unit_bits)
    return (u / n) * np.log2(n / u)
