"""Multi-level top-down value mining -- §4.2's second optimisation.

"Because usually bitmaps are constructed at multiple levels ... we begin
with high-level bitmaps to quickly filter the low correlated value subsets.
Then we only look at the low-level bitvectors belonging to the
high-correlated bitvectors of high-level bitmaps."

The justification is Equation 7's monotonicity claim for value subsets
(top-down pruning is safe for values, while spatial subsets must be mined
bottom-up -- Equation 8's counter-example -- which single-level Algorithm 2
already does by evaluating units directly).

:func:`correlation_mining_multilevel` walks the top level's bin pairs, and
descends only into children of pairs whose high-level MI contribution
clears ``descend_threshold``; the low-level survivors then run the normal
value+spatial evaluation.  The work saved is reported in
:class:`MultiLevelStats` for the pruning-ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitmap.index import MultiLevelBitmapIndex
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.units import n_units, unit_popcounts, unit_sizes
from repro.metrics.entropy import mi_term_from_cell
from repro.mining.correlation import (
    MiningResult,
    SpatialSubsetHit,
    ValueSubsetHit,
    _unit_mi,
)


@dataclass
class MultiLevelStats:
    """Work accounting of the top-down walk."""

    high_pairs_evaluated: int = 0
    high_pairs_descended: int = 0
    low_pairs_evaluated: int = 0
    low_pairs_skipped: int = 0


def correlation_mining_multilevel(
    ml_a: MultiLevelBitmapIndex,
    ml_b: MultiLevelBitmapIndex,
    *,
    value_threshold: float,
    spatial_threshold: float,
    unit_bits: int,
    descend_threshold: float | None = None,
) -> tuple[MiningResult, MultiLevelStats]:
    """Two-level top-down mining (top level -> low level -> spatial units).

    ``descend_threshold`` defaults to ``value_threshold``: per Equation 7 a
    parent pair's MI contribution upper-bounds (under the paper's model)
    any child pair's, so a parent below the value threshold cannot contain
    an interesting child.
    """
    if ml_a.n_levels < 2 or ml_b.n_levels < 2:
        raise ValueError("multi-level mining needs at least two index levels")
    if descend_threshold is None:
        descend_threshold = value_threshold

    low_a, low_b = ml_a.low, ml_b.low
    high_a, high_b = ml_a.levels[-1], ml_b.levels[-1]
    level_a, level_b = ml_a.n_levels - 1, ml_b.n_levels - 1
    n = low_a.n_elements
    if n != low_b.n_elements:
        raise ValueError("indices cover different element sets")

    sizes = unit_sizes(n, unit_bits)
    total_units = n_units(n, unit_bits)
    counts_low_a = low_a.bin_counts()
    counts_low_b = low_b.bin_counts()
    counts_high_a = high_a.bin_counts()
    counts_high_b = high_b.bin_counts()

    result = MiningResult()
    stats = MultiLevelStats()
    a_units_cache: dict[int, object] = {}
    b_units_cache: dict[int, object] = {}

    def _children(ml: MultiLevelBitmapIndex, level: int, bin_id: int) -> list[int]:
        """Resolve a top-level bin down to low-level bin ids."""
        ids = [bin_id]
        for lvl in range(level, 0, -1):
            ids = [c for b in ids for c in ml.children(lvl, b)]
        return ids

    for hi in range(high_a.n_bins):
        for hj in range(high_b.n_bins):
            stats.high_pairs_evaluated += 1
            # Density-dispatched count: high-level bins are usually dense
            # (unions of children), low-level ones sparse -- the ladder
            # picks the run merge only when both compress.
            jc = auto_count_many((high_a.bitvectors[hi], high_b.bitvectors[hj]), "and")
            parent_mi = mi_term_from_cell(
                jc, int(counts_high_a[hi]), int(counts_high_b[hj]), n
            )
            children_a = _children(ml_a, level_a, hi)
            children_b = _children(ml_b, level_b, hj)
            n_child_pairs = len(children_a) * len(children_b)
            if parent_mi < descend_threshold:
                stats.low_pairs_skipped += n_child_pairs
                continue
            stats.high_pairs_descended += 1
            for i in children_a:
                if counts_low_a[i] == 0:
                    stats.low_pairs_evaluated += len(children_b)
                    continue
                for j in children_b:
                    stats.low_pairs_evaluated += 1
                    result.n_pairs_evaluated += 1
                    if counts_low_b[j] == 0:
                        continue
                    pair = (low_a.bitvectors[i], low_b.bitvectors[j])
                    cnt = auto_count_many(pair, "and")
                    value_mi = mi_term_from_cell(
                        cnt, int(counts_low_a[i]), int(counts_low_b[j]), n
                    )
                    if value_mi < value_threshold:
                        continue
                    # Only survivors materialise their joint bitvector.
                    joint = auto_op_many(pair, "and")
                    result.n_pairs_survived += 1
                    result.value_hits.append(ValueSubsetHit(i, j, cnt, value_mi))
                    if i not in a_units_cache:
                        a_units_cache[i] = unit_popcounts(low_a.bitvectors[i], unit_bits)
                    if j not in b_units_cache:
                        b_units_cache[j] = unit_popcounts(low_b.bitvectors[j], unit_bits)
                    joint_u = unit_popcounts(joint, unit_bits)
                    result.n_units_evaluated += total_units
                    unit_mi = _unit_mi(
                        joint_u, a_units_cache[i], b_units_cache[j], sizes
                    )
                    for unit in [int(u) for u in joint_u.nonzero()[0]]:
                        if unit_mi[unit] >= spatial_threshold:
                            result.spatial_hits.append(
                                SpatialSubsetHit(
                                    i, j, unit, int(joint_u[unit]), float(unit_mi[unit])
                                )
                            )
    return result, stats
