"""Bitmap data spatial join -- one of the §2.2 prior-work analyses.

"In our previous work, we demonstrated that ... data spatial join ... can
be supported using bitmaps without touching the original dataset" [30].

A *spatial join* here pairs two variables over the same grid and asks:
*where* do value predicates on both hold simultaneously?  With bitmaps the
answer is one compressed AND per predicate pair, optionally aggregated
per Z-order spatial unit:

* :func:`join_mask` -- the element mask satisfying both predicates;
* :func:`join_count` -- its cardinality (count-only fast path);
* :func:`join_units` -- per-spatial-unit match counts, the "which regions"
  answer correlation mining builds on;
* :func:`join_pairs_table` -- the full predicate-pair contingency table
  (every bin pair's match count), useful for joint heat maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.queries import ValueSubset, value_subset_mask
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.units import unit_popcounts
from repro.bitmap.wah import WAHBitVector
from repro.metrics.bitmap_metrics import joint_counts


def _check(index_a: BitmapIndex, index_b: BitmapIndex) -> None:
    if index_a.n_elements != index_b.n_elements:
        raise ValueError(
            "spatial join needs position-aligned variables: "
            f"{index_a.n_elements} != {index_b.n_elements} elements"
        )


def join_mask(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    predicate_a: ValueSubset,
    predicate_b: ValueSubset,
) -> WAHBitVector:
    """Positions where ``A in predicate_a`` AND ``B in predicate_b``."""
    _check(index_a, index_b)
    mask_a = value_subset_mask(index_a, predicate_a)
    mask_b = value_subset_mask(index_b, predicate_b)
    return auto_op_many((mask_a, mask_b), "and")


def join_count(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    predicate_a: ValueSubset,
    predicate_b: ValueSubset,
) -> int:
    """Cardinality of the join without materialising the mask."""
    _check(index_a, index_b)
    mask_a = value_subset_mask(index_a, predicate_a)
    mask_b = value_subset_mask(index_b, predicate_b)
    return auto_count_many((mask_a, mask_b), "and")


@dataclass(frozen=True)
class JoinUnit:
    """One spatial unit's join statistics."""

    unit: int
    matches: int
    unit_cells: int

    @property
    def density(self) -> float:
        return self.matches / self.unit_cells if self.unit_cells else 0.0


def join_units(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    predicate_a: ValueSubset,
    predicate_b: ValueSubset,
    *,
    unit_bits: int,
    min_matches: int = 1,
) -> list[JoinUnit]:
    """Per-spatial-unit match counts, densest units first."""
    mask = join_mask(index_a, index_b, predicate_a, predicate_b)
    counts = unit_popcounts(mask, unit_bits)
    from repro.bitmap.units import unit_sizes

    sizes = unit_sizes(mask.n_bits, unit_bits)
    units = [
        JoinUnit(int(u), int(counts[u]), int(sizes[u]))
        for u in np.flatnonzero(counts >= min_matches)
    ]
    units.sort(key=lambda j: (-j.matches, j.unit))
    return units


def join_pairs_table(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Match counts for *every* (bin_a, bin_b) predicate pair.

    This is exactly the joint histogram of §3.2 -- exposed under its join
    name because that is how the earlier work consumed it.
    """
    _check(index_a, index_b)
    return joint_counts(index_a, index_b)
