"""Value/spatial subset queries over bitmap indices (§4.1's substrate).

The authors' earlier framework [30] let users submit SQL-ish queries
specifying *value-based* or *dimension-based* subsets and computed
correlations over them.  Correlation mining builds on that machinery; this
module provides it:

* :class:`ValueSubset` -- "WHERE lo <= var <= hi";
* :class:`SpatialSubset` -- a box in grid coordinates (mapped through the
  Z-order layout when one is supplied) or a flat position range;
* :func:`subset_mask` -- compile a subset to a :class:`WAHBitVector`;
* :func:`correlation_query` -- mutual information of two variables
  restricted to a subset, computed from bitmaps only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_op_many
from repro.bitmap.wah import WAHBitVector
from repro.bitmap.zorder import ZOrderLayout
from repro.metrics.bitmap_metrics import check_aligned
from repro.metrics.entropy import mutual_information_from_joint
from repro.util.bits import popcount_u32, last_group_mask


@dataclass(frozen=True)
class ValueSubset:
    """Elements whose value falls in [lo, hi] (bin-granular resolution)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"need hi >= lo, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SpatialSubset:
    """A spatial box (inclusive lo, exclusive hi per dimension)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimensionality")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo} hi={self.hi}")


@dataclass(frozen=True)
class FlatRange:
    """A contiguous position range [start, stop) in the element order."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"bad range [{self.start}, {self.stop})")


def value_subset_mask(index: BitmapIndex, subset: ValueSubset) -> WAHBitVector:
    """Compile a value subset against an index (OR of overlapping bins)."""
    return index.query_value_range(subset.lo, subset.hi)


def spatial_subset_mask(
    n_elements: int,
    subset: SpatialSubset | FlatRange,
    layout: ZOrderLayout | None = None,
) -> WAHBitVector:
    """Compile a spatial subset to a position mask.

    For :class:`SpatialSubset`, a ``layout`` tells us how grid coordinates
    map to bit positions (Z-order); without one the grid is assumed
    C-order-flattened and a layout is required.
    """
    if isinstance(subset, FlatRange):
        if subset.stop > n_elements:
            raise ValueError(f"range [{subset.start},{subset.stop}) exceeds {n_elements}")
        bits = np.zeros(n_elements, dtype=bool)
        bits[subset.start : subset.stop] = True
        return WAHBitVector.from_bools(bits)
    if layout is None:
        raise ValueError("SpatialSubset needs a ZOrderLayout to resolve positions")
    if layout.n_cells != n_elements:
        raise ValueError(
            f"layout covers {layout.n_cells} cells, index covers {n_elements}"
        )
    grid_mask = np.zeros(layout.shape, dtype=bool)
    grid_mask[tuple(slice(l, h) for l, h in zip(subset.lo, subset.hi))] = True
    return WAHBitVector.from_bools(layout.flatten(grid_mask))


def restricted_joint_counts(
    index_a: BitmapIndex, index_b: BitmapIndex, mask: WAHBitVector
) -> np.ndarray:
    """Joint histogram of A x B restricted to ``mask`` -- bitmaps only.

    ``mask`` lives in the indices' row space, which must be one space
    (:func:`~repro.metrics.bitmap_metrics.check_aligned`).
    """
    check_aligned(index_a, index_b)
    if mask.n_bits != index_a.n_elements:
        raise ValueError("index/mask element sets differ")
    mg = mask.to_groups()
    if mg.size and index_a.n_elements:
        mg = mg.copy()
        mg[-1] &= last_group_mask(index_a.n_elements)
    # Fused decode: each side's bins live in one stacked matrix (the
    # memoised group_matrix, built via repro.bitmap.kernels.stack_groups),
    # then row ops + hardware popcount.
    ga = index_a.group_matrix() & mg
    gb = index_b.group_matrix()
    out = np.empty((index_a.n_bins, index_b.n_bins), dtype=np.int64)
    for i in range(index_a.n_bins):
        out[i, :] = popcount_u32(ga[i][None, :] & gb).sum(axis=1, dtype=np.int64)
    return out


def correlation_query(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    *,
    value_a: ValueSubset | None = None,
    value_b: ValueSubset | None = None,
    region: SpatialSubset | FlatRange | None = None,
    layout: ZOrderLayout | None = None,
) -> float:
    """Mutual information of A and B over the requested subset.

    Value subsets restrict which elements count at all (an element must
    satisfy *both* value predicates); the region restricts positions.  The
    restricted joint histogram then feeds Equation 5.
    """
    n = index_a.n_elements
    masks = []
    if value_a is not None:
        masks.append(value_subset_mask(index_a, value_a))
    if value_b is not None:
        masks.append(value_subset_mask(index_b, value_b))
    if region is not None:
        masks.append(spatial_subset_mask(n, region, layout))
    mask = auto_op_many(masks, "and") if masks else WAHBitVector.ones(n)
    joint = restricted_joint_counts(index_a, index_b, mask)
    return mutual_information_from_joint(joint)
