"""Selection metrics with paired full-data and bitmap back ends (§3.1-3.2).

The greedy selector asks one question: *how distinct is candidate time-step
C from the previously selected step P?*  The paper phrases it as picking
the **minimum correlation**; we represent each metric as a *distinctness*
score (= negated correlation) so the selector always maximises, and bundle
the two computation paths so tests can assert they agree exactly:

* ``full(prev, cand, binning)`` -- raw arrays (the full-data baseline);
* ``bitmap(prev_index, cand_index)`` -- bitmaps only.

Built-ins: Earth Mover's Distance (count-based and spatial, used for
Lulesh in §5.1) and Conditional Entropy ``H(cand | prev)`` (used for
Heat3D), whose bitmap path is Figure 5's AND-based joint distribution.

The bitmap paths inherit density dispatch from
:mod:`repro.metrics.bitmap_metrics`: when both indices compress below
:data:`~repro.bitmap.ops.STREAMING_COUNT_RATIO_THRESHOLD`, the joint-AND
(conditional entropy) and per-bin-XOR (spatial EMD) popcounts run
as pairwise ladder counts (``repro.bitmap.kernels.auto_count_many``);
dense indices keep the memoised group-matrix row ops.  Either route
returns bit-identical counts, so the full/bitmap equality contract is
unaffected by dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.index import BitmapIndex
from repro.metrics.bitmap_metrics import (
    conditional_entropy_bitmap,
    emd_count_bitmap,
    emd_spatial_bitmap,
)
from repro.metrics.emd import emd_count_based, emd_spatial
from repro.metrics.entropy import conditional_entropy


@dataclass(frozen=True)
class SelectionMetric:
    """A distinctness metric with equivalent full-data and bitmap paths.

    Higher return value = candidate carries more new information relative
    to the previously selected step (select the max per interval ==
    paper's "minimum correlation").
    """

    name: str
    full: Callable[[np.ndarray, np.ndarray, Binning], float]
    bitmap: Callable[[BitmapIndex, BitmapIndex], float]


def _ce_full(prev: np.ndarray, cand: np.ndarray, binning: Binning) -> float:
    # H(cand | prev): information in the candidate not explained by prev.
    return conditional_entropy(cand, prev, binning, binning)


def _ce_bitmap(prev: BitmapIndex, cand: BitmapIndex) -> float:
    return conditional_entropy_bitmap(cand, prev)


#: Conditional entropy H(candidate | previous) -- Heat3D's metric in §5.1.
CONDITIONAL_ENTROPY = SelectionMetric(
    "conditional_entropy",
    _ce_full,
    _ce_bitmap,
)

#: Count-based Earth Mover's Distance (first method of §3.2).
EMD_COUNT = SelectionMetric(
    "emd_count",
    lambda prev, cand, binning: emd_count_based(prev, cand, binning),
    emd_count_bitmap,
)

#: Spatial Earth Mover's Distance via XOR popcounts -- Lulesh's metric.
EMD_SPATIAL = SelectionMetric(
    "emd_spatial",
    lambda prev, cand, binning: emd_spatial(prev, cand, binning),
    emd_spatial_bitmap,
)

BUILTIN_METRICS: dict[str, SelectionMetric] = {
    m.name: m for m in (CONDITIONAL_ENTROPY, EMD_COUNT, EMD_SPATIAL)
}


def get_metric(name: str) -> SelectionMetric:
    """Look up a built-in metric by name."""
    try:
        return BUILTIN_METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; built-ins: {sorted(BUILTIN_METRICS)}"
        )
