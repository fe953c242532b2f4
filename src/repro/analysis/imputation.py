"""Bitmap-based missing-value imputation -- the [2] prior-work analysis.

"Accelerating data mining on incomplete datasets by bitmaps-based missing
value imputation" (Abdulah, Su, Agrawal): when variable A has missing
entries but a correlated variable B is fully observed, the conditional
value distribution ``P(A-bin | B-bin)`` -- computable from bitmaps alone
via pairwise AND counts over the *observed* subset -- imputes each missing
A as the expected (or modal) representative of its B-bin's conditional
distribution.

Everything here consumes bitmaps:

* the observed-A index covers only positions where A is known;
* the B index covers all positions;
* the missing mask is itself a bitvector;
* imputation = one restricted joint histogram + per-B-bin expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.analysis.aggregation import _bin_geometry
from repro.analysis.queries import restricted_joint_counts
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ops import logical_not
from repro.bitmap.wah import WAHBitVector

Strategy = Literal["mean", "mode"]


@dataclass
class ImputationModel:
    """Per-B-bin imputation values learned from the observed subset."""

    #: representative A value for each B bin (global fallback where a B bin
    #: had no observed A at all)
    value_per_b_bin: np.ndarray
    #: conditional distribution P(A-bin | B-bin), rows = B bins
    conditional: np.ndarray
    strategy: Strategy
    global_value: float

    def impute_for_bins(self, b_bins: np.ndarray) -> np.ndarray:
        """Imputed A values for elements whose B falls in ``b_bins``."""
        return self.value_per_b_bin[np.asarray(b_bins, dtype=np.int64)]


def fit_imputation(
    index_a_observed: BitmapIndex,
    index_b: BitmapIndex,
    missing_mask: WAHBitVector,
    *,
    strategy: Strategy = "mean",
) -> ImputationModel:
    """Learn ``P(A | B)`` from the observed positions, bitmaps only.

    ``index_a_observed`` must have zero bits at every missing position
    (its bin counts partition the *observed* set); ``missing_mask`` has
    ones exactly at the missing positions.
    """
    if index_a_observed.n_elements != index_b.n_elements:
        raise ValueError("indices cover different element sets")
    if missing_mask.n_bits != index_b.n_elements:
        raise ValueError("missing mask length mismatch")
    observed = logical_not(missing_mask)
    # Joint counts restricted to observed positions: B bins x A bins.
    joint = restricted_joint_counts(index_b, index_a_observed, observed)
    lows, highs, mids = _bin_geometry(index_a_observed)

    totals = joint.sum(axis=1, keepdims=True).astype(np.float64)
    conditional = np.divide(
        joint, totals, out=np.zeros_like(joint, dtype=np.float64),
        where=totals > 0,
    )
    overall = joint.sum(axis=0).astype(np.float64)
    if overall.sum() == 0:
        raise ValueError("no observed values to learn from")
    global_dist = overall / overall.sum()
    if strategy == "mean":
        global_value = float(global_dist @ mids)
        values = conditional @ mids
    elif strategy == "mode":
        global_value = float(mids[int(np.argmax(overall))])
        values = mids[np.argmax(joint, axis=1)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    empty = totals.ravel() == 0
    values = np.where(empty, global_value, values)
    return ImputationModel(values, conditional, strategy, global_value)


def impute_missing(
    model: ImputationModel,
    index_b: BitmapIndex,
    missing_mask: WAHBitVector,
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, imputed values) for every missing element.

    Each missing position's B bin is recovered from the B index by
    AND-ing the missing mask with each B bitvector -- no raw B data.
    """
    from repro.bitmap.kernels import auto_op_many

    positions: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for b_bin, vector in enumerate(index_b.bitvectors):
        hit = auto_op_many((vector, missing_mask), "and")
        pos = hit.to_indices()
        if pos.size:
            positions.append(pos)
            values.append(np.full(pos.size, model.value_per_b_bin[b_bin]))
    if not positions:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pos_all = np.concatenate(positions)
    val_all = np.concatenate(values)
    order = np.argsort(pos_all)
    return pos_all[order], val_all[order]


def impute_array(
    data_with_nans: np.ndarray,
    index_a_observed: BitmapIndex,
    index_b: BitmapIndex,
    missing_mask: WAHBitVector,
    *,
    strategy: Strategy = "mean",
) -> np.ndarray:
    """Convenience: return a copy of ``data_with_nans`` with gaps filled."""
    model = fit_imputation(
        index_a_observed, index_b, missing_mask, strategy=strategy
    )
    positions, values = impute_missing(model, index_b, missing_mask)
    out = np.asarray(data_with_nans, dtype=np.float64).ravel().copy()
    out[positions] = values
    return out
