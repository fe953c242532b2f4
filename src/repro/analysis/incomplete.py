"""Incomplete-data analysis over bitmaps (prior work [2], §2.2).

Scientific datasets routinely carry gaps (sensor dropouts, masked land
cells in ocean grids).  With bitmaps the *observed* subset is just a mask
bitvector, and every §3 metric restricts to it by one AND:

* masked value distributions / entropy -- popcounts of ``bin AND observed``;
* masked joint distributions / MI / CE -- the restricted joint counts;
* pairwise-complete semantics for two variables with different gaps
  (positions observed in **both**);
* data-completeness accounting per spatial unit (where are the gaps?).

Complements :mod:`repro.analysis.imputation`, which *fills* gaps; this
module analyses around them.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.queries import restricted_joint_counts
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.ops import logical_not
from repro.bitmap.units import n_units, unit_popcounts, unit_sizes
from repro.bitmap.wah import WAHBitVector
from repro.metrics.entropy import (
    conditional_entropy_from_joint,
    mutual_information_from_joint,
    shannon_entropy_from_counts,
)


def observed_mask(missing: WAHBitVector) -> WAHBitVector:
    """Complement of a missing-positions bitvector."""
    return logical_not(missing)


def masked_bin_counts(index: BitmapIndex, observed: WAHBitVector) -> np.ndarray:
    """Value distribution over the observed subset only."""
    if observed.n_bits != index.n_elements:
        raise ValueError(
            f"mask covers {observed.n_bits} bits, index {index.n_elements}"
        )
    return np.asarray(
        [auto_count_many((v, observed), "and") for v in index.bitvectors],
        dtype=np.int64,
    )


def masked_entropy(index: BitmapIndex, observed: WAHBitVector) -> float:
    """Shannon entropy of the observed subset's value distribution."""
    return shannon_entropy_from_counts(masked_bin_counts(index, observed))


def pairwise_complete_mask(
    missing_a: WAHBitVector, missing_b: WAHBitVector
) -> WAHBitVector:
    """Positions observed in both variables (pairwise-complete analysis)."""
    return auto_op_many((observed_mask(missing_a), observed_mask(missing_b)), "and")


def masked_mutual_information(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    observed: WAHBitVector,
) -> float:
    """MI over the jointly observed subset, bitmaps only."""
    joint = restricted_joint_counts(index_a, index_b, observed)
    return mutual_information_from_joint(joint)


def masked_conditional_entropy(
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    observed: WAHBitVector,
) -> float:
    """H(A|B) over the jointly observed subset."""
    joint = restricted_joint_counts(index_a, index_b, observed)
    return conditional_entropy_from_joint(joint)


def completeness_by_unit(
    missing: WAHBitVector, unit_bits: int
) -> np.ndarray:
    """Fraction of observed cells per spatial unit (gap map)."""
    miss = unit_popcounts(missing, unit_bits).astype(np.float64)
    sizes = unit_sizes(missing.n_bits, unit_bits).astype(np.float64)
    out = np.zeros(n_units(missing.n_bits, unit_bits))
    nz = sizes > 0
    out[nz] = 1.0 - miss[nz] / sizes[nz]
    return out


def coverage(missing: WAHBitVector) -> float:
    """Overall observed fraction."""
    if missing.n_bits == 0:
        return 1.0
    return 1.0 - missing.count() / missing.n_bits
