"""Information-theory metrics: Equations 4-6 of the paper.

Two API layers:

* distribution-level (``*_from_counts`` / ``*_from_joint``) -- pure
  functions of (joint) histograms, shared verbatim by the full-data and
  bitmap paths, which is *why* the two paths agree exactly;
* data-level (``shannon_entropy`` etc.) -- the full-data method: scan the
  raw arrays, bin, then call the distribution-level function.

All entropies are in bits (``log2``), matching Equation 4; mutual
information uses the same base so that Equation 6
(``H(A|B) = H(A) - I(A;B)``) is internally consistent.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.binning import Binning
from repro.metrics.histogram import histogram, joint_histogram, normalize


# ------------------------------------------------------- from distributions
def shannon_entropy_from_counts(counts: np.ndarray) -> float:
    """Equation 4: ``H = -sum_j P(x_j) log2 P(x_j)``."""
    p = normalize(counts)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0


def mutual_information_from_joint(joint: np.ndarray) -> float:
    """Equation 5 from the joint histogram (marginals are its row/col sums).

    Only occupied cells contribute, so the terms are computed over them
    alone -- a joint of m x n bins is mostly empty cells -- with marginals
    from the exact row and column sums.
    """
    joint = np.asarray(joint)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    total = float(rows.sum())
    if total <= 0:
        return 0.0
    cells = np.flatnonzero(joint > 0)
    i, j = np.divmod(cells, joint.shape[1])
    p_ab = joint.ravel()[cells] / total
    p_a = rows[i] / total
    p_b = cols[j] / total
    return float((p_ab * np.log2(p_ab / (p_a * p_b))).sum())


def conditional_entropy_from_joint(joint: np.ndarray) -> float:
    """Equation 6: ``H(A|B) = H(A) - I(A;B)`` from the joint histogram.

    Row marginal = A's distribution, so ``H(A)`` comes from ``joint.sum(1)``.
    """
    joint = np.asarray(joint)
    h_a = shannon_entropy_from_counts(joint.sum(axis=1))
    return h_a - mutual_information_from_joint(joint)


def mi_term_from_cell(
    joint_count: float, row_count: float, col_count: float, total: float
) -> float:
    """One ``I(A_j; B_k)`` term of Equation 7 (used by correlation mining).

    Non-negative terms are summed by the miner; this exposes a single cell
    so pruning can evaluate candidate value subsets individually.
    """
    if joint_count <= 0 or total <= 0:
        return 0.0
    p_ab = joint_count / total
    p_a = row_count / total
    p_b = col_count / total
    return float(p_ab * np.log2(p_ab / (p_a * p_b)))


# ----------------------------------------------------------- from raw data
def shannon_entropy(data: np.ndarray, binning: Binning) -> float:
    """Full-data Shannon entropy: scan + bin + Equation 4."""
    return shannon_entropy_from_counts(histogram(data, binning))


def mutual_information(
    a: np.ndarray, b: np.ndarray, binning_a: Binning, binning_b: Binning
) -> float:
    """Full-data mutual information of two aligned arrays."""
    return mutual_information_from_joint(joint_histogram(a, b, binning_a, binning_b))


def conditional_entropy(
    a: np.ndarray, b: np.ndarray, binning_a: Binning, binning_b: Binning
) -> float:
    """Full-data ``H(A|B)``: the paper's time-step selection metric."""
    return conditional_entropy_from_joint(joint_histogram(a, b, binning_a, binning_b))
