"""Spatial-unit popcounts: 1-bit distributions over partitioned bitvectors.

§4.2 step 3 partitions each joint bitvector into "basic sub-spatial units"
(contiguous bit ranges = Z-order blocks) and needs the 1-bit count of every
unit.  When the unit size is a multiple of 31 this is a pure word-level
computation (popcount per group, reduce per unit) -- the case the paper's
Z-order granularity choice guarantees in practice; otherwise we fall back
to bit unpacking.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.wah import WAHBitVector
from repro.util.bits import GROUP_BITS, last_group_mask, popcount_u32


def n_units(n_bits: int, unit_bits: int) -> int:
    """Number of units covering ``n_bits`` (last unit may be partial)."""
    if unit_bits < 1:
        raise ValueError(f"unit_bits must be >= 1, got {unit_bits}")
    return -(-n_bits // unit_bits)


def unit_popcounts(vector: WAHBitVector, unit_bits: int) -> np.ndarray:
    """Count of set bits within each consecutive ``unit_bits``-bit unit."""
    count = n_units(vector.n_bits, unit_bits)
    if vector.n_bits == 0:
        return np.zeros(0, dtype=np.int64)
    groups = vector.to_groups()
    groups = groups.copy()
    groups[-1] &= last_group_mask(vector.n_bits)
    if unit_bits % GROUP_BITS == 0:
        per_group = popcount_u32(groups).astype(np.int64)
        gpu = unit_bits // GROUP_BITS  # groups per unit
        pad = (-per_group.size) % gpu
        if pad:
            per_group = np.concatenate([per_group, np.zeros(pad, dtype=np.int64)])
        return per_group.reshape(-1, gpu).sum(axis=1)
    # General case: expand to bits once.
    bits = vector.to_bools().astype(np.int64)
    pad = count * unit_bits - bits.size
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.int64)])
    return bits.reshape(count, unit_bits).sum(axis=1)


def unit_popcounts_groups(
    groups: np.ndarray, n_bits: int, unit_bits: int
) -> np.ndarray:
    """Like :func:`unit_popcounts` but on an already-decompressed group array.

    Hot path for correlation mining, which holds every bin's groups in a
    matrix and evaluates many joint vectors; requires ``unit_bits`` to be a
    multiple of 31 (callers fall back to :func:`unit_popcounts` otherwise).
    """
    if unit_bits % GROUP_BITS != 0:
        raise ValueError(f"unit_bits must be a multiple of 31, got {unit_bits}")
    count = n_units(n_bits, unit_bits)
    per_group = popcount_u32(np.asarray(groups, dtype=np.uint32)).astype(np.int64)
    gpu = unit_bits // GROUP_BITS
    pad = (-per_group.size) % gpu
    if pad:
        per_group = np.concatenate([per_group, np.zeros(pad, dtype=np.int64)])
    out = per_group.reshape(-1, gpu).sum(axis=1)
    return out[:count]


def unit_sizes(n_bits: int, unit_bits: int) -> np.ndarray:
    """Number of *valid* bits in each unit (all ``unit_bits`` except maybe last)."""
    count = n_units(n_bits, unit_bits)
    sizes = np.full(count, unit_bits, dtype=np.int64)
    rem = n_bits % unit_bits
    if count and rem:
        sizes[-1] = rem
    return sizes
