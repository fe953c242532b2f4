"""The kernel ladder: every bitwise combine and count over k >= 1 operands.

The paper's analyses need one thing from the codec: popcounts and joint
bitvectors of AND / OR / XOR (and ANDNOT) over compressed bins -- joint
distributions and spatial EMD (§3.2), Algorithm 2's m x n ANDs (§4.2),
range predicates and level rollups (ORs).  Two public entries serve all
of them, for any operand count:

* :func:`auto_op_many` -- ``op(v1, ..., vk)`` materialised as WAH;
* :func:`auto_count_many` -- ``popcount(op(v1, ..., vk))``, no result.

Pairwise is simply k = 2.  Operands are WAH: the storage codec is a
property of the file, undone by the reader (:mod:`repro.bitmap.codec`),
so in-memory bitvectors are always WAH.  Each entry picks one of two
private paths with :func:`~repro.bitmap.ops.prefers_runmerge`:

* the **dense path** (``_op_dense`` / ``_count_dense``): each operand is
  decoded exactly once into a stacked ``(k, chunk)`` group matrix and
  reduced with a single ``ufunc.reduce`` sweep, chunked along the group
  axis so peak extra memory is bounded by :data:`KWAY_CHUNK_BYTES`;
* the **run-merge path** (``_op_runmerge`` / ``_count_runmerge``): every
  operand's memoised run decode
  (:meth:`~repro.bitmap.wah.WAHBitVector.runs`) contributes its
  boundaries to one packed-key merge (``_merged_segments``), yielding a
  ``(k, segments)`` value matrix that the same ufunc reduce collapses.
  A fill x ... x fill span costs O(1) however many groups it covers, so
  cost is O(sum of runs), never O(k x groups).

The route threshold is k-aware: every operand must compress to at or
below :data:`~repro.bitmap.ops.STREAMING_COUNT_RATIO_THRESHOLD` (0.05) at
k = 2 and :data:`KWAY_RUNMERGE_RATIO_THRESHOLD` (0.01) at k >= 3, both
calibrated by ``benchmarks/bench_kernel_dispatch.py`` (DESIGN.md,
"Kernel dispatch policy").  Both paths are word-identical to the left
fold of the scalar oracle :func:`~repro.bitmap.ops.logical_op_streaming`
(property-tested), so the route is purely a performance decision.  The
non-associative ``andnot`` keeps left-fold semantics:
``andnot(a, b, c) == a AND NOT (b OR c)``.

Two helpers share the decode: :func:`logical_accumulate` (every prefix
fold at once, feeding
:class:`~repro.bitmap.range_index.RangeBitmapIndex` construction) and
:func:`stack_groups` (the ``(k, n_groups)`` matrix behind
:meth:`~repro.bitmap.index.BitmapIndex.group_matrix`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, prefers_runmerge
from repro.bitmap.wah import WAHBitVector, compress_groups, compress_runs
from repro.util.bits import (
    GROUP_BITS,
    GROUP_FULL,
    groups_needed,
    last_group_mask,
    popcount_total,
    popcount_u32,
)

#: Peak bytes the chunked dense sweeps may hold in stacked group form.
#: 8 MiB keeps the working set inside typical L2+L3 while amortising
#: numpy call overhead; the chunk width adapts to the operand count so
#: ``k * chunk_groups * 4`` never exceeds this bound.
KWAY_CHUNK_BYTES = 8 << 20

#: Compression-ratio threshold at or below which *every* operand must sit
#: for a k >= 3 combine to take the run merge (k = 2 uses
#: :data:`~repro.bitmap.ops.STREAMING_COUNT_RATIO_THRESHOLD`).  The fused
#: dense sweep costs one hardware-rate pass per operand, while the merge
#: pays a boundary sort plus one prefix count per operand over the
#: merged boundaries, both growing with k -- at k = 8 the measured
#: crossover sits near ratio 0.01 (``benchmarks/bench_kernel_dispatch.py``;
#: DESIGN.md "Kernel dispatch policy").
KWAY_RUNMERGE_RATIO_THRESHOLD = 0.01

#: Ufuncs whose ``reduce``/``accumulate`` implement the associative ops.
_UFUNCS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def _check_many(vectors: Sequence[WAHBitVector], op: str) -> None:
    if op not in _UFUNCS and op != "andnot":
        raise ValueError(
            f"unknown op {op!r}; expected one of {sorted(_UFUNCS) + ['andnot']}"
        )
    if not vectors:
        raise ValueError("need at least one operand")
    n_bits = vectors[0].n_bits
    for v in vectors[1:]:
        if v.n_bits != n_bits:
            raise ValueError(
                f"operand length mismatch: {v.n_bits} != {n_bits} bits"
            )


def _expand_slice(vec: WAHBitVector, lo: int, hi: int, out: np.ndarray) -> None:
    """Decode groups ``[lo, hi)`` of ``vec`` into ``out`` (length hi-lo).

    Works from the memoised run decode, so a chunked sweep still touches
    each compressed word O(1) times across the whole vector.
    """
    ends, vals = vec.runs()
    i0 = int(np.searchsorted(ends, lo, side="right"))
    i1 = int(np.searchsorted(ends, hi, side="left")) + 1
    sub_ends = np.minimum(ends[i0:i1], hi)
    sub_starts = np.empty(i1 - i0, dtype=np.int64)
    sub_starts[0] = lo
    np.maximum(ends[i0 : i1 - 1], lo, out=sub_starts[1:])
    out[:] = np.repeat(vals[i0:i1], sub_ends - sub_starts)


def _sweep(
    vectors: Sequence[WAHBitVector], chunk_bytes: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(lo, hi, mat)``: groups ``[lo, hi)`` of every operand
    decoded into the rows of one reused ``(k, hi - lo)`` buffer of at
    most ``chunk_bytes``."""
    k = len(vectors)
    n_groups = groups_needed(vectors[0].n_bits)
    chunk = max(1, chunk_bytes // (4 * k))
    buf = np.empty((k, min(chunk, n_groups)), dtype=np.uint32)
    for lo in range(0, n_groups, chunk):
        hi = min(lo + chunk, n_groups)
        mat = buf[:, : hi - lo]
        for i, v in enumerate(vectors):
            _expand_slice(v, lo, hi, mat[i])
        yield lo, hi, mat


def stack_groups(
    vectors: Sequence[WAHBitVector], n_bits: int | None = None
) -> np.ndarray:
    """Decode each vector once into a ``(k, n_groups)`` uint32 matrix.

    The rows are written straight into one preallocated matrix (no
    intermediate list-of-rows + ``vstack`` copy), and the final column is
    masked to the valid bits of ``n_bits``, so the matrix is a safe
    shared working set for the analysis layers.
    """
    if not vectors:
        return np.empty((0, 0), dtype=np.uint32)
    if n_bits is None:
        n_bits = vectors[0].n_bits
    n_groups = groups_needed(n_bits)
    out = np.empty((len(vectors), n_groups), dtype=np.uint32)
    for i, v in enumerate(vectors):
        if v.n_bits != n_bits:
            raise ValueError(
                f"operand length mismatch: {v.n_bits} != {n_bits} bits"
            )
        if n_groups:
            _expand_slice(v, 0, n_groups, out[i])
    if out.size and n_bits:
        out[:, -1] &= last_group_mask(n_bits)
    return out


def _reduce_rows(mat: np.ndarray, op: str) -> np.ndarray:
    """Fold ``op`` across axis 0 of a ``(k, m)`` group matrix.

    Left-fold semantics throughout; ``andnot`` folds as
    ``row0 AND NOT (row1 OR ... OR rowk-1)``.  Padding bits stay zero for
    every op: all operands keep padding zero, and ``andnot`` complements
    only non-leading rows, which the first row's zero padding masks off.
    """
    if op == "andnot":
        rest = np.bitwise_or.reduce(mat[1:], axis=0)
        return mat[0] & (rest ^ GROUP_FULL)
    return _UFUNCS[op].reduce(mat, axis=0)


# --------------------------------------------------------------- dense path
def _op_dense(
    vectors: Sequence[WAHBitVector],
    op: str,
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> WAHBitVector:
    """``op`` over k WAH operands, decoding each exactly once.

    Peak extra memory is ``min(k * n_groups, chunk_bytes / 4)`` stacked
    words plus the single result group array.
    """
    _check_many(vectors, op)
    n_bits = vectors[0].n_bits
    if len(vectors) == 1 or n_bits == 0:
        return vectors[0]
    result = np.empty(groups_needed(n_bits), dtype=np.uint32)
    for lo, hi, mat in _sweep(vectors, chunk_bytes):
        result[lo:hi] = _reduce_rows(mat, op)
    return WAHBitVector(compress_groups(result), n_bits)


def _count_dense(
    vectors: Sequence[WAHBitVector],
    op: str,
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> int:
    """``popcount(op(v1, ..., vk))``: each reduced chunk goes straight to
    the hardware popcount, so no full-length array is allocated."""
    _check_many(vectors, op)
    if len(vectors) == 1:
        return vectors[0].count()
    return sum(
        popcount_total(_reduce_rows(mat, op))
        for _, _, mat in _sweep(vectors, chunk_bytes)
    )


# --------------------------------------------------------- run-merge path
def _merged_segments(
    vectors: Sequence[WAHBitVector],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge k compressed streams into aligned segments, never expanding.

    Returns ``(seg, vals)``: segment ``j`` covers ``seg[j]`` groups over
    which operand ``i`` uniformly holds group value ``vals[i, j]``.  Any
    segment longer than one group is fill-only in *every* operand
    (literal runs span one group, and their boundary would have split
    it), so multi-group segments always reduce to a fillable value --
    the invariant :func:`~repro.bitmap.wah.compress_runs` needs.
    Zero-length segments (tied boundaries) carry arbitrary in-range
    values and are harmless to counts and to ``compress_runs``.

    The run ends of all operands (memoised by
    :meth:`WAHBitVector.runs`) merge in one stable sort of packed keys
    ``end << shift | operand``; each input is already sorted, so the sort
    is a k-run merge, and the operand tag breaks ties by operand.  A
    segment of positive length starts its tie group, so the run of
    operand ``i`` covering it is the count of ``i``'s keys before it: a
    prefix count per operand.  At k = 2 that is one ``cumsum`` of the
    tag (operand 0 holds the remainder), the old pairwise merge's
    arithmetic; at k >= 3 one scatter + row ``cumsum`` over a
    ``(k, segments)`` matrix counts every operand at once.
    """
    runs = [v.runs() for v in vectors]
    k = len(runs)
    sizes = [ends.size for ends, _ in runs]
    shift = max(1, (k - 1).bit_length())
    packed = np.concatenate([ends for ends, _ in runs])
    packed <<= shift
    packed |= np.repeat(np.arange(k), sizes)
    packed.sort(kind="stable")
    # Every stream ends at the same group count, so the last k keys (one
    # per operand) tie; dropping all but the first of them keeps every
    # prefix count below in range.
    if packed[-k] >> shift != packed[-1] >> shift:
        raise AssertionError("operand word streams encode different lengths")
    n = packed.size - k + 1
    bounds = packed[:n] >> shift
    seg = np.empty_like(bounds)
    seg[0] = bounds[0]
    np.subtract(bounds[1:], bounds[:-1], out=seg[1:])
    source = packed[: n - 1] & ((1 << shift) - 1)
    if k == 2:
        seen = np.zeros(n, dtype=np.int64)
        np.cumsum(source, out=seen[1:])
        vals = np.empty((2, n), dtype=np.uint32)
        np.take(runs[1][1], seen, out=vals[1])
        np.take(runs[0][1], np.arange(n) - seen, out=vals[0])
        return seg, vals
    seen = np.zeros((k, n), dtype=np.int64)
    seen[source, np.arange(1, n)] = 1
    np.cumsum(seen, axis=1, out=seen)
    seen += np.cumsum([0] + sizes[:-1])[:, None]
    return seg, np.concatenate([run_vals for _, run_vals in runs])[seen]


def _op_runmerge(vectors: Sequence[WAHBitVector], op: str) -> WAHBitVector:
    """``op`` over k WAH operands without leaving the compressed domain:
    merged segment values re-encode straight from run-length form, so
    cost is O(sum of runs), not O(k x groups)."""
    _check_many(vectors, op)
    n_bits = vectors[0].n_bits
    if len(vectors) == 1 or n_bits == 0:
        return vectors[0]
    seg, vals = _merged_segments(vectors)
    return WAHBitVector(compress_runs(_reduce_rows(vals, op), seg), n_bits)


def _count_runmerge(vectors: Sequence[WAHBitVector], op: str) -> int:
    """``popcount(op(v1, ..., vk))`` on the compressed streams: each
    merged segment contributes ``popcount(fold) * segment_groups``, so a
    billion-bit fill costs the same as one literal.  Padding needs no
    masking (see :func:`_reduce_rows`)."""
    _check_many(vectors, op)
    if len(vectors) == 1:
        return vectors[0].count()
    if vectors[0].n_bits == 0:
        return 0
    seg, vals = _merged_segments(vectors)
    out = _reduce_rows(vals, op)
    nz = np.flatnonzero(out)
    return int((popcount_u32(out[nz]).astype(np.int64) * seg[nz]).sum())


# -------------------------------------------------------------- prefix scan
def logical_accumulate(
    vectors: Sequence,
    op: str = "or",
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> list[WAHBitVector]:
    """All k prefix folds ``op(v1), op(v1, v2), ..., op(v1, ..., vk)``.

    The fused form of the one-at-a-time accumulation loop (cumulative OR
    is how a range-encoded index is rolled up from an equality-encoded
    one): each operand decodes once per chunk, one ``ufunc.accumulate``
    sweep produces every prefix simultaneously, and per-chunk
    recompressions stitch seam-merged via
    :func:`~repro.bitmap.builder.concatenate_bitvectors` -- bit-identical
    to the pairwise loop (property-tested).  ``andnot`` is not a ufunc
    accumulate; the three associative ops are supported.
    """
    if op not in _UFUNCS:
        raise ValueError(f"unknown accumulate op {op!r}; expected one of {sorted(_UFUNCS)}")
    _check_many(vectors, op)
    from repro.bitmap.builder import concatenate_bitvectors

    n_bits = vectors[0].n_bits
    if n_bits == 0 or len(vectors) == 1:
        return list(vectors)
    n_groups = groups_needed(n_bits)
    pieces: list[list[WAHBitVector]] = [[] for _ in vectors]
    for lo, hi, mat in _sweep(vectors, chunk_bytes):
        _UFUNCS[op].accumulate(mat, axis=0, out=mat)
        piece_bits = (
            (hi - lo) * GROUP_BITS if hi < n_groups else n_bits - lo * GROUP_BITS
        )
        for parts, row in zip(pieces, mat):
            parts.append(WAHBitVector(compress_groups(row), piece_bits))
    return [
        parts[0] if len(parts) == 1 else concatenate_bitvectors(parts)
        for parts in pieces
    ]


# ------------------------------------------------------------- the entries
def _runmerge_wins(vectors: Sequence[WAHBitVector]) -> bool:
    """The one route decision, with the k-aware calibrated threshold."""
    t = (
        STREAMING_COUNT_RATIO_THRESHOLD
        if len(vectors) == 2
        else KWAY_RUNMERGE_RATIO_THRESHOLD
    )
    return prefers_runmerge(vectors, t)


def auto_op_many(vectors: Sequence[WAHBitVector], op: str) -> WAHBitVector:
    """``op(v1, ..., vk)`` for any k >= 1, as WAH.

    The run merge runs when every operand compresses below the k-aware
    threshold, the dense sweep otherwise.  Word-identical either way
    (property-tested).
    """
    if _runmerge_wins(vectors):
        return _op_runmerge(vectors, op)
    return _op_dense(vectors, op)


def auto_count_many(vectors: Sequence[WAHBitVector], op: str = "and") -> int:
    """``popcount(op(v1, ..., vk))`` for any k >= 1, routed like
    :func:`auto_op_many`; no result vector is built."""
    if _runmerge_wins(vectors):
        return _count_runmerge(vectors, op)
    return _count_dense(vectors, op)
