"""In-situ bitmap construction -- Algorithm 1 of the paper.

The paper's contribution is a *single-scan, in-place* compressor: data is
consumed 31 elements (one segment) at a time, the segment's uncompressed
bitvectors live in ``BinNum`` machine words, and each segment is merged into
the growing compressed bitvectors immediately.  Peak extra memory is
``O(BinNum)`` words plus the compressed output -- never the ``n x m`` bits
of the full uncompressed index.

Two builders are provided:

* :class:`OnlineBitmapBuilder` -- a line-by-line scalar port of Algorithm 1,
  including its exact word constants.  It additionally supports *chunked*
  feeding (``push`` may be called repeatedly) so the in-situ pipeline can
  hand over data as the simulation produces it and free it right after, the
  "memory keeps increasing as bitmaps are generating" behaviour of §2.3.

* :func:`build_bitvectors` -- a numpy-vectorised equivalent used as the
  production fast path.  It produces *identical word streams* (tested
  against the scalar builder) by packing positions into 31-bit groups with
  one ``bincount`` per chunk and run-length-encoding per bin.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.wah import WAHBitVector, compress_groups
from repro.util.bits import GROUP_BITS, GROUP_FULL, groups_needed

_SEG_FULL = 0x7FFFFFFF
_FILL_MASK = 0xC0000000
_ONE_FILL = 0xC0000000
_ZERO_FILL = 0x80000000
_MAX_FILL = 0x3FFFFFFF - (0x3FFFFFFF % GROUP_BITS)


class OnlineBitmapBuilder:
    """Scalar Algorithm 1 with chunked feeding.

    Usage::

        builder = OnlineBitmapBuilder(binning)
        for chunk in stream:          # e.g. per simulation sub-block
            builder.push(chunk)
        vectors = builder.finalize()  # list[WAHBitVector], one per bin
    """

    def __init__(self, binning: Binning) -> None:
        self.binning = binning
        self._result: list[list[int]] = [[] for _ in range(binning.n_bins)]
        self._carry: np.ndarray = np.empty(0, dtype=np.int64)  # bin ids < 31
        self._n_bits = 0
        self._finalized = False

    @property
    def n_bits(self) -> int:
        """Elements consumed so far."""
        return self._n_bits

    def push(self, data: np.ndarray) -> None:
        """Consume one chunk of raw values (any shape; flattened C-order)."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        ids = self.binning.assign_checked(np.asarray(data).ravel())
        self._n_bits += ids.size
        ids = np.concatenate([self._carry, ids]) if self._carry.size else ids
        n_full = ids.size // GROUP_BITS * GROUP_BITS
        self._carry = ids[n_full:]
        self._consume_segments(ids[:n_full])

    def _consume_segments(self, ids: np.ndarray) -> None:
        """Lines 4-28 of Algorithm 1 for each complete 31-element segment."""
        bin_num = self.binning.n_bins
        result = self._result
        for seg_start in range(0, ids.size, GROUP_BITS):
            segments = [0] * bin_num  # line 5: initialise to 0
            for j in range(GROUP_BITS):  # lines 6-9
                vector_id = int(ids[seg_start + j])
                segments[vector_id] |= 1 << j
            for j in range(bin_num):  # lines 10-27
                self._merge_segment(result[j], segments[j], GROUP_BITS)

    @staticmethod
    def _merge_segment(out: list[int], segment: int, seg_bits: int) -> None:
        """Merge one (possibly partial) segment into a compressed vector."""
        if segment == _SEG_FULL and seg_bits == GROUP_BITS:  # lines 12-17
            if out and (out[-1] & _FILL_MASK) == _ONE_FILL and (
                (out[-1] & 0x3FFFFFFF) + GROUP_BITS <= _MAX_FILL
            ):
                out[-1] += GROUP_BITS
            else:
                out.append(_ONE_FILL | GROUP_BITS)  # 0xC000001F
        elif segment == 0:  # lines 18-23
            if out and (out[-1] & _FILL_MASK) == _ZERO_FILL and (
                (out[-1] & 0x3FFFFFFF) + GROUP_BITS <= _MAX_FILL
            ):
                out[-1] += GROUP_BITS
            else:
                out.append(_ZERO_FILL | GROUP_BITS)  # 0x8000001F
        else:  # lines 24-26
            out.append(segment)

    def finalize(self) -> list[WAHBitVector]:
        """Flush the partial trailing segment and return the bitvectors."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        self._finalized = True
        if self._carry.size:
            bin_num = self.binning.n_bins
            segments = [0] * bin_num
            for j, vector_id in enumerate(self._carry.tolist()):
                segments[vector_id] |= 1 << j
            for j in range(bin_num):
                # A partial all-zero tail still compresses to a 0-fill of one
                # group (padding bits are zero by construction).
                self._merge_segment(self._result[j], segments[j], self._carry.size)
            self._carry = np.empty(0, dtype=np.int64)
        return [
            WAHBitVector(np.asarray(words, dtype=np.uint32), self._n_bits)
            for words in self._result
        ]

    def memory_words(self) -> int:
        """Current builder state size in 32-bit words (the O(BinNum) claim)."""
        return sum(len(w) for w in self._result) + self.binning.n_bins


def _append_words(dst: list[np.ndarray], new: np.ndarray, carry: list[int]) -> None:
    """Append a compressed word block, merging the fill at the boundary.

    ``carry`` holds the single boundary word (as a 1-element list) so that a
    0-fill ending chunk ``k`` merges with a 0-fill starting chunk ``k+1``.
    """
    if new.size == 0:
        return
    if carry[0] != -1:
        prev = carry[0]
        first = int(new[0])
        if (
            prev & 0x80000000
            and first & 0x80000000
            and (prev & _FILL_MASK) == (first & _FILL_MASK)
            and (prev & 0x3FFFFFFF) + (first & 0x3FFFFFFF) <= _MAX_FILL
        ):
            merged = (prev & _FILL_MASK) | ((prev & 0x3FFFFFFF) + (first & 0x3FFFFFFF))
            new = new.copy()
            new[0] = merged
        else:
            dst.append(np.asarray([prev], dtype=np.uint32))
    if new.size > 1:
        dst.append(new[:-1])
    carry[0] = int(new[-1])


def build_bitvectors(
    data: np.ndarray,
    binning: Binning,
    *,
    chunk_elements: int = 1 << 20,
) -> list[WAHBitVector]:
    """Vectorised chunked bitmap construction (production fast path).

    Equivalent to :class:`OnlineBitmapBuilder` but ~100x faster: per chunk it
    computes each element's (bin, group, bit) coordinate and accumulates the
    31-bit groups of *all* bins with a single ``np.bincount``, then
    run-length-encodes each bin's groups.

    ``chunk_elements`` is rounded down to a multiple of 31 so chunk
    boundaries coincide with segment boundaries.
    """
    flat = np.asarray(data).ravel()
    n = flat.size
    n_bins = binning.n_bins
    chunk = max(GROUP_BITS, chunk_elements - chunk_elements % GROUP_BITS)

    blocks: list[list[np.ndarray]] = [[] for _ in range(n_bins)]
    carries: list[list[int]] = [[-1] for _ in range(n_bins)]

    bit_weights = (1 << np.arange(GROUP_BITS, dtype=np.int64)).astype(np.float64)
    for start in range(0, n, chunk):
        part = flat[start : start + chunk]
        ids = binning.assign_checked(part)
        m = part.size
        n_groups = -(-m // GROUP_BITS)
        pos = np.arange(m, dtype=np.int64)
        group = pos // GROUP_BITS
        bit = pos % GROUP_BITS
        key = ids * n_groups + group
        acc = np.bincount(key, weights=bit_weights[bit], minlength=n_bins * n_groups)
        groups_matrix = acc.astype(np.int64).astype(np.uint32).reshape(n_bins, n_groups)
        for b in range(n_bins):
            _append_words(blocks[b], compress_groups(groups_matrix[b]), carries[b])

    vectors: list[WAHBitVector] = []
    for b in range(n_bins):
        parts = blocks[b]
        if carries[b][0] != -1:
            parts = parts + [np.asarray([carries[b][0]], dtype=np.uint32)]
        words = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint32)
        vectors.append(WAHBitVector(words, n))
    return vectors


def concatenate_bitvectors(parts: list[WAHBitVector]) -> WAHBitVector:
    """Concatenate bitvectors end to end, merging fills at the seams.

    Only defined when every part except the last covers a multiple of 31
    bits (so group boundaries align) -- which is how Figure 2's sub-block
    partitioning is arranged.  Used by the parallel builder to stitch
    per-core results into one vector identical to a serial build.
    """
    if not parts:
        return WAHBitVector(np.empty(0, dtype=np.uint32), 0)
    for p in parts[:-1]:
        if p.n_bits % GROUP_BITS != 0:
            raise ValueError(
                "all parts but the last must cover a multiple of 31 bits, "
                f"got {p.n_bits}"
            )
    blocks: list[np.ndarray] = []
    carry = [-1]
    for p in parts:
        _append_words(blocks, p.words, carry)
    if carry[0] != -1:
        blocks.append(np.asarray([carry[0]], dtype=np.uint32))
    words = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.uint32)
    return WAHBitVector(words, sum(p.n_bits for p in parts))


def splice_bitvectors(parts: list[WAHBitVector]) -> WAHBitVector:
    """Concatenate bitvectors split at *arbitrary* bit boundaries.

    Generalises :func:`concatenate_bitvectors` to ragged parts whose
    lengths need not be multiples of 31 -- the situation for cluster slab
    decompositions, where each rank's slab is ``rows x ny x nz`` elements
    and row counts are whatever ``linspace`` hands out.  Misaligned parts
    are decompressed to the group domain, bit-shifted into place, and the
    union stream is recompressed; because the final words come from the
    same ``compress_groups`` pass a serial build would use, the result is
    word-identical to building over the concatenated data directly.

    Aligned inputs take the O(words) seam-merge fast path.
    """
    if not parts:
        return WAHBitVector(np.empty(0, dtype=np.uint32), 0)
    if all(p.n_bits % GROUP_BITS == 0 for p in parts[:-1]):
        return concatenate_bitvectors(parts)
    total = sum(p.n_bits for p in parts)
    out = np.zeros(groups_needed(total), dtype=np.uint64)
    offset = 0
    for p in parts:
        if p.n_bits == 0:
            continue
        g = p.to_groups().astype(np.uint64)
        q, r = divmod(offset, GROUP_BITS)
        if r == 0:
            out[q : q + g.size] |= g
        else:
            out[q : q + g.size] |= (g << np.uint64(r)) & np.uint64(GROUP_FULL)
            # Bits spilling into the next group; anything past the end of
            # ``out`` is padding (zero by the WAH invariant), safe to clip.
            spill = out[q + 1 : q + 1 + g.size]
            spill |= g[: spill.size] >> np.uint64(GROUP_BITS - r)
        offset += p.n_bits
    return WAHBitVector.from_groups(out.astype(np.uint32), total)


def bitvectors_to_buffers(vectors: list[WAHBitVector]) -> tuple[int, list[bytes]]:
    """Flatten a partial build into ``(n_bits, per-bin raw word buffers)``.

    The buffers are the bitvectors' little-endian ``uint32`` word streams
    as ``bytes`` -- cheap to pickle across a process boundary (no numpy
    array or dataclass overhead), and reversible with
    :func:`bitvectors_from_buffers`.
    """
    n_bits = vectors[0].n_bits if vectors else 0
    return n_bits, [v.words.tobytes() for v in vectors]


def bitvectors_from_buffers(n_bits: int, buffers: list[bytes]) -> list[WAHBitVector]:
    """Rehydrate :func:`bitvectors_to_buffers` output (zero-copy views)."""
    return [
        WAHBitVector(np.frombuffer(buf, dtype=np.uint32), n_bits)
        for buf in buffers
    ]


def stitch_buffer_parts(
    parts: list[tuple[int, list[bytes]]],
) -> list[WAHBitVector]:
    """Stitch ordered per-block partial builds shipped as raw buffers.

    ``parts[k]`` is :func:`bitvectors_to_buffers` output for sub-block
    ``k``; every block except the last must cover a multiple of 31 bits.
    Returns one stitched vector per bin, word-identical to a serial build
    over the concatenated blocks.
    """
    decoded = [bitvectors_from_buffers(nb, bufs) for nb, bufs in parts]
    if not decoded:
        return []
    n_bins = len(decoded[0])
    if any(len(d) != n_bins for d in decoded):
        raise ValueError("all parts must carry the same number of bins")
    return [
        concatenate_bitvectors([d[b] for d in decoded]) for b in range(n_bins)
    ]


def build_bitvectors_batch(data: np.ndarray, binning: Binning) -> list[WAHBitVector]:
    """One-shot reference builder: materialise each bin's boolean mask.

    This is the *naive* approach the paper rejects for in-situ use (it holds
    one uncompressed bitvector at a time); kept as a correctness oracle and
    for the online-vs-batch ablation benchmark.
    """
    flat = np.asarray(data).ravel()
    ids = binning.assign_checked(flat)
    return [WAHBitVector.from_bools(ids == b) for b in range(binning.n_bins)]
