"""Tests for concatenation and the Figure-2 split/stitch build.

Figure 2's parallel generation is played out in process here: the data
is cut by :func:`~repro.insitu.parallel.group_aligned_partitions`, each
block is built on its own, and the word buffers are stitched with
:func:`~repro.bitmap.builder.stitch_buffer_parts` -- exactly what a
:class:`~repro.insitu.parallel.SharedCoresEngine` worker pool does
across processes (one case below drives the engine itself).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.binning import (
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
)
from repro.bitmap.builder import (
    bitvectors_to_buffers,
    build_bitvectors,
    concatenate_bitvectors,
    stitch_buffer_parts,
)
from repro.bitmap.wah import WAHBitVector
from repro.insitu.parallel import SharedCoresEngine, group_aligned_partitions


def _split_build(data, binning, n_workers):
    """Figure 2 in process: one build per aligned block, then stitched."""
    return stitch_buffer_parts(
        [
            bitvectors_to_buffers(build_bitvectors(data[b.start : b.stop], binning))
            for b in group_aligned_partitions(data.size, n_workers)
        ]
    )


class TestConcatenate:
    def test_roundtrip(self, rng):
        bits = rng.random(31 * 40) < 0.3
        parts = [
            WAHBitVector.from_bools(bits[:310]),
            WAHBitVector.from_bools(bits[310:620]),
            WAHBitVector.from_bools(bits[620:]),
        ]
        whole = concatenate_bitvectors(parts)
        assert whole == WAHBitVector.from_bools(bits)

    def test_fill_merge_at_seam(self):
        """Zero runs crossing a seam must merge into one fill word."""
        a = WAHBitVector.zeros(31 * 100)
        b = WAHBitVector.zeros(31 * 100)
        out = concatenate_bitvectors([a, b])
        assert out.n_words == 1
        assert out.n_bits == 31 * 200

    def test_partial_last_part(self, rng):
        bits = rng.random(100) < 0.5
        parts = [
            WAHBitVector.from_bools(bits[:62]),
            WAHBitVector.from_bools(bits[62:]),  # 38 bits, partial group
        ]
        assert concatenate_bitvectors(parts) == WAHBitVector.from_bools(bits)

    def test_unaligned_middle_rejected(self, rng):
        parts = [
            WAHBitVector.from_bools(rng.random(30) < 0.5),  # not /31
            WAHBitVector.from_bools(rng.random(31) < 0.5),
        ]
        with pytest.raises(ValueError, match="multiple of 31"):
            concatenate_bitvectors(parts)

    def test_empty_list(self):
        out = concatenate_bitvectors([])
        assert out.n_bits == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 20), min_size=1, max_size=5),
    )
    def test_property_any_aligned_split(self, seed, cuts):
        local = np.random.default_rng(seed)
        n_groups = sum(cuts)
        bits = np.repeat(local.random(n_groups * 4) < 0.4, 8)[: n_groups * 31]
        bits = np.resize(bits, n_groups * 31)
        parts = []
        pos = 0
        for c in cuts:
            parts.append(WAHBitVector.from_bools(bits[pos : pos + c * 31]))
            pos += c * 31
        assert concatenate_bitvectors(parts) == WAHBitVector.from_bools(bits)


class TestParallelBuilder:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
    def test_identical_to_serial(self, n_workers, rng):
        data = rng.normal(0, 1, 12_345)
        binning = EqualWidthBinning.from_data(data, 20)
        serial = build_bitvectors(data, binning)
        assert _split_build(data, binning, n_workers) == serial

    def test_tiny_input_falls_back(self, rng):
        data = rng.random(10)
        binning = EqualWidthBinning(0.0, 1.0, 4)
        assert len(group_aligned_partitions(data.size, 8)) == 1
        assert _split_build(data, binning, 8) == build_bitvectors(data, binning)

    def test_invalid_workers(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            _split_build(rng.random(100), binning, 0)
        with pytest.raises(ValueError):
            SharedCoresEngine(0, binning)

    def test_counts_partition(self, rng):
        data = rng.random(5000)
        binning = EqualWidthBinning(0.0, 1.0, 8)
        vectors = _split_build(data, binning, 4)
        assert sum(v.count() for v in vectors) == 5000

    @pytest.mark.timeout(120)
    def test_shared_cores_engine_matches_split_build(self, rng):
        """The worker pool stitches what the in-process split stitches."""
        data = rng.normal(0, 1, 12_345)
        binning = EqualWidthBinning.from_data(data, 20)
        with SharedCoresEngine(2, binning) as engine:
            assert engine.build_bitvectors(data) == _split_build(data, binning, 2)


BINNING_KINDS = ["distinct", "equal_width", "precision", "explicit"]


def _data_and_binning(kind: str, local, n: int):
    """One (payload, binning) pair per binning family, domain-safe."""
    if kind == "distinct":
        data = local.integers(0, 7, n).astype(np.float64)
        return data, DistinctValueBinning.from_data(data)
    data = local.random(n)
    if kind == "equal_width":
        return data, EqualWidthBinning(0.0, 1.0, 8)
    if kind == "precision":
        return data, PrecisionBinning(0.0, 1.0, digits=1)
    return data, ExplicitBinning(np.array([0.0, 0.1, 0.3, 0.55, 0.8, 1.0]))


class TestStitchProperty:
    """The Shared Cores contract: building arbitrary 31-aligned sub-blocks
    independently and stitching their raw word buffers is word-identical
    to one serial build -- for every binning family, any boundary layout,
    and lengths not divisible by 31."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(BINNING_KINDS),
        cuts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        ragged_tail=st.integers(0, 30),
    )
    def test_arbitrary_aligned_boundaries(self, seed, kind, cuts, ragged_tail):
        local = np.random.default_rng(seed)
        n = sum(cuts) * 31 + ragged_tail
        data, binning = _data_and_binning(kind, local, n)
        serial = build_bitvectors(data, binning)
        bounds = np.cumsum(np.array(cuts) * 31)
        bounds[-1] = n  # the last block absorbs the ragged tail
        parts, lo = [], 0
        for hi in bounds:
            vectors = build_bitvectors(data[lo:hi], binning)
            parts.append(bitvectors_to_buffers(vectors))
            lo = hi
        assert stitch_buffer_parts(parts) == serial

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(BINNING_KINDS),
        n=st.integers(32, 3000),
        workers=st.integers(1, 9),
    )
    def test_worker_partitions_match_serial(self, seed, kind, n, workers):
        """The engine's own partitioner, played out in-process."""
        local = np.random.default_rng(seed)
        data, binning = _data_and_binning(kind, local, n)
        serial = build_bitvectors(data, binning)
        assert _split_build(data, binning, workers) == serial

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 5000), parts=st.integers(1, 16))
    def test_partitions_tile_and_align(self, n, parts):
        blocks = group_aligned_partitions(n, parts)
        assert blocks[0].start == 0
        assert blocks[-1].stop == n
        for prev, nxt in zip(blocks, blocks[1:]):
            assert prev.stop == nxt.start
        for block in blocks[:-1]:
            assert len(block) % 31 == 0 and len(block) > 0
