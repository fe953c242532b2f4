"""Failure-injection tests: corrupted inputs fail cleanly, never crash.

Stored bitmaps outlive the process that wrote them; a truncated transfer
or bit rot must surface as a clean ``ValueError``/``EOFError``, not a
segfault-adjacent numpy error or silent corruption.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import BitmapIndex, EqualWidthBinning, WAHBitVector
from repro.bitmap.codec import WAH
from repro.bitmap.serialization import (
    FLAG_CODEC_TAGS,
    LazyBitmapIndex,
    _header_size,
    index_from_bytes,
    index_to_bytes,
    load_index,
    read_bitvector,
    save_index,
)
from repro.bitmap.wah import FILL_FLAG


def _sample_blob(rng) -> bytes:
    data = rng.normal(0, 1, 500)
    index = BitmapIndex.build(data, EqualWidthBinning.from_data(data, 8))
    return index_to_bytes(index)


def _tagged_index(rng, codec: str = "auto") -> BitmapIndex:
    """An index whose blob carries the V2.1 codec tag table."""
    data = np.concatenate(
        [rng.normal(0, 0.1, 800), rng.uniform(-4, 4, 200)]
    )
    return BitmapIndex.build(
        data, EqualWidthBinning.from_data(data, 8), codec=codec
    )


class TestTruncation:
    def test_every_truncation_point_fails_cleanly(self, rng):
        blob = _sample_blob(rng)
        for cut in range(0, len(blob) - 1, max(1, len(blob) // 40)):
            with pytest.raises((ValueError, EOFError)):
                index_from_bytes(blob[:cut])

    def test_trailing_garbage_tolerated(self, rng):
        """Extra bytes after the record are simply not consumed."""
        blob = _sample_blob(rng)
        index = index_from_bytes(blob + b"GARBAGE")
        assert index.n_elements == 500


class TestBitflips:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        position_frac=st.floats(0.0, 0.999),
        flip=st.integers(0, 7),
    )
    def test_single_bitflip_never_crashes(self, seed, position_frac, flip):
        """A flipped bit either still parses (payload change) or raises a
        clean error -- anything but an unhandled exception type."""
        local = np.random.default_rng(seed)
        data = local.normal(0, 1, 300)
        blob = bytearray(
            index_to_bytes(
                BitmapIndex.build(data, EqualWidthBinning.from_data(data, 6))
            )
        )
        pos = int(position_frac * len(blob))
        blob[pos] ^= 1 << flip
        try:
            index = index_from_bytes(bytes(blob))
        except (ValueError, EOFError, AssertionError):
            return  # clean rejection
        # If it parsed, the object must still be structurally consistent
        # enough to decompress every vector without numpy errors.
        for v in index.bitvectors:
            v.to_groups()


class TestTaggedRecords:
    """V2.1 codec-tagged records: corrupt tag metadata fails loudly
    *before* any payload byte is interpreted."""

    def _blob_and_tag_offset(self, rng, codec="roaring"):
        index = _tagged_index(rng, codec)
        blob = index_to_bytes(index)
        flags = struct.unpack("<HH", blob[4:8])[1]
        assert flags & FLAG_CODEC_TAGS, "fixture must produce a tagged blob"
        return index, blob, _header_size(index.binning)

    def test_unknown_tag_rejected(self, rng):
        index, blob, tag_off = self._blob_and_tag_offset(rng)
        for b in range(index.n_bins):
            corrupt = bytearray(blob)
            corrupt[tag_off + b] = 99
            with pytest.raises(ValueError, match="unknown codec tag 99"):
                index_from_bytes(bytes(corrupt))

    def test_unknown_tag_rejected_lazy(self, rng, tmp_path):
        _, blob, tag_off = self._blob_and_tag_offset(rng)
        corrupt = bytearray(blob)
        corrupt[tag_off] = 200
        path = tmp_path / "badtag.rbmp"
        path.write_bytes(bytes(corrupt))
        from repro.bitmap.serialization import LazyBitmapIndex

        with pytest.raises(ValueError, match="unknown codec tag 200"):
            LazyBitmapIndex.open(path)

    def test_truncated_tag_table_rejected(self, rng):
        index, blob, tag_off = self._blob_and_tag_offset(rng)
        for keep in range(index.n_bins):
            with pytest.raises((ValueError, EOFError)):
                index_from_bytes(blob[: tag_off + keep])

    def test_unknown_flag_bits_rejected(self, rng):
        _, blob, _ = self._blob_and_tag_offset(rng)
        corrupt = bytearray(blob)
        corrupt[6] |= 0x04  # an undefined flags bit
        with pytest.raises(ValueError, match="unsupported format flags"):
            index_from_bytes(bytes(corrupt))

    def test_spurious_ordering_flag_rejected(self, rng):
        """Flipping the (defined) ordering bit on a record that carries
        no sidecar must fail parsing, not silently misread payloads."""
        _, blob, _ = self._blob_and_tag_offset(rng)
        corrupt = bytearray(blob)
        corrupt[6] |= 0x02  # FLAG_ORDERING without a sidecar section
        with pytest.raises((ValueError, EOFError)):
            index_from_bytes(bytes(corrupt))

    def test_tagged_v1_unwritable(self, rng):
        index = _tagged_index(rng, "roaring")
        with pytest.raises(ValueError, match="V1 records cannot carry"):
            index_to_bytes(index, version=1)

    def test_untagged_blob_has_zero_flags(self, rng):
        """All-WAH writes stay byte-identical to the pre-codec format:
        the flags field is zero and no tag table is emitted."""
        index = _tagged_index(rng, "wah")
        blob = index_to_bytes(index)
        assert struct.unpack("<HH", blob[4:8])[1] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        position_frac=st.floats(0.0, 0.999),
        flip=st.integers(0, 7),
    )
    def test_tagged_single_bitflip_never_crashes(
        self, seed, position_frac, flip
    ):
        """The bitflip fuzz of ``TestBitflips``, over a tagged blob: a
        flip in the tag table, a Roaring directory, or a WAH fill word
        is either rejected cleanly or yields a decodable index."""
        local = np.random.default_rng(seed)
        blob = bytearray(index_to_bytes(_tagged_index(local, "auto")))
        pos = int(position_frac * len(blob))
        blob[pos] ^= 1 << flip
        try:
            index = index_from_bytes(bytes(blob))
        except (ValueError, EOFError, AssertionError):
            return  # clean rejection
        for v in index.bitvectors:
            v.to_bools()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_tagged_every_truncation_fails_cleanly(self, seed):
        local = np.random.default_rng(seed)
        blob = index_to_bytes(_tagged_index(local, "roaring"))
        for cut in range(0, len(blob) - 1, max(1, len(blob) // 60)):
            with pytest.raises((ValueError, EOFError)):
                index_from_bytes(blob[:cut])


class TestRandomNoise:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_rejected(self, blob):
        """Arbitrary byte soup never parses as an index (magic guards it),
        and never raises anything but the documented error types."""
        with pytest.raises((ValueError, EOFError)):
            index_from_bytes(blob)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=100))
    def test_random_bitvector_records(self, blob):
        try:
            vector = read_bitvector(io.BytesIO(blob))
        except (ValueError, EOFError, OverflowError):
            return
        # The decode point validates the word stream: a record that
        # parses is a well-formed WAH vector.
        vector.check_invariants()


def _corrupt_wah_index(
    words_fn, n_rows: int = 3100, bad_bin: int = 0
) -> tuple[BitmapIndex, int]:
    """A 4-bin index over sorted data whose ``bad_bin`` words pass through
    ``words_fn`` unvalidated (the constructor trusts its words); returns
    the index and the corrupted bin."""
    data = np.sort(np.random.default_rng(5).uniform(0.0, 4.0, n_rows))
    index = BitmapIndex.build(data, EqualWidthBinning(0.0, 4.0, 4))
    vectors = list(index.bitvectors)
    words = words_fn(vectors[bad_bin].words.copy())
    vectors[bad_bin] = WAHBitVector(words, index.n_elements)
    return BitmapIndex(index.binning, vectors, index.n_elements), bad_bin


def _bump_first_fill(words: np.ndarray, bits: int = 40 * 31) -> np.ndarray:
    words[np.flatnonzero(words & FILL_FLAG)[0]] += np.uint32(bits)
    return words


def _with_last(word: int):
    return lambda w: np.concatenate([w[:-1], np.asarray([word], np.uint32)])


#: Corruptions of one WAH stream that every reader must reject, as
#: ``(words_fn, n_rows, bad_bin)``.  The padding cases use a ragged row
#: count (3107 = 100 groups + 7 bits) and the top bin, whose stream ends
#: in a partial literal.
WAH_CORRUPTIONS = {
    # The shown defect: the record loaded, bin counts summed to more
    # rows than the index has, and joint_counts raised IndexError.
    "fill_plus_40_groups": (_bump_first_fill, 3100, 0),
    "fill_count_not_multiple_of_31": (
        lambda w: _bump_first_fill(w, 1), 3100, 0
    ),
    "zero_fill": (
        lambda w: np.concatenate([np.asarray([FILL_FLAG], np.uint32), w]),
        3100, 0,
    ),
    "missing_word": (lambda w: w[:-1], 3100, 0),
    "padding_bit_set": (lambda w: _with_last(w[-1] | (1 << 30))(w), 3107, 3),
    "one_fill_over_last_group": (_with_last(0xC000001F), 3107, 3),
}


class TestWAHPayloadValidation:
    """``WAHCodec.decode``, the one decode point, rejects WAH streams that
    do not encode exactly the record's bits -- through every reader."""

    @pytest.mark.parametrize("corruption", sorted(WAH_CORRUPTIONS))
    def test_load_index_rejects(self, corruption, tmp_path):
        index, _ = _corrupt_wah_index(*WAH_CORRUPTIONS[corruption])
        path = tmp_path / "corrupt.rbmp"
        save_index(path, index)
        with pytest.raises(ValueError, match="corrupt WAH payload"):
            load_index(path)
        with pytest.raises(ValueError, match="corrupt WAH payload"):
            index_from_bytes(index_to_bytes(index))

    @pytest.mark.parametrize("corruption", sorted(WAH_CORRUPTIONS))
    def test_lazy_get_rejects(self, corruption, tmp_path):
        index, bad_bin = _corrupt_wah_index(*WAH_CORRUPTIONS[corruption])
        path = tmp_path / "corrupt.rbmp"
        save_index(path, index)
        with LazyBitmapIndex.open(path) as lazy:
            with pytest.raises(ValueError, match="corrupt WAH payload"):
                lazy.get(bad_bin)
            good = (bad_bin + 1) % index.n_bins
            assert lazy.get(good) == index.bitvectors[good]

    def test_shard_install_rejects(self, tmp_path):
        from repro.service.cache import CacheKey
        from repro.service.shard import ShardError, ShardPool

        index, bad_bin = _corrupt_wah_index(_bump_first_fill)
        step = tmp_path / "store" / "step_00000"
        step.mkdir(parents=True)
        good = index.bitvectors[bad_bin + 1]
        save_index(step / "x.rbmp", BitmapIndex(
            index.binning,
            [good] * index.n_bins,
            index.n_elements,
        ))
        key = CacheKey(str(step / "x.rbmp"), "x", 0, 0)
        bad = index.bitvectors[bad_bin]
        with ShardPool(tmp_path / "store", 1) as pool:
            with pytest.raises(ShardError, match="corrupt WAH payload"):
                pool.install_replicas(
                    0, [(key, bad.words.astype("<u4").tobytes(), bad.n_bits)]
                )
            assert pool.install_replicas(
                0, [(key, good.words.astype("<u4").tobytes(), good.n_bits)]
            ) == 1

    def test_valid_streams_pass(self, rng):
        for n in (0, 1, 30, 31, 32, 3100):
            for p in (0.0, 0.01, 0.5, 1.0):
                vec = WAHBitVector.from_bools(rng.random(n) < p)
                assert WAH.decode(vec.words, n) == vec

    def test_retired_tag_2_rejected(self, rng):
        """Tag 2 (the retired 64-bit WAH) is an unknown tag."""
        index = _tagged_index(rng, "roaring")
        blob = bytearray(index_to_bytes(index))
        tag_offset = _header_size(index.binning)
        blob[tag_offset] = 2
        with pytest.raises(ValueError, match="unknown codec tag 2"):
            index_from_bytes(bytes(blob))
