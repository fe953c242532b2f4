"""Property-based cross-codec tests driven by Hypothesis.

The fixed-pattern differential suite (``test_codec_differential``) pins
the adversarial shapes we know about; here random index sets probe the
shapes we don't.  For every generated bit set and every pairing of
storage codecs, ``store -> load -> op -> count`` must agree with the
boolean-array oracle and with the all-WAH reference, and codec-tagged
records must round-trip exactly -- the same discipline
``test_property_serialization`` applies to the untagged format.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmap import (
    CODECS,
    BitmapIndex,
    EqualWidthBinning,
    WAHBitVector,
    index_from_bytes,
    index_to_bytes,
    save_index,
    select_codec,
    splice_bitvectors,
)
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.ops import logical_op_streaming
from repro.bitmap.serialization import LazyBitmapIndex, serialized_size
from tests.bitmap.test_codec_differential import _stored

CODEC_NAMES = ("wah", "roaring")
OPS = ("and", "or", "xor", "andnot")


@st.composite
def index_sets(draw, max_bits=4096):
    """A bit length plus two random index sets over it.

    Sizes are drawn log-uniformly so tiny vectors (every bit is a
    boundary case) and multi-group vectors both appear; set densities
    span empty through full.
    """
    n_bits = draw(st.integers(min_value=1, max_value=max_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(2):
        density = draw(
            st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 1.0])
        )
        k = int(round(density * n_bits))
        sets.append(np.sort(rng.choice(n_bits, size=k, replace=False)))
    return n_bits, sets[0], sets[1]


def _bool_op(a, b, op):
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    return a & ~b


def _bools(indices, n_bits):
    bits = np.zeros(n_bits, dtype=bool)
    bits[indices] = True
    return bits


class TestOpOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        case=index_sets(),
        name_a=st.sampled_from(CODEC_NAMES),
        name_b=st.sampled_from(CODEC_NAMES),
        op=st.sampled_from(OPS),
    )
    def test_encode_op_count_matches_oracle_and_wah(
        self, case, name_a, name_b, op
    ):
        n_bits, idx_a, idx_b = case
        bits_a, bits_b = _bools(idx_a, n_bits), _bools(idx_b, n_bits)
        oracle = _bool_op(bits_a, bits_b, op)

        va = _stored(bits_a, name_a)
        vb = _stored(bits_b, name_b)
        assert va.count() == idx_a.size
        assert auto_count_many((va, vb), op) == int(oracle.sum())

        result = auto_op_many((va, vb), op)
        assert np.array_equal(result.to_bools(), oracle)
        wah_ref = logical_op_streaming(
            WAHBitVector.from_bools(bits_a), WAHBitVector.from_bools(bits_b), op
        )
        assert np.array_equal(result.words, wah_ref.words)

    @settings(max_examples=60, deadline=None)
    @given(case=index_sets(), name=st.sampled_from(CODEC_NAMES))
    def test_encode_decode_identity(self, case, name):
        n_bits, idx, _ = case
        codec = CODECS[name]
        vec = WAHBitVector.from_indices(idx, n_bits)
        payload = codec.encode(vec)
        assert payload.size == codec.payload_n_words(vec)
        back = codec.decode(payload.copy(), n_bits)
        assert back == vec

    @settings(max_examples=60, deadline=None)
    @given(case=index_sets())
    def test_selection_is_pure(self, case):
        n_bits, idx, _ = case
        vec = WAHBitVector.from_indices(idx, n_bits)
        picked = select_codec(vec)
        assert select_codec(vec) is picked
        assert picked.payload_n_words(vec) == min(
            c.payload_n_words(vec) for c in CODECS.values()
        )


@st.composite
def codec_indices(draw):
    """A random index built under a random codec directive."""
    n = draw(st.integers(min_value=1, max_value=600))
    bins = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Mixture data: a dense cluster plus a broad tail, so auto-selected
    # indices actually mix codecs at small n.
    data = np.where(
        rng.random(n) < 0.5, rng.normal(0, 0.05, n), rng.uniform(-4, 4, n)
    )
    codec = draw(st.sampled_from(CODEC_NAMES + ("auto",)))
    binning = EqualWidthBinning.from_data(data, bins)
    return BitmapIndex.build(data, binning, codec=codec)


class TestTaggedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(index=codec_indices())
    def test_tagged_record_roundtrip(self, index):
        blob = index_to_bytes(index)
        assert len(blob) == serialized_size(index)
        back = index_from_bytes(blob)
        assert index_to_bytes(back) == blob
        assert back.bitvectors == index.bitvectors
        assert np.array_equal(back.bin_counts(), index.bin_counts())

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(index=codec_indices())
    def test_lazy_reader_agrees_with_eager(self, index, tmp_path):
        path = tmp_path / "tagged.rbmp"
        save_index(path, index)
        with LazyBitmapIndex.open(path) as lazy:
            expected = [
                select_codec(v) if index.codec == "auto" else CODECS[index.codec]
                for v in index.bitvectors
            ]
            saved = 4 * sum(
                v.n_words - c.payload_n_words(v)
                for c, v in zip(expected, index.bitvectors)
            )
            if index.codec == "auto" and saved <= index.n_bins:
                # The tag table would cost more than the picks save.
                expected = [CODECS["wah"]] * index.n_bins
            assert lazy.codecs == expected
            back = lazy.materialize()
        for v_back, v_orig in zip(back.bitvectors, index.bitvectors):
            assert type(v_back) is WAHBitVector
            assert np.array_equal(v_back.words, v_orig.words)

    @settings(max_examples=30, deadline=None)
    @given(index=codec_indices())
    def test_truncation_always_clean(self, index):
        """Any cut through a tagged record -- including inside the tag
        table -- raises a documented error, never garbage."""
        blob = index_to_bytes(index)
        step = max(1, len(blob) // 100)
        for cut in range(0, len(blob), step):
            with pytest.raises((ValueError, EOFError)):
                index_from_bytes(blob[:cut])


class TestSpliceProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=300),
                st.sampled_from(CODEC_NAMES),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_mixed_codec_splice_matches_wah(self, parts):
        bools, vectors, wah_parts = [], [], []
        for n, name, seed in parts:
            bits = np.random.default_rng(seed).random(n) < 0.4
            bools.append(bits)
            vectors.append(_stored(bits, name))
            wah_parts.append(WAHBitVector.from_bools(bits))
        spliced = splice_bitvectors(vectors)
        reference = splice_bitvectors(wah_parts)
        assert np.array_equal(spliced.words, reference.words)
        assert np.array_equal(spliced.to_bools(), np.concatenate(bools))
