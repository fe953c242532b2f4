"""Cross-codec differential suite: every codec must agree with WAH.

WAH is the reference codec (the paper's format); Roaring and WAH64 are
storage optimisations.  The contract the pluggable codec layer makes is
*value identity*: any bit pattern, encoded under any codec, must produce
the same counts, the same logical-op results, the same query masks, and
the same spliced cluster masks as the all-WAH pipeline -- byte-identical
wherever a WAH word stream is the output.  These tests enumerate that
contract over a fixed family of adversarial bin shapes; the Hypothesis
suite (``test_codec_property``) drives the same assertions from random
index sets.
"""

import numpy as np
import pytest

from repro.bitmap import (
    CODECS,
    BitmapIndex,
    EqualWidthBinning,
    RoaringBitVector,
    WAH64BitVector,
    WAHBitVector,
    build_bitvectors,
    codec_for_name,
    codec_for_tag,
    codec_of,
    convert,
    index_from_bytes,
    index_to_bytes,
    select_codec,
    splice_bitvectors,
    to_wah,
)
from repro.bitmap.codec import as_wah_all
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.ops import logical_op_streaming
from repro.bitmap.range_index import RangeBitmapIndex
from repro.metrics.bitmap_metrics import (
    conditional_entropy_bitmap,
    emd_spatial_bitmap,
    joint_counts,
    mutual_information_bitmap,
    spatial_bin_differences_bitmap,
)
from repro.mining import correlation_mining

CODEC_NAMES = ("wah", "roaring", "wah64")
OPS = ("and", "or", "xor", "andnot")

#: Lengths straddling every alignment boundary the codecs care about:
#: 31-bit WAH groups, 63-bit WAH64 groups, and 65536-bit Roaring chunks.
LENGTHS = (1, 31, 63, 64, 200, 31 * 63, 65536, 65536 + 37)


def _patterns(n_bits: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Adversarial bin shapes at one length."""
    idx = np.arange(n_bits)
    out = {
        "empty": np.zeros(n_bits, dtype=bool),
        "full": np.ones(n_bits, dtype=bool),
        "single_first": idx == 0,
        "single_last": idx == n_bits - 1,
        "sparse": rng.random(n_bits) < 0.01,
        "dense": rng.random(n_bits) < 0.9,
        "mid": rng.random(n_bits) < 0.5,
        "runs": (idx // max(1, n_bits // 7)) % 2 == 0,
        "alternating": idx % 2 == 0,
    }
    if n_bits > 70:  # one run crossing both group sizes' boundaries
        cross = np.zeros(n_bits, dtype=bool)
        cross[29:66] = True
        out["boundary_run"] = cross
    return out


def _all_cases(rng):
    for n_bits in LENGTHS:
        for name, bits in _patterns(n_bits, rng).items():
            yield f"{name}@{n_bits}", bits


class TestEncodeDecode:
    """Each codec is lossless over every pattern."""

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_roundtrip_to_bools(self, codec_name, rng):
        codec = CODECS[codec_name]
        for label, bits in _all_cases(rng):
            vec = codec.encode_bools(bits)
            assert isinstance(vec, codec.vector_cls), label
            assert np.array_equal(vec.to_bools(), bits), label
            assert vec.count() == int(bits.sum()), label

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_payload_roundtrip(self, codec_name, rng):
        """encode -> u32 payload -> decode is the identity, and the
        exact-size accessor agrees with the materialised payload."""
        codec = CODECS[codec_name]
        for label, bits in _all_cases(rng):
            vec = codec.encode_bools(bits)
            payload = codec.payload_words(vec)
            assert payload.dtype == np.uint32, label
            assert payload.size == codec.payload_n_words(vec), label
            assert payload.size <= codec.max_payload_words(vec.n_bits), label
            back = codec.decode_payload(payload.copy(), vec.n_bits)
            assert np.array_equal(back.to_bools(), bits), label

    @pytest.mark.parametrize("codec_name", ("roaring", "wah64"))
    def test_convert_matches_wah(self, codec_name, rng):
        """convert() and to_wah() are exact inverses through any codec."""
        for label, bits in _all_cases(rng):
            ref = WAHBitVector.from_bools(bits)
            other = convert(ref, codec_name)
            assert codec_of(other).name == codec_name, label
            assert other.count() == ref.count(), label
            round_tripped = to_wah(other)
            assert np.array_equal(round_tripped.words, ref.words), label


def _combine(a, b, op):
    """Same-codec Roaring / WAH64 pairs use the codec's native operator;
    every other pairing goes through the kernel ladder."""
    if type(a) is type(b) and not isinstance(a, WAHBitVector):
        return {
            "and": lambda: a & b,
            "or": lambda: a | b,
            "xor": lambda: a ^ b,
            "andnot": lambda: a.andnot(b),
        }[op]()
    return auto_op_many((a, b), op)


class TestLogicalOps:
    """op(a, b) is value-identical for every codec pairing and op."""

    @pytest.mark.parametrize("name_a", CODEC_NAMES)
    @pytest.mark.parametrize("name_b", CODEC_NAMES)
    def test_ops_match_boolean_oracle(self, name_a, name_b, rng):
        ca, cb = CODECS[name_a], CODECS[name_b]
        for n_bits in (63, 200, 65536 + 37):
            patterns = _patterns(n_bits, rng)
            pairs = [
                ("sparse", "dense"),
                ("mid", "runs"),
                ("empty", "full"),
                ("alternating", "mid"),
                ("single_first", "single_last"),
            ]
            for pa, pb in pairs:
                bits_a, bits_b = patterns[pa], patterns[pb]
                va, vb = ca.encode_bools(bits_a), cb.encode_bools(bits_b)
                for op in OPS:
                    oracle = _bool_op(bits_a, bits_b, op)
                    result = _combine(va, vb, op)
                    label = f"{pa} {op} {pb} @{n_bits} [{name_a}x{name_b}]"
                    assert np.array_equal(
                        result.to_bools(), oracle
                    ), label
                    assert auto_count_many((va, vb), op) == int(
                        oracle.sum()
                    ), label
                    # The WAH rendering of the result is byte-identical
                    # to the all-WAH computation.
                    ref = logical_op_streaming(
                        WAHBitVector.from_bools(bits_a),
                        WAHBitVector.from_bools(bits_b),
                        op,
                    )
                    assert np.array_equal(
                        to_wah(result).words, ref.words
                    ), label

    def test_mixed_pairs_return_wah(self, rng):
        bits = _patterns(200, rng)
        roaring = CODECS["roaring"].encode_bools(bits["sparse"])
        wah64 = CODECS["wah64"].encode_bools(bits["dense"])
        assert isinstance(auto_op_many((roaring, wah64), "and"), WAHBitVector)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_same_codec_pairs_stay_native(self, codec_name, rng):
        codec = CODECS[codec_name]
        bits = _patterns(200, rng)
        a = codec.encode_bools(bits["mid"])
        b = codec.encode_bools(bits["runs"])
        assert isinstance(_combine(a, b, "or"), codec.vector_cls)

    def test_length_mismatch_rejected(self):
        a = CODECS["roaring"].zeros(100)
        b = CODECS["wah64"].zeros(101)
        with pytest.raises(ValueError, match="length mismatch"):
            auto_op_many((a, b), "and")
        with pytest.raises(ValueError, match="length mismatch"):
            auto_count_many((a, b), "and")


def _bool_op(a: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    return a & ~b


class TestIndexQueries:
    """Index builds under any codec answer queries byte-identically."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(404)
        # Heavily skewed so bins span empty, sparse, and dense shapes.
        return np.concatenate([
            rng.normal(0.0, 1.0, 4000),
            rng.uniform(4.0, 5.0, 600),
            np.full(400, -3.0),
        ])

    @pytest.fixture(scope="class")
    def binning(self, data):
        return EqualWidthBinning.from_data(data, 16)

    @pytest.fixture(scope="class")
    def reference(self, data, binning):
        return BitmapIndex.build(data, binning, codec="wah")

    @pytest.mark.parametrize("codec_name", ("roaring", "wah64", "auto"))
    def test_masks_and_counts_identical(
        self, codec_name, data, binning, reference
    ):
        index = BitmapIndex.build(data, binning, codec=codec_name)
        assert np.array_equal(index.bin_counts(), reference.bin_counts())
        for bins in ([0], [2, 3, 4], list(range(16)), [15]):
            ids = np.asarray(bins)
            mask = index.query_bins(ids)
            ref_mask = reference.query_bins(ids)
            assert isinstance(mask, WAHBitVector)
            assert np.array_equal(mask.words, ref_mask.words)
        lo, hi = float(binning.edges[3]), float(binning.edges[9])
        assert np.array_equal(
            index.query_value_range(lo, hi).words,
            reference.query_value_range(lo, hi).words,
        )
        assert np.array_equal(
            index.group_matrix(), reference.group_matrix()
        )

    def test_auto_uses_multiple_codecs(self, data, binning):
        """The skewed fixture exercises the policy: codec='auto' must
        actually diversify, or the differential suite proves nothing."""
        index = BitmapIndex.build(data, binning, codec="auto")
        kinds = {type(v).__name__ for v in index.bitvectors}
        assert len(kinds) >= 2, f"auto selected only {kinds}"
        for v in index.bitvectors:
            assert select_codec(to_wah(v)).vector_cls is type(v)

    @pytest.mark.parametrize("codec_name", ("roaring", "wah64", "auto"))
    def test_serialization_roundtrip_preserves_codecs(
        self, codec_name, data, binning, reference
    ):
        index = BitmapIndex.build(data, binning, codec=codec_name)
        blob = index_to_bytes(index)
        back = index_from_bytes(blob)
        assert [type(v) for v in back.bitvectors] == [
            type(v) for v in index.bitvectors
        ]
        for v_back, v_ref in zip(back.bitvectors, reference.bitvectors):
            assert np.array_equal(to_wah(v_back).words, v_ref.words)


class TestSplice:
    """The cluster splice is codec-blind: mixed-codec slab parts produce
    the exact WAH stream the all-WAH splice produces."""

    #: Non-word-aligned part lengths: boundaries land mid-group.
    PARTS = (217, 340, 155)

    def test_mixed_codec_splice_byte_identical(self, rng):
        bools = [rng.random(n) < p for n, p in zip(self.PARTS, (0.02, 0.5, 0.9))]
        wah_parts = [WAHBitVector.from_bools(b) for b in bools]
        reference = splice_bitvectors(wah_parts)
        mixed = [
            WAHBitVector.from_bools(bools[0]),
            RoaringBitVector.from_bools(bools[1]),
            WAH64BitVector.from_bools(bools[2]),
        ]
        spliced = splice_bitvectors(mixed)
        assert isinstance(spliced, WAHBitVector)
        assert np.array_equal(spliced.words, reference.words)
        assert np.array_equal(
            spliced.to_bools(), np.concatenate(bools)
        )

    @pytest.mark.parametrize("codec_name", ("roaring", "wah64"))
    def test_uniform_non_wah_splice(self, codec_name, rng):
        codec = CODECS[codec_name]
        bools = [rng.random(n) < 0.3 for n in self.PARTS]
        reference = splice_bitvectors(
            [WAHBitVector.from_bools(b) for b in bools]
        )
        spliced = splice_bitvectors([codec.encode_bools(b) for b in bools])
        assert np.array_equal(spliced.words, reference.words)


class TestKernelBoundaries:
    """The fused k-way kernels accept mixed-codec inputs and agree."""

    def test_many_ops_codec_blind(self, rng):
        from repro.bitmap import auto_count_many, auto_op_many, stack_groups

        bools = [rng.random(500) < p for p in (0.01, 0.3, 0.6, 0.95)]
        wah = [WAHBitVector.from_bools(b) for b in bools]
        mixed = [
            WAHBitVector.from_bools(bools[0]),
            RoaringBitVector.from_bools(bools[1]),
            WAH64BitVector.from_bools(bools[2]),
            RoaringBitVector.from_bools(bools[3]),
        ]
        for op in ("and", "or", "xor"):
            assert np.array_equal(
                auto_op_many(mixed, op).words, auto_op_many(wah, op).words
            )
            assert auto_count_many(mixed, op) == auto_count_many(wah, op)
        assert np.array_equal(
            stack_groups(mixed, 500), stack_groups(wah, 500)
        )

    def test_as_wah_all_identity_for_wah(self, rng):
        vectors = [WAHBitVector.from_bools(rng.random(100) < 0.5)]
        assert as_wah_all(vectors)[0] is vectors[0]



def _mining_summary(result):
    return (
        result.value_hits,
        result.spatial_hits,
        result.n_pairs_evaluated,
        result.n_pairs_survived,
        result.n_units_evaluated,
    )


#: Each public analysis on an index pair, reduced to comparable values.
_ANALYSES = {
    "joint_counts": lambda a, b: joint_counts(a, b).tolist(),
    "mutual_information": mutual_information_bitmap,
    "conditional_entropy": conditional_entropy_bitmap,
    "spatial_bin_differences": lambda a, b: spatial_bin_differences_bitmap(
        a, b
    ).tolist(),
    "emd_spatial": emd_spatial_bitmap,
    "correlation_mining": lambda a, b: _mining_summary(
        correlation_mining(
            a, b, value_threshold=1e-4, spatial_threshold=0.05, unit_bits=31 * 64
        )
    ),
    "range_from_equality": lambda a, b: [
        v.words.tolist()
        for v in RangeBitmapIndex.from_equality_index(a).cumulative
    ],
}


class TestMixedCodecAnalyses:
    """Analyses on a ``codec="auto"`` index (WAH bins plus a Roaring bin,
    compressed enough for the run-merge routes) equal the all-WAH ones."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(1)
        n = 1 << 18
        binning = EqualWidthBinning(0, 64, 64)
        built = {}
        for var in ("a", "b"):
            data = np.sort(rng.uniform(0, 60, n))
            data[rng.choice(n, 240, replace=False)] = 63.5
            built[var] = {
                codec: BitmapIndex.build(data, binning, codec=codec)
                for codec in ("wah", "auto")
            }
        return built

    def test_auto_index_mixes_codecs(self, pairs):
        auto = pairs["a"]["auto"]
        assert {codec_of(v).name for v in auto.bitvectors} == {"wah", "roaring"}
        assert auto.compression_ratio() < 0.01

    @pytest.mark.parametrize("analysis", sorted(_ANALYSES))
    def test_matches_all_wah(self, analysis, pairs):
        run = _ANALYSES[analysis]
        expected = run(pairs["a"]["wah"], pairs["b"]["wah"])
        assert run(pairs["a"]["auto"], pairs["b"]["auto"]) == expected

class TestRegistry:
    def test_names_tags_types_bijective(self):
        assert {c.name for c in CODECS.values()} == set(CODEC_NAMES)
        tags = {c.tag for c in CODECS.values()}
        assert tags == {0, 1, 2}
        for c in CODECS.values():
            assert codec_for_name(c.name) is c
            assert codec_for_tag(c.tag) is c
            assert codec_of(c.zeros(10)) is c

    def test_unknown_lookups_raise(self):
        with pytest.raises(ValueError, match="unknown codec 'bbc'"):
            codec_for_name("bbc")
        with pytest.raises(ValueError, match="unknown codec tag 99"):
            codec_for_tag(99)
        with pytest.raises(TypeError, match="not a registered"):
            codec_of(np.zeros(4))

    def test_wah_is_tag_zero_reference(self):
        assert CODECS["wah"].tag == 0
        assert CODECS["wah"].vector_cls is WAHBitVector


class TestSelectionPolicy:
    def test_deterministic_and_total(self, rng):
        """Every vector gets exactly one codec, stable across calls."""
        for _, bits in _all_cases(rng):
            vec = WAHBitVector.from_bools(bits)
            first = select_codec(vec)
            assert select_codec(vec) is first

    def test_policy_reaches_all_codecs(self):
        rng = np.random.default_rng(7)
        n = 1 << 17
        picks = set()
        for p in (0.0, 0.0005, 0.004, 0.02, 0.1, 0.5, 1.0):
            vec = WAHBitVector.from_bools(rng.random(n) < p)
            picks.add(select_codec(vec).name)
        assert picks == set(CODEC_NAMES)

    def test_runs_stay_wah(self):
        bits = np.zeros(1 << 16, dtype=bool)
        bits[1000:30000] = True
        assert select_codec(WAHBitVector.from_bools(bits)).name == "wah"

    def test_build_bitvectors_codec_arg(self, rng):
        data = rng.normal(0, 1, 2000)
        binning = EqualWidthBinning.from_data(data, 8)
        wah_vecs = build_bitvectors(data, binning)
        for name in CODEC_NAMES:
            vecs = build_bitvectors(data, binning, codec=name)
            assert all(type(v) is CODECS[name].vector_cls for v in vecs)
            for v, ref in zip(vecs, wah_vecs):
                assert np.array_equal(to_wah(v).words, ref.words)
        with pytest.raises(ValueError, match="unknown codec"):
            build_bitvectors(data, binning, codec="nope")
