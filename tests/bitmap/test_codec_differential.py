"""Cross-codec differential suite: every stored codec must agree with WAH.

The storage codec is a property of the file: a bin is written under WAH
or Roaring (or the per-bin smallest, ``"auto"``), and every reader
decodes it back to WAH.  The contract is *value identity*: any bit
pattern, stored under any codec and read back, must produce the same
counts, the same logical-op results, the same query masks, and the same
spliced cluster masks as the all-WAH pipeline -- byte-identical wherever
a WAH word stream is the output.  These tests enumerate that contract
over a fixed family of adversarial bin shapes; the Hypothesis suite
(``test_codec_property``) drives the same assertions from random index
sets.
"""

import numpy as np
import pytest

from repro.bitmap import (
    CODECS,
    BitmapIndex,
    EqualWidthBinning,
    LazyBitmapIndex,
    RoaringBitVector,
    WAHBitVector,
    codec_for_name,
    codec_for_tag,
    index_from_bytes,
    index_to_bytes,
    save_index,
    select_codec,
    serialized_size,
    splice_bitvectors,
)
from repro.bitmap.kernels import auto_count_many, auto_op_many, stack_groups
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

CODEC_NAMES = ("wah", "roaring")
OPS = ("and", "or", "xor", "andnot")

#: Lengths straddling every alignment boundary the codecs care about:
#: 31-bit WAH groups and 65536-bit Roaring chunks.
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
    if n_bits > 70:  # one run crossing two group boundaries
        cross = np.zeros(n_bits, dtype=bool)
        cross[29:66] = True
        out["boundary_run"] = cross
    return out


def _all_cases(rng):
    for n_bits in LENGTHS:
        for name, bits in _patterns(n_bits, rng).items():
            yield f"{name}@{n_bits}", bits


def _stored(bits: np.ndarray, codec_name: str) -> WAHBitVector:
    """The vector a reader hands back for ``bits`` stored under a codec."""
    codec = CODECS[codec_name]
    vec = WAHBitVector.from_bools(bits)
    return codec.decode(codec.encode(vec).copy(), vec.n_bits)


def _reloaded(index: BitmapIndex) -> BitmapIndex:
    return index_from_bytes(index_to_bytes(index))


class TestEncodeDecode:
    """Each codec is lossless over every pattern, and decodes to WAH."""

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_roundtrip_to_bools(self, codec_name, rng):
        for label, bits in _all_cases(rng):
            vec = _stored(bits, codec_name)
            assert type(vec) is WAHBitVector, label
            assert np.array_equal(vec.to_bools(), bits), label
            assert vec.count() == int(bits.sum()), label

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_payload_roundtrip(self, codec_name, rng):
        """encode -> u32 payload -> decode is the identity, and the
        exact-size accessor agrees with the materialised payload."""
        codec = CODECS[codec_name]
        for label, bits in _all_cases(rng):
            vec = WAHBitVector.from_bools(bits)
            payload = codec.encode(vec)
            assert payload.dtype == np.uint32, label
            assert payload.size == codec.payload_n_words(vec), label
            assert payload.size <= codec.max_payload_words(vec.n_bits), label
            back = codec.decode(payload.copy(), vec.n_bits)
            assert np.array_equal(back.to_bools(), bits), label

    @pytest.mark.parametrize("codec_name", ("roaring",))
    def test_convert_matches_wah(self, codec_name, rng):
        """A Roaring payload decodes to the exact WAH words it was
        encoded from (canonical WAH: word-identical, not just
        bit-identical), and keeps the Roaring vector's count."""
        codec = CODECS[codec_name]
        for label, bits in _all_cases(rng):
            ref = WAHBitVector.from_bools(bits)
            payload = codec.encode(ref)
            native = RoaringBitVector.from_u32_payload(payload, ref.n_bits)
            assert native.count() == ref.count(), label
            back = codec.decode(payload, ref.n_bits)
            assert np.array_equal(back.words, ref.words), label


def _combine(a, b, op):
    """Same-type Roaring pairs use Roaring's native operator (the codec
    ablation's path); WAH operands go through the kernel ladder."""
    if isinstance(a, RoaringBitVector):
        return {
            "and": lambda: a & b,
            "or": lambda: a | b,
            "xor": lambda: a ^ b,
            "andnot": lambda: a.andnot(b),
        }[op]()
    return auto_op_many((a, b), op)


class TestLogicalOps:
    """op(a, b) is value-identical for every stored-codec pairing."""

    @pytest.mark.parametrize("name_a", CODEC_NAMES)
    @pytest.mark.parametrize("name_b", CODEC_NAMES)
    def test_ops_match_boolean_oracle(self, name_a, name_b, rng):
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
                va, vb = _stored(bits_a, name_a), _stored(bits_b, name_b)
                ref = {
                    op: logical_op_streaming(
                        WAHBitVector.from_bools(bits_a),
                        WAHBitVector.from_bools(bits_b),
                        op,
                    )
                    for op in OPS
                }
                for op in OPS:
                    oracle = _bool_op(bits_a, bits_b, op)
                    result = auto_op_many((va, vb), op)
                    label = f"{pa} {op} {pb} @{n_bits} [{name_a}x{name_b}]"
                    assert np.array_equal(result.to_bools(), oracle), label
                    assert auto_count_many((va, vb), op) == int(
                        oracle.sum()
                    ), label
                    # Byte-identical to the all-WAH computation.
                    assert np.array_equal(result.words, ref[op].words), label

    def test_mixed_pairs_return_wah(self, rng):
        bits = _patterns(200, rng)
        roaring = _stored(bits["sparse"], "roaring")
        wah = _stored(bits["dense"], "wah")
        assert isinstance(auto_op_many((roaring, wah), "and"), WAHBitVector)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_same_codec_pairs_stay_native(self, codec_name, rng):
        """WAH pairs combine to WAH; Roaring's in-memory operators (kept
        for the codec ablation) stay Roaring and agree with the ladder."""
        bits = _patterns(200, rng)
        wah = auto_op_many(
            (WAHBitVector.from_bools(bits["mid"]),
             WAHBitVector.from_bools(bits["runs"])),
            "or",
        )
        if codec_name == "wah":
            a = WAHBitVector.from_bools(bits["mid"])
            b = WAHBitVector.from_bools(bits["runs"])
            cls = WAHBitVector
        else:
            a = RoaringBitVector.from_bools(bits["mid"])
            b = RoaringBitVector.from_bools(bits["runs"])
            cls = RoaringBitVector
        out = _combine(a, b, "or")
        assert isinstance(out, cls)
        assert np.array_equal(out.to_bools(), wah.to_bools())

    def test_length_mismatch_rejected(self):
        a = _stored(np.zeros(100, dtype=bool), "roaring")
        b = _stored(np.zeros(101, dtype=bool), "wah")
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
    """Indices stored under any codec answer queries byte-identically
    once read back."""

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

    @pytest.mark.parametrize("codec_name", ("roaring", "auto"))
    def test_masks_and_counts_identical(
        self, codec_name, data, binning, reference
    ):
        index = _reloaded(BitmapIndex.build(data, binning, codec=codec_name))
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

    def test_auto_uses_multiple_codecs(self, data, binning, tmp_path):
        """The skewed fixture exercises the rule: the codec='auto' record
        must actually mix codecs, or the differential suite proves
        nothing; each bin's tag is the codec select_codec picks."""
        index = BitmapIndex.build(data, binning, codec="auto")
        save_index(tmp_path / "auto.rbmp", index)
        with LazyBitmapIndex.open(tmp_path / "auto.rbmp") as lazy:
            names = [c.name for c in lazy.codecs]
        assert set(names) == set(CODEC_NAMES), names
        assert names == [select_codec(v).name for v in index.bitvectors]

    @pytest.mark.parametrize("codec_name", ("roaring", "auto"))
    def test_serialization_roundtrip_preserves_codecs(
        self, codec_name, data, binning, reference
    ):
        """A loaded index records its file's codec, so load -> save
        rewrites the same bytes; its bins are WAH, word-identical to the
        reference."""
        index = BitmapIndex.build(data, binning, codec=codec_name)
        blob = index_to_bytes(index)
        back = index_from_bytes(blob)
        assert back.codec == codec_name
        assert index_to_bytes(back) == blob
        for v_back, v_ref in zip(back.bitvectors, reference.bitvectors):
            assert type(v_back) is WAHBitVector
            assert np.array_equal(v_back.words, v_ref.words)


class TestSplice:
    """The cluster splice over slab parts read back from mixed-codec
    records produces the exact WAH stream the all-WAH splice produces."""

    #: Non-word-aligned part lengths: boundaries land mid-group.
    PARTS = (217, 340, 155)

    def test_mixed_codec_splice_byte_identical(self, rng):
        bools = [rng.random(n) < p for n, p in zip(self.PARTS, (0.02, 0.5, 0.9))]
        wah_parts = [WAHBitVector.from_bools(b) for b in bools]
        reference = splice_bitvectors(wah_parts)
        mixed = [
            _stored(bools[0], "wah"),
            _stored(bools[1], "roaring"),
            _stored(bools[2], "roaring"),
        ]
        spliced = splice_bitvectors(mixed)
        assert isinstance(spliced, WAHBitVector)
        assert np.array_equal(spliced.words, reference.words)
        assert np.array_equal(
            spliced.to_bools(), np.concatenate(bools)
        )

    @pytest.mark.parametrize("codec_name", ("roaring",))
    def test_uniform_non_wah_splice(self, codec_name, rng):
        bools = [rng.random(n) < 0.3 for n in self.PARTS]
        reference = splice_bitvectors(
            [WAHBitVector.from_bools(b) for b in bools]
        )
        spliced = splice_bitvectors([_stored(b, codec_name) for b in bools])
        assert np.array_equal(spliced.words, reference.words)


class TestKernelBoundaries:
    """The fused k-way kernels agree on operands read back from records
    of every codec."""

    def test_many_ops_codec_blind(self, rng):
        bools = [rng.random(500) < p for p in (0.01, 0.3, 0.6, 0.95)]
        wah = [WAHBitVector.from_bools(b) for b in bools]
        mixed = [
            _stored(b, c)
            for b, c in zip(bools, ("wah", "roaring", "wah", "roaring"))
        ]
        for op in ("and", "or", "xor"):
            assert np.array_equal(
                auto_op_many(mixed, op).words, auto_op_many(wah, op).words
            )
            assert auto_count_many(mixed, op) == auto_count_many(wah, op)
        assert np.array_equal(
            stack_groups(mixed, 500), stack_groups(wah, 500)
        )


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
    """Analyses on indices read back from ``codec="auto"`` and
    ``"roaring"`` records (compressed enough for the run-merge routes)
    equal the all-WAH ones."""

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
                codec: _reloaded(BitmapIndex.build(data, binning, codec=codec))
                for codec in ("wah", "roaring", "auto")
            }
        return built

    def test_auto_index_mixes_codecs(self, pairs):
        auto = pairs["a"]["auto"]
        assert auto.codec == "auto"
        assert {select_codec(v).name for v in auto.bitvectors} == {
            "wah", "roaring"
        }
        assert all(type(v) is WAHBitVector for v in auto.bitvectors)
        assert auto.compression_ratio() < 0.01
        assert serialized_size(auto) < serialized_size(pairs["a"]["wah"])

    @pytest.mark.parametrize("analysis", sorted(_ANALYSES))
    def test_matches_all_wah(self, analysis, pairs):
        run = _ANALYSES[analysis]
        expected = run(pairs["a"]["wah"], pairs["b"]["wah"])
        for codec in ("roaring", "auto"):
            assert run(pairs["a"][codec], pairs["b"][codec]) == expected


class TestRegistry:
    def test_names_tags_types_bijective(self):
        assert {c.name for c in CODECS.values()} == set(CODEC_NAMES)
        tags = {c.tag for c in CODECS.values()}
        assert tags == {0, 1}
        for c in CODECS.values():
            assert codec_for_name(c.name) is c
            assert codec_for_tag(c.tag) is c

    def test_unknown_lookups_raise(self):
        with pytest.raises(ValueError, match="unknown codec 'bbc'"):
            codec_for_name("bbc")
        with pytest.raises(ValueError, match="unknown codec 'wah64'"):
            codec_for_name("wah64")
        with pytest.raises(ValueError, match="unknown codec tag 99"):
            codec_for_tag(99)
        with pytest.raises(ValueError, match="unknown codec tag 2"):
            codec_for_tag(2)

    def test_wah_is_tag_zero_reference(self):
        assert CODECS["wah"].tag == 0
        assert list(CODECS)[0] == "wah"  # first in line for ties


def _payloads(vec: WAHBitVector) -> dict[str, int]:
    return {name: c.payload_n_words(vec) for name, c in CODECS.items()}


class TestSelectionPolicy:
    """select_codec keeps the smallest exact payload, ties going to WAH."""

    def test_deterministic_and_total(self, rng):
        """Every vector gets exactly one codec, stable across calls, and
        it is the smallest payload (WAH on ties)."""
        for label, bits in _all_cases(rng):
            vec = WAHBitVector.from_bools(bits)
            first = select_codec(vec)
            assert select_codec(vec) is first, label
            sizes = _payloads(vec)
            assert sizes[first.name] == min(sizes.values()), label
            if sizes["wah"] == min(sizes.values()):
                assert first.name == "wah", label

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

    def test_build_codec_arg(self, rng):
        """BitmapIndex.build(codec=...) keeps every bin WAH and only sets
        the written codec; unknown names are rejected."""
        data = rng.normal(0, 1, 2000)
        binning = EqualWidthBinning.from_data(data, 8)
        wah = BitmapIndex.build(data, binning)
        for name in CODEC_NAMES + ("auto",):
            index = BitmapIndex.build(data, binning, codec=name)
            assert index.codec == name
            for v, ref in zip(index.bitvectors, wah.bitvectors):
                assert type(v) is WAHBitVector
                assert np.array_equal(v.words, ref.words)
        for bad in ("nope", "wah64"):
            with pytest.raises(ValueError, match="unknown codec"):
                BitmapIndex.build(data, binning, codec=bad)


class TestAutoNeverLarger:
    """A ``codec="auto"`` record is never larger than the all-WAH one, bin
    for bin, and equals the per-bin minimum."""

    @staticmethod
    def _check(index: BitmapIndex, tmp_path) -> None:
        paths = {}
        for codec in ("wah", "auto"):
            paths[codec] = tmp_path / f"{codec}.rbmp"
            save_index(paths[codec], BitmapIndex(
                index.binning, index.bitvectors, index.n_elements, codec=codec
            ))
        with LazyBitmapIndex.open(paths["wah"]) as wah, LazyBitmapIndex.open(
            paths["auto"]
        ) as auto:
            for b, v in enumerate(index.bitvectors):
                assert auto.nbytes_of(b) <= wah.nbytes_of(b), b
                assert auto.nbytes_of(b) == 12 + 4 * min(_payloads(v).values())
                assert auto.get(b) == v

    @pytest.mark.parametrize(
        "density", [0.0, 1e-4, 1e-3, 0.01, 0.05, 0.3, 0.7, 0.99, 1.0]
    )
    def test_density_sweep(self, density, tmp_path):
        rng = np.random.default_rng(31)
        n = 3 * 65536 + 101
        bits = rng.random(n) < density
        data = np.where(bits, 1.0, 0.0) + rng.uniform(0, 0.5, n)
        index = BitmapIndex.build(data, EqualWidthBinning(0.0, 1.5, 6))
        self._check(index, tmp_path)

    def test_heat3d_index(self, tmp_path):
        """The insitu_select field shape: 16x32x64 Heat3D, step 3, under
        the 821-bin PrecisionBinning(19, 101, digits=1)."""
        from repro.bitmap import PrecisionBinning
        from repro.sims import Heat3D

        sim = Heat3D((16, 32, 64), seed=11)
        for _ in range(3):
            step = sim.advance()
        binning = PrecisionBinning(19, 101, digits=1)
        assert binning.n_bins == 821
        field = np.clip(step.fields["temperature"], 19, 101)
        self._check(BitmapIndex.build(field, binning), tmp_path)
