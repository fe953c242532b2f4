"""Unit tests for compression-maximizing row ordering + its sidecar.

Covers the ordering algebra (Gray-code rule vs a brute-force reflected
enumeration, invertibility, mask round trips, compatibility), the
``BitmapIndex.build(ordering=...)`` wiring, and the V2.1 permutation
sidecar (round trip, lazy parse, byte-identity of unordered records,
corruption rejection).
"""

import io
import struct
from itertools import product

import numpy as np
import pytest

from repro.bitmap import (
    BitmapIndex,
    EqualWidthBinning,
    LazyBitmapIndex,
    RowOrdering,
    WAHBitVector,
    compute_ordering,
    gray_code_ordering,
    histogram_aware_ordering,
    index_from_bytes,
    index_to_bytes,
    lexicographic_ordering,
    orderings_compatible,
    save_index,
    serialized_size,
)
from repro.bitmap.serialization import (
    FLAG_ORDERING,
    read_ordering,
    write_ordering,
)


def brute_force_gray(radices):
    """Reference reflected mixed-radix Gray enumeration (recursive)."""
    if not radices:
        return [()]
    rest = brute_force_gray(radices[1:])
    out = []
    for d in range(radices[0]):
        seq = rest if d % 2 == 0 else rest[::-1]
        out.extend((d,) + t for t in seq)
    return out


class TestOrderingMethods:
    @pytest.mark.parametrize(
        "radices", [(2, 2), (3, 3), (2, 3, 4), (5,), (4, 2, 3)]
    )
    def test_gray_matches_reference_enumeration(self, radices):
        tuples = list(product(*[range(r) for r in radices]))
        cols = [
            np.array([t[c] for t in tuples]) for c in range(len(radices))
        ]
        ordering = gray_code_ordering(cols, radices)
        got = [tuples[i] for i in ordering.permutation]
        assert got == brute_force_gray(list(radices))

    def test_gray_adjacent_tuples_differ_in_one_digit(self):
        radices = (3, 4, 2)
        tuples = list(product(*[range(r) for r in radices]))
        cols = [
            np.array([t[c] for t in tuples]) for c in range(len(radices))
        ]
        ordering = gray_code_ordering(cols, radices)
        walked = [tuples[i] for i in ordering.permutation]
        for a, b in zip(walked, walked[1:]):
            diffs = [abs(x - y) for x, y in zip(a, b)]
            assert sum(d != 0 for d in diffs) == 1 and max(diffs) == 1

    def test_lex_sorts_first_column_most_significant(self):
        a = np.array([1, 0, 1, 0])
        b = np.array([0, 1, 1, 0])
        ordering = lexicographic_ordering([a, b])
        got = [(int(a[i]), int(b[i])) for i in ordering.permutation]
        assert got == sorted(got)

    def test_lex_is_stable(self):
        ordering = lexicographic_ordering([np.zeros(5, dtype=np.int64)])
        assert list(ordering.permutation) == [0, 1, 2, 3, 4]

    def test_hist_orders_frequent_values_first(self):
        # value 7 dominates; after frequency relabelling it sorts first.
        ids = np.array([3, 7, 7, 7, 1, 7, 3])
        ordering = histogram_aware_ordering([ids], [8])
        assert list(ids[ordering.permutation[:4]]) == [7, 7, 7, 7]

    def test_hist_low_cardinality_column_leads(self):
        # Column 1 has 2 distinct values vs column 0's 4: it becomes the
        # primary sort key, so its values appear fully grouped.
        rng = np.random.default_rng(5)
        c0 = rng.integers(0, 4, 64)
        c1 = rng.integers(0, 2, 64)
        ordering = histogram_aware_ordering([c0, c1], [4, 2])
        grouped = c1[ordering.permutation]
        # At most one transition: all of one value, then all of the other.
        assert np.count_nonzero(np.diff(grouped)) <= 1

    def test_compute_ordering_dispatch_and_unknown(self):
        data = np.array([0.1, 0.9, 0.5, 0.2])
        binning = EqualWidthBinning(0.0, 1.0, 4)
        for method in ("lex", "gray", "hist"):
            assert compute_ordering([data], binning, method).method == method
        with pytest.raises(ValueError, match="unknown ordering method"):
            compute_ordering([data], binning, "zorder")

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="disagree on row count"):
            lexicographic_ordering([np.zeros(3), np.zeros(4)])


class TestRowOrdering:
    def test_apply_restore_round_trip(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(100)
        data = rng.normal(size=100)
        ordering = RowOrdering("custom", perm)
        assert np.array_equal(ordering.restore(ordering.apply(data)), data)
        assert np.array_equal(
            ordering.inverse[ordering.permutation], np.arange(100)
        )

    def test_mask_round_trip_word_identical(self):
        rng = np.random.default_rng(1)
        ordering = RowOrdering("custom", rng.permutation(313))
        mask = WAHBitVector.from_bools(rng.random(313) < 0.2)
        assert ordering.unpermute_mask(ordering.permute_mask(mask)) == mask

    def test_non_bijection_rejected(self):
        for bad in ([0, 0, 1], [0, 1, 3], [-1, 0, 1]):
            with pytest.raises(ValueError, match="bijection"):
                RowOrdering("custom", np.array(bad))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering method"):
            RowOrdering("sorted", np.arange(4))

    def test_equality_and_digest(self):
        a = RowOrdering("lex", np.array([2, 0, 1]))
        b = RowOrdering("lex", np.array([2, 0, 1]))
        c = RowOrdering("gray", np.array([2, 0, 1]))
        assert a == b and a.digest == b.digest
        assert a != c  # same permutation, different method

    def test_compatibility(self):
        perm = np.array([1, 2, 0])
        a = RowOrdering("lex", perm)
        ident = RowOrdering("custom", np.arange(3))
        assert orderings_compatible(None, None)
        assert orderings_compatible(a, RowOrdering("gray", perm))
        assert orderings_compatible(None, ident)
        assert orderings_compatible(ident, None)
        assert not orderings_compatible(a, None)
        assert not orderings_compatible(a, RowOrdering("lex", np.array([0, 2, 1])))
        assert ident.is_identity and not a.is_identity


class TestOrderedBuild:
    def test_counts_invariant_and_masks_map_back(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 16, 997).astype(float)
        binning = EqualWidthBinning(0.0, 16.0, 16)
        plain = BitmapIndex.build(data, binning)
        for method in ("lex", "gray", "hist"):
            ordered = BitmapIndex.build(data, binning, ordering=method)
            assert ordered.ordering is not None
            assert ordered.ordering.method == method
            assert np.array_equal(ordered.bin_counts(), plain.bin_counts())
            ids = np.array([0, 3, 7])
            mask = ordered.ordering.unpermute_mask(ordered.query_bins(ids))
            assert mask == plain.query_bins(ids)

    def test_shuffled_data_compresses_by_integer_factor(self):
        rng = np.random.default_rng(2)
        data = rng.permutation(np.repeat(np.arange(16.0), 500))
        binning = EqualWidthBinning(0.0, 16.0, 16)
        plain = BitmapIndex.build(data, binning)
        ordered = BitmapIndex.build(data, binning, ordering="lex")
        assert ordered.nbytes * 10 < plain.nbytes

    def test_prebuilt_ordering_shared_across_variables(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 8, 400).astype(float)
        b = rng.integers(0, 8, 400).astype(float)
        binning = EqualWidthBinning(0.0, 8.0, 8)
        shared = compute_ordering([a, b], binning, "gray")
        ia = BitmapIndex.build(a, binning, ordering=shared)
        ib = BitmapIndex.build(b, binning, ordering=shared)
        assert ia.ordering is ib.ordering
        # Shared permutation => joint counts are row-aligned and exact.
        from repro.metrics.histogram import joint_histogram

        plain = joint_histogram(a, b, binning, binning)
        got = joint_histogram(
            shared.apply(a), shared.apply(b), binning, binning
        )
        assert np.array_equal(plain, got)

    def test_length_mismatch_rejected(self):
        ordering = RowOrdering("custom", np.arange(5))
        with pytest.raises(ValueError, match="covers"):
            BitmapIndex.build(
                np.zeros(7), EqualWidthBinning(-1.0, 1.0, 2), ordering=ordering
            )


class TestSidecarSerialization:
    def _ordered_index(self, n=700, codec="wah", seed=4):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 12, n).astype(float)
        binning = EqualWidthBinning(0.0, 12.0, 12)
        return BitmapIndex.build(data, binning, ordering="hist", codec=codec)

    @pytest.mark.parametrize("codec", ["wah", "roaring", "auto"])
    def test_round_trip_with_codecs(self, codec):
        index = self._ordered_index(codec=codec)
        blob = index_to_bytes(index)
        assert len(blob) == serialized_size(index)
        back = index_from_bytes(blob)
        assert back.ordering == index.ordering
        assert back == index
        assert index_to_bytes(back) == blob

    def test_flags_bit_set_only_when_ordered(self):
        ordered = self._ordered_index()
        plain = BitmapIndex(
            ordered.binning, ordered.bitvectors, ordered.n_elements
        )
        assert struct.unpack("<HH", index_to_bytes(ordered)[4:8])[1] & FLAG_ORDERING
        assert struct.unpack("<HH", index_to_bytes(plain)[4:8])[1] == 0

    def test_unordered_record_byte_identical_to_stripped(self):
        """Dropping the ordering reproduces the pre-ordering byte stream:
        the sidecar is the only difference between the two records."""
        ordered = self._ordered_index()
        plain = BitmapIndex(
            ordered.binning, ordered.bitvectors, ordered.n_elements
        )
        blob_o, blob_p = index_to_bytes(ordered), index_to_bytes(plain)
        sidecar = len(blob_o) - len(blob_p)
        assert sidecar == 10 + 2 * ordered.n_elements  # width-2 permutation
        assert blob_o[:6] == blob_p[:6]  # magic + version match

    def test_lazy_parse_exposes_ordering(self, tmp_path):
        index = self._ordered_index()
        path = tmp_path / "ordered.rbmp"
        save_index(path, index)
        with LazyBitmapIndex(path) as lazy:
            assert lazy.ordering == index.ordering
            assert lazy.get(3) == index.bitvectors[3]
            assert lazy.materialize() == index

    def test_v1_write_rejected(self):
        with pytest.raises(ValueError, match="cannot carry a row ordering"):
            index_to_bytes(self._ordered_index(), version=1)

    def test_minimal_width_selection(self):
        buf = io.BytesIO()
        small = RowOrdering("lex", np.random.default_rng(0).permutation(200))
        n = write_ordering(buf, small)
        assert n == 10 + 200 * 1  # 200 rows fit in uint8
        buf.seek(0)
        assert read_ordering(buf, 200) == small

    def test_corrupt_sidecars_rejected(self):
        ordering = RowOrdering("lex", np.arange(300)[::-1].copy())
        buf = io.BytesIO()
        write_ordering(buf, ordering)
        blob = bytearray(buf.getvalue())

        bad_tag = blob.copy()
        bad_tag[0] = 99
        with pytest.raises(ValueError, match="unknown ordering method tag"):
            read_ordering(io.BytesIO(bytes(bad_tag)), 300)

        bad_width = blob.copy()
        bad_width[1] = 3
        with pytest.raises(ValueError, match="byte width"):
            read_ordering(io.BytesIO(bytes(bad_width)), 300)

        with pytest.raises(ValueError, match="covers"):
            read_ordering(io.BytesIO(bytes(blob)), 299)

        dup = blob.copy()
        dup[10:12] = dup[12:14]  # duplicate one entry: not a bijection
        with pytest.raises(ValueError, match="bijection"):
            read_ordering(io.BytesIO(bytes(dup)), 300)

        with pytest.raises(EOFError):
            read_ordering(io.BytesIO(bytes(blob[:-4])), 300)
