"""Tests for BitmapIndex and MultiLevelBitmapIndex."""

import numpy as np
import pytest

from repro.bitmap.binning import DistinctValueBinning, EqualWidthBinning
from repro.bitmap.index import BitmapIndex, LevelSpec, MultiLevelBitmapIndex
from repro.bitmap.wah import WAHBitVector


class TestBitmapIndex:
    def test_build_both_methods_agree(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 30)
        a = BitmapIndex.build(gaussian_data, binning, method="vectorized")
        b = BitmapIndex.build(gaussian_data, binning, method="online")
        assert a.bitvectors == b.bitvectors

    def test_unknown_method(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 4)
        with pytest.raises(ValueError, match="unknown build method"):
            BitmapIndex.build(gaussian_data, binning, method="magic")

    def test_bin_counts_are_histogram(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 25)
        index = BitmapIndex.build(gaussian_data, binning)
        ids = binning.assign_checked(gaussian_data)
        expect = np.bincount(ids, minlength=25)
        assert np.array_equal(index.bin_counts(), expect)

    def test_distribution_sums_to_one(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 25)
        index = BitmapIndex.build(gaussian_data, binning)
        assert index.distribution().sum() == pytest.approx(1.0)

    def test_query_bins(self, rng):
        data = rng.integers(0, 4, size=300).astype(float)
        index = BitmapIndex.build(data, DistinctValueBinning.from_data(data))
        hits = index.query_bins(np.asarray([0, 2]))
        assert np.array_equal(hits.to_bools(), (data == 0) | (data == 2))

    def test_query_bins_empty(self, rng):
        data = rng.integers(0, 4, size=100).astype(float)
        index = BitmapIndex.build(data, DistinctValueBinning.from_data(data))
        assert index.query_bins(np.asarray([], dtype=np.int64)).count() == 0

    def test_query_value_range(self, rng):
        data = rng.uniform(0.0, 10.0, size=500)
        index = BitmapIndex.build(data, EqualWidthBinning(0.0, 10.0, 10))
        hits = index.query_value_range(2.0, 4.0)
        # bin-granular: every element of overlapping bins [2,3),[3,4),[4,5)
        expect = (data >= 2.0) & (data < 5.0)
        assert np.array_equal(hits.to_bools(), expect)

    def test_size_ratio_under_30_percent(self, coherent_field):
        """§2.2: 'the size of bitmaps is less than 30% of the original data'."""
        binning = EqualWidthBinning.from_data(coherent_field, 64)
        index = BitmapIndex.build(coherent_field, binning)
        assert index.size_ratio(element_bytes=8) < 0.30

    def test_mismatched_vectors_rejected(self):
        binning = EqualWidthBinning(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            BitmapIndex(binning, [WAHBitVector.zeros(10)], 10)
        with pytest.raises(ValueError):
            BitmapIndex(
                binning, [WAHBitVector.zeros(10), WAHBitVector.zeros(11)], 10
            )

    def test_check_invariants(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 8)
        BitmapIndex.build(gaussian_data, binning).check_invariants()


class TestMultiLevelIndex:
    def test_rollup_counts_partition(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 16)
        ml = MultiLevelBitmapIndex.build(gaussian_data, binning, [LevelSpec(4)])
        low, high = ml.levels
        assert high.n_bins == 4
        for hb in range(4):
            children = ml.children(1, hb)
            assert low.bin_counts()[children].sum() == high.bin_counts()[hb]

    def test_high_level_is_or_of_children(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 12)
        ml = MultiLevelBitmapIndex.build(gaussian_data, binning, [LevelSpec(3)])
        from functools import reduce

        from repro.bitmap.ops import logical_op_streaming

        def logical_or(a, b):
            return logical_op_streaming(a, b, "or")

        for hb in range(ml.levels[1].n_bins):
            members = [ml.low.bitvectors[c] for c in ml.children(1, hb)]
            assert ml.levels[1].bitvectors[hb] == reduce(logical_or, members)

    def test_uneven_fanout(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 10)
        ml = MultiLevelBitmapIndex.build(gaussian_data, binning, [LevelSpec(4)])
        assert ml.levels[1].n_bins == 3  # 4 + 4 + 2
        assert ml.children(1, 2) == [8, 9]

    def test_three_levels(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 16)
        ml = MultiLevelBitmapIndex.build(
            gaussian_data, binning, [LevelSpec(4), LevelSpec(2)]
        )
        assert [lvl.n_bins for lvl in ml.levels] == [16, 4, 2]
        assert ml.n_levels == 3
        assert ml.nbytes > 0

    def test_children_bounds(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 8)
        ml = MultiLevelBitmapIndex.build(gaussian_data, binning, [LevelSpec(2)])
        with pytest.raises(ValueError):
            ml.children(0, 0)
        with pytest.raises(ValueError):
            ml.children(2, 0)

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            LevelSpec(1)

    def test_default_level_spec(self, gaussian_data):
        binning = EqualWidthBinning.from_data(gaussian_data, 16)
        ml = MultiLevelBitmapIndex.build(gaussian_data, binning)
        assert ml.n_levels == 2
