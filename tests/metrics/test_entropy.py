"""Tests for Equations 4-6 (repro.metrics.entropy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.binning import DistinctValueBinning, EqualWidthBinning
from repro.metrics.entropy import (
    conditional_entropy,
    conditional_entropy_from_joint,
    mi_term_from_cell,
    mutual_information,
    mutual_information_from_joint,
    shannon_entropy,
    shannon_entropy_from_counts,
)
from repro.metrics.histogram import joint_histogram


class TestShannonEntropy:
    def test_uniform_is_log2_n(self):
        assert shannon_entropy_from_counts(np.full(8, 10)) == pytest.approx(3.0)

    def test_constant_is_zero(self):
        """§3.1: 'Constant data (easily predictable) has a low entropy'."""
        assert shannon_entropy_from_counts(np.asarray([100, 0, 0])) == 0.0

    def test_empty_counts(self):
        assert shannon_entropy_from_counts(np.zeros(5)) == 0.0

    def test_known_value(self):
        # P = (1/2, 1/4, 1/4) -> H = 1.5 bits
        assert shannon_entropy_from_counts(np.asarray([2, 1, 1])) == pytest.approx(1.5)

    def test_data_level(self, rng):
        data = rng.integers(0, 4, size=4000).astype(float)
        binning = DistinctValueBinning.from_data(data)
        h = shannon_entropy(data, binning)
        assert 1.99 < h <= 2.0  # near-uniform over 4 values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    def test_property_bounds(self, counts):
        h = shannon_entropy_from_counts(np.asarray(counts))
        assert -1e-12 <= h <= np.log2(len(counts)) + 1e-9


class TestMutualInformation:
    def test_independent_is_zero(self):
        joint = np.outer([10, 30], [20, 20])  # product distribution
        assert mutual_information_from_joint(joint) == pytest.approx(0.0, abs=1e-12)

    def test_identical_equals_entropy(self, rng):
        data = rng.integers(0, 8, size=2000).astype(float)
        binning = DistinctValueBinning.from_data(data)
        mi = mutual_information(data, data, binning, binning)
        h = shannon_entropy(data, binning)
        assert mi == pytest.approx(h)

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 1000)
        b = a + rng.normal(0, 0.5, 1000)
        ba = EqualWidthBinning.from_data(a, 12)
        bb = EqualWidthBinning.from_data(b, 15)
        assert mutual_information(a, b, ba, bb) == pytest.approx(
            mutual_information(b, a, bb, ba)
        )

    def test_correlated_beats_independent(self, rng):
        a = rng.normal(0, 1, 3000)
        correlated = a + rng.normal(0, 0.2, 3000)
        independent = rng.normal(0, 1, 3000)
        ba = EqualWidthBinning.from_data(a, 16)
        assert mutual_information(
            a, correlated, ba, EqualWidthBinning.from_data(correlated, 16)
        ) > mutual_information(
            a, independent, ba, EqualWidthBinning.from_data(independent, 16)
        )

    def test_empty_joint(self):
        assert mutual_information_from_joint(np.zeros((3, 3))) == 0.0

    def test_sparse_joint_matches_cell_sum(self, rng):
        """Mostly-empty joints (empty rows and columns, as 821 x 821
        Heat3D step pairs give) against the per-cell Equation 7 sum."""
        joint = np.zeros((60, 45), dtype=np.int64)
        cells = rng.choice(joint.size, 120, replace=False)
        joint.flat[cells] = rng.integers(1, 1000, cells.size)
        joint[7, :] = 0
        joint[:, 11] = 0
        total, rows, cols = joint.sum(), joint.sum(axis=1), joint.sum(axis=0)
        expect = sum(
            mi_term_from_cell(joint[i, j], rows[i], cols[j], total)
            for i, j in zip(*np.nonzero(joint))
        )
        assert mutual_information_from_joint(joint) == pytest.approx(expect, abs=1e-12)
        assert mutual_information_from_joint(joint.astype(float)) == pytest.approx(
            expect, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_property_nonnegative_and_bounded(self, seed, na, nb):
        local = np.random.default_rng(seed)
        joint = local.integers(0, 50, size=(na, nb))
        mi = mutual_information_from_joint(joint)
        h_a = shannon_entropy_from_counts(joint.sum(axis=1))
        h_b = shannon_entropy_from_counts(joint.sum(axis=0))
        assert -1e-9 <= mi <= min(h_a, h_b) + 1e-9


class TestConditionalEntropy:
    def test_equation6_consistency(self, rng):
        a = rng.normal(0, 1, 2000)
        b = rng.normal(0, 1, 2000)
        ba = EqualWidthBinning.from_data(a, 10)
        bb = EqualWidthBinning.from_data(b, 10)
        h_a = shannon_entropy(a, ba)
        mi = mutual_information(a, b, ba, bb)
        assert conditional_entropy(a, b, ba, bb) == pytest.approx(h_a - mi)

    def test_self_conditioning_is_zero(self, rng):
        data = rng.integers(0, 5, size=1000).astype(float)
        binning = DistinctValueBinning.from_data(data)
        assert conditional_entropy(data, data, binning, binning) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_joint_level(self, rng):
        joint = rng.integers(0, 100, size=(6, 4))
        h = conditional_entropy_from_joint(joint)
        h_a = shannon_entropy_from_counts(joint.sum(axis=1))
        assert -1e-9 <= h <= h_a + 1e-9

    def test_conditioning_reduces_entropy(self, rng):
        """More informative B => smaller H(A|B)."""
        a = rng.normal(0, 1, 4000)
        informative = a + rng.normal(0, 0.1, 4000)
        noise = rng.normal(0, 1, 4000)
        ba = EqualWidthBinning.from_data(a, 16)
        h_inf = conditional_entropy(
            a, informative, ba, EqualWidthBinning.from_data(informative, 16)
        )
        h_noise = conditional_entropy(
            a, noise, ba, EqualWidthBinning.from_data(noise, 16)
        )
        assert h_inf < h_noise


class TestMITerm:
    def test_zero_cells(self):
        assert mi_term_from_cell(0, 10, 10, 100) == 0.0
        assert mi_term_from_cell(5, 10, 10, 0) == 0.0

    def test_sums_to_total_mi(self, rng):
        a = rng.normal(0, 1, 1500)
        b = a * 0.5 + rng.normal(0, 0.3, 1500)
        ba = EqualWidthBinning.from_data(a, 8)
        bb = EqualWidthBinning.from_data(b, 8)
        joint = joint_histogram(a, b, ba, bb)
        total = joint.sum()
        rows = joint.sum(axis=1)
        cols = joint.sum(axis=0)
        acc = sum(
            mi_term_from_cell(joint[i, j], rows[i], cols[j], total)
            for i in range(8)
            for j in range(8)
        )
        assert acc == pytest.approx(mutual_information_from_joint(joint))
