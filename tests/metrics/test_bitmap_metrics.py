"""Exactness tests: bitmap metrics == full-data metrics at equal binning.

This is the paper's central claim (§3.2, §5.4: "there is no accuracy loss
compared with the full data method ... because both methods use the same
binning scale"), enforced here as hard equalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.queries import restricted_joint_counts
from repro.bitmap.binning import DistinctValueBinning, EqualWidthBinning, common_binning
from repro.bitmap.codec import select_codec
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ordering import RowOrdering, compute_ordering
from repro.bitmap.serialization import index_from_bytes, index_to_bytes
from repro.bitmap.wah import WAHBitVector
from repro.metrics import bitmap_metrics
from repro.metrics.bitmap_metrics import (
    conditional_entropy_bitmap,
    emd_count_bitmap,
    emd_spatial_bitmap,
    joint_counts,
    mutual_information_bitmap,
    shannon_entropy_bitmap,
    spatial_bin_differences_bitmap,
)
from repro.metrics.emd import emd_count_based, emd_spatial, spatial_bin_differences
from repro.metrics.entropy import (
    conditional_entropy,
    mutual_information,
    shannon_entropy,
)
from repro.metrics.histogram import joint_histogram
from repro.mining import correlation as mining_correlation
from repro.mining import correlation_mining, correlation_mining_fulldata


@pytest.fixture
def pair(rng):
    """Two correlated 'time-steps' sharing one binning scale."""
    a = rng.normal(10, 2, size=3000)
    b = a * 0.8 + rng.normal(2, 1, size=3000)
    binning = common_binning([a, b], bins=24)
    ia = BitmapIndex.build(a, binning)
    ib = BitmapIndex.build(b, binning)
    return a, b, binning, ia, ib


class TestJointCounts:
    def test_equals_full_data_joint(self, pair):
        a, b, binning, ia, ib = pair
        expect = joint_histogram(a, b, binning, binning)
        assert np.array_equal(joint_counts(ia, ib), expect)

    def test_marginals_are_bin_counts(self, pair):
        _, _, _, ia, ib = pair
        joint = joint_counts(ia, ib)
        assert np.array_equal(joint.sum(axis=1), ia.bin_counts())
        assert np.array_equal(joint.sum(axis=0), ib.bin_counts())

    def test_misaligned_indices_rejected(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 3)
        ia = BitmapIndex.build(rng.random(100), binning)
        ib = BitmapIndex.build(rng.random(101), binning)
        with pytest.raises(ValueError, match="different element sets"):
            joint_counts(ia, ib)

    def test_different_binnings_allowed(self, rng):
        """Joint counts work across *different* binnings (mining needs it)."""
        a, b = rng.random(500), rng.random(500)
        ia = BitmapIndex.build(a, EqualWidthBinning(0.0, 1.0, 4))
        ib = BitmapIndex.build(b, EqualWidthBinning(0.0, 1.0, 7))
        joint = joint_counts(ia, ib)
        assert joint.shape == (4, 7)
        assert joint.sum() == 500


class TestEntropyExactness:
    def test_shannon(self, pair):
        a, _, binning, ia, _ = pair
        assert shannon_entropy_bitmap(ia) == pytest.approx(
            shannon_entropy(a, binning), abs=1e-12
        )

    def test_mutual_information(self, pair):
        a, b, binning, ia, ib = pair
        assert mutual_information_bitmap(ia, ib) == pytest.approx(
            mutual_information(a, b, binning, binning), abs=1e-12
        )

    def test_conditional_entropy(self, pair):
        a, b, binning, ia, ib = pair
        assert conditional_entropy_bitmap(ia, ib) == pytest.approx(
            conditional_entropy(a, b, binning, binning), abs=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bins=st.integers(2, 16), n=st.integers(10, 400))
    def test_property_exactness(self, seed, bins, n):
        local = np.random.default_rng(seed)
        a = local.normal(0, 1, n)
        b = np.where(local.random(n) < 0.5, a, local.normal(0, 1, n))
        binning = common_binning([a, b], bins=bins)
        ia, ib = BitmapIndex.build(a, binning), BitmapIndex.build(b, binning)
        assert mutual_information_bitmap(ia, ib) == pytest.approx(
            mutual_information(a, b, binning, binning), abs=1e-10
        )
        assert conditional_entropy_bitmap(ia, ib) == pytest.approx(
            conditional_entropy(a, b, binning, binning), abs=1e-10
        )


class TestEMDExactness:
    def test_count_based(self, pair):
        a, b, binning, ia, ib = pair
        assert emd_count_bitmap(ia, ib) == emd_count_based(a, b, binning)

    def test_spatial_differences(self, pair):
        a, b, binning, ia, ib = pair
        assert np.array_equal(
            spatial_bin_differences_bitmap(ia, ib),
            spatial_bin_differences(a, b, binning),
        )

    def test_spatial(self, pair):
        a, b, binning, ia, ib = pair
        assert emd_spatial_bitmap(ia, ib) == emd_spatial(a, b, binning)

    def test_binning_scale_mismatch_rejected(self, rng):
        a = rng.random(200)
        ia = BitmapIndex.build(a, EqualWidthBinning(0.0, 1.0, 4))
        ib = BitmapIndex.build(a, EqualWidthBinning(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="shared binning scale"):
            emd_count_bitmap(ia, ib)
        with pytest.raises(ValueError, match="shared binning scale"):
            spatial_bin_differences_bitmap(ia, ib)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(31, 500))
    def test_property_exactness(self, seed, n):
        local = np.random.default_rng(seed)
        vals = np.arange(5, dtype=float)
        a = local.choice(vals, size=n)
        b = local.choice(vals, size=n)
        binning = DistinctValueBinning(vals)
        ia, ib = BitmapIndex.build(a, binning), BitmapIndex.build(b, binning)
        assert emd_count_bitmap(ia, ib) == emd_count_based(a, b, binning)
        assert emd_spatial_bitmap(ia, ib) == emd_spatial(a, b, binning)


class TestDiscardOriginalData:
    def test_metrics_survive_serialisation(self, pair, tmp_path):
        """The in-situ story: write bitmaps, drop data, analyse later."""
        from repro.bitmap.serialization import load_index, save_index

        a, b, binning, ia, ib = pair
        save_index(tmp_path / "a.rbmp", ia)
        save_index(tmp_path / "b.rbmp", ib)
        ra, rb = load_index(tmp_path / "a.rbmp"), load_index(tmp_path / "b.rbmp")
        assert conditional_entropy_bitmap(ra, rb) == pytest.approx(
            conditional_entropy(a, b, binning, binning), abs=1e-12
        )
        assert emd_spatial_bitmap(ra, rb) == emd_spatial(a, b, binning)


# --------------------------------------------------------------------------
# Route parity: the bin-id column route and the group-matrix route of the
# index-level joint kernels, each forced, against the full-data oracles.
# --------------------------------------------------------------------------

PARITY_CASES = [
    "ragged",  # n % 31 != 0
    "n31_single_bin",  # one 31-bit group; A is a single all-1-fill bin
    "empty_bins",
    "sorted",  # long 1-fills
    "auto_codec",  # read back from codec="auto" records (Roaring + WAH bins)
    "shared_ordering",  # two indices under one RowOrdering object
    "m_ne_n",
]


def _parity_case(name: str):
    """``(a, b, binning_a, binning_b, ia, ib, a_rows, b_rows)``: the data, the
    indices, and the data in the indices' row order (the oracles' input)."""
    rng = np.random.default_rng(PARITY_CASES.index(name) + 101)
    n = {"ragged": 1000, "n31_single_bin": 31}.get(name, 2000)
    a = rng.random(n)
    b = np.clip(a + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    bins_a = bins_b = EqualWidthBinning(0.0, 1.0, 12)
    build = {}
    if name == "n31_single_bin":
        bins_a = EqualWidthBinning(0.0, 1.0, 1)
        bins_b = EqualWidthBinning(0.0, 1.0, 5)
    elif name == "empty_bins":
        a = rng.choice([0.05, 0.5, 0.52, 0.95], size=n)
        b = rng.choice([0.05, 0.3, 0.95], size=n)
        bins_a = bins_b = EqualWidthBinning(0.0, 1.0, 16)
    elif name == "sorted":
        a, b = np.sort(a), np.sort(b)
    elif name == "auto_codec":
        # Sorted low half (run-structured bins stay WAH), random high half,
        # and a few scattered rows in the top bin (smaller as Roaring).
        half = n // 2
        a[:half] = np.sort(a[:half]) * 0.5
        a[half:] = 0.5 + 0.45 * a[half:]
        a[rng.choice(n, 20, replace=False)] = 0.99
        b = np.clip(a + rng.normal(0.0, 0.05, n), 0.0, 1.0)
        bins_a = bins_b = EqualWidthBinning(0.0, 1.0, 24)
        build = {"codec": "auto"}
    elif name == "shared_ordering":
        build = {"ordering": compute_ordering([a, b], bins_a, "lex")}
    elif name == "m_ne_n":
        bins_b = EqualWidthBinning(0.0, 1.0, 7)
    ia = BitmapIndex.build(a, bins_a, **build)
    ib = BitmapIndex.build(b, bins_b, **build)
    if name == "auto_codec":
        ia, ib = (index_from_bytes(index_to_bytes(i)) for i in (ia, ib))
    ordering = build.get("ordering")
    if ordering is not None:
        assert ia.ordering is ib.ordering and not ordering.is_identity
        a_rows, b_rows = ordering.apply(a), ordering.apply(b)
    else:
        a_rows, b_rows = a, b
    if name == "n31_single_bin":
        assert ia.bitvectors[0].words.tolist() == [0xC000001F]
    if name == "empty_bins":
        assert (ia.bin_counts() == 0).any() and (ib.bin_counts() == 0).any()
    if name == "auto_codec":
        assert {select_codec(v).name for v in ia.bitvectors} == {"wah", "roaring"}
        assert all(type(v) is WAHBitVector for v in ia.bitvectors)
    return a, b, bins_a, bins_b, ia, ib, a_rows, b_rows


def _force_route(monkeypatch, route: str) -> None:
    """Force the route of every index-level joint kernel, and make the
    other route's decode raise so a silent fall-through cannot pass."""
    column = route == "column"
    for module in (bitmap_metrics, mining_correlation):
        monkeypatch.setattr(module, "prefers_runmerge", lambda *_: column)

    def forbidden(self):
        raise AssertionError(f"{route} route decoded the other route's form")

    other = "group_matrix" if column else "bin_ids"
    monkeypatch.setattr(BitmapIndex, other, forbidden)


def _mining_view(result):
    return (
        [(h.a_bin, h.b_bin, h.joint_count) for h in result.value_hits],
        [(h.a_bin, h.b_bin, h.unit, h.joint_count) for h in result.spatial_hits],
        (result.n_pairs_evaluated, result.n_pairs_survived, result.n_units_evaluated),
    )


@pytest.mark.parametrize("case", PARITY_CASES)
def test_bin_ids_equal_assign(case):
    _, _, bins_a, bins_b, ia, ib, a_rows, b_rows = _parity_case(case)
    for index, binning, rows in ((ia, bins_a, a_rows), (ib, bins_b, b_rows)):
        ids = index.bin_ids()
        assert ids.dtype == np.int32
        assert np.array_equal(ids, binning.assign(rows))


@pytest.mark.parametrize("route", ["column", "group"])
@pytest.mark.parametrize("case", PARITY_CASES)
def test_route_parity(case, route, monkeypatch):
    _, _, bins_a, bins_b, ia, ib, a_rows, b_rows = _parity_case(case)
    _force_route(monkeypatch, route)
    assert np.array_equal(
        joint_counts(ia, ib), joint_histogram(a_rows, b_rows, bins_a, bins_b)
    )
    if bins_a is bins_b:
        assert np.array_equal(
            spatial_bin_differences_bitmap(ia, ib),
            spatial_bin_differences(a_rows, b_rows, bins_a),
        )
    # A zero value threshold keeps even empty joint vectors (and a single
    # all-ones bin, whose every MI term is 0) in the spatial step.
    for value_threshold in (0.0, 0.002):
        for unit_bits in (62, 100):  # group-aligned and not
            kw = dict(
                value_threshold=value_threshold,
                spatial_threshold=0.05,
                unit_bits=unit_bits,
            )
            mined = correlation_mining(ia, ib, **kw)
            expect = correlation_mining_fulldata(a_rows, b_rows, bins_a, bins_b, **kw)
            assert _mining_view(mined) == _mining_view(expect)
            assert mined.value_hits or value_threshold > 0


def test_bin_ids_reject_non_partition():
    binning = EqualWidthBinning(0.0, 1.0, 2)
    index = BitmapIndex.build(np.linspace(0.0, 0.99, 100), binning)
    hole = BitmapIndex(binning, [index.bitvectors[0], WAHBitVector.zeros(100)], 100)
    with pytest.raises(ValueError, match="row 50 is in no bin"):
        hole.bin_ids()
    twice = BitmapIndex(binning, [index.bitvectors[0], WAHBitVector.ones(100)], 100)
    with pytest.raises(ValueError, match="50 rows are in more than one bin"):
        twice.bin_ids()


# --------------------------------------------------------------------------
# Pairwise bitmap analyses need one row space on both sides.
# --------------------------------------------------------------------------

PAIRWISE_ANALYSES = {
    "joint_counts": joint_counts,
    "mutual_information": mutual_information_bitmap,
    "spatial_bin_differences": spatial_bin_differences_bitmap,
    "emd_spatial": emd_spatial_bitmap,
    "correlation_mining": lambda ia, ib: correlation_mining(
        ia, ib, value_threshold=0.002, spatial_threshold=0.05, unit_bits=62
    ),
    "restricted_joint_counts": lambda ia, ib: restricted_joint_counts(
        ia, ib, WAHBitVector.ones(ia.n_elements)
    ),
}


@pytest.fixture(scope="module")
def unaligned_data():
    rng = np.random.default_rng(5)
    a = rng.random(5000)
    b = np.clip(a + rng.normal(0.0, 0.1, 5000), 0.0, 1.0)
    return a, b, EqualWidthBinning(0.0, 1.0, 8)


@pytest.mark.parametrize("orderings", ["lex_each", "lex_and_none"])
@pytest.mark.parametrize("analysis", sorted(PAIRWISE_ANALYSES))
def test_unaligned_orderings_rejected(unaligned_data, analysis, orderings):
    """Two indices whose bit ``i`` names different rows: every pairwise
    bitmap analysis must refuse them rather than return a wrong answer."""
    a, b, binning = unaligned_data
    ia = BitmapIndex.build(a, binning, ordering="lex")
    ib = BitmapIndex.build(
        b, binning, ordering="lex" if orderings == "lex_each" else None
    )
    with pytest.raises(ValueError, match="different row orderings"):
        PAIRWISE_ANALYSES[analysis](ia, ib)


def test_equal_orderings_accepted(unaligned_data):
    """Equal permutations held by distinct objects are one row space."""
    a, b, binning = unaligned_data
    ordering = compute_ordering([a, b], binning, "lex")
    ia = BitmapIndex.build(a, binning, ordering=ordering)
    ib = BitmapIndex.build(
        b, binning, ordering=RowOrdering(ordering.method, ordering.permutation.copy())
    )
    assert np.array_equal(
        joint_counts(ia, ib), joint_histogram(a, b, binning, binning)
    )
    assert emd_count_bitmap(ia, BitmapIndex.build(b, binning)) == emd_count_based(
        a, b, binning
    )
