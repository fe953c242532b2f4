"""Hypothesis property suite: ordered indices are oracle-equivalent.

The invariant under test is the tentpole's correctness contract: for any
data, any binning family, any storage codec, and any ordering method,

    order -> encode -> store -> load -> query -> de-permute  ==  unordered oracle

for both count results and mask *words* -- including ragged tails (sizes
straddling the 31-bit group boundary), serialization round trips, and
splice boundaries (per-slab ordered masks de-permuted and spliced must
equal the whole-array unordered mask word-for-word).
"""

import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmap import (
    BitmapIndex,
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
    compute_ordering,
    index_from_bytes,
    index_to_bytes,
    splice_bitvectors,
)
from repro.bitmap.serialization import read_index, write_index

CODEC_NAMES = ("wah", "roaring", "auto")
METHODS = ("lex", "gray", "hist")
BINNING_FAMILIES = ("equal_width", "precision", "explicit", "distinct")


def make_binning(family: str, n_values: int):
    """A binning of the requested family covering ints [0, n_values)."""
    if family == "equal_width":
        return EqualWidthBinning(0.0, float(n_values), n_values)
    if family == "precision":
        return PrecisionBinning(0.0, float(n_values - 1), digits=0)
    if family == "explicit":
        return ExplicitBinning(np.arange(n_values + 1, dtype=np.float64))
    if family == "distinct":
        return DistinctValueBinning(np.arange(n_values, dtype=np.float64))
    raise AssertionError(family)


@st.composite
def ordered_cases(draw):
    """Data + binning family + codec + method, sizes hugging the 31-bit
    group boundary as often as not (ragged tails are where permutation
    bookkeeping would slip)."""
    base = draw(st.sampled_from([1, 2, 30, 31, 32, 62, 93, 200, 777]))
    jitter = draw(st.integers(min_value=0, max_value=29))
    n = base + jitter
    n_values = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    skew = draw(st.booleans())
    if skew:  # zipf-ish skew: frequency-aware ordering's home turf
        p = 1.0 / np.arange(1, n_values + 1)
        data = rng.choice(n_values, size=n, p=p / p.sum()).astype(float)
    else:
        data = rng.integers(0, n_values, size=n).astype(float)
    family = draw(st.sampled_from(BINNING_FAMILIES))
    codec = draw(st.sampled_from(CODEC_NAMES))
    method = draw(st.sampled_from(METHODS))
    subset_seed = draw(st.integers(0, 2**32 - 1))
    return data, family, codec, method, subset_seed


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ordered_cases())
def test_ordered_query_equals_unordered_oracle(case):
    data, family, codec, method, subset_seed = case
    n_values = int(data.max()) + 1
    binning = make_binning(family, n_values)
    oracle = BitmapIndex.build(data, binning)
    ordered = index_from_bytes(
        index_to_bytes(
            BitmapIndex.build(data, binning, codec=codec, ordering=method)
        )
    )

    assert np.array_equal(ordered.bin_counts(), oracle.bin_counts())

    rng = np.random.default_rng(subset_seed)
    n_bins = binning.n_bins
    for size in {1, max(1, n_bins // 2), n_bins}:
        ids = rng.choice(n_bins, size=size, replace=False)
        mask_oracle = oracle.query_bins(ids)
        mask_ordered = ordered.query_bins(ids)
        assert int(mask_ordered.count()) == int(mask_oracle.count())
        restored = ordered.ordering.unpermute_mask(mask_ordered)
        # Word identity, not just bit identity: de-permuted masks feed
        # the splice/wire paths, which operate on raw WAH words.
        assert restored == mask_oracle


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ordered_cases())
def test_sidecar_round_trip_preserves_answers(case):
    data, family, codec, method, subset_seed = case
    binning = make_binning(family, int(data.max()) + 1)
    ordered = BitmapIndex.build(data, binning, codec=codec, ordering=method)

    def same(a, b):
        # Binnings holding numpy arrays make whole-dataclass `==`
        # ambiguous; compare the pieces the format actually carries.
        assert a.ordering == b.ordering
        assert a.n_elements == b.n_elements
        assert a.bitvectors == b.bitvectors
        assert type(a.binning) is type(b.binning)

    blob = index_to_bytes(ordered)
    back = index_from_bytes(blob)
    same(back, ordered)

    # Streams with trailing data parse identically (container embedding).
    buf = io.BytesIO()
    write_index(buf, ordered)
    buf.write(b"trailing-bytes")
    buf.seek(0)
    same(read_index(buf), ordered)

    rng = np.random.default_rng(subset_seed)
    ids = rng.choice(binning.n_bins, size=1)
    assert back.ordering.unpermute_mask(
        back.query_bins(ids)
    ) == ordered.ordering.unpermute_mask(ordered.query_bins(ids))


@st.composite
def splice_cases(draw):
    """A whole array plus a ragged 2-4 way split of it."""
    data, family, codec, method, subset_seed = draw(ordered_cases())
    n = data.size
    n_parts = draw(st.integers(min_value=2, max_value=min(4, n) if n > 1 else 2))
    if n < 2:
        n_parts = 1
        cuts = []
    else:
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=n - 1),
                    min_size=n_parts - 1,
                    max_size=n_parts - 1,
                    unique=True,
                )
            )
        )
    return data, cuts, family, codec, method, subset_seed


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(splice_cases())
def test_depermuted_slab_masks_splice_to_oracle(case):
    """Mixed ordered/unordered slabs: each slab's mask, de-permuted to
    its own simulation order, splices to the undecomposed oracle mask --
    the exact contract the scatter-gather service relies on."""
    data, cuts, family, codec, method, subset_seed = case
    binning = make_binning(family, int(data.max()) + 1)
    oracle = BitmapIndex.build(data, binning, codec=codec)

    parts = np.split(data, cuts)
    rng = np.random.default_rng(subset_seed)
    ids = rng.choice(binning.n_bins, size=max(1, binning.n_bins // 2),
                     replace=False)
    slab_masks = []
    for i, part in enumerate(parts):
        # Alternate ordered and unordered slabs: the service must merge
        # stores where only some ranks were reordered.
        if i % 2 == 0 and part.size:
            index = BitmapIndex.build(
                part, binning, codec=codec, ordering=method
            )
            mask = index.ordering.unpermute_mask(index.query_bins(ids))
        else:
            index = BitmapIndex.build(part, binning, codec=codec)
            mask = index.query_bins(ids)
        slab_masks.append(mask)
    spliced = splice_bitvectors(slab_masks)
    assert spliced == oracle.query_bins(ids)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(METHODS),
)
def test_multi_column_ordering_preserves_every_column(n, n_values, seed, method):
    """A shared multi-column permutation keeps every column's index
    oracle-equivalent (the multi-variable wiring's contract)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_values, size=n).astype(float)
    b = rng.integers(0, n_values, size=n).astype(float)
    binning = make_binning("equal_width", n_values)
    shared = compute_ordering([a, b], binning, method)
    for col in (a, b):
        oracle = BitmapIndex.build(col, binning)
        ordered = BitmapIndex.build(col, binning, ordering=shared)
        assert np.array_equal(ordered.bin_counts(), oracle.bin_counts())
        ids = np.arange(binning.n_bins)
        assert shared.unpermute_mask(
            ordered.query_bins(ids)
        ) == oracle.query_bins(ids)
