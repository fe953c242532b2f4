"""The kernel ladder's parity suite (`repro.bitmap.kernels`).

One property test, :func:`test_ladder_parity`, holds the whole ladder to
one reference: the left fold of the scalar oracle
:func:`~repro.bitmap.ops.logical_op_streaming`, which shares no code with
either path.  It runs k in 1..8 x every op x {forced dense, forced run
merge, public entry}, with ragged (non-multiple-of-31) and empty
lengths, fills, run-structured and noise operands, and duplicates.
Routes are forced by patching the one decision point,
``prefers_runmerge``, so the forced runs still pass through the public
entries.

Canonical WAH encoding makes word-level ``==`` (words + n_bits) the
right equality: any divergence in compression is a real bug, not an
alternate encoding.

The remaining tests pin what the property test cannot: which path each
side of the k-aware threshold takes, chunk seams of the dense sweep,
the prefix scan, the decode-once matrix, and hardware popcount.
"""

from contextlib import nullcontext
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bitmap.kernels as kernels
from repro.bitmap.binning import (
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
)
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import (
    KWAY_RUNMERGE_RATIO_THRESHOLD,
    _count_dense,
    _count_runmerge,
    _op_dense,
    _op_runmerge,
    auto_count_many,
    auto_op_many,
    logical_accumulate,
    stack_groups,
)
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, logical_op_streaming
from repro.bitmap.wah import GROUP_BITS, WAHBitVector
from repro.util.bits import popcount_u32, popcount_total, _popcount_u32_table

OPS = ("and", "or", "xor", "andnot")
ASSOC_OPS = ("and", "or", "xor")
STYLES = ("random", "runs", "zeros", "ones", "dup")


def _oracle_fold(vectors, op):
    """The reference: a left fold of the scalar two-cursor oracle."""
    return reduce(lambda a, b: logical_op_streaming(a, b, op), vectors)


def _forced(route):
    """Force the ladder's route by patching its one decision point."""
    if route == "entry":
        return nullcontext()
    return mock.patch.object(
        kernels, "prefers_runmerge", lambda vectors, t: route == "runmerge"
    )


@st.composite
def operand_groups(draw, max_k=7):
    """k same-length vectors mixing fills, runs, noise, and duplicates."""
    # Ragged tails on purpose: lengths straddling group boundaries.
    n = draw(
        st.sampled_from([1, 30, 31, 32, 61, 62, 63, 93, 200, 961, 997, 1024])
    )
    k = draw(st.integers(min_value=1, max_value=max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vectors = []
    for i in range(k):
        style = draw(st.sampled_from(STYLES))
        if style == "dup" and vectors:
            vectors.append(vectors[rng.integers(0, len(vectors))])
            continue
        if style == "zeros":
            bits = np.zeros(n, dtype=bool)
        elif style == "ones":
            bits = np.ones(n, dtype=bool)
        elif style == "runs":
            run = int(rng.integers(5, 200))
            bits = np.resize(np.repeat(rng.random(n // run + 1) < 0.4, run), n)
        else:
            bits = rng.random(n) < rng.uniform(0.05, 0.95)
        vectors.append(WAHBitVector.from_bools(bits))
    return vectors


@st.composite
def ladder_cases(draw):
    """Operands for the parity suite: k in 1..8, empty vectors included."""
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(1, 8))
        return [WAHBitVector.zeros(0)] * k
    return draw(operand_groups(max_k=8))


@settings(max_examples=150, deadline=None)
@given(vectors=ladder_cases(), op=st.sampled_from(OPS))
def test_ladder_parity(vectors, op):
    expected = _oracle_fold(vectors, op)
    for route in ("dense", "runmerge", "entry"):
        with _forced(route):
            out = auto_op_many(vectors, op)
            count = auto_count_many(vectors, op)
        out.check_invariants()
        assert type(out) is WAHBitVector, route
        assert out == expected, f"{route} diverged from the oracle fold"
        assert np.array_equal(out.words, expected.words), route
        assert count == expected.count(), route


@settings(max_examples=120, deadline=None)
@given(vectors=operand_groups(), op=st.sampled_from(OPS))
def test_kway_matches_pairwise_fold(vectors, op):
    """Both private paths, called directly, against the pairwise fold."""
    expected = _oracle_fold(vectors, op)
    dense = _op_dense(vectors, op)
    merged = _op_runmerge(vectors, op)
    assert dense == expected, "dense sweep diverged from pairwise fold"
    assert merged == expected, "run merge diverged from pairwise fold"
    # Word-identical, not just bit-identical: canonical WAH encoding.
    assert np.array_equal(dense.words, expected.words)
    assert np.array_equal(merged.words, expected.words)
    assert _count_dense(vectors, op) == expected.count()
    assert _count_runmerge(vectors, op) == expected.count()


@settings(max_examples=80, deadline=None)
@given(vectors=operand_groups(), op=st.sampled_from(OPS))
def test_dispatchers_match_on_both_routes(vectors, op):
    """The public entries on each forced route and on their own choice."""
    expected = _oracle_fold(vectors, op)
    for route in ("runmerge", "dense", "entry"):
        with _forced(route):
            assert auto_op_many(vectors, op) == expected, route
            assert auto_count_many(vectors, op) == expected.count(), route


def _ratio_vector(target, n_groups=4000):
    """A WAH vector whose compression ratio sits near ``target``: literal
    groups separated by 0-fills, one literal + one fill per period."""
    period = max(2, round(2 / target))
    bits = np.zeros(n_groups * GROUP_BITS, dtype=bool)
    for g in range(0, n_groups, period):
        bits[g * GROUP_BITS : g * GROUP_BITS + 3] = [True, False, True]
    return WAHBitVector.from_bools(bits)


@pytest.mark.parametrize("k", [2, 3])
def test_route_sides_of_each_threshold(k):
    """k = 2 routes at STREAMING_COUNT_RATIO_THRESHOLD, k >= 3 at
    KWAY_RUNMERGE_RATIO_THRESHOLD, on both sides of each."""
    below_kway = _ratio_vector(KWAY_RUNMERGE_RATIO_THRESHOLD / 2)
    between = _ratio_vector(
        (KWAY_RUNMERGE_RATIO_THRESHOLD + STREAMING_COUNT_RATIO_THRESHOLD) / 2
    )
    above = _ratio_vector(STREAMING_COUNT_RATIO_THRESHOLD * 2)
    assert below_kway.compression_ratio() <= KWAY_RUNMERGE_RATIO_THRESHOLD
    assert (
        KWAY_RUNMERGE_RATIO_THRESHOLD
        < between.compression_ratio()
        <= STREAMING_COUNT_RATIO_THRESHOLD
    )
    assert above.compression_ratio() > STREAMING_COUNT_RATIO_THRESHOLD
    cases = [(below_kway, True), (between, k == 2), (above, False)]
    for vec, expect_runmerge in cases:
        taken = []

        def op_spy(v, op):
            taken.append("op")
            return _op_runmerge(v, op)

        def count_spy(v, op):
            taken.append("count")
            return _count_runmerge(v, op)

        with mock.patch.object(kernels, "_op_runmerge", op_spy), mock.patch.object(
            kernels, "_count_runmerge", count_spy
        ):
            auto_op_many([vec] * k, "or")
            auto_count_many([vec] * k, "and")
        expected = ["op", "count"] if expect_runmerge else []
        assert taken == expected, (vec.compression_ratio(), k)


@st.composite
def bin_vector_groups(draw):
    """Adjacent bin vectors of a real index, any binning family."""
    kind = draw(st.sampled_from(("equal", "precision", "explicit", "distinct")))
    n = draw(st.integers(min_value=1, max_value=500))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "equal":
        binning = EqualWidthBinning(-5.0, 5.0, draw(st.integers(2, 16)))
        data = rng.uniform(-5.0, 5.0, n)
    elif kind == "precision":
        binning = PrecisionBinning(10.0, 12.0, digits=draw(st.integers(0, 2)))
        data = rng.uniform(10.0, 12.0, n)
    elif kind == "explicit":
        edges = np.linspace(-1.0, 1.0, draw(st.integers(3, 9)))
        binning = ExplicitBinning(edges)
        data = rng.uniform(-1.0, 1.0, n)
    else:
        values = np.arange(draw(st.integers(2, 8)), dtype=float)
        binning = DistinctValueBinning(values)
        data = rng.choice(values, n)
    index = BitmapIndex.build(data, binning)
    k = draw(st.integers(1, len(index.bitvectors)))
    lo = draw(st.integers(0, len(index.bitvectors) - k))
    return list(index.bitvectors[lo : lo + k])


@settings(max_examples=80, deadline=None)
@given(vectors=bin_vector_groups(), op=st.sampled_from(OPS))
def test_kway_matches_pairwise_on_real_bin_vectors(vectors, op):
    """Bin vectors drawn from real indices across the four binning
    families -- the operands the executor hands the ladder."""
    expected = _oracle_fold(vectors, op)
    assert _op_dense(vectors, op) == expected
    assert _op_runmerge(vectors, op) == expected
    assert _count_dense(vectors, op) == expected.count()
    assert _count_runmerge(vectors, op) == expected.count()


@settings(max_examples=60, deadline=None)
@given(
    vectors=operand_groups(),
    op=st.sampled_from(OPS),
    chunk_bytes=st.sampled_from([64, 256, 4096]),
)
def test_kway_chunk_seams(vectors, op, chunk_bytes):
    """Tiny chunks force many seams; results must not change."""
    expected = _op_dense(vectors, op)
    assert _op_dense(vectors, op, chunk_bytes=chunk_bytes) == expected
    assert _count_dense(vectors, op, chunk_bytes=chunk_bytes) == expected.count()


@settings(max_examples=60, deadline=None)
@given(
    vectors=operand_groups(),
    op=st.sampled_from(ASSOC_OPS),
    chunk_bytes=st.sampled_from([128, 1024, 8 << 20]),
)
def test_accumulate_matches_cumulative_pairwise(vectors, op, chunk_bytes):
    prefixes = logical_accumulate(vectors, op, chunk_bytes=chunk_bytes)
    assert len(prefixes) == len(vectors)
    for i, prefix in enumerate(prefixes):
        assert prefix == _oracle_fold(vectors[: i + 1], op), f"prefix {i} diverged"


@settings(max_examples=60, deadline=None)
@given(vectors=operand_groups())
def test_stack_groups_matches_vstack(vectors):
    mat = stack_groups(vectors)
    ref = np.vstack([v.to_groups() for v in vectors])
    assert mat.dtype == np.uint32
    assert np.array_equal(mat, ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hardware_popcount_matches_table(data):
    """``np.bitwise_count`` route vs the ``_POP16`` table, word by word."""
    n = data.draw(st.integers(0, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    words = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    # Pin the boundary words the sweep may miss.
    if n >= 2:
        words[0], words[-1] = np.uint32(0), np.uint32(0xFFFFFFFF)
    table = _popcount_u32_table(words)
    assert np.array_equal(popcount_u32(words), table)
    assert popcount_total(words) == int(table.sum())


def test_kway_k1_identity():
    v = WAHBitVector.from_bools(np.resize([True, False, True], 100))
    for op in OPS:
        assert _op_dense([v], op) == v
        assert _op_runmerge([v], op) == v
        assert _count_dense([v], op) == v.count()
        assert _count_runmerge([v], op) == v.count()
    assert logical_accumulate([v], "or") == [v]


def test_kway_all_fill_operands():
    n = GROUP_BITS * 40 + 7
    ones = WAHBitVector.from_bools(np.ones(n, dtype=bool))
    zeros = WAHBitVector.from_bools(np.zeros(n, dtype=bool))
    assert _op_dense([ones, zeros, ones], "or") == ones
    assert _op_dense([ones, zeros, ones], "and") == zeros
    assert _count_runmerge([ones, ones, ones], "and") == n
    assert _op_runmerge([zeros, zeros], "xor") == zeros
    # andnot left fold: ones AND NOT (zeros OR zeros) == ones
    assert _op_dense([ones, zeros, zeros], "andnot") == ones


def test_kway_rejects_mixed_lengths_and_bad_ops():
    a = WAHBitVector.from_bools(np.ones(31, dtype=bool))
    b = WAHBitVector.from_bools(np.ones(62, dtype=bool))
    with pytest.raises(ValueError):
        auto_op_many([a, b], "or")
    with pytest.raises(ValueError):
        auto_count_many([a, a], "nand")
    with pytest.raises(ValueError):
        auto_op_many([], "or")
    with pytest.raises(ValueError):
        logical_accumulate([a], "andnot")  # non-associative
