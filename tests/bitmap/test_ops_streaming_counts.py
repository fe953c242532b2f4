"""The ladder's run-merge path at k = 2 and the k = 2 route rule.

The contract under test: for every op and every operand pair,

    _count_runmerge([a, b], op) == logical_op_streaming(a, b, op).count()
                                == _count_dense([a, b], op)

and ``_op_runmerge`` is word-identical to ``_op_dense``; the public
entries (``auto_count_many`` / ``auto_op_many``) return identical results
on both routes, differing only in which path does the work.
Adversarial shapes include non-multiple-of-31 lengths, giant fills
at/spanning ``MAX_FILL_BITS`` (checked purely in the compressed domain --
nothing gigabit-sized is ever expanded), alternating literal/fill words,
and empty vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bitmap.kernels as kernels
from repro.bitmap.kernels import (
    _count_dense,
    _count_runmerge,
    _op_dense,
    _op_runmerge,
    auto_count_many,
    auto_op_many,
)
from repro.bitmap.ops import (
    STREAMING_COUNT_RATIO_THRESHOLD,
    logical_op_streaming,
    prefers_runmerge,
)
from repro.bitmap.wah import (
    GROUP_BITS,
    MAX_FILL_BITS,
    WAHBitVector,
    make_fill,
)

OPS = ["and", "or", "xor", "andnot"]


# k = 2 spellings of the ladder's two private paths.
def logical_op(a, b, op):
    return _op_dense([a, b], op)


def op_count(a, b, op):
    return _count_dense([a, b], op)


def op_count_streaming(a, b, op):
    return _count_runmerge([a, b], op)


def logical_op_runmerge(a, b, op):
    return _op_runmerge([a, b], op)

#: Lengths that exercise partial final groups, exact group boundaries,
#: and the empty vector.
ADVERSARIAL_LENGTHS = [0, 1, 30, 31, 32, 61, 62, 63, 100, 311, 1000]


def _pair(rng, n, da, db):
    a = rng.random(n) < da
    b = rng.random(n) < db
    return WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)


def _alternating(n, start_literal, seed):
    """Bits alternating literal-looking and fill-looking 31-bit groups."""
    local = np.random.default_rng(seed)
    bits = np.zeros(n, dtype=bool)
    pos = 0
    literal = start_literal
    while pos < n:
        span = min(GROUP_BITS, n - pos)
        if literal:
            bits[pos : pos + span] = local.random(span) < 0.5
        else:
            bits[pos : pos + span] = bool(local.integers(0, 2))
        pos += span
        literal = not literal
    return bits


class TestCountStreamingEquality:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("n", ADVERSARIAL_LENGTHS)
    def test_three_way_agreement_random(self, op, n, rng):
        for da, db in [(0.02, 0.02), (0.5, 0.5), (0.0, 1.0), (1.0, 1.0)]:
            va, vb = _pair(rng, n, da, db)
            expected_vec = logical_op(va, vb, op)
            assert (
                op_count_streaming(va, vb, op)
                == logical_op_streaming(va, vb, op).count()
                == expected_vec.count()
                == op_count(va, vb, op)
            )

    @pytest.mark.parametrize("op", OPS)
    def test_alternating_literal_fill(self, op):
        n = 31 * 40 + 17  # alternation plus a partial final group
        for sa, sb in [(True, False), (False, True), (True, True)]:
            va = WAHBitVector.from_bools(_alternating(n, sa, seed=11))
            vb = WAHBitVector.from_bools(_alternating(n, sb, seed=29))
            assert op_count_streaming(va, vb, op) == logical_op(va, vb, op).count()

    @pytest.mark.parametrize("op", OPS)
    def test_empty_vectors(self, op):
        va = WAHBitVector.from_bools(np.zeros(0, dtype=bool))
        vb = WAHBitVector.from_bools(np.zeros(0, dtype=bool))
        assert op_count_streaming(va, vb, op) == 0
        assert logical_op_runmerge(va, vb, op).n_bits == 0

    def test_unknown_op_rejected(self):
        v = WAHBitVector.zeros(31)
        with pytest.raises(ValueError, match="unknown op"):
            op_count_streaming(v, v, "nand")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            op_count_streaming(WAHBitVector.zeros(31), WAHBitVector.zeros(62), "and")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1200),
        op=st.sampled_from(OPS),
    )
    def test_property_run_structured(self, seed, n, op):
        local = np.random.default_rng(seed)
        # Run-structured bits (fills dominate) -- the regime the kernel
        # is built for -- at arbitrary, mostly non-multiple-of-31 lengths.
        a = np.resize(np.repeat(local.random(max(1, n // 16)) < 0.4, 16), n)
        b = np.resize(np.repeat(local.random(max(1, n // 7)) < 0.6, 7), n)
        va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
        expected = logical_op(va, vb, op)
        assert op_count_streaming(va, vb, op) == expected.count()
        assert logical_op_streaming(va, vb, op).count() == expected.count()


class TestGiantFills:
    """Fills at and beyond MAX_FILL_BITS, verified without ever expanding.

    The oracle here is ``logical_op_streaming`` (the per-run Python merge,
    already equivalence-tested against ``logical_op`` at sane sizes): its
    cost is O(runs), so billion-bit operands stay cheap.
    """

    def _vectors(self):
        lit = 0x2AAAAAAA  # 15 bits set in a 31-bit literal
        n = MAX_FILL_BITS + 62
        a = WAHBitVector(
            np.array(
                [make_fill(1, MAX_FILL_BITS), make_fill(1, 62)], dtype=np.uint32
            ),
            n,
        )
        b = WAHBitVector(
            np.array(
                [make_fill(0, 31), make_fill(1, MAX_FILL_BITS), lit],
                dtype=np.uint32,
            ),
            n,
        )
        return a, b, n

    def test_counts_analytic(self):
        a, b, n = self._vectors()
        assert op_count_streaming(a, b, "and") == MAX_FILL_BITS + 15
        assert op_count_streaming(a, b, "or") == n
        assert op_count_streaming(a, b, "xor") == 31 + 16

    @pytest.mark.parametrize("op", OPS)
    def test_against_streaming_oracle(self, op):
        a, b, _ = self._vectors()
        assert op_count_streaming(a, b, op) == logical_op_streaming(a, b, op).count()
        assert logical_op_runmerge(a, b, op) == logical_op_streaming(a, b, op)

    def test_runmerge_splits_giant_output_run(self):
        # AND of two all-ones vectors longer than one fill word can hold:
        # the merged result run must split back into multiple fill words.
        n = 2 * MAX_FILL_BITS + 31
        words = np.array(
            [make_fill(1, MAX_FILL_BITS), make_fill(1, MAX_FILL_BITS), make_fill(1, 31)],
            dtype=np.uint32,
        )
        a = WAHBitVector(words, n)
        b = WAHBitVector(words.copy(), n)
        out = logical_op_runmerge(a, b, "and")
        out.check_invariants()
        assert out.count() == n
        assert op_count_streaming(a, b, "and") == n

    def test_misaligned_giant_fills(self):
        # Boundaries that never line up: one giant run against many small
        # ones spanning the same billion-bit range.
        n = MAX_FILL_BITS
        a = WAHBitVector(np.array([make_fill(1, n)], dtype=np.uint32), n)
        chunks = [make_fill(0, 31), make_fill(1, n - 62), make_fill(0, 31)]
        b = WAHBitVector(np.array(chunks, dtype=np.uint32), n)
        assert op_count_streaming(a, b, "and") == n - 62
        assert op_count_streaming(a, b, "xor") == 62
        assert op_count_streaming(a, b, "or") == n


class TestRunmergeEquality:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("n", ADVERSARIAL_LENGTHS)
    def test_matches_logical_op(self, op, n, rng):
        for da, db in [(0.03, 0.03), (0.5, 0.5), (0.0, 1.0)]:
            va, vb = _pair(rng, n, da, db)
            out = logical_op_runmerge(va, vb, op)
            out.check_invariants()
            assert out == logical_op(va, vb, op)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 900),
        op=st.sampled_from(OPS),
    )
    def test_property_matches_logical_op(self, seed, n, op):
        local = np.random.default_rng(seed)
        a = np.resize(np.repeat(local.random(max(1, n // 12)) < 0.3, 12), n)
        b = np.resize(np.repeat(local.random(max(1, n // 9)) < 0.7, 9), n)
        va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
        out = logical_op_runmerge(va, vb, op)
        out.check_invariants()
        assert out == logical_op(va, vb, op)


class TestDispatchers:
    def test_prefers_streaming_thresholds(self, rng):
        sparse = WAHBitVector.from_indices(np.asarray([5, 5000]), 31 * 4000)
        dense = WAHBitVector.from_bools(rng.random(31 * 4000) < 0.5)
        t = STREAMING_COUNT_RATIO_THRESHOLD
        assert sparse.compression_ratio() <= t
        assert dense.compression_ratio() > t
        assert prefers_runmerge((sparse, sparse), t)
        assert not prefers_runmerge((sparse, dense), t)  # both must compress
        assert not prefers_runmerge((dense, dense), t)
        assert prefers_runmerge((dense, dense), 1.0)
        assert not prefers_runmerge((sparse, sparse), 0.0)

    @pytest.mark.parametrize("op", OPS)
    def test_auto_count_routes_agree(self, op, rng):
        for n in [100, 311, 31 * 64]:
            va, vb = _pair(rng, n, 0.02, 0.5)
            expected = logical_op_streaming(va, vb, op).count()
            assert op_count_streaming(va, vb, op) == expected
            assert op_count(va, vb, op) == expected
            assert auto_count_many((va, vb), op) == expected

    @pytest.mark.parametrize("op", OPS)
    def test_auto_op_routes_agree(self, op, rng):
        for n in [100, 311, 31 * 64]:
            va, vb = _pair(rng, n, 0.02, 0.5)
            merged = logical_op_runmerge(va, vb, op)
            merged.check_invariants()
            assert merged == logical_op(va, vb, op) == auto_op_many((va, vb), op)

    def test_auto_count_picks_streaming_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            kernels,
            "_count_runmerge",
            lambda v, op: calls.append(op) or _count_runmerge(v, op),
        )
        sparse = WAHBitVector.from_indices(np.asarray([7]), 31 * 4000)
        auto_count_many((sparse, sparse), "and")
        assert calls == ["and"]

    def test_auto_count_picks_dense_kernel(self, monkeypatch, rng):
        calls = []
        monkeypatch.setattr(
            kernels,
            "_count_dense",
            lambda v, op: calls.append(op) or _count_dense(v, op),
        )
        dense = WAHBitVector.from_bools(rng.random(31 * 2000) < 0.5)
        auto_count_many((dense, dense), "xor")
        assert calls == ["xor"]
