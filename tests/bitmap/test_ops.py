"""Pairwise (k = 2) combines through the kernel ladder, NOT, and the
scalar oracle (repro.bitmap.ops / repro.bitmap.kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.ops import logical_not, logical_op_streaming
from repro.bitmap.wah import WAHBitVector

OPS = ["and", "or", "xor", "andnot"]
NUMPY_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & ~b,
}


def logical_and(a, b):
    return auto_op_many((a, b), "and")


def logical_or(a, b):
    return auto_op_many((a, b), "or")


def logical_xor(a, b):
    return auto_op_many((a, b), "xor")


def logical_andnot(a, b):
    return auto_op_many((a, b), "andnot")


def _pair(rng, n, da, db):
    a = rng.random(n) < da
    b = rng.random(n) < db
    return a, b, WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)


class TestFastOps:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 100, 2000])
    def test_matches_numpy(self, op, n, rng):
        a, b, va, vb = _pair(rng, n, 0.2, 0.6)
        out = auto_op_many((va, vb), op)
        out.check_invariants()
        assert np.array_equal(out.to_bools(), NUMPY_OPS[op](a, b))

    def test_not(self, rng):
        bits = rng.random(100) < 0.5
        v = WAHBitVector.from_bools(bits)
        out = logical_not(v)
        out.check_invariants()
        assert np.array_equal(out.to_bools(), ~bits)
        # padding must stay zero even though NOT flips everything
        assert out.count() == 100 - int(bits.sum())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            logical_and(WAHBitVector.zeros(10), WAHBitVector.zeros(11))

    def test_unknown_op_rejected(self, rng):
        v = WAHBitVector.zeros(10)
        with pytest.raises(ValueError, match="unknown op"):
            auto_op_many((v, v), "nand")

    def test_fill_heavy_operands(self):
        # Long 0-fills and 1-fills exercise the repeat/merge machinery.
        a = WAHBitVector.from_indices(np.asarray([5000]), 100_000)
        b = WAHBitVector.ones(100_000)
        assert logical_and(a, b) == a
        assert logical_or(a, b) == b
        assert logical_xor(a, b).count() == 99_999


class TestCountKernels:
    @pytest.mark.parametrize("n", [1, 31, 500, 4097])
    def test_and_count(self, n, rng):
        a, b, va, vb = _pair(rng, n, 0.4, 0.4)
        assert auto_count_many((va, vb), "and") == int((a & b).sum())

    @pytest.mark.parametrize("n", [1, 31, 500, 4097])
    def test_xor_count(self, n, rng):
        a, b, va, vb = _pair(rng, n, 0.4, 0.4)
        assert auto_count_many((va, vb), "xor") == int((a ^ b).sum())

    def test_counts_match_materialised(self, rng):
        _, _, va, vb = _pair(rng, 911, 0.1, 0.9)
        assert auto_count_many((va, vb), "and") == logical_and(va, vb).count()
        assert auto_count_many((va, vb), "xor") == logical_xor(va, vb).count()


class TestStreamingOps:
    @pytest.mark.parametrize("op", OPS)
    def test_streaming_equals_fast(self, op, rng):
        for n in [0, 31, 62, 100, 1000]:
            for da, db in [(0.01, 0.99), (0.5, 0.5), (0.0, 1.0)]:
                _, _, va, vb = _pair(rng, n, da, db)
                assert logical_op_streaming(va, vb, op) == auto_op_many((va, vb), op)

    def test_streaming_fill_merge(self):
        # AND of two disjoint sparse vectors collapses to one 0-fill word.
        a = WAHBitVector.from_indices(np.asarray([10]), 31 * 100)
        b = WAHBitVector.from_indices(np.asarray([2000]), 31 * 100)
        out = logical_op_streaming(a, b, "and")
        assert out.n_words == 1
        assert out.count() == 0

    def test_streaming_unknown_op(self):
        v = WAHBitVector.zeros(31)
        with pytest.raises(ValueError, match="unknown op"):
            logical_op_streaming(v, v, "bogus")

    def test_streaming_length_mismatch(self):
        with pytest.raises(ValueError):
            logical_op_streaming(WAHBitVector.zeros(31), WAHBitVector.zeros(62), "and")

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 800),
        op=st.sampled_from(OPS),
    )
    def test_property_three_way_agreement(self, seed, n, op):
        local = np.random.default_rng(seed)
        # Run-structured bits: realistic for WAH (fills dominate).
        a = np.repeat(local.random(max(1, n // 8)) < 0.5, 8)[:n]
        b = np.repeat(local.random(max(1, n // 5)) < 0.3, 5)[:n]
        a = np.resize(a, n)
        b = np.resize(b, n)
        va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
        fast = auto_op_many((va, vb), op)
        stream = logical_op_streaming(va, vb, op)
        assert fast == stream
        assert np.array_equal(fast.to_bools(), NUMPY_OPS[op](a, b))


class TestAlgebraicIdentities:
    """Boolean-algebra identities, property-checked end to end."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 500))
    def test_de_morgan(self, seed, n):
        local = np.random.default_rng(seed)
        a = WAHBitVector.from_bools(local.random(n) < 0.4)
        b = WAHBitVector.from_bools(local.random(n) < 0.4)
        left = logical_not(logical_and(a, b))
        right = logical_or(logical_not(a), logical_not(b))
        assert left == right

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 500))
    def test_xor_via_andnot(self, seed, n):
        local = np.random.default_rng(seed)
        a = WAHBitVector.from_bools(local.random(n) < 0.4)
        b = WAHBitVector.from_bools(local.random(n) < 0.4)
        assert logical_xor(a, b) == logical_or(
            logical_andnot(a, b), logical_andnot(b, a)
        )

    def test_identity_elements(self, rng):
        bits = rng.random(300) < 0.5
        v = WAHBitVector.from_bools(bits)
        zeros, ones = WAHBitVector.zeros(300), WAHBitVector.ones(300)
        assert logical_or(v, zeros) == v
        assert logical_and(v, ones) == v
        assert logical_xor(v, zeros) == v
        assert logical_and(v, zeros) == zeros
