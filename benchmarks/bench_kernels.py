"""Micro-benchmarks of the compressed bitwise kernels (§3.2's fast ops).

Every combine and count goes through the kernel ladder
(``repro.bitmap.kernels.auto_op_many`` / ``repro.bitmap.kernels.auto_count_many``);
path ablations call its two private paths directly.  Ablations:

* the dense path vs the scalar oracle (``logical_op_streaming``);
* compressed AND+popcount vs the equivalent numpy boolean kernel on the
  decompressed data (what "hardware-supported bitwise ops" buys);
* count-only vs materialising the result vector;
* the run-merge path vs the dense path on well-compressed operands --
  the ladder's run-merge regime -- and the public entry's routing
  overhead on both regimes;
* one fused k-way call vs a left fold of k = 2 calls on executor-shaped
  multi-bin operands -- what fusion buys the range-query hot path;
* the three ways to build a joint histogram (§3.2 / Fig. 5) from two
  indices: one ``bincount`` over the recovered bin-id columns, row ANDs
  over the group matrices, and ``m x n`` pairwise ladder counts -- on a
  well-compressed 821-bin Heat3D step pair and a dense 16-bin ocean pair.

Run as a script (``python bench_kernels.py [--smoke]``) to sweep the
k-way section over k in {2, 4, 8, 16}, assert the fused kernel's >= 2x
win at k >= 8 (skipped under ``--smoke``, which only checks parity),
time the joint-histogram routes (every cell asserted equal to the
full-data ``joint_histogram`` on both sizes; outside ``--smoke`` the
route ``joint_counts`` picks must also be the fastest), and write
``results/kernels_kway.txt``, ``results/joint_histogram.txt`` and the
machine-readable ``results/BENCH_kernels.json`` (``--smoke`` writes them
under the untracked ``results/smoke/``).
"""

import argparse
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np

import pytest

from repro.bitmap import (
    BitmapIndex,
    EqualWidthBinning,
    PrecisionBinning,
    WAHBitVector,
    ZOrderLayout,
)
from repro.bitmap.kernels import (
    KWAY_RUNMERGE_RATIO_THRESHOLD,
    _count_dense,
    _count_runmerge,
    _op_dense,
    auto_count_many,
    auto_op_many,
)
from repro.bitmap.ops import (
    STREAMING_COUNT_RATIO_THRESHOLD,
    logical_op_streaming,
    prefers_runmerge,
)
from repro.metrics.bitmap_metrics import _joint_counts_column, _joint_counts_dense
from repro.metrics.histogram import joint_histogram
from repro.sims import Heat3D, HeatSource, OceanDataGenerator
from repro.util.bits import HAS_HARDWARE_POPCOUNT

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_json, save_table

N = 31 * 40_000  # 1.24M bits

#: Average run length (bits) of the sparse fixture; long runs push the
#: compression ratio into the dispatcher's streaming regime (<= 0.1).
SPARSE_RUN = 620


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(1)
    # Run-structured bits, the regime WAH is built for.
    a = np.repeat(rng.random(N // 200) < 0.3, 200)[:N]
    b = np.repeat(rng.random(N // 150) < 0.3, 150)[:N]
    a, b = np.resize(a, N), np.resize(b, N)
    return a, b, WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)


@pytest.fixture(scope="module")
def dense_vectors():
    rng = np.random.default_rng(3)
    # Unstructured bits: nearly every word is a literal (ratio ~1.0), the
    # regime where the dispatcher must stay on the group kernel.
    a = rng.random(N) < 0.5
    b = rng.random(N) < 0.5
    va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
    assert va.compression_ratio() > 0.9 and vb.compression_ratio() > 0.9
    return a, b, va, vb


@pytest.fixture(scope="module")
def sparse_vectors():
    rng = np.random.default_rng(7)
    a = np.resize(np.repeat(rng.random(N // SPARSE_RUN + 1) < 0.3, SPARSE_RUN), N)
    b = np.resize(np.repeat(rng.random(N // SPARSE_RUN + 1) < 0.3, SPARSE_RUN), N)
    va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
    # The acceptance regime: both operands compress to <= 0.1 words/group.
    assert va.compression_ratio() <= 0.1 and vb.compression_ratio() <= 0.1
    va.runs(), vb.runs()  # warm the memoised run decode (steady state)
    return a, b, va, vb


def test_kernel_and_fast(benchmark, vectors):
    _, _, va, vb = vectors
    benchmark(lambda: _op_dense((va, vb), "and"))


def test_kernel_and_streaming(benchmark, vectors):
    _, _, va, vb = vectors
    out = benchmark(lambda: logical_op_streaming(va, vb, "and"))
    assert out == _op_dense((va, vb), "and")


def test_kernel_and_count_only(benchmark, vectors):
    a, b, va, vb = vectors
    count = benchmark(lambda: _count_dense((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_xor_count_only(benchmark, vectors):
    a, b, va, vb = vectors
    count = benchmark(lambda: _count_dense((va, vb), "xor"))
    assert count == int((a ^ b).sum())


def test_kernel_numpy_bool_baseline(benchmark, vectors):
    a, b, _, _ = vectors
    benchmark(lambda: int((a & b).sum()))


def test_kernel_xor_materialised(benchmark, vectors):
    _, _, va, vb = vectors
    benchmark(lambda: _op_dense((va, vb), "xor").count())


def test_kernel_and_count_streaming_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: _count_runmerge((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_and_count_dense_sparse(benchmark, sparse_vectors):
    """The dense path on the same sparse operands (the loser)."""
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: _count_dense((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_xor_count_streaming_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: _count_runmerge((va, vb), "xor"))
    assert count == int((a ^ b).sum())


def test_kernel_xor_count_dense_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: _count_dense((va, vb), "xor"))
    assert count == int((a ^ b).sum())


def test_kernel_auto_count_sparse(benchmark, sparse_vectors):
    """Entry overhead on the run-merge route (two ratio reads)."""
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: auto_count_many((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_auto_count_dense(benchmark, dense_vectors):
    """The entry on dense operands must not regress the dense path."""
    a, b, va, vb = dense_vectors
    count = benchmark(lambda: auto_count_many((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_and_count_dense_baseline(benchmark, dense_vectors):
    """The unrouted dense path on the same dense operands."""
    a, b, va, vb = dense_vectors
    count = benchmark(lambda: _count_dense((va, vb), "and"))
    assert count == int((a & b).sum())


def test_kernel_popcount(benchmark, vectors):
    _, _, va, _ = vectors
    benchmark(va.count)


def test_kernel_compression(benchmark, vectors):
    a, _, _, _ = vectors
    benchmark(lambda: WAHBitVector.from_bools(a))


def test_kernel_decompression(benchmark, vectors):
    _, _, va, _ = vectors
    benchmark(va.to_bools)


# --------------------------------------------------------------------------
# One fused k-way call vs a fold of k = 2 calls (the range-query path)
# --------------------------------------------------------------------------

#: Operand counts for the k-way sweep; 8 and 16 are the executor's
#: typical multi-bin range widths, 2 isolates the fusion overhead.
KWAY_SWEEP = [2, 4, 8, 16]


def range_query_operands(k: int, n_bits: int = N) -> list[WAHBitVector]:
    """``k`` adjacent bins of an equal-width index over gaussian data.

    This is exactly what the executor's ``_resolve_range`` hands to the
    OR reduction: disjoint bin bitvectors whose density tracks the value
    histogram.  Run decodes are pre-warmed (steady-state serving).
    """
    rng = np.random.default_rng(31 * k + 5)
    values = np.clip(rng.normal(0.0, 1.0, n_bits), -4.0, 4.0)
    index = BitmapIndex.build(values, EqualWidthBinning(-4.0, 4.0, 32))
    lo = (len(index.bitvectors) - k) // 2  # central (densest) bins
    vecs = list(index.bitvectors[lo : lo + k])
    for v in vecs:
        v.runs()
    return vecs


def pairwise_or_reduce(vectors: list[WAHBitVector]) -> WAHBitVector:
    """The unfused path: a left fold of k = 2 ladder calls."""
    return reduce(lambda a, b: auto_op_many((a, b), "or"), vectors)


def pairwise_or_count(vectors: list[WAHBitVector]) -> int:
    """Fold the first k - 1 operands, then one k = 2 count (k >= 2)."""
    return auto_count_many((pairwise_or_reduce(vectors[:-1]), vectors[-1]), "or")


@pytest.fixture(scope="module")
def kway_operands():
    return range_query_operands(8)


def test_kernel_kway_fused_or(benchmark, kway_operands):
    out = benchmark(lambda: auto_op_many(kway_operands, "or"))
    assert out == pairwise_or_reduce(kway_operands)


def test_kernel_kway_pairwise_or(benchmark, kway_operands):
    """The fold of k = 2 calls that one fused call replaces (the loser
    at k=8)."""
    benchmark(lambda: pairwise_or_reduce(kway_operands))


def test_kernel_kway_fused_count(benchmark, kway_operands):
    count = benchmark(lambda: auto_count_many(kway_operands, "or"))
    assert count == pairwise_or_reduce(kway_operands).count()


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kway_sweep(smoke: bool = False) -> dict:
    """Sweep fused vs pairwise OR over k; return the JSON-able record."""
    n_bits = 31 * 4_000 if smoke else N
    repeats = 3 if smoke else 15
    rows: list[list[object]] = []
    record: list[dict] = []
    for k in KWAY_SWEEP:
        vecs = range_query_operands(k, n_bits)
        fused = auto_op_many(vecs, "or")
        folded = pairwise_or_reduce(vecs)
        assert fused == folded, f"k-way OR diverged from pairwise at k={k}"
        assert auto_count_many(vecs, "or") == folded.count()
        t_pair = _best_seconds(lambda: pairwise_or_reduce(vecs), repeats)
        t_fused = _best_seconds(lambda: auto_op_many(vecs, "or"), repeats)
        t_pair_count = _best_seconds(lambda: pairwise_or_count(vecs), repeats)
        t_fused_count = _best_seconds(lambda: auto_count_many(vecs, "or"), repeats)
        op_speedup = t_pair / t_fused
        count_speedup = t_pair_count / t_fused_count
        ratio = max(v.compression_ratio() for v in vecs)
        rows.append(
            [
                k,
                ratio,
                t_pair * 1e6,
                t_fused * 1e6,
                op_speedup,
                count_speedup,
            ]
        )
        record.append(
            {
                "k": k,
                "max_compression_ratio": round(ratio, 4),
                "pairwise_or_us": round(t_pair * 1e6, 1),
                "fused_or_us": round(t_fused * 1e6, 1),
                "or_speedup": round(op_speedup, 2),
                "pairwise_count_us": round(t_pair_count * 1e6, 1),
                "fused_count_us": round(t_fused_count * 1e6, 1),
                "count_speedup": round(count_speedup, 2),
            }
        )
    table = format_table(
        f"Fused k-way OR vs pairwise fold (N={n_bits} bits, equal-width "
        f"range-query operands{', SMOKE' if smoke else ''})",
        ["k", "ratio", "pairwise_us", "fused_us", "or_speedup", "count_speedup"],
        rows,
    )
    save_table("kernels_kway", table, smoke=smoke)
    if not smoke:
        losers = {r["k"]: r["or_speedup"] for r in record if r["k"] >= 8}
        assert all(s >= 2.0 for s in losers.values()), (
            f"fused k-way OR under 2x vs pairwise fold at k >= 8: {losers}"
        )
    return {
        "n_bits": n_bits,
        "kway_runmerge_ratio_threshold": KWAY_RUNMERGE_RATIO_THRESHOLD,
        "kway": record,
    }


# --------------------------------------------------------------------------
# Joint histogram: bin-id column vs group matrix vs m x n pairwise counts
# --------------------------------------------------------------------------


def heat3d_pair(shape: tuple[int, int, int], step: int = 4):
    """Two consecutive Heat3D steps under the 821-bin 0.1-degree binning:
    the pair ``insitu_select``'s conditional entropy compares."""
    d, h, w = shape
    half = max(1, min(shape) // 8)
    source = HeatSource(
        (d - 2 * half, h // 2 - half, w // 2 - half),
        (d - half, h // 2 + half, w // 2 + half),
        100.0,
    )
    sim = Heat3D(shape, seed=11, sources=[source])
    for _ in range(step):
        sim.advance()
    a = sim.advance().fields["temperature"].ravel()
    b = sim.advance().fields["temperature"].ravel()
    binning = PrecisionBinning(19, 101, digits=1)
    return a, b, binning, binning


def ocean_pair(shape: tuple[int, int, int]):
    """Z-ordered temperature / salinity of one ocean snapshot, 16 bins
    each: the dense-regime pair ``mine_corr`` mines."""
    snapshot = OceanDataGenerator(shape, seed=11).advance()
    layout = ZOrderLayout.for_shape(shape)
    ranges = {"temperature": (-5.0, 35.0), "salinity": (28.0, 40.0)}
    a, b = (
        layout.flatten(np.clip(snapshot.fields[v], *ranges[v])) for v in ranges
    )
    return a, b, *(EqualWidthBinning(*ranges[v], 16) for v in ranges)


def pairwise_joint_counts(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """The m x n form: one k = 2 ladder count per nonempty bin pair."""
    out = np.zeros((index_a.n_bins, index_b.n_bins), dtype=np.int64)
    nonempty_b = np.flatnonzero(index_b.bin_counts())
    for i in np.flatnonzero(index_a.bin_counts()):
        va = index_a.bitvectors[i]
        for j in nonempty_b:
            out[i, j] = auto_count_many((va, index_b.bitvectors[j]), "and")
    return out


JOINT_ROUTES = {
    "bin_id_column": _joint_counts_column,
    "group_matrix": _joint_counts_dense,
    "mxn_pairwise": pairwise_joint_counts,
}


def run_joint_table(smoke: bool = False) -> list[dict]:
    """Time every joint-histogram route on both regimes; each call gets
    fresh indices (no memoised counts, column or group matrix), as every
    in-situ step and every served query does."""
    pairs = {
        "heat3d": heat3d_pair((8, 16, 32) if smoke else (16, 32, 64)),
        "ocean": ocean_pair((8, 48, 96) if smoke else (16, 192, 384)),
    }
    repeats = 2 if smoke else 7
    rows: list[list[object]] = []
    record: list[dict] = []
    for name, (a, b, bins_a, bins_b) in pairs.items():
        ia, ib = BitmapIndex.build(a, bins_a), BitmapIndex.build(b, bins_b)
        expect = joint_histogram(a, b, bins_a, bins_b)
        ratio = max(ia.compression_ratio(), ib.compression_ratio())
        timings = {}
        for route, fn in JOINT_ROUTES.items():

            def call():
                return fn(
                    BitmapIndex(bins_a, ia.bitvectors, ia.n_elements),
                    BitmapIndex(bins_b, ib.bitvectors, ib.n_elements),
                )

            assert np.array_equal(call(), expect), f"{route} diverged on {name}"
            timings[route] = _best_seconds(call, repeats) * 1e3
        best = min(timings, key=timings.get)
        routed = (
            "bin_id_column"
            if prefers_runmerge((ia, ib), STREAMING_COUNT_RATIO_THRESHOLD)
            else "group_matrix"
        )
        if not smoke:
            assert best == routed, f"{name}: routed to {routed}, {best} is faster"
        rows.append(
            [name, f"{ia.n_bins}x{ib.n_bins}", ia.n_elements, ratio,
             *timings.values(), best]
        )
        record.append(
            {
                "pair": name,
                "bins": [ia.n_bins, ib.n_bins],
                "n_elements": ia.n_elements,
                "max_compression_ratio": round(ratio, 4),
                **{f"{route}_ms": round(t, 3) for route, t in timings.items()},
                "fastest": best,
            }
        )
    table = format_table(
        "Joint histogram routes, ms per call on fresh indices (route rule: "
        f"bin-id column iff both ratios <= {STREAMING_COUNT_RATIO_THRESHOLD}"
        f"{'; SMOKE' if smoke else ''})",
        ["pair", "bins", "rows", "ratio", *JOINT_ROUTES, "fastest"],
        rows,
    )
    save_table("joint_histogram", table, smoke=smoke)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small operands, parity checks only (no speedup assertion)",
    )
    args = parser.parse_args(argv)
    result = {
        "smoke": args.smoke,
        "hardware_popcount": HAS_HARDWARE_POPCOUNT,
        **run_kway_sweep(smoke=args.smoke),
        "joint_histogram": run_joint_table(smoke=args.smoke),
    }
    save_json("BENCH_kernels", result, smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
