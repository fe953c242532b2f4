"""Calibration sweep for the kernel ladder's route thresholds.

The ladder (``repro.bitmap.kernels.auto_op_many`` /
``repro.bitmap.kernels.auto_count_many``) picks its run-merge path when
every operand compresses to at or below a k-aware threshold, its dense
path otherwise.  This sweep times the two private paths against each
other across a compression-ratio sweep on 1.24M-bit vectors, at the two
operand counts that calibrate the two thresholds:

* k = 2 (AND) -- crossover calibrates ``STREAMING_COUNT_RATIO_THRESHOLD``
  (count and materialising forms share it);
* k = 8 (OR, the executor's multi-bin regime) -- crossover calibrates
  ``KWAY_RUNMERGE_RATIO_THRESHOLD``, used for every k >= 3.  It sits far
  below the k = 2 one (~0.01 vs ~0.06): the merge's boundary sort and
  per-operand prefix counts grow with the summed run count, while the
  dense sweep stays one hardware-rate pass per operand.

Writes ``benchmarks/results/kernel_dispatch.txt`` (quoted by DESIGN.md's
"Kernel dispatch policy" section).  The assertions pin the calibrated
regime: the run merge must win inside each threshold and lose at the
dense end.
"""

import time

import numpy as np

from repro.bitmap import WAHBitVector
from repro.bitmap.kernels import (
    KWAY_RUNMERGE_RATIO_THRESHOLD,
    _count_dense,
    _count_runmerge,
    _op_dense,
    _op_runmerge,
)
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD
from _tables import format_table, save_table

N = 31 * 40_000  # 1.24M bits

#: Average run lengths (bits) spanning sparse to dense regimes.
RUN_LENGTHS = [10_000, 2500, 620, 310, 150, 60, 31, 8]

#: (k, op, threshold) per calibrated crossover: pairwise AND and the
#: executor's multi-bin OR.
SWEEPS = [
    (2, "and", STREAMING_COUNT_RATIO_THRESHOLD),
    (8, "or", KWAY_RUNMERGE_RATIO_THRESHOLD),
]


def _vector_group(run_len: int, k: int) -> list[WAHBitVector]:
    rng = np.random.default_rng(run_len * 31 + k)
    out = []
    for _ in range(k):
        bits = np.resize(
            np.repeat(rng.random(N // run_len + 1) < 0.3, run_len), N
        )
        v = WAHBitVector.from_bools(bits)
        v.runs()  # warm the memoised run decode (steady state)
        out.append(v)
    return out


def _best_seconds(fn, repeats: int = 15) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sweep(k: int, op: str) -> tuple[list[list[object]], dict[float, float]]:
    """Time the dense path against the run merge over RUN_LENGTHS."""
    rows: list[list[object]] = []
    count_speedup_at: dict[float, float] = {}
    for run_len in RUN_LENGTHS:
        vecs = _vector_group(run_len, k)
        ratio = max(v.compression_ratio() for v in vecs)
        assert _count_runmerge(vecs, op) == _count_dense(vecs, op)
        assert _op_runmerge(vecs, op) == _op_dense(vecs, op)
        t_count_dense = _best_seconds(lambda: _count_dense(vecs, op))
        t_count_merge = _best_seconds(lambda: _count_runmerge(vecs, op))
        t_op_dense = _best_seconds(lambda: _op_dense(vecs, op))
        t_op_merge = _best_seconds(lambda: _op_runmerge(vecs, op))
        count_speedup_at[ratio] = t_count_dense / t_count_merge
        rows.append(
            [
                run_len,
                ratio,
                t_count_dense * 1e6,
                t_count_merge * 1e6,
                t_count_dense / t_count_merge,
                t_op_dense / t_op_merge,
            ]
        )
    return rows, count_speedup_at


def test_dispatch_calibration_table():
    tables = []
    for k, op, threshold in SWEEPS:
        rows, speedups = _sweep(k, op)
        tables.append(
            format_table(
                f"Route calibration (N={N} bits, k={k}, {op.upper()}; run "
                f"merge vs chunked dense sweep, hardware popcount; "
                f"threshold={threshold})",
                [
                    "run_bits",
                    "ratio",
                    "count_dense_us",
                    "count_merge_us",
                    "count_speedup",
                    "op_speedup",
                ],
                rows,
            )
        )
        # Inside the calibrated threshold the run-merge count must win
        # (with margin at the sparse end); at the dense end the dense
        # path must win.
        in_regime = {r: s for r, s in speedups.items() if r <= threshold}
        assert in_regime, "sweep produced no operands inside the threshold regime"
        assert all(s >= 1.0 for s in in_regime.values()), (
            f"run merge loses inside its regime at k={k}: {in_regime}"
        )
        ratios = sorted(speedups)
        assert speedups[ratios[0]] >= 1.5, (
            f"no clear run-merge win at the sparsest point, k={k}: {speedups}"
        )
        assert speedups[ratios[-1]] < 1.0, (
            f"no clear dense win at the densest point, k={k}: {speedups}"
        )
    save_table("kernel_dispatch", "\n\n".join(tables))
