"""Row-ordering ablation: size + latency deltas per ordering x codec.

Sorting rows before encoding lengthens fill runs, which is where
word-aligned codecs earn their keep -- the effect Lemire, Kaser & Aouiche
quantify in "Sorting improves word-aligned bitmap indexes" (DKE 2010)
and refine with frequency-aware relabelling in "Histogram-aware sorting
for enhanced word-aligned compression in bitmap indexes" (DOLAP 2008).
This bench sweeps {none, lex, gray, hist} x every storage codec option
(``wah``, ``roaring``, ``auto``) over three synthetic workloads
(shuffled low-cardinality, zipf-skewed, adversarial uniform-random) and
records per cell:

* stored bitvector payload bytes under that codec and their ratio vs
  the unordered baseline under the same codec;
* bin-query latency (``query_bins`` over half the bins) -- measured once
  per ordering, since every codec reads back to the same WAH index;
* oracle parity -- bin counts AND de-permuted mask words must equal the
  unordered baseline exactly, asserted before anything is timed.

``python bench_ordering.py [--smoke]`` writes ``results/BENCH_ordering.json``
(CI runs ``--smoke``, which writes under ``results/smoke/``).  The
acceptance bar: at least one ordering achieves >= 1.5x size reduction on
the sort-friendly workload.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_json, save_table

from repro.bitmap import CODECS, BitmapIndex, EqualWidthBinning, select_codec

CODEC_NAMES = tuple(CODECS) + ("auto",)
ORDERINGS = (None, "lex", "gray", "hist")

#: Workloads spanning the ordering design space: ``shuffled`` is the
#: sort-friendly case (low-cardinality values in random row order --
#: exactly what in-situ decomposition produces after a halo exchange);
#: ``zipf`` has the skewed histogram hist-ordering targets; ``uniform``
#: has high-cardinality raw values that binning collapses, so even here a
#: single-column sort yields perfect runs (multi-variable shared orderings
#: are where the methods diverge -- see docs/data_ordering.md).
WORKLOADS = ("shuffled", "zipf", "uniform")


def make_workload(name: str, n: int, n_bins: int, rng) -> np.ndarray:
    if name == "shuffled":
        reps = -(-n // n_bins)
        return rng.permutation(np.repeat(np.arange(n_bins, dtype=float), reps)[:n])
    if name == "zipf":
        p = 1.0 / np.arange(1, n_bins + 1) ** 1.2
        return rng.choice(n_bins, size=n, p=p / p.sum()).astype(float)
    if name == "uniform":
        return rng.uniform(0.0, n_bins, n)
    raise ValueError(name)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _parity(ordered: BitmapIndex, baseline: BitmapIndex, ids) -> bool:
    """Per-cell oracle parity: counts and de-permuted mask words must be
    exactly the unordered baseline's."""
    if not np.array_equal(ordered.bin_counts(), baseline.bin_counts()):
        return False
    mask = ordered.query_bins(ids)
    if ordered.ordering is not None:
        mask = ordered.ordering.unpermute_mask(mask)
    return mask == baseline.query_bins(ids)


def payload_bytes(index: BitmapIndex, codec: str) -> int:
    """Bitvector payload bytes of ``index`` stored under a codec name."""
    return 4 * sum(
        (select_codec(v) if codec == "auto" else CODECS[codec]).payload_n_words(v)
        for v in index.bitvectors
    )


def run_ordering_matrix(smoke: bool = False) -> dict:
    """Sweep ordering x codec x workload; write BENCH_ordering.json."""
    n = 31 * 63 * (4 if smoke else 128)
    n_bins = 24
    repeats = 2 if smoke else 8
    rng = np.random.default_rng(29)
    binning = EqualWidthBinning(0.0, float(n_bins), n_bins)
    query_ids = np.arange(0, n_bins, 2)

    rows: list[list[object]] = []
    record: list[dict] = []
    best_reduction = 0.0
    for workload in WORKLOADS:
        data = make_workload(workload, n, n_bins, rng)
        baseline = BitmapIndex.build(data, binning)
        base_bytes = {c: payload_bytes(baseline, c) for c in CODEC_NAMES}
        for method in ORDERINGS:
            index = (
                baseline
                if method is None
                else BitmapIndex.build(data, binning, ordering=method)
            )
            parity = _parity(index, baseline, query_ids)
            assert parity, (workload, method)
            t_query = _best_seconds(
                lambda: index.query_bins(query_ids).count(), repeats
            )
            label = method or "none"
            for codec in CODEC_NAMES:
                stored = payload_bytes(index, codec)
                ratio = base_bytes[codec] / stored
                if method is not None and workload == "shuffled":
                    best_reduction = max(best_reduction, ratio)
                rows.append([
                    workload, codec, label, stored,
                    round(ratio, 2), round(t_query * 1e6, 1),
                ])
                record.append({
                    "workload": workload,
                    "codec": codec,
                    "ordering": label,
                    "payload_bytes": stored,
                    "size_reduction_vs_unordered": round(ratio, 3),
                    "query_half_bins_us": round(t_query * 1e6, 1),
                    "oracle_parity": parity,
                })
    table = format_table(
        f"Ordering x codec matrix (N={n} rows{', SMOKE' if smoke else ''})",
        ["workload", "codec", "ordering", "bytes", "reduction", "query_us"],
        rows,
    )
    save_table("ordering_matrix", table, smoke=smoke)
    result = {
        "n_rows": n,
        "n_bins": n_bins,
        "smoke": smoke,
        "codecs": list(CODEC_NAMES),
        "orderings": [m or "none" for m in ORDERINGS],
        "workloads": list(WORKLOADS),
        "best_shuffled_reduction": round(best_reduction, 3),
        "matrix": record,
    }
    save_json("BENCH_ordering", result, smoke=smoke)
    # The acceptance bar from the issue: ordering must be worth its
    # sidecar on the workload it is designed for.
    assert best_reduction >= 1.5, (
        f"no ordering reached 1.5x on the shuffled workload "
        f"(best {best_reduction:.2f}x)"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small arrays, parity checks on every cell, fast timings",
    )
    args = parser.parse_args(argv)
    run_ordering_matrix(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
