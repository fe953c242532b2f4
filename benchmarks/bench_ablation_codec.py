"""Ablation: the codec design space (§2.1) over the pluggable codec layer.

The paper picks WAH for its word-aligned operations; BBC [4] is the
cited byte-aligned alternative, and the codec registry
(:mod:`repro.bitmap.codec`) adds Roaring and WAH64 as selectable
backends.  Two measurement modes:

* pytest-benchmark micro-benchmarks on identical Heat3D bitmap data --
  sizes plus AND+count kernels per registered codec (and BBC / raw
  numpy bools for the historical comparison);
* a scriptable codec x density matrix (``python
  bench_ablation_codec.py [--smoke]``) sweeping every registered codec
  over {empty, sparse, mid, dense, full} bins, asserting cross-codec
  parity on every cell, and writing size + op-throughput records to
  ``results/BENCH_codec.json`` -- the artifact behind the
  ``select_codec`` density thresholds.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _tables import RESULTS_DIR, format_table, save_table

from repro.bitmap import (
    CODECS,
    PrecisionBinning,
    RoaringBitVector,
    WAHBitVector,
    auto_count_many,
    build_bitvectors,
    convert,
    select_codec,
)
from repro.bitmap.bbc import BBCBitVector, bbc_and_count
from repro.bitmap.ops import logical_op_streaming
from repro.sims import Heat3D

CODEC_NAMES = tuple(CODECS)

#: The density matrix: bin shapes the auto-selection policy discriminates.
DENSITIES = {
    "empty": 0.0,
    "sparse": 0.001,
    "mid": 0.02,
    "dense": 0.3,
    "full": 1.0,
}


def native_count(a, b, op: str) -> int:
    """``popcount(op(a, b))`` ("and" / "or") without leaving the
    operands' codec: the kernel ladder for WAH, the codec's own
    operators for Roaring and WAH64."""
    if isinstance(a, WAHBitVector):
        return auto_count_many((a, b), op)
    if isinstance(a, RoaringBitVector):
        return a.and_count(b) if op == "and" else a.or_count(b)
    return (a & b).count() if op == "and" else (a | b).count()


@pytest.fixture(scope="module")
def codec_data():
    sim = Heat3D((16, 16, 64), seed=4)
    for _ in range(40):
        step = sim.advance()
    data = step.fields["temperature"].ravel()
    binning = PrecisionBinning.from_data(data, digits=1)
    wah = build_bitvectors(data, binning)
    # The two densest bins exercise the op kernels hardest.
    by_count = sorted(wah, key=lambda v: -v.count())[:2]
    pairs = {
        name: (convert(by_count[0], name), convert(by_count[1], name))
        for name in CODEC_NAMES
    }
    return {
        "wah": wah,
        "pairs": pairs,
        "bbc_a": BBCBitVector.from_bools(by_count[0].to_bools()),
        "bbc_b": BBCBitVector.from_bools(by_count[1].to_bools()),
        "bool_a": by_count[0].to_bools(),
        "bool_b": by_count[1].to_bools(),
        "n_bits": data.size,
        "n_bins": binning.n_bins,
    }


def test_codec_sizes(benchmark, codec_data):
    def table():
        raw_total = codec_data["n_bins"] * (-(-codec_data["n_bits"] // 8))
        rows = [["uncompressed bitset", raw_total, 1.0]]
        for name in CODEC_NAMES:
            total = sum(
                convert(v, name).nbytes for v in codec_data["wah"]
            )
            rows.append([name, total, total / raw_total])
        bbc_total = sum(
            BBCBitVector.from_bools(v.to_bools()).nbytes
            for v in codec_data["wah"]
        )
        rows.append(["bbc", bbc_total, bbc_total / raw_total])
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    text = format_table(
        "Ablation -- codec sizes over all Heat3D bitvectors (bytes)",
        ["codec", "bytes", "vs_uncompressed"],
        rows,
    )
    save_table("ablation_codec_size", text)
    sizes = {r[0]: r[1] for r in rows}
    # Both word-aligned codecs crush the raw bitset; on long-run
    # simulation data WAH's 30-bit fill counters beat BBC's 6-bit ones
    # (BBC wins on short runs, see tests/bitmap/test_bbc.py).
    assert sizes["wah"] < 0.05 * sizes["uncompressed bitset"]
    assert sizes["bbc"] < 0.05 * sizes["uncompressed bitset"]


@pytest.mark.parametrize("name", CODEC_NAMES)
def test_kernel_codec_and_count(benchmark, codec_data, name):
    """Native same-codec AND+count."""
    a, b = codec_data["pairs"][name]
    count = benchmark(lambda: native_count(a, b, "and"))
    assert count == int((codec_data["bool_a"] & codec_data["bool_b"]).sum())


def test_kernel_wah_streaming_and(benchmark, codec_data):
    a, b = codec_data["pairs"]["wah"]
    benchmark(lambda: logical_op_streaming(a, b, "and").count())


def test_kernel_bbc_and_count(benchmark, codec_data):
    a, b = codec_data["bbc_a"], codec_data["bbc_b"]
    count = benchmark(lambda: bbc_and_count(a, b))
    assert count == int((codec_data["bool_a"] & codec_data["bool_b"]).sum())


def test_kernel_numpy_bool_and(benchmark, codec_data):
    a, b = codec_data["bool_a"], codec_data["bool_b"]
    benchmark(lambda: int((a & b).sum()))


def test_all_codecs_agree(benchmark, codec_data):
    def check():
        ref = int((codec_data["bool_a"] & codec_data["bool_b"]).sum())
        for name in CODEC_NAMES:
            a, b = codec_data["pairs"][name]
            if native_count(a, b, "and") != ref:
                return False
        return bbc_and_count(codec_data["bbc_a"], codec_data["bbc_b"]) == ref

    assert benchmark.pedantic(check, rounds=1, iterations=1)


# ----------------------------------------------------- codec x density matrix
def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _density_bits(n_bits: int, density: float, rng) -> np.ndarray:
    if density <= 0.0:
        return np.zeros(n_bits, dtype=bool)
    if density >= 1.0:
        return np.ones(n_bits, dtype=bool)
    return rng.random(n_bits) < density


def run_codec_matrix(smoke: bool = False) -> dict:
    """Sweep every codec over the density matrix; write BENCH_codec.json.

    Every cell is parity-checked against the boolean oracle before it is
    timed, so the artifact doubles as a codec-matrix smoke test (CI runs
    it with ``--smoke``).
    """
    n_bits = 31 * 63 * (8 if smoke else 512)
    repeats = 2 if smoke else 10
    rng = np.random.default_rng(17)
    rows: list[list[object]] = []
    record: list[dict] = []
    for shape, density in DENSITIES.items():
        bits_a = _density_bits(n_bits, density, rng)
        bits_b = _density_bits(n_bits, min(1.0, density + 0.01), rng)
        oracle_and = int((bits_a & bits_b).sum())
        oracle_or = int((bits_a | bits_b).sum())
        selected = select_codec(CODECS["wah"].encode_bools(bits_a)).name
        for name in CODEC_NAMES:
            codec = CODECS[name]
            a, b = codec.encode_bools(bits_a), codec.encode_bools(bits_b)
            # Parity before timing: every cell must agree with the oracle
            # and (via the kernel ladder) with the cross-codec WAH path.
            assert native_count(a, b, "and") == oracle_and, (shape, name)
            assert native_count(a, b, "or") == oracle_or, (shape, name)
            assert auto_count_many((a, convert(b, "wah")), "and") == oracle_and
            payload = codec.payload_words(a)
            assert codec.decode_payload(
                payload.copy(), n_bits
            ).count() == int(bits_a.sum()), (shape, name)
            t_and = _best_seconds(lambda: native_count(a, b, "and"), repeats)
            size_bytes = 4 * int(payload.size)
            rows.append([
                shape, name, name == selected, size_bytes,
                t_and * 1e6,
            ])
            record.append({
                "shape": shape,
                "density": density,
                "codec": name,
                "auto_selected": name == selected,
                "payload_bytes": size_bytes,
                "and_count_us": round(t_and * 1e6, 1),
                "and_count_ops_per_s": round(1.0 / t_and, 1),
            })
    table = format_table(
        f"Codec x density matrix (N={n_bits} bits{', SMOKE' if smoke else ''})",
        ["shape", "codec", "selected", "payload_bytes", "and_count_us"],
        rows,
    )
    save_table("ablation_codec_matrix", table)
    result = {
        "n_bits": n_bits,
        "smoke": smoke,
        "codecs": list(CODEC_NAMES),
        "densities": DENSITIES,
        "matrix": record,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_codec.json"
    json_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[saved to {json_path}]")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small vectors, parity checks on every cell, fast timings",
    )
    args = parser.parse_args(argv)
    run_codec_matrix(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
