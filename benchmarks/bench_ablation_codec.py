"""Ablation: the codec design space (§2.1) and the storage-codec census.

The paper picks WAH for its word-aligned operations; BBC [4] is the
cited byte-aligned alternative, and the codec registry
(:mod:`repro.bitmap.codec`) adds Roaring as a storage format: a file's
bins may be written as Roaring containers, and every reader decodes
them back to WAH.  Three measurement modes:

* pytest-benchmark micro-benchmarks on identical Heat3D bitmap data --
  stored sizes per codec, plus AND+count kernels for WAH (the kernel
  ladder), Roaring's own in-memory operators, BBC and raw numpy bools;
* a scriptable codec x density matrix (``python
  bench_ablation_codec.py [--smoke]``) over {empty, sparse, mid, dense,
  full} bins, asserting oracle parity on every cell, and writing payload
  size + op-throughput records to ``results/BENCH_codec.json``;
* the census (same command): per field of the repo benchmark's
  workloads -- Heat3D 16x32x64 step 3 under ``insitu_select``'s 821-bin
  binning, and a 16x192x384 ocean snapshot's temperature and salinity
  under ``mine_corr``'s 16-bin binnings -- the payload bytes of the
  all-WAH record, the ``codec="auto"`` record and the per-bin minimum,
  and the bins each codec wins, unordered and with ``ordering="lex"``,
  written to ``results/codec_census.txt``.  It asserts that the
  ``"auto"`` payload equals the per-bin minimum and that the ``"auto"``
  file is never larger than the all-WAH file.

``--smoke`` shrinks every size and writes under ``results/smoke/``.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_json, save_table

from repro.bitmap import (
    CODECS,
    BitmapIndex,
    PrecisionBinning,
    RoaringBitVector,
    WAHBitVector,
    ZOrderLayout,
    auto_count_many,
    build_bitvectors,
    select_codec,
    serialized_size,
)
from repro.bitmap.bbc import BBCBitVector, bbc_and_count
from repro.bitmap.ops import logical_op_streaming
from repro.sims import Heat3D, OceanDataGenerator

CODEC_NAMES = tuple(CODECS)

#: The density matrix: bin shapes the smallest-payload rule discriminates.
DENSITIES = {
    "empty": 0.0,
    "sparse": 0.001,
    "mid": 0.02,
    "dense": 0.3,
    "full": 1.0,
}


def payload_bytes(vec: WAHBitVector, codec: str) -> int:
    """Bytes of ``vec``'s stored payload under a codec name (``"auto"``:
    the one :func:`~repro.bitmap.codec.select_codec` picks)."""
    c = select_codec(vec) if codec == "auto" else CODECS[codec]
    return 4 * c.payload_n_words(vec)


def native_count(a, b, op: str) -> int:
    """``popcount(op(a, b))`` ("and" / "or") in the operands' own
    in-memory form: the kernel ladder for WAH, Roaring's operators for
    Roaring."""
    if isinstance(a, RoaringBitVector):
        return a.and_count(b) if op == "and" else a.or_count(b)
    return auto_count_many((a, b), op)


def _in_memory(vec: WAHBitVector, codec: str):
    if codec == "roaring":
        return RoaringBitVector.from_indices(vec.to_indices(), vec.n_bits)
    return vec


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
        name: (_in_memory(by_count[0], name), _in_memory(by_count[1], name))
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
        for name in CODEC_NAMES + ("auto",):
            total = sum(payload_bytes(v, name) for v in codec_data["wah"])
            rows.append([name, total, total / raw_total])
        bbc_total = sum(
            BBCBitVector.from_bools(v.to_bools()).nbytes
            for v in codec_data["wah"]
        )
        rows.append(["bbc", bbc_total, bbc_total / raw_total])
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    text = format_table(
        "Ablation -- stored payload sizes over all Heat3D bitvectors (bytes)",
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
    assert sizes["auto"] <= min(sizes[name] for name in CODEC_NAMES)


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
        wah_a = WAHBitVector.from_bools(bits_a)
        wah_b = WAHBitVector.from_bools(bits_b)
        selected = select_codec(wah_a).name
        for name in CODEC_NAMES:
            codec = CODECS[name]
            a, b = _in_memory(wah_a, name), _in_memory(wah_b, name)
            # Parity before timing: every cell must agree with the oracle,
            # and the stored payload must read back to the same WAH words.
            assert native_count(a, b, "and") == oracle_and, (shape, name)
            assert native_count(a, b, "or") == oracle_or, (shape, name)
            payload = codec.encode(wah_a)
            assert codec.decode(payload.copy(), n_bits) == wah_a, (shape, name)
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
    save_table("ablation_codec_matrix", table, smoke=smoke)
    result = {
        "n_bits": n_bits,
        "smoke": smoke,
        "codecs": list(CODEC_NAMES),
        "densities": DENSITIES,
        "matrix": record,
    }
    save_json("BENCH_codec", result, smoke=smoke)
    return result


# ------------------------------------------------------------------ census
def _census_fields(smoke: bool) -> dict[str, tuple[np.ndarray, object]]:
    """The benchmark workloads' fields and binnings, built by the
    workloads' own generators (``benchmarks/e2e``) at seed 11."""
    sys.path.insert(0, str(Path(__file__).parent / "e2e"))
    from harness import ocean_binning, ocean_field
    from wl_insitu import InSituWorkload

    heat = InSituWorkload("insitu_select", 11, smoke, Path("."))
    sim = heat.simulation()
    for _ in range(3):
        step = sim.advance()
    fields = {
        f"heat3d {'x'.join(map(str, heat.shape))} step 3": (
            step.fields["temperature"].ravel(), heat.binning
        )
    }
    shape = (8, 48, 96) if smoke else (16, 192, 384)
    snapshot = OceanDataGenerator(shape, seed=11).advance()
    layout = ZOrderLayout.for_shape(shape)
    for variable in ("temperature", "salinity"):
        fields[f"ocean {'x'.join(map(str, shape))} {variable}"] = (
            layout.flatten(ocean_field(snapshot, variable)),
            ocean_binning(variable, 16),
        )
    return fields


def run_census(smoke: bool = False) -> list[dict]:
    """Stored payload bytes per field under each codec; write
    ``codec_census.txt``."""
    rows: list[list[object]] = []
    record: list[dict] = []
    for label, (data, binning) in _census_fields(smoke).items():
        for ordering in (None, "lex"):
            index = BitmapIndex.build(data, binning, ordering=ordering)
            per_bin = [
                {name: payload_bytes(v, name) for name in CODEC_NAMES}
                for v in index.bitvectors
            ]
            wah = sum(p["wah"] for p in per_bin)
            auto = sum(payload_bytes(v, "auto") for v in index.bitvectors)
            minimum = sum(min(p.values()) for p in per_bin)
            won = {
                name: sum(min(p, key=p.get) == name for p in per_bin)
                for name in CODEC_NAMES
            }
            assert auto <= wah and auto == minimum, (label, ordering)
            index.codec = "auto"
            auto_file = serialized_size(index)
            index.codec = "wah"
            wah_file = serialized_size(index)
            assert auto_file <= wah_file, (label, ordering)
            rows.append([
                label, ordering or "none", binning.n_bins, wah, auto,
                minimum, f"{wah / auto:.3f}",
                " / ".join(str(won[n]) for n in CODEC_NAMES),
                wah_file, auto_file,
            ])
            record.append({
                "field": label, "ordering": ordering or "none",
                "bins": binning.n_bins, "wah_bytes": wah, "auto_bytes": auto,
                "min_bytes": minimum, "bins_won": won,
                "wah_file_bytes": wah_file, "auto_file_bytes": auto_file,
            })
    table = format_table(
        "Storage-codec census: payload bytes per field at workload size "
        f"(seed 11{', SMOKE' if smoke else ''}); auto = smallest payload "
        "per bin, ties to WAH",
        ["field", "ordering", "bins", "all_wah", "auto", "per_bin_min",
         "wah/auto", "bins won " + " / ".join(CODEC_NAMES), "file_wah",
         "file_auto"],
        rows,
    ) + (
        "\nfile_* = whole record (header, tag table when any bin is not "
        "WAH, row-ordering sidecar, offset table); an auto file stores\n"
        "all-WAH, untagged, when its tag table would cost more than the "
        "per-bin picks save"
    )
    save_table("codec_census", table, smoke=smoke)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small vectors and fields, parity checks on every cell, fast "
             "timings; writes under results/smoke/",
    )
    args = parser.parse_args(argv)
    run_codec_matrix(smoke=args.smoke)
    run_census(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
