"""End-to-end parallel pipeline benchmark: §2.3 strategies, measured.

Runs the same Heat3D reduce-select-write workload through
:meth:`InSituPipeline.run` (serial baseline) and through
:meth:`InSituPipeline.run_parallel` under both core-allocation
strategies (shared-memory process engines), then

* verifies **bit-identical output**: every configuration writes the same
  bitmap files, byte for byte (the written store is hashed);
* reports wall-clock time and speedup vs the serial baseline.

Speedup is bounded by the host's cores; on a low-core host the table
still pins down correctness, clean shutdown, and the overhead each
engine adds.
The ``--smoke`` form is the CI gate: 2 workers, bit-identity and clean
shutdown only, no timing thresholds.

Runs as a pytest test (smoke-sized) or as a script::

    PYTHONPATH=src python benchmarks/bench_parallel_pipeline.py [--smoke]
"""

import argparse
import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_table

from repro.bitmap import PrecisionBinning
from repro.insitu.allocation import SeparateCores, SharedCores
from repro.insitu.pipeline import InSituPipeline
from repro.insitu.writer import OutputWriter
from repro.selection import CONDITIONAL_ENTROPY
from repro.sims import Heat3D

SEED = 42


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _store_digest(root: Path) -> str:
    """One hash over every written file (relative path + bytes)."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_config(out: Path, shape, n_steps: int, runner) -> tuple[float, object, str]:
    """Fresh simulation + writer; returns (wall_s, result, store_digest)."""
    sim = Heat3D(shape, seed=SEED)
    binning = PrecisionBinning(19.0, 101.0, digits=1)
    writer = OutputWriter(out)
    pipe = InSituPipeline(
        sim, binning, CONDITIONAL_ENTROPY, mode="bitmap", writer=writer
    )
    t0 = time.perf_counter()
    result = runner(pipe)
    wall = time.perf_counter() - t0
    return wall, result, _store_digest(out)


def run(smoke: bool = False) -> None:
    shape = (8, 16, 32) if smoke else (16, 32, 64)
    n_steps = 6 if smoke else 16
    select_k = max(2, n_steps // 3)
    cores = _cores()

    def serial(p):
        return p.run(n_steps, select_k)

    def shared(workers):
        return lambda p: p.run_parallel(
            n_steps, select_k, allocation=SharedCores(workers)
        )

    def separate(sim_cores, bitmap_cores):
        return lambda p: p.run_parallel(
            n_steps, select_k,
            allocation=SeparateCores(sim_cores, bitmap_cores),
            queue_capacity_bytes=8 << 20,
        )

    def auto(workers):
        return lambda p: p.run_parallel(
            n_steps, select_k, allocation="auto", n_workers=workers
        )

    configs: list[tuple[str, object]] = [
        ("serial", serial),
        ("shared c2", shared(2)),
        ("separate c1_c1", separate(1, 1)),
        ("auto n=2", auto(2)),
    ]
    if not smoke:
        configs += [
            ("shared c4", shared(4)),
            ("separate c1_c3", separate(1, 3)),
        ]

    rows: list[list[object]] = []
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, runner) in enumerate(configs):
            wall, result, digest = _run_config(
                Path(tmp) / f"cfg{i}", shape, n_steps, runner
            )
            digests[name] = digest
            serial_wall = rows[0][1] if rows else wall
            rows.append(
                [
                    name,
                    wall,
                    result.timings.phases.get("simulate", 0.0),
                    result.timings.phases.get("reduce_bitmap", 0.0),
                    serial_wall / wall,
                    digest == digests["serial"],
                ]
            )

    title = (
        f"Parallel pipeline -- Heat3D {shape}, {n_steps} steps, "
        f"select {select_k} (host: {cores} core{'s' if cores != 1 else ''}; "
        f"speedup vs serial run())"
    )
    text = format_table(
        title,
        ["config", "wall_s", "simulate_s", "reduce_s", "speedup", "identical"],
        rows,
    )
    if cores < 4:
        text += (
            "\nnote: measured on a low-core host -- speedups are bounded by "
            "available CPUs;\nthe identical column (bit-exact written "
            "stores) is the portable result."
        )
    save_table("parallel_pipeline", text, smoke=smoke)

    # Acceptance: every configuration writes a byte-identical store.
    wrong = [name for name, d in digests.items() if d != digests["serial"]]
    assert not wrong, f"non-identical stores: {wrong}"
    if not smoke and cores >= 8:
        # Only gate on speedup where the host can physically provide it.
        best = max(row[4] for row in rows[1:])
        assert best >= 2.0, f"expected >=2x on a {cores}-core host, got {best:.2f}x"


def test_parallel_pipeline_smoke():
    run(smoke=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small and fast")
    run(smoke=parser.parse_args().smoke)
