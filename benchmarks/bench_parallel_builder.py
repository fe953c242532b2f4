"""Figure 2's parallel bitmap generation, measured on worker processes.

The paper assigns sub-blocks of each time-step to separate cores, each
building compressed bitvectors independently, then stitches the results.
This benchmark measures a persistent :class:`SharedCoresEngine` (the form
the pipeline uses -- fork cost paid once, not per build) at several
worker counts and verifies word-identical output.  On a low-core host
the win is bounded; the *correctness* of the stitch and the per-worker
overhead are what the table pins down.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_parallel_builder.py
"""

import os
import time

import numpy as np
import pytest

from _tables import format_table, save_table
from repro.bitmap import PrecisionBinning, build_bitvectors
from repro.insitu.parallel import SharedCoresEngine
from repro.sims import Heat3D


def _best_ms(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@pytest.fixture(scope="module")
def field():
    sim = Heat3D((16, 32, 64), seed=9)
    for _ in range(20):
        step = sim.advance()
    data = step.fields["temperature"].ravel()
    return data, PrecisionBinning.from_data(data, digits=1)


def test_parallel_output_identical(benchmark, field):
    data, binning = field

    def check():
        serial = build_bitvectors(data, binning)
        for workers in (2, 4):
            with SharedCoresEngine(workers, binning) as engine:
                assert engine.build_bitvectors(data) == serial
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def test_kernel_serial_build(benchmark, field):
    data, binning = field
    benchmark(lambda: build_bitvectors(data, binning))


@pytest.mark.parametrize("workers", [2, 4])
def test_kernel_parallel_build(benchmark, field, workers):
    data, binning = field
    with SharedCoresEngine(workers, binning) as engine:
        benchmark(lambda: engine.build_bitvectors(data))


def test_partitioning_table(benchmark, field):
    """Record stitched word streams *and* wall-clock speedup per split."""
    data, binning = field

    def table():
        serial = build_bitvectors(data, binning)
        serial_words = sum(v.n_words for v in serial)
        t_serial = _best_ms(lambda: build_bitvectors(data, binning))
        rows: list[list[object]] = [
            ["serial", 1, serial_words, True, t_serial, 1.0]
        ]
        for workers in (2, 4):
            with SharedCoresEngine(workers, binning) as engine:
                parts = engine.build_bitvectors(data)
                t = _best_ms(lambda: engine.build_bitvectors(data))
            rows.append(
                [
                    "processes",
                    workers,
                    sum(v.n_words for v in parts),
                    parts == serial,
                    t,
                    t_serial / t,
                ]
            )
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    text = format_table(
        "Figure 2 parallel builder -- stitched output and wall clock vs serial "
        f"(host: {len(os.sched_getaffinity(0))} cores)",
        ["executor", "workers", "total_words", "identical", "best_ms", "speedup"],
        rows,
    )
    save_table("parallel_builder", text)
    assert all(r[3] for r in rows)
