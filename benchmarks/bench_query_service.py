"""Query-service benchmark: lazy loads + LRU cache vs whole-index loads.

Serves a stored multi-step bitmap store through :class:`QueryService`
and measures, per query:

* **baseline** -- the pre-service path: ``load_index`` every referenced
  file in full, then ``execute_query`` (what ``repro query`` did before
  the service existed);
* **cold** -- first service execution: catalog + lazy per-bin loads;
* **warm** -- repeat execution served from the bitvector cache.

Also measures concurrent throughput (a mixed workload through the
service's thread pool vs the serial baseline) and writes
``benchmarks/results/query_service.txt``, quoted by DESIGN.md's
"Query service" section.

Runs as a pytest test (smoke-sized) or as a script::

    PYTHONPATH=src python benchmarks/bench_query_service.py [--smoke]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_table

from repro.analysis.sql import execute_query, parse_query
from repro.bitmap import BitmapIndex, EqualWidthBinning, ZOrderLayout, load_index
from repro.io.timeseries import BitmapStore
from repro.service import QueryService
from repro.sims import OceanDataGenerator

QUERIES = [
    "SELECT MI FROM temperature, salinity",
    "SELECT CE FROM temperature, salinity WHERE temperature >= 12",
    "SELECT COUNT FROM temperature, salinity WHERE salinity BETWEEN 30 AND 33",
]


def _build_store(root: Path, shape, steps: int, bins: int) -> ZOrderLayout:
    layout = ZOrderLayout.for_shape(shape)
    gen = OceanDataGenerator(shape, seed=7)
    snaps = [gen.advance() for _ in range(steps)]
    flat = {
        name: [layout.flatten(s.fields[name]) for s in snaps]
        for name in ("temperature", "salinity")
    }
    binnings = {
        name: EqualWidthBinning.from_data(np.concatenate(arrs), bins)
        for name, arrs in flat.items()
    }
    store = BitmapStore(root)
    for step in range(steps):
        for name in flat:
            store.write(
                step, name, BitmapIndex.build(flat[name][step], binnings[name])
            )
    return layout


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _baseline(root: Path, sql: str, step: int, layout: ZOrderLayout) -> float:
    """The whole-index path: read every byte of both files, then execute."""
    query = parse_query(sql)
    indices = {
        var: load_index(root / f"step_{step:05d}" / f"{var}.rbmp")
        for var in (query.var_a, query.var_b)
    }
    return execute_query(query, indices, layout=layout)


def run(smoke: bool = False) -> None:
    shape = (8, 16, 32) if smoke else (16, 32, 64)
    steps = 2 if smoke else 4
    bins = 16 if smoke else 48
    repeats = 3 if smoke else 10
    step = steps - 1

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        layout = _build_store(root, shape, steps, bins)
        rows: list[list[object]] = []
        # max_pending sized for the throughput burst below; the default
        # (32) would correctly reject the 48-query batch as overload.
        with QueryService(
            root, layout=layout, max_workers=4, max_pending=256
        ) as service:
            for sql in QUERIES:
                t_base = _best_seconds(
                    lambda: _baseline(root, sql, step, layout), repeats
                )
                service.cache.clear()
                cold = service.execute(sql, step=step)
                t_cold = cold.stats.total_s
                warm = service.execute(sql, step=step)
                t_warm = _best_seconds(
                    lambda: service.execute(sql, step=step), repeats
                )
                assert warm.stats.cache_misses == 0, "warm run must hit cache"
                assert warm.value == cold.value
                rows.append(
                    [
                        sql[7 : sql.index(" FROM")] + (
                            "+WHERE" if "WHERE" in sql else ""
                        ),
                        t_base * 1e3,
                        t_cold * 1e3,
                        t_warm * 1e3,
                        t_base / t_warm,
                        cold.stats.bytes_loaded,
                        warm.stats.bytes_loaded,
                    ]
                )

            # Concurrent throughput over a mixed warm workload.
            workload = QUERIES * (4 if smoke else 16)
            t0 = time.perf_counter()
            service.execute_many(workload, step=step)
            t_pool = time.perf_counter() - t0
            t0 = time.perf_counter()
            for sql in workload:
                service.execute(sql, step=step)
            t_serial = time.perf_counter() - t0
            t0 = time.perf_counter()
            for sql in workload:
                _baseline(root, sql, step, layout)
            t_base_all = time.perf_counter() - t0
            cache = service.cache.stats()

        store_bytes = sum(
            p.stat().st_size for p in root.rglob("*.rbmp")
        )
        title = (
            f"Query service: shape={shape} steps={steps} bins={bins} "
            f"store={store_bytes / 2**20:.2f}MiB "
            f"(baseline = load_index whole files + execute)"
        )
        text = format_table(
            title,
            [
                "query",
                "baseline_ms",
                "cold_ms",
                "warm_ms",
                "warm_speedup",
                "cold_bytes",
                "warm_bytes",
            ],
            rows,
        )
        thr = (
            f"\nconcurrent throughput ({len(workload)} warm queries): "
            f"pool {len(workload) / t_pool:.0f} q/s, "
            f"serial {len(workload) / t_serial:.0f} q/s, "
            f"whole-index baseline {len(workload) / t_base_all:.0f} q/s\n"
            f"cache: {cache.hits} hits / {cache.misses} misses "
            f"({cache.hit_rate:.0%} hit rate), "
            f"{cache.bytes_cached / 2**10:.0f}KiB resident"
        )
        save_table("query_service", text + thr, smoke=smoke)

        # Acceptance: selective queries (where I/O dominates) see a clear
        # warm win; full-metric queries are compute-bound, so the service
        # must merely never lose to reloading whole indices.
        speedups = [row[4] for row in rows]
        assert speedups[-1] > 2.0, f"no warm win on selective COUNT: {speedups}"
        if not smoke:  # sub-ms smoke timings are too noisy to gate on
            assert all(s > 0.8 for s in speedups), f"warm regression: {speedups}"
        assert cache.hits > 0 and cache.hit_rate > 0.5


def test_query_service_smoke():
    run(smoke=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small and fast")
    run(smoke=parser.parse_args().smoke)
