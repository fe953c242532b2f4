"""Skewed-load benchmark: hot-set replication on vs off.

The workload the hot-set subsystem exists for: a zipf distribution over
rank directories makes one rank absorb most queries, so the static
``rank mod shards`` ownership map bottlenecks on one worker no matter
how many shards run.  This benchmark drives the *same* seeded query
sequence through a replicating server and a plain one and reports the
throughput ratio -- the replication-on run spreads the hot rank's
queries over the replica holders the :class:`ReplicaManager` placed.

* **closed loop** -- N clients issue the zipf sequence back-to-back;
  reports wall q/s, latency percentiles, and the per-shard dispatch
  spread (the visible mechanism: with replication off, the hot rank's
  owner takes ~everything);
* **capacity throughput** -- queries / busiest-shard CPU-seconds, from
  the workers' own ``busy_s`` counters (thread CPU time spent serving).
  This is the shard-parallel throughput: the rate the pool sustains
  when each worker process has a core of its own, the deployment the
  shard layer exists for.
  On a single-core CI box the worker processes timeshare one core, so
  *wall* q/s cannot exceed the serial rate no matter how well load is
  placed -- the capacity ratio is the placement signal that transfers,
  and it is what the >= 1.5x acceptance gate checks;
* **open loop** -- the same sequence on a fixed arrival schedule;
  lateness from the *scheduled* time shows the queueing the bottleneck
  shard causes once arrivals outpace it.

Every RNG is seeded (``--seed``): both servers see byte-identical query
sequences, so the ratio measures placement, not luck.  Writes
``benchmarks/results/load_skewed.txt``.  Runs as a pytest smoke test or
a script::

    PYTHONPATH=src python benchmarks/bench_load_skewed.py [--smoke]
"""

import argparse
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_table

from repro.bitmap import BitmapIndex, EqualWidthBinning, save_index
from repro.service import QueryServer, ServiceClient

#: zipf exponent over ranks: p(rank r) ~ 1/(r+1)**ALPHA.  At 4 ranks,
#: rank_0000 absorbs ~79% of the load.
ALPHA = 2.5

#: Per-rank query templates, heavy (full-histogram metric) queries
#: dominating so the bottleneck is worker compute, as in real serving.
TEMPLATES = [
    "SELECT MI FROM {r}/temperature, {r}/salinity",
    "SELECT CE FROM {r}/temperature, {r}/salinity",
    "SELECT MI FROM {r}/temperature, {r}/salinity "
    "WHERE {r}/temperature >= 8",
    "SELECT COUNT FROM {r}/temperature, {r}/salinity "
    "WHERE {r}/salinity BETWEEN 30 AND 34",
]


def _build_rank_store(
    root: Path, ranks: int, steps: int, per_rank: int, bins: int, seed: int
) -> None:
    rng = np.random.default_rng(seed)
    binnings = {
        "temperature": EqualWidthBinning(5.0, 20.0, bins),
        "salinity": EqualWidthBinning(28.0, 38.0, bins),
    }
    for rank in range(ranks):
        for step in range(steps):
            d = root / f"rank_{rank:04d}" / f"step_{step:05d}"
            d.mkdir(parents=True, exist_ok=True)
            for var, binning in binnings.items():
                lo, hi = binning.edges[0], binning.edges[-1]
                data = rng.uniform(lo, hi, per_rank)
                save_index(
                    d / f"{var}.rbmp", BitmapIndex.build(data, binning)
                )


def zipf_sequence(
    ranks: int, n_queries: int, seed: int
) -> tuple[list[str], np.ndarray]:
    """The seeded skewed workload: a list of SQL strings whose rank
    choices follow the zipf law.  Returns (queries, rank probabilities).
    """
    weights = 1.0 / (np.arange(1, ranks + 1) ** ALPHA)
    probs = weights / weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(ranks, size=n_queries, p=probs)
    templates = rng.integers(0, len(TEMPLATES), size=n_queries)
    queries = [
        TEMPLATES[t].format(r=f"rank_{r:04d}")
        for r, t in zip(picks, templates)
    ]
    return queries, probs


def _percentiles(samples: list[float]) -> tuple[float, float]:
    arr = np.sort(np.asarray(samples))
    return tuple(
        float(arr[min(len(arr) - 1, int(q * len(arr)))]) * 1e3
        for q in (0.50, 0.95)
    )


def _closed_loop(
    port: int, queries: list[str], clients: int
) -> tuple[float, list[float], int]:
    """Split the sequence round-robin over ``clients`` connections, each
    issuing its share back-to-back.  Returns (wall, latencies, failures).
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures = [0] * clients

    def worker(cid: int) -> None:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(cid, len(queries), clients):
                t0 = time.perf_counter()
                try:
                    client.query(queries[i], step=0)
                except Exception:
                    failures[cid] += 1
                    continue
                latencies[cid].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=worker, args=(cid,)) for cid in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, [s for per in latencies for s in per], sum(failures)


def _open_loop(
    port: int, queries: list[str], rate_hz: float, clients: int
) -> tuple[list[float], int]:
    """Fixed-schedule arrivals; lateness measured from scheduled time."""
    lateness: list[list[float]] = [[] for _ in range(clients)]
    failures = [0] * clients
    start = time.perf_counter() + 0.05
    interval = 1.0 / rate_hz

    def worker(cid: int) -> None:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(cid, len(queries), clients):
                deadline = start + i * interval
                delay = deadline - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    client.query(queries[i], step=0)
                except Exception:
                    failures[cid] += 1
                    continue
                lateness[cid].append(time.perf_counter() - deadline)

    threads = [
        threading.Thread(target=worker, args=(cid,)) for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for per in lateness for s in per], sum(failures)


def _run_server(
    root: Path,
    shards: int,
    replicate: bool,
    queries: list[str],
    warmup: list[str],
    clients: int,
    rate_hz: float | None,
):
    """One measured pass: warm, place (if replicating), measure.

    ``rate_hz=None`` derives the open-loop rate from this pass's own
    closed-loop throughput; the caller reuses the first pass's rate for
    the second so both runs face the same arrival schedule.
    """
    with QueryServer(
        root,
        shards=shards,
        port=0,
        replicate=replicate,
        rebalance_interval=3600.0,  # placement is the explicit call below
        hotset_top_k=256,
    ).launch() as server:
        _, _, wfail = _closed_loop(server.port, warmup, clients)
        assert wfail == 0, f"{wfail} warmup failures"
        if replicate:
            report = server.rebalance()
            assert report is not None and report.published
        busy0 = [s["service"]["busy_s"] for s in server.pool.stats()]
        wall, lats, failures = _closed_loop(server.port, queries, clients)
        assert failures == 0, f"{failures} failed queries"
        busy = [
            s["service"]["busy_s"] - b0
            for s, b0 in zip(server.pool.stats(), busy0)
        ]
        dispatch = server.pool.dispatch_counts()
        if rate_hz is None:
            rate_hz = max(10.0, 0.75 * len(lats) / wall)
        olate, ofail = _open_loop(server.port, queries, rate_hz, clients)
        assert ofail == 0, f"{ofail} failed open-loop queries"
        routes = len(server.routing.routes())
        return wall, lats, busy, dispatch, olate, routes, rate_hz


def run(smoke: bool = False, seed: int = 11) -> None:
    ranks = 2 if smoke else 4
    steps = 1 if smoke else 2
    per_rank = 2_000 if smoke else 20_000
    bins = 8 if smoke else 32
    clients = 4 if smoke else 8
    n_queries = 32 if smoke else 320
    shards = 2 if smoke else 4

    queries, probs = zipf_sequence(ranks, n_queries, seed)
    warmup, _ = zipf_sequence(ranks, max(16, n_queries // 4), seed + 1)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        _build_rank_store(root, ranks, steps, per_rank, bins, seed)

        rows, open_rows, spread_rows = [], [], []
        wall_qps, cap_qps = {}, {}
        rate_hz = None  # first (plain) pass sets the shared schedule
        for replicate in (False, True):
            wall, lats, busy, dispatch, olate, routes, rate_hz = _run_server(
                root, shards, replicate, queries, warmup, clients, rate_hz
            )
            wall_qps[replicate] = len(lats) / wall
            cap_qps[replicate] = len(lats) / max(busy)
            p50, p95 = _percentiles(lats)
            label = "on" if replicate else "off"
            rows.append(
                [label, shards, len(lats), wall_qps[replicate],
                 cap_qps[replicate], p50, p95, routes]
            )
            op50, op95 = _percentiles(olate)
            open_rows.append(
                [label, f"{rate_hz:.0f}/s", len(olate), op50, op95]
            )
            spread_rows.append(
                [label] + dispatch + [f"{b:.2f}" for b in busy]
            )

        wall_ratio = wall_qps[True] / wall_qps[False]
        cap_ratio = cap_qps[True] / cap_qps[False]
        title = (
            f"Skewed load (zipf alpha={ALPHA}, p(hot rank)="
            f"{probs[0]:.2f}): ranks={ranks} steps={steps} "
            f"elements/rank={per_rank} bins={bins} shards={shards} "
            f"({clients} clients, {n_queries} queries, seed={seed}, "
            f"{os.cpu_count()} cpu)"
        )
        text = format_table(
            title,
            ["replication", "shards", "queries", "wall_q/s", "cap_q/s",
             "p50_ms", "p95_ms", "routes"],
            rows,
        )
        text += "\n\n" + format_table(
            "Open loop (same schedule both runs; lateness from scheduled "
            "arrival)",
            ["replication", "rate", "done", "late_p50_ms", "late_p95_ms"],
            open_rows,
        )
        text += "\n\n" + format_table(
            "Per-shard dispatch counts and serving CPU seconds "
            "(closed loop)",
            ["replication"]
            + [f"shard{t}" for t in range(shards)]
            + [f"cpu{t}_s" for t in range(shards)],
            spread_rows,
        )
        text += (
            f"\n\nthroughput ratio, replication on / off:"
            f"\n  capacity (queries / busiest-shard CPU seconds, = wall"
            f" q/s with one core per worker): {cap_ratio:.2f}x"
            f"\n  wall clock on this {os.cpu_count()}-cpu host:"
            f" {wall_ratio:.2f}x"
        )
        save_table("load_skewed", text, smoke=smoke)
        if not smoke:
            assert cap_ratio >= 1.5, (
                f"replication-on capacity throughput only {cap_ratio:.2f}x "
                f"of off (need >= 1.5x)"
            )
            cores = os.cpu_count() or 1
            if cores >= shards:
                assert wall_ratio >= 1.5, (
                    f"{cores} cores available but wall throughput only "
                    f"{wall_ratio:.2f}x (need >= 1.5x)"
                )


def test_load_skewed_smoke():
    run(smoke=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small and fast")
    parser.add_argument(
        "--seed", type=int, default=11,
        help="RNG seed for the store and the zipf sequence",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, seed=args.seed)
