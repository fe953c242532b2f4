"""Load generator for the sharded network query server.

Drives :class:`repro.service.server.QueryServer` over TCP -- real frames,
real sockets, real shard processes -- and measures what a serving system
is actually judged on:

* **closed loop** -- N client connections issue queries back-to-back;
  reports throughput and the p50/p95/p99 latency of every shard count;
* **open loop** -- queries arrive on a fixed schedule regardless of
  completion (the arrival process an in-situ dashboard generates);
  lateness shows up as queue depth, not a flattering slowdown of the
  generator;
* **overload** -- a deliberately tiny admission bound is hammered far
  past capacity: every rejection must be the structured ``overload``
  error (zero failed queries, zero hangs), and once the burst passes the
  server must serve its baseline workload again.

Writes ``benchmarks/results/load_service.txt``.  Runs as a pytest smoke
test or a script::

    PYTHONPATH=src python benchmarks/bench_load_service.py [--smoke]
"""

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _tables import format_table, save_table

from repro.bitmap import BitmapIndex, EqualWidthBinning, save_index
from repro.service import (
    QueryServer,
    RemoteOverloadError,
    ServiceClient,
)

#: Mixed workload: global scatter-gather metrics, a selective COUNT, and
#: one rank-qualified (single-shard) query.
QUERIES = [
    "SELECT MI FROM temperature, salinity",
    "SELECT CE FROM temperature, salinity WHERE temperature >= 12",
    "SELECT COUNT FROM temperature, salinity "
    "WHERE salinity BETWEEN 30 AND 33",
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity",
]


def _build_rank_store(
    root: Path, ranks: int, steps: int, per_rank: int, bins: int,
    seed: int = 11,
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


def _percentiles(samples: list[float]) -> tuple[float, float, float]:
    arr = np.sort(np.asarray(samples))
    return tuple(
        float(arr[min(len(arr) - 1, int(q * len(arr)))]) * 1e3
        for q in (0.50, 0.95, 0.99)
    )


def _closed_loop(
    port: int, clients: int, per_client: int
) -> tuple[float, list[float], int]:
    """``clients`` connections, each issuing ``per_client`` queries
    back-to-back.  Returns (wall seconds, latencies, failures)."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures = [0] * clients

    def worker(cid: int) -> None:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(per_client):
                sql = QUERIES[(cid + i) % len(QUERIES)]
                t0 = time.perf_counter()
                try:
                    client.query(sql)
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
    port: int, rate_hz: float, n_queries: int, clients: int
) -> tuple[list[float], int, int]:
    """Fixed-schedule arrivals at ``rate_hz`` spread over ``clients``
    connections.  Latency is measured from the *scheduled* arrival, so
    queueing behind a slow server is charged to the server.
    Returns (latencies, overloads, failures)."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    overloads = [0] * clients
    failures = [0] * clients
    start = time.perf_counter() + 0.05
    interval = 1.0 / rate_hz

    def worker(cid: int) -> None:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(cid, n_queries, clients):
                deadline = start + i * interval
                delay = deadline - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sql = QUERIES[i % len(QUERIES)]
                try:
                    client.query(sql)
                except RemoteOverloadError:
                    overloads[cid] += 1
                    continue
                except Exception:
                    failures[cid] += 1
                    continue
                latencies[cid].append(time.perf_counter() - deadline)

    threads = [
        threading.Thread(target=worker, args=(cid,)) for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return (
        [s for per in latencies for s in per],
        sum(overloads),
        sum(failures),
    )


def _overload_burst(
    port: int, clients: int, per_client: int
) -> tuple[int, int, int]:
    """Hammer far past admission capacity.
    Returns (served, overloaded, hard_failures)."""
    served = [0] * clients
    overloaded = [0] * clients
    failed = [0] * clients

    def worker(cid: int) -> None:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(per_client):
                try:
                    client.query(QUERIES[i % len(QUERIES)])
                    served[cid] += 1
                except RemoteOverloadError:
                    overloaded[cid] += 1
                except Exception:
                    failed[cid] += 1

    threads = [
        threading.Thread(target=worker, args=(cid,)) for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sum(served), sum(overloaded), sum(failed)


def run(smoke: bool = False, seed: int = 11) -> None:
    ranks = 2 if smoke else 4
    steps = 2 if smoke else 3
    per_rank = 2_000 if smoke else 20_000
    bins = 16 if smoke else 32
    clients = 4 if smoke else 8
    per_client = 8 if smoke else 40
    shard_counts = [1, 2] if smoke else [1, 2, 4]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        _build_rank_store(root, ranks, steps, per_rank, bins, seed)

        rows = []
        open_rows = []
        for shards in shard_counts:
            with QueryServer(root, shards=shards, port=0).launch() as server:
                # Warm each shard once so the table reads steady-state.
                _closed_loop(server.port, clients=2, per_client=4)
                wall, lats, failures = _closed_loop(
                    server.port, clients, per_client
                )
                assert failures == 0, f"{failures} failed queries"
                assert len(lats) == clients * per_client
                p50, p95, p99 = _percentiles(lats)
                rows.append(
                    [shards, clients, len(lats), len(lats) / wall,
                     p50, p95, p99]
                )

                closed_rate = len(lats) / wall
                rate = max(20.0, 0.5 * closed_rate)
                n_open = clients * per_client
                olats, over, ofail = _open_loop(
                    server.port, rate, n_open, clients
                )
                assert ofail == 0, f"{ofail} failed open-loop queries"
                op50, op95, op99 = _percentiles(olats)
                open_rows.append(
                    [shards, f"{rate:.0f}/s", len(olats), over,
                     op50, op95, op99]
                )

        # Overload: tiny admission bound, many hammering clients.
        with QueryServer(
            root, shards=shard_counts[-1], port=0, max_pending=2
        ).launch() as server:
            served, overloaded, failed = _overload_burst(
                server.port, clients=8, per_client=6 if smoke else 20
            )
            assert failed == 0, f"{failed} hard failures under overload"
            assert served > 0, "overloaded server served nothing"
            stats = server.server_stats()
            assert stats["pending"] == 0, "pending queries after burst"
            # Recovery: the standard workload completes cleanly afterwards.
            _, post_lats, post_failures = _closed_loop(
                server.port, clients=2, per_client=len(QUERIES)
            )
            assert post_failures == 0, "server did not recover after burst"

        title = (
            f"Network load: ranks={ranks} steps={steps} "
            f"elements/rank={per_rank} bins={bins} "
            f"closed loop ({clients} clients x {per_client} queries)"
        )
        text = format_table(
            title,
            ["shards", "clients", "queries", "q/s", "p50_ms", "p95_ms",
             "p99_ms"],
            rows,
        )
        text += "\n\n" + format_table(
            f"Open loop (scheduled arrivals, latency from scheduled time)",
            ["shards", "rate", "done", "overload", "p50_ms", "p95_ms",
             "p99_ms"],
            open_rows,
        )
        text += (
            f"\n\noverload burst (max_pending=2, 8 clients): "
            f"{served} served, {overloaded} shed as structured overload "
            f"errors, {failed} hard failures; "
            f"recovered: {len(post_lats)} post-burst queries OK"
        )
        save_table("load_service", text, smoke=smoke)


def test_load_service_smoke():
    run(smoke=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small and fast")
    parser.add_argument(
        "--seed", type=int, default=11,
        help="RNG seed for the generated store (reproducible results)",
    )
    args = parser.parse_args()
    run(smoke=args.smoke, seed=args.seed)
