"""Serving workloads: a rank-sharded ocean store behind ``QueryServer``.

One operation is one ``ServiceClient.query``/``.mask`` call as the
client observes it.  All three workloads are **closed loop**: callers of
``ServiceClient`` are analysis scripts that wait for each reply, so each
client sends its next request only when the previous one returned
(open-loop and overload behaviour stay in ``bench_load_service.py``).
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.analysis.sql import parse_query
from repro.bitmap import BitmapIndex, load_index, save_index
from repro.service import (
    QueryServer,
    QueryService,
    ServiceClient,
    merge_rank_partials,
    resolve_global,
)
from repro.service.protocol import (
    decode_body,
    decode_mask,
    encode_frame,
    encode_mask,
)
from repro.service.shard import shard_for_rank
from repro.sims import OceanDataGenerator

import probes
from harness import (
    PARALLELISM,
    Oracle,
    Samples,
    fresh_dir,
    ocean_binning,
    ocean_field,
    store_bytes,
    store_files,
)
from tracing import Tracer

MI = "SELECT MI FROM temperature, salinity"
CE = "SELECT CE FROM temperature, salinity WHERE temperature >= 12"
COUNT = "SELECT COUNT FROM temperature, salinity WHERE salinity BETWEEN 33 AND 35"
COUNT_RANK0 = (
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity "
    "WHERE rank_0000/temperature >= 20"
)

#: (wire op, sql, step); ``step=None`` is the latest step.  Client ``c``
#: starts at offset ``c`` so the clients never run in lock step.
CYCLES = {
    "serve_joint": [("query", MI, None), ("query", CE, None)],
    "serve_select": [
        ("query", COUNT, None), ("query", COUNT_RANK0, None),
        ("mask", COUNT, None),
    ],
    # steps 0,1,2 round-robin; COUNT:MI = 4:1
    "serve_cold": [
        ("query", MI if i % 5 == 4 else COUNT, i % 3) for i in range(15)
    ],
}
#: The default 64 MiB holds the whole 3.6 MB store; 64 KiB per shard makes
#: the working set ~28x the two caches together, so every query reloads.
CACHE_BYTES = {"serve_cold": 64 << 10}

BINNINGS = {v: ocean_binning(v, 32) for v in ("temperature", "salinity")}


def _mask_digest(mask) -> str:
    return hashlib.sha256(mask.words.tobytes()).hexdigest()


def _frame_codec(response: dict) -> tuple[float, float, int]:
    """(encode seconds, decode seconds, frame bytes) of one captured
    response through the wire codec, mask payload included."""
    t0 = time.perf_counter()
    frame = encode_frame(response)
    t1 = time.perf_counter()
    decoded = decode_body(frame[4:])
    t2 = time.perf_counter()
    encode_s, decode_s = t1 - t0, t2 - t1
    if "mask" in decoded:
        vector = decode_mask(decoded["mask"])
        t3 = time.perf_counter()
        encode_mask(vector)
        decode_s += t3 - t2
        encode_s += time.perf_counter() - t3
    return encode_s, decode_s, len(frame)


class ServeWorkload:
    trace_prefix = "ladder-"

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.root = work / "store"
        self.shape = (4, 32, 48) if smoke else (8, 128, 192)
        self.ranks = 2 if smoke else 4
        self.steps = 3
        self.cycle = CYCLES[name]
        self.cache_bytes = CACHE_BYTES.get(name, 64 << 20)
        self.n_clients = self.n_shards = PARALLELISM
        self.raw_bytes = 0
        self.server: QueryServer | None = None
        self.clients: list[ServiceClient] = []
        #: (cycle position, value, mask digest or None) of every reply
        self.replies: list[tuple[int, float, str | None]] = []
        #: traced loops only: sums of the replies' ``stats`` dicts, and the
        #: ``stats`` wire op's counters accumulated over those loops
        self.wire_stats: dict[str, float] = {}
        self.shard_delta: dict[str, float] = {}
        self.traced_wall = 0.0

    # ------------------------------------------------------------- set-up
    def _build_store(self) -> None:
        fresh_dir(self.root)
        self.raw_bytes = 0
        for rank in range(self.ranks):
            ocean = OceanDataGenerator(self.shape, seed=self.seed + rank)
            for step in range(self.steps):
                snapshot = ocean.advance()
                step_dir = self.root / f"rank_{rank:04d}" / f"step_{step:05d}"
                step_dir.mkdir(parents=True)
                for variable, binning in BINNINGS.items():
                    data = ocean_field(snapshot, variable)
                    self.raw_bytes += data.nbytes
                    save_index(
                        step_dir / f"{variable}.rbmp",
                        BitmapIndex.build(data, binning, codec="wah"),
                    )

    def _request(self, client: ServiceClient, position: int) -> dict:
        op, sql, step = self.cycle[position]
        if op == "mask":
            return client.mask(sql, step=step)
        return client.query(sql, step=step)

    def setup(self) -> None:
        """Store generation, server launch, connections, one warm-up pass
        of the whole cycle per client (fills the caches where they fit)."""
        self._build_store()
        self.server = QueryServer(
            self.root, shards=self.n_shards, cache_bytes=self.cache_bytes
        ).launch()
        self.clients = [
            ServiceClient("127.0.0.1", self.server.port)
            for _ in range(self.n_clients)
        ]
        for client in self.clients:
            for position in range(len(self.cycle)):
                self._request(client, position)

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            self.server = None

    # -------------------------------------------------------------- timed
    def run(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        n = len(self.cycle)
        per_client = [Samples() for _ in self.clients]
        replies: list[list] = [[] for _ in self.clients]
        phase_sums: list[dict[str, float]] = [{} for _ in self.clients]
        start = threading.Barrier(len(self.clients) + 1)
        deadline = 0.0  # set once every client thread waits at the barrier

        def loop(cid: int) -> None:
            client, out = self.clients[cid], per_client[cid]
            i = cid
            start.wait()
            while time.perf_counter() < deadline:
                position = i % n
                i += 1
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        reply = self._request(client, position)
                    else:
                        with tracer.span("bench.op", request=f"c{cid}-{i}"):
                            reply = self._request(client, position)
                except Exception:  # noqa: BLE001 - refused or failed: counted
                    out.failed += 1
                    continue
                out.latencies.append(time.perf_counter() - t0)
                mask = reply.get("mask")
                replies[cid].append((
                    position, reply["value"],
                    _mask_digest(mask) if mask is not None else None,
                ))
                if tracer is not None:
                    sums = phase_sums[cid]
                    for key, value in reply["stats"].items():
                        sums[key] = sums.get(key, 0.0) + value

        before = self.shard_stats() if tracer is not None else {}
        threads = [
            threading.Thread(target=loop, args=(cid,))
            for cid in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        start.wait()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0

        total = Samples(busy_s=wall)
        for out, got in zip(per_client, replies):
            out.ops = len(out.latencies)
            total.add(out)
            self.replies += got
        if tracer is not None:
            for key, value in self.shard_stats().items():
                self.shard_delta[key] = (
                    self.shard_delta.get(key, 0.0) + value - before[key]
                )
            self.traced_wall += wall
            for sums in phase_sums:
                for key, value in sums.items():
                    self.wire_stats[key] = self.wire_stats.get(key, 0.0) + value
        return total

    # ----------------------------------------------------------- accounting
    def disk_ratio(self) -> float:
        return store_bytes(self.root) / self.raw_bytes

    def _local_service(self) -> QueryService:
        return QueryService(
            self.root, cache_bytes=self.cache_bytes, max_workers=1
        )

    def check(self) -> Oracle:
        """Every reply equals the in-process ``QueryService`` on the same
        store: values exactly, masks word for word."""
        oracle = Oracle()
        expected = []
        with self._local_service() as service:
            for op, sql, step in self.cycle:
                if op == "mask":
                    result = service.execute_mask(sql, step=step)
                    expected.append((result.value, _mask_digest(result.mask)))
                else:
                    expected.append((service.execute(sql, step=step).value, None))
        wrong = sum(
            (value, digest) != expected[position]
            for position, value, digest in self.replies
        )
        oracle.attempted += len(self.replies)
        oracle.failed += wrong
        if wrong:
            oracle.notes.append(f"{wrong} replies differ from in-process")
        seen = {position for position, _, _ in self.replies}
        oracle.expect(
            seen == set(range(len(self.cycle))), "not every query was served"
        )
        return oracle

    # --------------------------------------------------------------- layers
    def shard_stats(self) -> dict[str, float]:
        """Counters of the ``stats`` wire op, summed over shards."""
        shards = self.clients[0].stats()["shards"]
        return {
            "hits": sum(s["cache"]["hits"] for s in shards),
            "misses": sum(s["cache"]["misses"] for s in shards),
            "evictions": sum(s["cache"]["evictions"] for s in shards),
            "bytes_read": sum(s["file_bytes_read"] for s in shards),
            "busy_s": sum(s["service"]["busy_s"] for s in shards),
        }

    def ladder(self, tracer: Tracer, passes: int) -> dict[str, float]:
        """The same requests one rung lower each time, back to back.

        (1) ``ServiceClient`` over TCP, (2) ``QueryServer.handle_request``
        in-process, (3) the shard scatter (``ShardPool.partial`` per rank
        on threads, as the front end fans out; ``.query`` for a
        single-file request), (4) the in-process ``QueryService``.
        """
        server, client = self.server, self.clients[0]
        encode_us, decode_us, frame_bytes = [], [], []
        with self._local_service() as local, ThreadPoolExecutor(
            max_workers=max(4, 2 * self.n_shards)
        ) as scatter:
            for sweep in range(passes):
                for position, (op, sql, step) in enumerate(self.cycle):
                    want_mask = op == "mask"
                    query = parse_query(sql)
                    glob = resolve_global(server.catalog, query, step)
                    with tracer.span(
                        "bench.op", request=f"ladder-{sweep}-{position}"
                    ):
                        with tracer.span("service.client.query") as rung1:
                            self._request(client, position)

                    t0 = time.perf_counter()
                    response = server.handle_request(
                        {"op": op, "sql": sql, "step": step}
                    )
                    rung2 = tracer.add(
                        "service.server.handle_request",
                        time.perf_counter() - t0, rung1, "replayed",
                    )

                    t0 = time.perf_counter()
                    if glob is None:
                        server.pool.query(
                            sql, query.var_a, step=step, want_mask=want_mask
                        )
                    else:
                        partials = list(scatter.map(
                            lambda rank: server.pool.partial(
                                sql, rank, step=glob.step, want_mask=want_mask
                            ),
                            glob.ranks,
                        ))
                    rung3 = tracer.add(
                        "service.shard.scatter",
                        time.perf_counter() - t0, rung2, "replayed",
                    )
                    if glob is not None:
                        t0 = time.perf_counter()
                        merge_rank_partials(query.metric, want_mask, partials)
                        tracer.add(
                            "service.executor.merge",
                            time.perf_counter() - t0, rung2, "replayed",
                        )

                    seconds, phases = self._local_rung(
                        local, sql, step, want_mask, glob
                    )
                    rung4 = tracer.add(
                        "service.executor.run", seconds, rung3, "replayed"
                    )
                    for phase in ("parse", "plan", "load", "execute"):
                        tracer.add(
                            f"service.executor.{phase}",
                            sum(getattr(s, f"{phase}_s") for s in phases),
                            rung4, "reported",
                        )

                    encode_s, decode_s, n_bytes = _frame_codec(response)
                    encode_us.append(encode_s * 1e6)
                    decode_us.append(decode_s * 1e6)
                    frame_bytes.append(n_bytes)
        return {
            "service.protocol.encode_us": statistics.fmean(encode_us),
            "service.protocol.decode_us": statistics.fmean(decode_us),
            "service.protocol.frame_bytes": statistics.fmean(frame_bytes),
        }

    def _local_rung(self, local: QueryService, sql, step, want_mask, glob):
        """Rung 4: (seconds, [QueryStats]) of the in-process executor.

        For a scattered request this is the critical path -- the slowest
        shard's sum of its ranks' ``rank_partial`` times, which is what
        the scatter would wait for if the pipe cost nothing.
        """
        if glob is None:
            t0 = time.perf_counter()
            run = local.execute_mask if want_mask else local.execute
            result = run(sql, step=step)
            return time.perf_counter() - t0, [result.stats]
        by_shard: dict[int, list] = {}
        for rank in glob.ranks:
            t0 = time.perf_counter()
            partial = local.rank_partial(
                sql, rank=rank, step=glob.step, want_mask=want_mask
            )
            by_shard.setdefault(shard_for_rank(rank, self.n_shards), []).append(
                (time.perf_counter() - t0, partial.stats)
            )
        slowest = max(
            by_shard.values(), key=lambda timed: sum(t for t, _ in timed)
        )
        return sum(t for t, _ in slowest), [stats for _, stats in slowest]

    def layers(self, tracer: Tracer, samples: Samples) -> dict[str, float]:
        """Per-layer metrics in ms per query (means, so they add up).

        Executor phases come from the ``stats`` dict of the traced loop's
        replies; for a scattered query that is the sum over its rank
        partials, CPU-style, and may exceed the wall time.  The ladder's
        self times are wall-clock and single-client; ``service.shard.wait_ms``
        is what the second closed-loop client adds on top.
        """
        passes = max(3, 60 // len(self.cycle))
        out = self.ladder(tracer, passes)
        requests = passes * len(self.cycle)
        self_s = tracer.self_seconds(self.trace_prefix)
        per_query = 1e3 / requests
        rung1 = tracer.durations("service.client.query", self.trace_prefix)
        out.update({
            "service.server.wire_ms": self_s["service.client.query"] * per_query,
            "service.server.dispatch_ms":
                self_s["service.server.handle_request"] * per_query,
            "service.executor.merge_ms":
                self_s.get("service.executor.merge", 0.0) * per_query,
            "service.shard.rpc_ms": self_s["service.shard.scatter"] * per_query,
            "service.executor.run_ms": sum(
                tracer.durations("service.executor.run", self.trace_prefix)
            ) * per_query,
            "service.shard.wait_ms": (
                statistics.fmean(samples.latencies) - statistics.fmean(rung1)
            ) * 1e3,
        })
        for phase in ("parse", "plan", "load", "execute"):
            out[f"service.executor.{phase}_ms"] = (
                self.wire_stats[f"{phase}_s"] / samples.ops * 1e3
            )
        delta = self.shard_delta
        lookups = delta["hits"] + delta["misses"]
        out.update({
            "service.cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "service.cache.evictions": delta["evictions"],
            "service.cache.bytes_loaded": delta["bytes_read"],
            "service.shard.busy_ratio":
                delta["busy_s"] / (self.traced_wall * self.n_shards),
        })
        return out

    def probe(self, tracer: Tracer) -> dict[str, float]:
        rank0 = self.root / "rank_0000" / f"step_{self.steps - 1:05d}"
        temperature = load_index(rank0 / "temperature.rbmp")
        salinity = load_index(rank0 / "salinity.rbmp")
        sqls = [sql for _, sql, _ in self.cycle] * 200
        t0 = time.perf_counter()
        for sql in sqls:
            parse_query(sql)
        parse_s = time.perf_counter() - t0
        return {
            "analysis.sql.parse_us": parse_s / len(sqls) * 1e6,
            **probes.kernel_probe(tracer, [
                (temperature, salinity, (12.0, 35.0)),
                (salinity, temperature, (33.0, 35.0)),
            ]),
            **probes.storage_probe(
                tracer, self.root, store_files(self.root)[:4]
            ),
        }
