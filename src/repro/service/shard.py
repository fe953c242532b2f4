"""Shard layer: the query service partitioned across worker processes.

The network front end (:mod:`repro.service.server`) does not execute
queries itself; it routes them to a pool of *shard workers*, each a
forked process running its own :class:`~repro.service.executor.QueryService`
(private bitvector cache, private file handles) over the shared store
root.  Partitioning is by **rank directory**: rank ``rank_NNNN`` belongs
to shard ``NNNN mod n_shards``, so a cluster store's slabs spread evenly
and a global query becomes a scatter -- each owning shard computes its
ranks' :class:`~repro.service.executor.RankPartial`\\ s -- followed by the
exact gather of :func:`~repro.service.executor.merge_rank_partials`.
Single-file queries (unsharded stores, or explicitly rank-qualified
names) hash to one worker.  Ownership is a routing policy, not a
visibility boundary: every worker can read the whole store, which is what
makes the policy free to change without data movement.

Two adaptive layers sit on the static map:

* **hot-set replication** (:mod:`repro.service.hotset`) -- each worker
  keeps decaying access counters and byte-budgeted replica slots; the
  pool exposes the pipe ops the :class:`~repro.service.hotset.ReplicaManager`
  uses to snapshot accounting, fetch WAH word buffers from owners, and
  install/drop replicas on holders.  Request methods accept a
  ``route`` (candidate shards from the
  :class:`~repro.service.hotset.RoutingTable`) and pick the least-loaded
  holder, falling back to the owner on any shard fault.
* **respawn on death** -- a worker that dies takes no state with it
  (workers are stateless over the shared store), so a dead pipe is
  detected at the next request, the worker is respawned on its rank
  set, the in-flight request is retried once on the fresh process, and
  nothing is replayed.  Its replica slots come back empty and are
  re-filled by the manager's next reconciliation cycle.

Transport is one :func:`multiprocessing.Pipe` per worker carrying pickled
request dicts and replies (``RankPartial`` / ``QueryResult`` objects ride
the pickle; replica pushes carry raw little-endian ``uint32`` word
buffers as bytes).  A per-handle lock serializes each pipe; cross-shard
parallelism comes from the front end fanning requests from different
threads.  Workers are spawned *before* the asyncio loop starts (fork
safety) and answer until told to stop.
"""

from __future__ import annotations

import re
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from repro.analysis.sql import QueryError
from repro.bitmap.codec import WAH
from repro.bitmap.zorder import ZOrderLayout
from repro.insitu.parallel import _pick_context
from repro.service.cache import CacheKey
from repro.service.executor import QueryResult, QueryService, RankPartial
from repro.service.hotset import AccessStats, ReplicaStore

_RANK_RE = re.compile(r"^rank_(\d+)$")


class ShardError(RuntimeError):
    """A shard worker failed outside the query's own fault domain."""


def shard_for_rank(rank: str, n_shards: int) -> int:
    """Owning shard of one rank directory: ``rank id mod n_shards``.

    Deterministic and density-free -- consecutive ranks round-robin
    across shards, so slab-ordered scatters land evenly.
    """
    m = _RANK_RE.match(rank)
    if m:
        return int(m.group(1)) % n_shards
    return zlib.crc32(rank.encode()) % n_shards


def shard_for_variable(variable: str, n_shards: int) -> int:
    """Owning shard of a single-file query: stable hash of ``var_a``.

    A ``rank_NNNN/<var>`` qualified name routes to the rank's owner so
    qualified and global access to the same slab warm the same worker's
    cache.
    """
    head = variable.split("/", 1)[0]
    if _RANK_RE.match(head):
        return shard_for_rank(head, n_shards)
    return zlib.crc32(variable.encode()) % n_shards


def _worker_main(
    conn,
    root: str,
    shard_id: int,
    cache_bytes: int,
    layout: ZOrderLayout | None,
    hotset_budget: int,
) -> None:
    """Shard worker loop: serve pickled requests until ``stop``.

    Every fault is converted to a reply -- the worker never dies on a bad
    query, so one malformed request cannot take a shard (and every rank it
    owns) out of rotation.
    """
    access = AccessStats()
    replicas = ReplicaStore(hotset_budget)
    service = QueryService(
        root,
        cache_bytes=cache_bytes,
        max_workers=1,
        # The front end owns admission; a worker pipe carries one request
        # at a time, so its own bound never binds.
        max_pending=1_000_000,
        layout=layout,
        access=access,
        replicas=replicas,
    )
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            op = request.get("op")
            try:
                if op == "stop":
                    conn.send({"ok": True})
                    break
                elif op == "partial":
                    partial = service.rank_partial(
                        request["sql"],
                        rank=request["rank"],
                        step=request.get("step"),
                        want_mask=bool(request.get("want_mask")),
                    )
                    conn.send({"ok": True, "partial": partial})
                elif op == "query":
                    if request.get("want_mask"):
                        result = service.execute_mask(
                            request["sql"], step=request.get("step")
                        )
                    else:
                        result = service.execute(
                            request["sql"], step=request.get("step")
                        )
                    conn.send({"ok": True, "result": result})
                elif op == "stats":
                    conn.send({
                        "ok": True,
                        "stats": {
                            "shard": shard_id,
                            "service": service.service_stats(),
                            "cache": service.cache.stats().as_dict(),
                            "file_reads": service.file_reads(),
                            "file_bytes_read": service.file_bytes_read(),
                            "hotset": {
                                "access": access.snapshot(),
                                "replicas": replicas.inventory(),
                            },
                        },
                    })
                elif op == "hotset":
                    # Accounting snapshot + replica inventory, decaying
                    # the counters once per policy cycle.
                    factor = request.get("decay")
                    if factor is not None:
                        access.decay(float(factor))
                    conn.send({
                        "ok": True,
                        "access": access.snapshot(),
                        "replicas": replicas.inventory(),
                    })
                elif op == "fetch":
                    vector = service.fetch_bitvector(
                        request["file"],
                        request["variable"],
                        int(request["bin"]),
                        int(request.get("level", 0)),
                    )
                    words = np.ascontiguousarray(vector.words, dtype="<u4")
                    conn.send({
                        "ok": True,
                        "words": words.tobytes(),
                        "n_bits": int(vector.n_bits),
                    })
                elif op == "install":
                    installed = 0
                    for item in request["replicas"]:
                        f, v, b, lv, words, n_bits = item
                        buf = np.frombuffer(words, dtype="<u4").astype(
                            np.uint32
                        )
                        key = CacheKey(f, v, int(b), int(lv))
                        if replicas.install(key, WAH.decode(buf, int(n_bits))):
                            installed += 1
                    conn.send({
                        "ok": True,
                        "installed": installed,
                        "bytes": replicas.bytes_held,
                    })
                elif op == "drop":
                    keys = [
                        CacheKey(f, v, int(b), int(lv))
                        for f, v, b, lv in request["keys"]
                    ]
                    conn.send({"ok": True, "dropped": replicas.drop(keys)})
                elif op == "clear_replicas":
                    conn.send({"ok": True, "dropped": replicas.clear()})
                elif op == "refresh":
                    service._refresh_catalog()
                    conn.send({"ok": True})
                else:
                    conn.send({
                        "ok": False,
                        "kind": "protocol",
                        "message": f"unknown shard op {op!r}",
                    })
            except QueryError as exc:
                conn.send({"ok": False, "kind": "query", "message": str(exc)})
            except Exception as exc:  # noqa: BLE001 - worker must survive
                conn.send({
                    "ok": False,
                    "kind": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                })
    finally:
        service.close()
        conn.close()


@dataclass
class _ShardHandle:
    """One worker: its process, pipe end, the pipe's serializer, and the
    load/respawn bookkeeping the routed dispatch reads."""

    shard_id: int
    process: Any
    conn: Any
    lock: threading.Lock
    pool: "ShardPool"
    #: requests currently queued on / executing over this pipe
    inflight: int = 0
    #: lifetime requests dispatched to this shard (stats op)
    dispatched: int = 0
    #: times the worker was respawned after dying
    respawns: int = 0

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request; detect a dead worker, respawn, retry once.

        Workers are stateless over the shared store, so a respawn replays
        nothing -- the fresh process answers the retried request from
        disk.  A second failure surfaces as :class:`ShardError`.
        """
        with self.lock:
            for attempt in (0, 1):
                if not self.process.is_alive():
                    self._respawn()
                try:
                    self.conn.send(payload)
                    return self.conn.recv()
                except (EOFError, OSError, BrokenPipeError) as exc:
                    if attempt:
                        raise ShardError(
                            f"shard {self.shard_id} died mid-request and "
                            f"its respawn failed too"
                        ) from exc
                    self._respawn()
        raise AssertionError("unreachable")

    def _respawn(self) -> None:
        """Replace a dead worker with a fresh process on the same pipe
        role (caller holds ``lock``)."""
        if self.pool._closed:
            raise ShardError(
                f"shard {self.shard_id} worker died (pool closed)"
            )
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.process, self.conn = self.pool._spawn(self.shard_id)
        self.respawns += 1


class ShardPool:
    """N forked shard workers over one store root.

    Spawn the pool before starting any event loop (workers fork from the
    calling process).  Request methods are thread-safe; concurrent
    requests to *different* shards run in parallel, requests to the same
    shard serialize on its pipe.
    """

    def __init__(
        self,
        root: Path | str,
        n_shards: int,
        *,
        cache_bytes: int = 64 << 20,
        layout: ZOrderLayout | None = None,
        start_method: str | None = None,
        hotset_budget: int = 8 << 20,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {n_shards}")
        self.root = str(root)
        self.n_shards = int(n_shards)
        self.cache_bytes = int(cache_bytes)
        self.hotset_budget = int(hotset_budget)
        self._layout = layout
        self._ctx = _pick_context(start_method)
        self._load_lock = threading.Lock()
        self._closed = False
        self._handles: list[_ShardHandle] = []
        for shard_id in range(self.n_shards):
            process, parent = self._spawn(shard_id)
            self._handles.append(
                _ShardHandle(shard_id, process, parent, threading.Lock(), self)
            )

    def _spawn(self, shard_id: int):
        """Start one worker process; returns (process, parent pipe end)."""
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.root, shard_id, self.cache_bytes,
                  self._layout, self.hotset_budget),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child.close()
        return process, parent

    # ------------------------------------------------------------ routing
    def handle_for_rank(self, rank: str) -> _ShardHandle:
        return self._handles[shard_for_rank(rank, self.n_shards)]

    def handle_for_variable(self, variable: str) -> _ShardHandle:
        return self._handles[shard_for_variable(variable, self.n_shards)]

    def _pick(
        self, owner: int, route: Sequence[int] | None
    ) -> tuple[_ShardHandle, _ShardHandle]:
        """Least-loaded candidate from ``route`` (owner always included);
        returns ``(picked, owner_handle)`` for the fault fallback."""
        owner_handle = self._handles[owner]
        if not route:
            return owner_handle, owner_handle
        candidates = {owner}
        candidates.update(
            s for s in route if isinstance(s, int) and 0 <= s < self.n_shards
        )
        with self._load_lock:
            picked = min(
                (self._handles[s] for s in candidates),
                key=lambda h: (h.inflight, h.shard_id),
            )
        return picked, owner_handle

    def _tracked_request(
        self, handle: _ShardHandle, payload: dict[str, Any]
    ) -> dict[str, Any]:
        with self._load_lock:
            handle.inflight += 1
            handle.dispatched += 1
        try:
            return handle.request(payload)
        finally:
            with self._load_lock:
                handle.inflight -= 1

    def _routed_request(
        self, owner: int, route: Sequence[int] | None, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Dispatch to the least-loaded route candidate; a holder-side
        shard fault falls back to the owner (stale routes degrade to the
        static map, never to an error the owner could have avoided)."""
        picked, owner_handle = self._pick(owner, route)
        try:
            return self._tracked_request(picked, payload)
        except ShardError:
            if picked is owner_handle:
                raise
            return self._tracked_request(owner_handle, payload)

    # ----------------------------------------------------------- requests
    @staticmethod
    def _unwrap(reply: dict[str, Any]) -> dict[str, Any]:
        if reply.get("ok"):
            return reply
        kind = reply.get("kind", "internal")
        message = reply.get("message", "shard failure")
        if kind == "query":
            raise QueryError(message)
        raise ShardError(f"[{kind}] {message}")

    def partial(
        self,
        sql: str,
        rank: str,
        *,
        step: int | None = None,
        want_mask: bool = False,
        route: Sequence[int] | None = None,
    ) -> RankPartial:
        """One rank's partial, computed on its owner or a replica holder."""
        reply = self._routed_request(
            shard_for_rank(rank, self.n_shards),
            route,
            {
                "op": "partial",
                "sql": sql,
                "rank": rank,
                "step": step,
                "want_mask": want_mask,
            },
        )
        return self._unwrap(reply)["partial"]

    def query(
        self,
        sql: str,
        variable: str,
        *,
        step: int | None = None,
        want_mask: bool = False,
        route: Sequence[int] | None = None,
    ) -> QueryResult:
        """A single-file query, routed by ``var_a``'s stable hash (or to
        the least-loaded replica holder when ``route`` names some)."""
        reply = self._routed_request(
            shard_for_variable(variable, self.n_shards),
            route,
            {
                "op": "query",
                "sql": sql,
                "step": step,
                "want_mask": want_mask,
            },
        )
        return self._unwrap(reply)["result"]

    def stats(self) -> list[dict[str, Any]]:
        """Per-shard service/cache/hot-set counters, in shard order."""
        out = []
        for handle in self._handles:
            stats = self._unwrap(
                self._tracked_request(handle, {"op": "stats"})
            )["stats"]
            stats["dispatched"] = handle.dispatched
            stats["respawns"] = handle.respawns
            out.append(stats)
        return out

    # ----------------------------------------------------------- hot set
    def hotset(self, *, decay: float | None = None) -> list[dict[str, Any]]:
        """Every worker's access snapshot + replica inventory (shard
        order), optionally decaying the counters -- one policy gather."""
        payload: dict[str, Any] = {"op": "hotset"}
        if decay is not None:
            payload["decay"] = float(decay)
        return [
            self._unwrap(self._tracked_request(handle, dict(payload)))
            for handle in self._handles
        ]

    def fetch_vector(
        self, shard_id: int, key: CacheKey
    ) -> tuple[bytes, int]:
        """One bitvector's WAH words (raw little-endian ``uint32`` bytes)
        and bit length from ``shard_id``'s service."""
        reply = self._unwrap(
            self._tracked_request(
                self._handles[shard_id],
                {
                    "op": "fetch",
                    "file": key.file,
                    "variable": key.variable,
                    "bin": key.bin,
                    "level": key.level,
                },
            )
        )
        return reply["words"], reply["n_bits"]

    def install_replicas(
        self,
        shard_id: int,
        items: Sequence[tuple[CacheKey, bytes, int]],
    ) -> int:
        """Push ``(key, raw WAH words, n_bits)`` replicas onto one worker;
        each is validated as it is decoded."""
        reply = self._unwrap(
            self._tracked_request(
                self._handles[shard_id],
                {
                    "op": "install",
                    "replicas": [
                        (k.file, k.variable, k.bin, k.level, words, n_bits)
                        for k, words, n_bits in items
                    ],
                },
            )
        )
        return reply["installed"]

    def drop_replicas(
        self, shard_id: int, keys: Iterable[CacheKey]
    ) -> int:
        reply = self._unwrap(
            self._tracked_request(
                self._handles[shard_id],
                {
                    "op": "drop",
                    "keys": [
                        (k.file, k.variable, k.bin, k.level) for k in keys
                    ],
                },
            )
        )
        return reply["dropped"]

    def clear_replicas(self) -> int:
        """Drop every replica on every worker (epoch invalidation)."""
        dropped = 0
        for handle in self._handles:
            reply = self._unwrap(
                self._tracked_request(handle, {"op": "clear_replicas"})
            )
            dropped += reply["dropped"]
        return dropped

    def refresh_workers(self) -> None:
        """Force every worker to rebuild its catalog view of the store."""
        for handle in self._handles:
            self._unwrap(self._tracked_request(handle, {"op": "refresh"}))

    def dispatch_counts(self) -> list[int]:
        """Lifetime per-shard dispatch counters, in shard order."""
        with self._load_lock:
            return [h.dispatched for h in self._handles]

    def respawn_counts(self) -> list[int]:
        """Per-shard worker respawns, in shard order."""
        return [h.respawns for h in self._handles]

    # ---------------------------------------------------------- lifecycle
    def close(self, *, timeout: float = 5.0) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                with handle.lock:
                    if handle.process.is_alive():
                        handle.conn.send({"op": "stop"})
                        handle.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
            finally:
                handle.conn.close()
        for handle in self._handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for h in self._handles if h.process.is_alive())
        return (
            f"ShardPool({self.root!r}, shards={self.n_shards}, alive={alive})"
        )
