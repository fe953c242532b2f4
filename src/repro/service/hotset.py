"""Hot-set replication: access accounting, replica placement, routing.

The sharded server's ownership map (:func:`repro.service.shard.shard_for_rank`)
is static -- ``rank NNNN mod n_shards`` -- so a workload skewed onto one
rank bottlenecks on one worker process no matter how many shards exist.
This module makes the read path *adaptive* in three layers, each usable
and testable on its own:

* :class:`AccessStats` -- a lock-cheap decaying counter of bitvector
  accesses, keyed by the cache identity ``(file, variable, bin, level)``
  and aggregated per rank directory.  Threaded through
  :class:`~repro.service.cache.BitvectorCache` (every lookup is one dict
  increment) and snapshotable over the shard pipe / the TCP ``stats``
  op, so placement decisions are made from *observed* frequencies, the
  way the in-situ partitioning line of work makes its decisions online
  rather than post-hoc.

* :class:`ReplicaStore` + :class:`ReplicaManager` -- the policy loop.
  Periodically the manager gathers every worker's decayed access
  snapshot, ranks keys by frequency, and pushes the top-K hot
  bitvectors' WAH word buffers over the existing pipe RPC into
  byte-budgeted replica slots on the non-owner workers.  Keys that cool
  below the promotion floor are demoted (dropped from replica slots);
  a catalog refresh or stale-store rebuild clears every replica, since
  the bytes may no longer match the store.  Per-bin bitvectors are the
  replication unit for the paper's reason: they are small, individually
  addressable, and cheap to move compressed.

* :class:`RoutingTable` -- a versioned map ``rank -> replica-holding
  shards`` the front end consults on every dispatch.  Updates are
  epoch-stamped: an invalidation (catalog refresh) bumps the epoch, so
  any route computed against the old placement is *stale* and lookups
  fall back to the owner shard instead of erroring.

Safety argument (why results stay byte-identical with replication on or
off): shard ownership has always been a routing policy, not a visibility
boundary -- every worker can read the whole store and runs the same
:class:`~repro.service.executor.QueryService` code.  A replica is a
pre-warmed cache entry whose bytes came from the owner's disk read, and
a routed query that lands on a holder missing some bins simply reads
them from the shared store.  Any shard therefore computes the exact
result; routing changes only *where* the work runs.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.bitmap.wah import WAHBitVector
from repro.service.cache import CacheKey

if TYPE_CHECKING:  # circular at runtime: shard imports executor imports cache
    from repro.service.shard import ShardPool

_RANK_RE = re.compile(r"^rank_(\d+)$")


def rank_of_variable(variable: str) -> str | None:
    """The rank directory a qualified variable name lives in, if any."""
    head = variable.split("/", 1)[0]
    return head if _RANK_RE.match(head) else None


# ------------------------------------------------------------- accounting
class AccessStats:
    """Decaying access-frequency counters for bitvector loads.

    ``record`` is the hot-path operation -- one lock acquisition and two
    dict increments -- called by the cache on every bitvector lookup.
    ``decay`` multiplies every counter by a factor in ``(0, 1]`` and
    prunes entries that fell below ``prune_below``; the policy loop calls
    it once per cycle, so a counter reads as an exponentially weighted
    access frequency, not an all-time total.
    """

    def __init__(self, *, prune_below: float = 0.05) -> None:
        self.prune_below = float(prune_below)
        self._lock = threading.Lock()
        self._keys: dict[CacheKey, float] = {}
        self._ranks: dict[str, float] = {}

    def record(self, key: CacheKey, weight: float = 1.0) -> None:
        """Count one access to ``key`` (and to its rank, if qualified)."""
        rank = rank_of_variable(key.variable)
        with self._lock:
            self._keys[key] = self._keys.get(key, 0.0) + weight
            if rank is not None:
                self._ranks[rank] = self._ranks.get(rank, 0.0) + weight

    def decay(self, factor: float = 0.5) -> None:
        """Age every counter; drop the ones that decayed to noise."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must be in (0, 1], got {factor}")
        with self._lock:
            for table in (self._keys, self._ranks):
                doomed = []
                for k in table:
                    table[k] *= factor
                    if table[k] < self.prune_below:
                        doomed.append(k)
                for k in doomed:
                    del table[k]

    def top_keys(self, k: int) -> list[tuple[CacheKey, float]]:
        """The ``k`` most-accessed keys, hottest first."""
        with self._lock:
            items = sorted(self._keys.items(), key=lambda kv: -kv[1])
        return items[: max(0, int(k))]

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe copy: ``{"keys": [[file, var, bin, level, count]...],
        "ranks": {rank: count}}`` -- the wire form of the counters."""
        with self._lock:
            return {
                "keys": [
                    [key.file, key.variable, key.bin, key.level, count]
                    for key, count in self._keys.items()
                ],
                "ranks": dict(self._ranks),
            }

    def clear(self) -> None:
        with self._lock:
            self._keys.clear()
            self._ranks.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AccessStats(keys={len(self._keys)}, "
                f"ranks={len(self._ranks)})"
            )


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Any]],
) -> tuple[dict[CacheKey, float], dict[str, float]]:
    """Sum per-worker :meth:`AccessStats.snapshot` payloads into global
    key and rank frequency tables (the manager's view of the cluster)."""
    keys: dict[CacheKey, float] = {}
    ranks: dict[str, float] = {}
    for snap in snapshots:
        for file, variable, bin_id, level, count in snap.get("keys", []):
            key = CacheKey(file, variable, int(bin_id), int(level))
            keys[key] = keys.get(key, 0.0) + float(count)
        for rank, count in snap.get("ranks", {}).items():
            ranks[rank] = ranks.get(rank, 0.0) + float(count)
    return keys, ranks


# --------------------------------------------------------------- replicas
class ReplicaStore:
    """A worker's byte-budgeted replica slots, keyed like the cache.

    Unlike :class:`~repro.service.cache.BitvectorCache`, nothing is
    evicted by recency: entries come and go only by explicit manager
    decision (install / drop / clear), so a replica survives any query
    pattern until the policy demotes it.  ``install`` refuses entries
    past the byte budget -- the manager's placement must fit or shrink.
    """

    def __init__(self, budget_bytes: int = 8 << 20) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._entries: dict[CacheKey, WAHBitVector] = {}
        self._bytes = 0
        self.hits = 0

    def get(self, key: CacheKey) -> WAHBitVector | None:
        with self._lock:
            vector = self._entries.get(key)
            if vector is not None:
                self.hits += 1
            return vector

    def install(self, key: CacheKey, vector: WAHBitVector) -> bool:
        """Hold ``vector`` under ``key``; ``False`` if it would not fit."""
        cost = vector.nbytes
        with self._lock:
            old = self._entries.get(key)
            held = self._bytes - (old.nbytes if old is not None else 0)
            if held + cost > self.budget_bytes:
                return False
            self._entries[key] = vector
            self._bytes = held + cost
            return True

    def drop(self, keys: Iterable[CacheKey]) -> int:
        with self._lock:
            dropped = 0
            for key in keys:
                vector = self._entries.pop(key, None)
                if vector is not None:
                    self._bytes -= vector.nbytes
                    dropped += 1
            return dropped

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return dropped

    def inventory(self) -> dict[str, Any]:
        """JSON-safe holdings summary the manager reconciles against."""
        with self._lock:
            return {
                "keys": [
                    [k.file, k.variable, k.bin, k.level]
                    for k in self._entries
                ],
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
            }

    @property
    def bytes_held(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ReplicaStore({len(self._entries)} entries, "
                f"{self._bytes}/{self.budget_bytes}B, hits={self.hits})"
            )


# ---------------------------------------------------------------- routing
class RoutingTable:
    """Versioned ``rank -> candidate shards`` map with stale-safe reads.

    Every publish is stamped with the epoch the placement was computed
    against; :meth:`invalidate` bumps the epoch, which makes *every*
    existing entry stale in one O(1) step and discards any in-flight
    publish computed before the bump.  A stale (or absent) lookup
    returns ``None`` and the dispatcher falls back to the owner shard --
    the worst case is the old static routing, never a wrong answer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._routes: dict[str, tuple[int, ...]] = {}

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def publish(
        self, routes: Mapping[str, Sequence[int]], epoch: int
    ) -> bool:
        """Atomically replace the route map, unless ``epoch`` is stale."""
        with self._lock:
            if epoch != self._epoch:
                return False
            self._routes = {
                rank: tuple(dict.fromkeys(shards))
                for rank, shards in routes.items()
                if len(shards) > 0
            }
            return True

    def lookup(self, rank: str) -> tuple[int, ...] | None:
        """Candidate shards for ``rank``, or ``None`` (use the owner)."""
        with self._lock:
            return self._routes.get(rank)

    def invalidate(self) -> int:
        """Drop every route and bump the epoch; returns the new epoch."""
        with self._lock:
            self._epoch += 1
            self._routes.clear()
            return self._epoch

    def routes(self) -> dict[str, list[int]]:
        """JSON-safe copy for the ``stats`` op."""
        with self._lock:
            return {rank: list(s) for rank, s in self._routes.items()}

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"RoutingTable(epoch={self._epoch}, "
                f"routes={len(self._routes)})"
            )


# ----------------------------------------------------------------- policy
@dataclass
class ReplicationReport:
    """What one :meth:`ReplicaManager.rebalance` cycle did."""

    epoch: int
    hot_keys: int = 0
    installed: int = 0
    dropped: int = 0
    fetch_failures: int = 0
    published: bool = False
    #: rank -> candidate shards after this cycle (owner first)
    routes: dict[str, list[int]] = field(default_factory=dict)
    #: shard id -> replica bytes desired there after this cycle
    placement_bytes: dict[int, int] = field(default_factory=dict)


class ReplicaManager:
    """The placement policy loop tying accounting to routing.

    One :meth:`rebalance` cycle, run periodically on a daemon thread (or
    called directly by tests and benchmarks):

    1. **gather** -- pull every worker's decayed access snapshot and
       replica inventory over the pipe RPC;
    2. **rank** -- merge the snapshots, keep the globally top-``top_k``
       keys at or above ``min_count`` (rank-qualified keys only: an
       unsharded store has one worker and nothing to spread);
    3. **place** -- for each hot key, hottest first, desire a copy on
       every non-owner shard whose byte budget still fits it; fetch the
       WAH words once from the owner, push to holders that miss it,
       drop holdings that are no longer desired (demote-on-cooldown);
    4. **publish** -- routes ``rank -> [owner] + holders``, stamped with
       the epoch observed at gather time, so a refresh racing this cycle
       discards the whole update and dispatch stays on the owners.

    Reconciliation is state-less: desired placement is recomputed from
    live snapshots each cycle, so a respawned (empty) worker is simply
    re-pushed its share on the next pass.
    """

    def __init__(
        self,
        pool: "ShardPool",
        routing: RoutingTable,
        *,
        budget_bytes: int = 8 << 20,
        top_k: int = 16,
        decay: float = 0.5,
        min_count: float = 1.0,
        interval_s: float = 2.0,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"need top_k >= 1, got {top_k}")
        self.pool = pool
        self.routing = routing
        self.budget_bytes = int(budget_bytes)
        self.top_k = int(top_k)
        self.decay = float(decay)
        self.min_count = float(min_count)
        self.interval_s = float(interval_s)
        self.cycles = 0
        self.cycle_errors = 0
        self.last_report: ReplicationReport | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- policy
    def rebalance(self) -> ReplicationReport:
        """Run one gather -> rank -> place -> publish cycle."""
        from repro.service.shard import shard_for_rank

        epoch = self.routing.epoch
        report = ReplicationReport(epoch=epoch)
        workers = self.pool.hotset(decay=self.decay)
        keys, _ranks = merge_snapshots(w["access"] for w in workers)
        held: dict[int, set[CacheKey]] = {
            shard: {
                CacheKey(f, v, int(b), int(lv))
                for f, v, b, lv in w["replicas"]["keys"]
            }
            for shard, w in enumerate(workers)
        }

        hot = [
            (key, count)
            for key, count in sorted(keys.items(), key=lambda kv: -kv[1])
            if count >= self.min_count and rank_of_variable(key.variable)
        ][: self.top_k]
        report.hot_keys = len(hot)

        n = self.pool.n_shards
        desired: dict[int, set[CacheKey]] = {s: set() for s in range(n)}
        budget_left = {s: self.budget_bytes for s in range(n)}
        installs: dict[int, list[tuple[CacheKey, bytes, int, str]]] = {
            s: [] for s in range(n)
        }
        fetched: dict[CacheKey, tuple[bytes, int, str]] = {}
        for key, _count in hot:
            rank = rank_of_variable(key.variable)
            owner = shard_for_rank(rank, n)
            for target in range(n):
                if target == owner:
                    continue
                payload = fetched.get(key)
                if payload is None:
                    try:
                        payload = self.pool.fetch_vector(owner, key)
                    except Exception:
                        report.fetch_failures += 1
                        break  # owner cannot produce it; skip this key
                    fetched[key] = payload
                words, n_bits = payload
                if len(words) > budget_left[target]:
                    continue
                budget_left[target] -= len(words)
                desired[target].add(key)
                if key not in held[target]:
                    installs[target].append((key, words, n_bits))

        for shard in range(n):
            stale = held[shard] - desired[shard]
            if stale:
                report.dropped += self.pool.drop_replicas(shard, stale)
            if installs[shard]:
                report.installed += self.pool.install_replicas(
                    shard, installs[shard]
                )
            report.placement_bytes[shard] = (
                self.budget_bytes - budget_left[shard]
            )

        routes: dict[str, list[int]] = {}
        for shard, keyset in desired.items():
            for key in keyset:
                rank = rank_of_variable(key.variable)
                owner = shard_for_rank(rank, n)
                entry = routes.setdefault(rank, [owner])
                if shard not in entry:
                    entry.append(shard)
        report.routes = {r: sorted(s) for r, s in routes.items()}
        report.published = self.routing.publish(routes, epoch)
        self.cycles += 1
        self.last_report = report
        return report

    def reset(self) -> None:
        """Invalidate everything: routes stale, every replica dropped.

        Called on catalog refresh -- replica bytes were read from files
        that may have been rewritten, so they are not trusted past the
        epoch they were placed in.
        """
        self.routing.invalidate()
        self.pool.clear_replicas()

    # ---------------------------------------------------------- lifecycle
    def start(self) -> "ReplicaManager":
        """Run the policy loop on a daemon thread every ``interval_s``."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.rebalance()
                except Exception:  # policy is advisory; serving continues
                    self.cycle_errors += 1

        self._thread = threading.Thread(
            target=loop, name="repro-replicator", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def stats(self) -> dict[str, Any]:
        report = self.last_report
        return {
            "cycles": self.cycles,
            "cycle_errors": self.cycle_errors,
            "epoch": self.routing.epoch,
            "routes": self.routing.routes(),
            "budget_bytes": self.budget_bytes,
            "top_k": self.top_k,
            "last_cycle": None
            if report is None
            else {
                "hot_keys": report.hot_keys,
                "installed": report.installed,
                "dropped": report.dropped,
                "fetch_failures": report.fetch_failures,
                "published": report.published,
                "placement_bytes": dict(report.placement_bytes),
            },
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaManager(shards={self.pool.n_shards}, "
            f"budget={self.budget_bytes}B, top_k={self.top_k}, "
            f"cycles={self.cycles})"
        )
