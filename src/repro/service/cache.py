"""Byte-budget LRU cache for individually loaded bitvectors.

Sits directly under every lazy load the query service performs: keys are
``(file, variable, bin, level)``, values are decoded WAH bitvectors
(readers decode every storage codec to WAH -- see
:mod:`repro.bitmap.codec`), and the budget is expressed in *WAH bytes
held* so a server's memory footprint is bounded by configuration, not by
query history.
Hits, misses, and evictions are counted -- the service surfaces them per
query (``QueryStats``) and
globally (``repro serve`` prints the totals).

Thread-safe: the service executes queries on a pool and all queries share
one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from repro.bitmap.wah import WAHBitVector


class CacheKey(NamedTuple):
    """Identity of one cached bitvector."""

    file: str
    variable: str
    bin: int
    level: int = 0

    @classmethod
    def for_bin(
        cls, file: Path | str, variable: str, bin_id: int, level: int = 0
    ) -> "CacheKey":
        return cls(str(file), variable, int(bin_id), int(level))


@dataclass
class CacheStats:
    """Counter snapshot (copies, safe to hold across operations)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes_cached: int = 0
    budget_bytes: int = 0
    #: get_or_load calls that waited for another thread's in-flight load
    #: instead of decoding the same bitvector again (counted as hits).
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the network server's ``stats`` op)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "bytes_cached": self.bytes_cached,
            "budget_bytes": self.budget_bytes,
            "hit_rate": self.hit_rate,
            "coalesced": self.coalesced,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, entries={self.entries}, "
            f"bytes={self.bytes_cached}/{self.budget_bytes}, "
            f"hit_rate={self.hit_rate:.1%}, coalesced={self.coalesced})"
        )


class _InFlightLoad:
    """One key's pending load: waiters park on the event, then share
    ``vector`` (``None`` means the leader failed; waiters retry)."""

    __slots__ = ("event", "vector")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.vector: WAHBitVector | None = None


class BitvectorCache:
    """An LRU over decoded bitvectors, bounded by compressed bytes held.

    A value's cost is its compressed ``nbytes`` (the dominant resident
    cost; decoded group expansions are transient).  Values larger than
    the whole budget are served but never retained, so one giant
    bitvector cannot flush the working set.
    """

    def __init__(self, budget_bytes: int = 64 << 20, *, access=None) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        #: Optional :class:`repro.service.hotset.AccessStats` recording
        #: every lookup (hit or miss) -- the hot-set accounting feed.
        self.access = access
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, WAHBitVector] = OrderedDict()
        self._inflight: dict[CacheKey, _InFlightLoad] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._coalesced = 0

    # ------------------------------------------------------------- access
    def get(self, key: CacheKey) -> WAHBitVector | None:
        """Look up one bitvector, refreshing its recency on a hit."""
        if self.access is not None:
            self.access.record(key)
        with self._lock:
            vector = self._entries.get(key)
            if vector is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return vector

    def put(self, key: CacheKey, vector: WAHBitVector) -> None:
        """Insert (or refresh) one bitvector, evicting LRU past budget."""
        cost = vector.nbytes
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            if cost > self.budget_bytes:
                return  # larger than the whole budget: serve, don't retain
            self._entries[key] = vector
            self._bytes += cost
            while self._bytes > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1

    def get_or_load(
        self, key: CacheKey, loader: Callable[[], WAHBitVector]
    ) -> tuple[WAHBitVector, bool]:
        """Fetch from cache or ``loader`` -- returns ``(vector, was_hit)``.

        Single-flight per key: concurrent misses on the same key elect one
        *leader* whose loader runs (outside the global lock, so unrelated
        keys keep loading in parallel) while every other caller waits and
        shares the result -- the same bitvector is never decoded twice
        concurrently.  Waiters count as hits (plus the ``coalesced``
        counter).  If the leader's loader raises, the exception propagates
        to the leader only; waiters retry, and one of them becomes the
        next leader.
        """
        if self.access is not None:
            self.access.record(key)
        while True:
            with self._lock:
                vector = self._entries.get(key)
                if vector is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return vector, True
                pending = self._inflight.get(key)
                if pending is None:
                    pending = self._inflight[key] = _InFlightLoad()
                    leader = True
                else:
                    leader = False
            if not leader:
                pending.event.wait()
                if pending.vector is not None:
                    with self._lock:
                        self._hits += 1
                        self._coalesced += 1
                    return pending.vector, True
                continue  # leader failed; contend for leadership again
            try:
                vector = loader()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                pending.event.set()  # vector stays None: waiters retry
                raise
            # Publish to waiters before (and regardless of) retention --
            # an over-budget vector is served even though it is never
            # cached.
            self.put(key, vector)
            with self._lock:
                self._inflight.pop(key, None)
                self._misses += 1
            pending.vector = vector
            pending.event.set()
            return vector, False

    # ---------------------------------------------------------- lifecycle
    def invalidate_file(self, file: Path | str) -> int:
        """Drop every entry loaded from ``file`` (e.g. after a rewrite)."""
        name = str(file)
        with self._lock:
            doomed = [k for k in self._entries if k.file == name]
            for k in doomed:
                self._bytes -= self._entries.pop(k).nbytes
            return len(doomed)

    def invalidate_prefix(self, prefix: Path | str) -> int:
        """Drop every entry whose file path sits under ``prefix``.

        Directory-granular invalidation: when a ``step_*``/``rank_*``
        store directory is deleted behind the server's back, the stale
        catalog handler evicts everything loaded from it in one pass.
        """
        name = str(prefix).rstrip("/") + "/"
        with self._lock:
            doomed = [
                k for k in self._entries
                if k.file.startswith(name) or k.file == name[:-1]
            ]
            for k in doomed:
                self._bytes -= self._entries.pop(k).nbytes
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes_cached=self._bytes,
                budget_bytes=self.budget_bytes,
                coalesced=self._coalesced,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"BitvectorCache({self.stats()!r})"
