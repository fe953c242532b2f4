"""Bounded data queue between simulation and bitmap-generation cores.

§2.3, Separate Cores: "a data queue is shared between simulation and
bitmaps generation.  Each time when a new time-step data is simulated, it
will be added to the tail of the data queue if the queue is not full (the
queue size is limited by the memory capacity)."

:class:`BoundedDataQueue` is that queue: FIFO, bounded by *bytes* (the
memory capacity), thread-safe, with blocking put/get so a producer
(simulation) stalls exactly when the paper says it must -- when bitmap
generation cannot keep up and memory is full.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.sims.base import TimeStepData


class QueueClosed(Exception):
    """Raised by :meth:`BoundedDataQueue.get` after close + drain."""


class QueueFailed(QueueClosed):
    """Raised by ``put``/``get`` after :meth:`BoundedDataQueue.fail`.

    Subclasses :class:`QueueClosed` so drain loops that already treat
    closure as end-of-stream keep terminating; callers that care about
    *why* the stream ended can catch this subtype and inspect ``cause``.
    """

    def __init__(self, message: str, cause: BaseException) -> None:
        super().__init__(message)
        self.cause = cause


@dataclass
class QueueStats:
    """Occupancy accounting for the core-allocation experiments."""

    puts: int = 0
    gets: int = 0
    producer_blocks: int = 0  # simulation stalled on a full queue
    consumer_blocks: int = 0  # bitmap cores starved on an empty queue
    max_depth: int = 0


class BoundedDataQueue:
    """Byte-bounded FIFO of :class:`TimeStepData` (or any item with an
    ``nbytes`` size, such as the payload tasks of
    :class:`~repro.insitu.parallel.ThreadedSeparateCoresEngine`).

    ``capacity_bytes`` limits the *sum* of queued steps' sizes; a single
    step larger than the capacity is still accepted when the queue is
    empty (otherwise it could never flow at all).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be > 0 bytes, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._items: deque[TimeStepData] = deque()
        self._bytes = 0
        self._closed = False
        self._failure: BaseException | None = None
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.stats = QueueStats()

    # ------------------------------------------------------------ producer
    def put(self, item: TimeStepData) -> None:
        """Enqueue a time-step, blocking while the queue is full.

        Raises :class:`QueueFailed` (even mid-block) once a consumer has
        called :meth:`fail`, and :class:`QueueClosed` after :meth:`close`.
        """
        with self._not_full:
            self._check_failed("queue failed before put")
            if self._closed:
                raise QueueClosed("queue already closed")
            blocked = False
            while self._bytes > 0 and self._bytes + item.nbytes > self.capacity_bytes:
                blocked = True
                self._not_full.wait()
                self._check_failed("queue failed while blocked on put")
                if self._closed:
                    raise QueueClosed("queue closed while blocked on put")
            if blocked:
                self.stats.producer_blocks += 1
            self._items.append(item)
            self._bytes += item.nbytes
            self.stats.puts += 1
            self.stats.max_depth = max(self.stats.max_depth, len(self._items))
            self._not_empty.notify()

    def close(self) -> None:
        """Signal that no more items will arrive."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def fail(self, exc: BaseException) -> None:
        """Poison the queue after an unrecoverable error on either side.

        Unlike :meth:`close` -- which lets consumers drain remaining items
        -- failing makes every current and future ``put``/``get`` raise
        :class:`QueueFailed` immediately, unblocking threads parked on a
        full or empty queue so the pipeline can tear down instead of
        deadlocking.  Only the first failure is recorded.
        """
        with self._lock:
            if self._failure is None:
                self._failure = exc
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def _check_failed(self, message: str) -> None:
        # Caller must hold self._lock.
        if self._failure is not None:
            raise QueueFailed(
                f"{message}: {self._failure!r}", self._failure
            ) from self._failure

    # ------------------------------------------------------------ consumer
    def get(self) -> TimeStepData:
        """Dequeue the oldest step; blocks when empty; raises
        :class:`QueueClosed` once closed *and* drained, and
        :class:`QueueFailed` (without draining) after :meth:`fail`."""
        with self._not_empty:
            blocked = False
            while True:
                self._check_failed("queue failed")
                if self._items:
                    break
                if self._closed:
                    raise QueueClosed("queue closed and drained")
                blocked = True
                self._not_empty.wait()
            if blocked:
                self.stats.consumer_blocks += 1
            item = self._items.popleft()
            self._bytes -= item.nbytes
            self.stats.gets += 1
            self._not_full.notify()
            return item

    # ---------------------------------------------------------- inspection
    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def failure(self) -> BaseException | None:
        """The first exception passed to :meth:`fail`, if any."""
        with self._lock:
            return self._failure
