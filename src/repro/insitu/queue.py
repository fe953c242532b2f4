"""Data-queue outcomes and accounting shared by the Separate Cores ring.

§2.3, Separate Cores: "a data queue is shared between simulation and
bitmaps generation.  Each time when a new time-step data is simulated, it
will be added to the tail of the data queue if the queue is not full (the
queue size is limited by the memory capacity)."

That queue is the shared-memory slot ring of
:class:`~repro.insitu.parallel.SeparateCoresEngine`; this module holds
what it raises and what it counts.
"""

from __future__ import annotations

from dataclasses import dataclass


class QueueClosed(Exception):
    """Raised by a submit after the queue has been finished."""


class QueueFailed(QueueClosed):
    """Raised by a submit once a consumer has failed.

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
