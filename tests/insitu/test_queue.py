"""Tests for the data-queue outcomes (repro.insitu.queue).

The Separate Cores slot ring that raises them is tested in
tests/insitu/test_parallel.py (``TestSeparateCoresEngine``).
"""

from repro.insitu.queue import QueueClosed, QueueFailed


class TestQueueFailure:
    def test_queue_failed_is_queue_closed(self):
        # Drain loops that catch QueueClosed must also terminate on
        # failure, so the poison exception is a subtype.
        assert issubclass(QueueFailed, QueueClosed)
