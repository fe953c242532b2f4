"""Streaming greedy time-step selection with O(1) resident artifacts.

The batch selectors in :mod:`repro.selection.greedy` hold all ``N``
artifacts until the end.  In a real in-situ run the interval structure is
known up front (``N`` and ``K`` are configured), so the greedy recurrence
can be evaluated *online*: as each step's bitmap arrives, compare it with
the previously *committed* selection, track only the best candidate of the
current interval, and discard everything else immediately.

Resident state is exactly three artifacts (previous selection, current
interval's best, the arriving step) -- the memory regime Figure 11
assumes -- and the output is **identical** to the batch greedy selector
(property-tested), because greedy only ever looks backwards at the last
committed step.
"""

from __future__ import annotations

from typing import Generic, TypeVar

import numpy as np

from repro.selection.greedy import SelectionResult
from repro.selection.partitioning import fixed_length_partitions, validate_partitions

Artifact = TypeVar("Artifact")


class StreamingSelector(Generic[Artifact]):
    """Online greedy selector over a known (n_steps, k) schedule.

    ``distinctness(prev, cand)`` scores how much new information the
    candidate artifact carries vs the previously selected one (higher =
    keep), exactly like the batch selector's metric.

    Usage::

        sel = StreamingSelector(n_steps=100, k=25, distinctness=score)
        for artifact in stream:     # bitmaps arriving step by step
            for step, kept in sel.push(artifact):
                write(step, kept)   # committed: final, safe to persist
        result = sel.finalize()     # == batch greedy selection
    """

    def __init__(self, n_steps: int, k: int, distinctness) -> None:
        parts = fixed_length_partitions(n_steps, k)
        validate_partitions(parts, n_steps)
        self._intervals = parts
        self._distinctness = distinctness
        self.n_steps = n_steps
        self.k = k

        self._next_step = 0
        self._interval_idx = 0
        self._prev_artifact: Artifact | None = None
        self._best_step = -1
        self._best_score = -np.inf
        self._best_artifact: Artifact | None = None
        self._selected: list[int] = []
        self._scores: list[float] = []
        self._evaluations = 0
        self._finalized = False

    # ------------------------------------------------------------- stream
    @property
    def resident_artifacts(self) -> int:
        """How many artifacts the selector currently retains (<= 2)."""
        return len(self.resident())

    def resident(self) -> list[Artifact]:
        """The artifacts currently retained: the previously committed
        selection and/or the running interval's best, at most two.  Lets
        callers account the *actual* retained bytes instead of assuming
        every artifact is the same size as the newest one."""
        out = []
        if self._prev_artifact is not None:
            out.append(self._prev_artifact)
        if self._best_artifact is not None:
            out.append(self._best_artifact)
        return out

    def push(self, artifact: Artifact) -> list[tuple[int, Artifact | None]]:
        """Consume the next time-step's artifact (order is implicit).

        Returns the ``(step, artifact)`` pairs this push committed to the
        selection (usually none, at most one), so a caller can write each
        selected step the moment it is final.
        """
        if self._finalized:
            raise RuntimeError("selector already finalized")
        step = self._next_step
        if step >= self.n_steps:
            raise RuntimeError(f"received more than {self.n_steps} steps")
        self._next_step += 1

        committed = []
        interval = self._intervals[self._interval_idx]
        if step == 0:
            # T0 is committed unconditionally; it seeds the recurrence.
            committed.append(self._commit(0, float("nan"), artifact))
        elif self._interval_idx > 0:
            # Steps after T0 inside interval 0 (k=1 only) are never
            # selectable, so they need no scoring.
            score = self._distinctness(self._prev_artifact, artifact)
            self._evaluations += 1
            if score > self._best_score:
                self._best_score = score
                self._best_step = step
                self._best_artifact = artifact

        # Interval boundary: commit the interval's winner.
        if step == interval.stop - 1 and self._interval_idx > 0:
            committed.append(
                self._commit(self._best_step, self._best_score, self._best_artifact)
            )

        if step == interval.stop - 1 and self._interval_idx + 1 < len(self._intervals):
            self._interval_idx += 1
            self._best_step = -1
            self._best_score = -np.inf
            self._best_artifact = None
        return committed

    def _commit(
        self, step: int, score: float, artifact: Artifact | None
    ) -> tuple[int, Artifact | None]:
        self._selected.append(step)
        self._scores.append(score)
        self._prev_artifact = artifact
        self._best_artifact = None
        return step, artifact

    # ------------------------------------------------------------- result
    def finalize(self) -> SelectionResult:
        """Return the selection; all steps must have been pushed."""
        if self._next_step != self.n_steps:
            raise RuntimeError(
                f"saw {self._next_step} of {self.n_steps} steps before finalize"
            )
        self._finalized = True
        return SelectionResult(
            self._selected,
            self._scores,
            self._intervals,
            "streaming",
            self._evaluations,
        )
