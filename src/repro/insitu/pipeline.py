"""The in-situ analysis pipeline (Figure 2 end-to-end).

Three reduction modes matching the methods §5 compares:

* ``bitmap``   -- simulate -> build a compressed bitmap index per step ->
  **discard the raw data** -> select K of N on bitmaps -> write only the
  selected bitmaps;
* ``fulldata`` -- simulate -> keep raw steps resident -> select on raw
  arrays -> write the selected steps' raw data;
* ``sampling`` -- simulate -> down-sample -> select on samples -> write
  the selected samples (the §5.5 baseline).

One step loop runs every configuration: simulate -> payload -> (row
ordering) -> build engine (:mod:`repro.insitu.parallel`) -> batch or
streaming selector -> write.  A step's payload is one array, or -- given
a per-variable ``binning`` mapping -- the named fields of §5.1's
multi-array steps, each built under its own binning into one
:class:`~repro.insitu.variables.MultiVariableStep` artifact.
:meth:`InSituPipeline.run`, :meth:`~InSituPipeline.run_parallel` and
:meth:`~InSituPipeline.run_streaming` only configure it, and
:func:`check_combination` is the one rule deciding which configurations
run; every configuration it accepts writes the same store as
:meth:`InSituPipeline.run`.

Each phase is wall-clock timed into the same decomposition the paper's
stacked bars use (simulate / reduce / select / output), and a
:class:`~repro.insitu.memory.MemoryTracker` records the resident-set
categories of Figure 11.  For an asynchronous engine the reduce phase is
the time the simulation waits on it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping

import numpy as np

from repro.bitmap.adaptive import aligned_metric
from repro.bitmap.binning import Binning, PrecisionBinning
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ordering import ORDERING_METHODS, compute_ordering
from repro.insitu.allocation import (
    SeparateCores,
    SharedCores,
    equation_1_2_allocation,
)
from repro.insitu.memory import MemoryTracker
from repro.insitu.parallel import (
    BuildEngine,
    InlineEngine,
    SeparateCoresEngine,
    SharedCoresEngine,
    ThreadedSeparateCoresEngine,
)
from repro.insitu.queue import QueueFailed
from repro.insitu.sampling import Sampler
from repro.insitu.variables import MultiVariableStep, combined_metric
from repro.insitu.writer import OutputWriter
from repro.selection.greedy import (
    Partitioning,
    SelectionResult,
    select_timesteps_bitmap,
    select_timesteps_full,
)
from repro.selection.metrics import SelectionMetric
from repro.selection.streaming import StreamingSelector
from repro.sims.base import Simulation, TimeStepData
from repro.util.timing import TimeBreakdown

ReductionMode = Literal["bitmap", "fulldata", "sampling"]
EngineKind = Literal["inline", "shared", "separate"]

#: Extracts the analysis payload from a step (default: all fields
#: concatenated, the §5.1 Lulesh convention; single-field sims are
#: unaffected).
PayloadFn = Callable[[TimeStepData], np.ndarray]

#: Timed phase of each mode's reduction; full data keeps the payload as is.
_REDUCE_PHASE = {"bitmap": "reduce_bitmap", "sampling": "reduce_sample"}


def default_payload(step: TimeStepData) -> np.ndarray:
    return step.concatenated()


class UnsupportedCombination(ValueError):
    """A pipeline configuration that :func:`check_combination` rejects."""


def check_combination(
    pipe: "InSituPipeline",
    engine: EngineKind = "inline",
    *,
    resume: int = 0,
    n_steps: int | None = None,
    streaming: bool = False,
) -> None:
    """The one rule: raise :class:`UnsupportedCombination` unless ``pipe``
    can run on ``engine`` with a ``resume``-step prefix (and streaming).

    Every combination not listed here runs, on every engine, and writes
    the store the inline engine writes.
    """
    mode, ordering, multivar = pipe.mode, pipe.ordering_method, pipe.variables
    # aligned_metric renames "emd_spatial" to "emd_spatial@adaptive",
    # combined_metric to "multivar:emd_spatial".
    metric = pipe.metric.name.removeprefix("multivar:").split("@")[0]
    rules = [
        (isinstance(pipe.binning, Mapping) and not multivar,
         "a per-variable binning needs at least one variable"),
        (multivar and mode != "bitmap",
         "multi-variable runs are defined for bitmap mode only"),
        (multivar and pipe.partitioning != "fixed",
         "multi-variable selection uses fixed partitioning"),
        (multivar and pipe.payload_fn is not default_payload,
         "a multi-variable payload is the binned fields; drop payload_fn"),
        (mode == "sampling" and pipe.sampler is None,
         "sampling mode needs a Sampler"),
        (pipe.binning is None and mode != "bitmap",
         "adaptive binning (binning=None) is only defined for bitmap mode; "
         "full-data/sampling metrics need a declared scale"),
        (ordering is not None and ordering not in ORDERING_METHODS,
         f"unknown ordering method {ordering!r} "
         f"(known: {list(ORDERING_METHODS)})"),
        # Spatial-unit popcounts are not invariant under a row permutation;
        # every other built-in metric (count-based EMD, MI, CE) is, because
        # all steps of a run share one ordering.
        (ordering is not None and metric == "emd_spatial",
         "emd_spatial is not permutation-invariant; pick a count-based "
         "metric or drop ordering"),
        (mode != "bitmap"
         and (ordering is not None or engine != "inline" or resume or streaming),
         "row ordering, parallel engines, resume and streaming are defined "
         "for bitmap mode only"),
        (n_steps is not None and resume > n_steps,
         f"resume prefix of {resume} steps exceeds n_steps={n_steps}"),
        (streaming and engine == "separate",
         "streaming needs an engine whose submit returns the index; "
         "separate cores hands indices back only at finish"),
    ]
    for broken, message in rules:
        if broken:
            raise UnsupportedCombination(message)


@dataclass
class PipelineResult:
    """Everything one pipeline run measured."""

    mode: ReductionMode
    timings: TimeBreakdown
    selection: SelectionResult
    memory: MemoryTracker
    bytes_written: int
    #: reduced artifact sizes per step (bitmap bytes / sample bytes / raw bytes)
    artifact_bytes: list[int] = field(default_factory=list)
    queue_stats: object | None = None

    @property
    def total_seconds(self) -> float:
        return self.timings.total

    def summary(self) -> str:
        phases = ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(self.timings.phases.items())
        )
        return (
            f"[{self.mode}] {phases}; total={self.total_seconds:.3f}s; "
            f"selected={self.selection.selected}; "
            f"written={self.bytes_written / 2**20:.2f} MiB; "
            f"peak_mem={self.memory.peak_bytes / 2**20:.2f} MiB"
        )


class InSituPipeline:
    """Drives a :class:`~repro.sims.base.Simulation` through reduce-select-write."""

    def __init__(
        self,
        simulation: Simulation,
        binning: Binning | Mapping[str, Binning] | None,
        metric: SelectionMetric,
        *,
        mode: ReductionMode = "bitmap",
        sampler: Sampler | None = None,
        writer: OutputWriter | None = None,
        payload_fn: PayloadFn = default_payload,
        partitioning: Partitioning = "fixed",
        build_method: Literal["vectorized", "online"] = "vectorized",
        adaptive_digits: int = 1,
        ordering: str | None = None,
    ) -> None:
        self.simulation = simulation
        self.binning = binning
        #: The binned fields of a multi-variable run (``binning`` maps
        #: field name -> binning); empty when the payload is one array.
        self.variables = list(binning) if isinstance(binning, Mapping) else []
        self.mode: ReductionMode = mode
        self.sampler = sampler
        self.writer = writer
        self.payload_fn = payload_fn
        self.partitioning: Partitioning = partitioning
        self.build_method = build_method
        #: Row ordering method; the permutation itself is computed from
        #: each run's first built step and shared by all of its steps, which
        #: leaves cross-step joint popcounts (the selection metrics) exactly
        #: invariant.
        self.ordering_method = ordering
        # binning=None: per-step tick-aligned binning (§5.1's 64-206 bins
        # regime); selection metrics align ticks pairwise.
        self.adaptive_digits = adaptive_digits
        if self.variables and not metric.name.startswith("multivar:"):
            metric = combined_metric(metric)
        elif binning is None:
            metric = aligned_metric(metric)
        self.metric = metric
        check_combination(self)
        self._inline = InlineEngine(
            mode=mode, sampler=sampler, build_method=build_method
        )

    # ------------------------------------------------------------- drivers
    def run(
        self,
        n_steps: int,
        select_k: int,
        *,
        resume: list[tuple[int, BitmapIndex | MultiVariableStep]] | None = None,
    ) -> PipelineResult:
        """Sequential (Shared-Cores-like) execution: phases alternate.

        ``resume`` hands the pipeline an already-built prefix of per-step
        indices as ``(step_id, index)`` pairs (e.g. reloaded from a
        :class:`~repro.cluster.checkpoint.CheckpointStore` after a
        crash): the simulation is fast-forwarded past them with
        :meth:`~repro.sims.base.Simulation.skip` and only the remaining
        steps are simulated and reduced.  Because selection runs over the
        full artifact list either way, a resumed run returns exactly the
        selection an uninterrupted run would.  Bitmap mode only -- the
        other modes retain raw/sampled arrays, which no checkpoint holds.
        """
        return self._loop(
            n_steps, select_k, "inline", lambda *_: self._inline,
            resume=resume or [],
        )

    def run_parallel(
        self,
        n_steps: int,
        select_k: int,
        *,
        allocation: SharedCores | SeparateCores | Literal["auto"] | None = None,
        n_workers: int | None = None,
        executor: Literal["threads", "processes"] = "processes",
        queue_capacity_bytes: int | None = None,
        calibration_steps: int = 2,
        chunk_elements: int = 1 << 20,
    ) -> PipelineResult:
        """Multi-core execution of either §2.3 core-allocation strategy.

        ``allocation`` picks the strategy: a
        :class:`~repro.insitu.allocation.SharedCores` runs every step's
        build spatially partitioned across all workers, a
        :class:`~repro.insitu.allocation.SeparateCores` overlaps the
        simulation with a persistent encoder pool (``bitmap_cores``
        workers) behind a bounded queue of ``queue_capacity_bytes``, and
        ``"auto"`` builds the first ``calibration_steps`` steps inline,
        then derives a Separate Cores split of ``n_workers`` cores from
        their phase times with the paper's Equations 1-2.  When
        ``allocation`` is omitted, ``n_workers`` selects Shared Cores
        with that many workers.

        ``executor='processes'`` (default) uses the zero-copy
        shared-memory engines of :mod:`repro.insitu.parallel`;
        ``'threads'`` is the GIL-bound escape hatch (lower overhead for
        tiny steps, no multi-core speedup for the Python fraction).

        Stores are byte-identical to :meth:`run` in every configuration,
        row ordering and adaptive binning included.
        """
        if executor not in ("threads", "processes"):
            raise ValueError(f"unknown executor {executor!r}")
        if allocation is None:
            if n_workers is None:
                raise ValueError("pass allocation=... or n_workers=...")
            allocation = SharedCores(n_workers)
        # A multi-variable step carries one binning per submit.
        binning = None if self.variables else self.binning
        calibrate = 0
        if allocation == "auto":
            if n_workers is None:
                raise ValueError("allocation='auto' needs n_workers (total cores)")
            calibrate = min(max(1, calibration_steps), n_steps)
        elif not isinstance(allocation, (SharedCores, SeparateCores)):
            raise ValueError(f"unknown allocation {allocation!r}")

        def open_engine(payload: np.ndarray, timings: TimeBreakdown) -> BuildEngine:
            strategy = allocation
            if strategy == "auto":
                # The loop opens the engine after simulating the first
                # post-calibration step, so simulate covers one more step.
                strategy = equation_1_2_allocation(
                    n_workers,
                    timings.phases["simulate"] / (calibrate + 1),
                    timings.phases["reduce_bitmap"] / calibrate,
                )
            if isinstance(strategy, SharedCores):
                return SharedCoresEngine(
                    strategy.total_cores, binning,
                    executor=executor, chunk_elements=chunk_elements,
                )
            slot_nbytes = max(payload.nbytes, 1)
            if executor == "threads":
                return ThreadedSeparateCoresEngine(
                    n_workers=strategy.bitmap_cores,
                    capacity_bytes=queue_capacity_bytes or 4 * slot_nbytes,
                    chunk_elements=chunk_elements,
                )
            if queue_capacity_bytes:
                # Respect the byte bound, but cap the slot count: each
                # slot is one shared-memory segment, and past a few per
                # worker more buffering adds nothing.
                n_slots = min(
                    max(2, int(queue_capacity_bytes) // slot_nbytes),
                    max(8, 4 * strategy.bitmap_cores),
                )
            else:
                n_slots = strategy.bitmap_cores + 1
            return SeparateCoresEngine(
                binning,
                n_workers=strategy.bitmap_cores,
                slot_nbytes=slot_nbytes,
                n_slots=n_slots,
                chunk_elements=chunk_elements,
            )

        kind: EngineKind = (
            "shared" if isinstance(allocation, SharedCores) else "separate"
        )
        return self._loop(
            n_steps, select_k, kind, open_engine, calibrate=calibrate
        )

    def run_streaming(self, n_steps: int, select_k: int) -> PipelineResult:
        """Fully streaming bitmap pipeline: select online, write on commit.

        Uses :class:`~repro.selection.streaming.StreamingSelector`, so at
        most *two* bitmap artifacts are ever resident (the previously
        committed selection and the current interval's best), and each
        selected bitmap is written the moment its interval closes -- the
        tightest-memory reading of Figure 2.  The selection is identical
        to :meth:`run` (greedy only ever looks at the last committed
        step).
        """
        return self._loop(
            n_steps, select_k, "inline", lambda *_: self._inline,
            streaming=True,
        )

    # ----------------------------------------------------------- step loop
    def _loop(
        self,
        n_steps: int,
        select_k: int,
        kind: EngineKind,
        open_engine: Callable[[np.ndarray, TimeBreakdown], BuildEngine],
        *,
        resume: list[tuple[int, BitmapIndex | MultiVariableStep]] = (),
        calibrate: int = 0,
        streaming: bool = False,
    ) -> PipelineResult:
        """Simulate -> payload -> engine -> select -> write, per step.

        ``resume`` steps are already built; the simulation skips them.
        The first ``calibrate`` steps are built inline before
        ``open_engine`` opens the run's engine for the rest.  Each payload
        column is one engine submit, keyed ``pos * n_columns + column``;
        a built step joins the selection once the engine has handed back
        all of its columns.
        """
        check_combination(
            self, kind, resume=len(resume), n_steps=n_steps, streaming=streaming
        )
        timings = TimeBreakdown()
        memory = MemoryTracker()
        memory.set("simulation_substrate", max(self.simulation.substrate_nbytes, 1))
        phase = _REDUCE_PHASE.get(self.mode)
        reduce_timer = (lambda: timings.timed(phase)) if phase else nullcontext
        written_before = self.writer.stats.bytes_written if self.writer else 0
        step_ids: list[int] = []
        sizes: list[int] = []  # payload elements (sampling regenerates positions)
        artifacts: list[object] = []
        artifact_bytes: list[int] = []
        selector = (
            StreamingSelector(n_steps, select_k, self.metric.bitmap)
            if streaming
            else None
        )
        ordering = next((artifact.ordering for _, artifact in resume), None)
        names = self.variables or ["payload"]
        partial: dict[int, dict[str, object]] = {}  # pos -> columns built so far

        def accept(pos: int, artifact: object) -> None:
            nbytes = (
                self.sampler.sample_bytes(sizes[pos])
                if self.mode == "sampling"
                else artifact.nbytes
            )
            artifact_bytes.append(nbytes)
            if selector is None:
                artifacts.append(artifact)
                memory.add("retained_window", nbytes)
                return
            with timings.timed("select"):
                committed = selector.push(artifact)
            for done, index in committed:
                if self.writer is not None and index is not None:
                    with timings.timed("output"):
                        self._write_step(step_ids[done], index, sizes[done])
            # Account what is *actually* resident: the retained artifacts'
            # own sizes (bitmap sizes vary step to step).
            memory.set(
                "retained_window", sum(a.nbytes for a in selector.resident())
            )

        def collect(key: int, built: object) -> None:
            pos, column = divmod(key, len(names))
            if ordering is not None:
                built.ordering = ordering
            columns = partial.setdefault(pos, {})
            columns[names[column]] = built
            if len(columns) == len(names):
                del partial[pos]
                accept(
                    pos,
                    MultiVariableStep(step_ids[pos], columns)
                    if self.variables
                    else built,
                )

        for pos, (step_id, artifact) in enumerate(resume):
            step_ids.append(step_id)
            sizes.append(0)  # only sampling reads sizes, and it never resumes
            accept(pos, artifact)
        with timings.timed("simulate"):
            self.simulation.skip(len(resume))

        engine: BuildEngine | None = None
        try:
            for pos in range(len(resume), n_steps):
                with timings.timed("simulate"):
                    step = self.simulation.advance()
                columns = self._columns(step)
                binnings = {n: self._step_binning(n, c) for n, c in columns.items()}
                if self.ordering_method is not None:
                    if ordering is None:
                        # One permutation from all columns, in name order.
                        ordering = compute_ordering(
                            [columns[n] for n in sorted(columns)],
                            [binnings[n] for n in sorted(columns)],
                            self.ordering_method,
                        )
                    columns = {
                        n: ordering.apply(np.asarray(c).ravel())
                        for n, c in columns.items()
                    }
                step_ids.append(step.step)
                sizes.append(columns[names[0]].size)
                if self.mode != "fulldata":
                    # Raw data is resident only while being reduced --
                    # the in-situ memory win.  (In fulldata mode the
                    # payload *is* the retained artifact.)
                    memory.set(
                        "current_step_raw", sum(c.nbytes for c in columns.values())
                    )
                with reduce_timer():
                    if pos < calibrate:
                        current = self._inline
                    else:
                        engine = engine or open_engine(
                            max(columns.values(), key=lambda c: c.nbytes), timings
                        )
                        current = engine
                    built = {
                        key: current.submit(key, columns[n], binning=binnings[n])
                        for key, n in enumerate(names, pos * len(names))
                    }
                for key, artifact in built.items():
                    if artifact is not None:
                        collect(key, artifact)
                if engine is not None:
                    memory.set("queue", engine.resident_bytes)
            if engine is not None:
                with reduce_timer():
                    pending = engine.finish()
                for key in sorted(pending):
                    collect(key, pending[key])
        except QueueFailed as exc:
            # An encoder died and poisoned the queue: surface its exception.
            raise exc.cause from None
        finally:
            if engine is not None:
                with reduce_timer():
                    engine.close()
        memory.release("current_step_raw")

        with timings.timed("select"):
            if selector is not None:
                selection = selector.finalize()
            elif self.mode == "bitmap":
                selection = select_timesteps_bitmap(
                    artifacts, select_k, self.metric, partitioning=self.partitioning
                )
            else:
                selection = select_timesteps_full(
                    artifacts, select_k, self.metric, self.binning,
                    partitioning=self.partitioning,
                )
        if self.writer is not None and selector is None:
            with timings.timed("output"):
                for pos in selection.selected:
                    self._write_step(step_ids[pos], artifacts[pos], sizes[pos])
        bytes_written = (
            self.writer.stats.bytes_written - written_before if self.writer else 0
        )
        return PipelineResult(
            self.mode, timings, selection, memory, bytes_written, artifact_bytes,
            engine.stats if engine is not None else None,
        )

    # -------------------------------------------------------------- phases
    def _columns(self, step: TimeStepData) -> dict[str, np.ndarray]:
        """The step's payload by column: the binned fields of a
        multi-variable run, else the one ``"payload"`` array."""
        if not self.variables:
            return {"payload": self.payload_fn(step)}
        missing = [n for n in self.variables if n not in step.fields]
        if missing:
            raise KeyError(
                f"step {step.step} lacks variable(s) {missing}; "
                f"has {sorted(step.fields)}"
            )
        return {n: step.fields[n] for n in self.variables}

    def _step_binning(self, name: str, column: np.ndarray) -> Binning:
        if self.variables:
            return self.binning[name]
        if self.binning is not None:
            return self.binning
        return PrecisionBinning.from_data(column, digits=self.adaptive_digits)

    def _build_index(self, payload: np.ndarray) -> BitmapIndex:
        """One step's index as the inline engine builds it (no ordering)."""
        return self._inline.submit(
            0, payload, binning=self._step_binning("payload", payload)
        )

    def _write_step(self, step_id: int, artifact, n_elements: int) -> None:
        if self.mode == "bitmap":
            self.writer.write_bitmap_step(
                step_id, artifact.indices if self.variables else {"payload": artifact}
            )
        elif self.mode == "sampling":
            # Positions are regenerated for the *original* payload size
            # recorded at reduce time; deriving it back from the sample
            # length and fraction rounds the wrong way for many (size,
            # fraction) pairs and yields out-of-range positions.
            positions = self.sampler.positions(n_elements)
            self.writer.write_sample_step(step_id, positions, {"payload": artifact})
        else:
            self.writer.write_raw_step(
                TimeStepData(step_id, {"payload": np.asarray(artifact)})
            )
