"""Build engines: the reduce stage of the in-situ step loop (§2.3).

Every engine speaks one protocol, :class:`BuildEngine`:
``submit(step_id, payload, binning=None)`` hands over one step's payload
and returns its artifact at once (*synchronous* engines) or ``None``
(*asynchronous* engines, which return every index from ``finish()``);
``close()`` releases workers; ``stats`` and ``resident_bytes`` report
queue accounting.  :class:`~repro.insitu.pipeline.InSituPipeline` runs
one step loop over whichever engine a run is configured with:

* :class:`InlineEngine` -- synchronous, in-process; reduces a payload in
  any of the three modes (bitmap index, sample, raw payload).

* :class:`SharedCoresEngine` -- synchronous; all cores alternate phases.
  Each time-step's payload is written once into a shared-memory slab,
  spatially partitioned into 31-bit-aligned sub-blocks
  (:func:`group_aligned_partitions`, the same contiguous-tiling
  convention as :mod:`repro.selection.partitioning`), built per worker
  process with :func:`~repro.bitmap.builder.build_bitvectors` on a
  zero-copy slice view, shipped back as raw WAH word buffers (``bytes``,
  not pickled objects), and stitched with
  :func:`~repro.bitmap.builder.concatenate_bitvectors` -- word-identical
  to a serial build, including partition boundaries that are not
  multiples of 31 (only the *last* block may be ragged).

* :class:`SeparateCoresEngine` -- asynchronous; a persistent encoder
  process pool drains a bounded ring of shared-memory payload *slots*
  while the simulation advances in the parent.  The ring is §2.3's data
  queue: ``submit`` blocks while every slot is in flight, and a worker
  failure poisons the ring so the producer raises
  :class:`~repro.insitu.queue.QueueFailed` instead of deadlocking.  The
  worker count comes from the paper's Equations 1-2 split
  (:func:`~repro.insitu.allocation.equation_1_2_allocation`).

The process engines keep their pools and slabs alive across steps --
process start-up and slab allocation are paid once per run, not per
time-step.  Results always travel as ``(n_bits, [bytes])`` buffers;
exceptions travel pickled (with a ``repr`` fallback for unpicklable ones).
"""

from __future__ import annotations

import pickle
import queue as _queue_mod
import threading
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING, Iterable, Protocol

import numpy as np

from repro.bitmap.binning import Binning, PrecisionBinning
from repro.bitmap.builder import (
    bitvectors_to_buffers,
    build_bitvectors,
    stitch_buffer_parts,
)
from repro.bitmap.index import BitmapIndex
from repro.bitmap.wah import WAHBitVector
from repro.insitu.queue import QueueClosed, QueueFailed, QueueStats
from repro.selection.partitioning import validate_partitions
from repro.util.bits import GROUP_BITS

if TYPE_CHECKING:
    from repro.insitu.sampling import Sampler

#: Seconds between liveness checks while blocked on a cross-process queue.
_POLL_SECONDS = 0.05
#: Seconds to wait for worker shutdown before terminating the pool.
_JOIN_SECONDS = 10.0


# ------------------------------------------------------------------ protocol
class BuildEngine(Protocol):
    """What the in-situ step loop drives.

    ``submit`` returns the step's artifact when the engine is synchronous
    and ``None`` when it is not; ``finish`` returns every artifact not yet
    handed back, keyed by ``step_id``.  ``binning`` is the step's binning;
    engines constructed with one fall back to it when it is ``None``.
    ``stats`` is ``None`` for engines without a queue.
    """

    stats: QueueStats | None
    resident_bytes: int

    def submit(
        self, step_id: int, payload: np.ndarray, *, binning: Binning | None = None
    ) -> object | None: ...

    def finish(self) -> dict[int, BitmapIndex]: ...

    def close(self) -> None: ...


class InlineEngine:
    """Synchronous in-process reduction, in any of the three modes.

    ``mode='bitmap'`` builds a :class:`~repro.bitmap.index.BitmapIndex`
    (``build_method`` picks the vectorised or the online Algorithm 1
    builder; both are word-identical), ``'sampling'`` down-samples with
    ``sampler``, and ``'fulldata'`` keeps the payload as it is.
    """

    stats = None
    resident_bytes = 0

    def __init__(
        self,
        *,
        mode: str = "bitmap",
        sampler: "Sampler | None" = None,
        build_method: str = "vectorized",
        chunk_elements: int = 1 << 20,
    ) -> None:
        self.mode = mode
        self.sampler = sampler
        self.build_method = build_method
        self.chunk_elements = chunk_elements

    def submit(
        self, step_id: int, payload: np.ndarray, *, binning: Binning | None = None
    ) -> object:
        if self.mode == "sampling":
            return self.sampler.sample(payload)
        if self.mode == "fulldata":
            return payload
        return BitmapIndex.build(
            payload,
            binning,
            method=self.build_method,  # type: ignore[arg-type]
            chunk_elements=self.chunk_elements,
        )

    def finish(self) -> dict[int, BitmapIndex]:
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------- partitioning
def group_aligned_partitions(n_elements: int, n_parts: int) -> list[range]:
    """Contiguous sub-blocks of ``range(n_elements)``, 31-bit aligned.

    Every block except the last covers a multiple of :data:`GROUP_BITS`
    elements (the precondition of
    :func:`~repro.bitmap.builder.concatenate_bitvectors`); only the final
    block may be ragged.  ``n_parts`` is clamped so no block is empty.
    The result tiles the index space exactly
    (:func:`~repro.selection.partitioning.validate_partitions`).
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_elements <= 0:
        return [range(0, 0)]
    parts = max(1, min(n_parts, n_elements // GROUP_BITS))
    per = -(-n_elements // parts)
    per += (-per) % GROUP_BITS  # round up to a multiple of 31
    bounds = list(range(0, n_elements, per))
    intervals = [
        range(lo, min(lo + per, n_elements)) for lo in bounds
    ]
    validate_partitions(intervals, n_elements)
    return intervals


# ----------------------------------------------------------- message plumbing
def _dump_exc(exc: BaseException) -> bytes:
    """Pickle an exception; degrade to a ``RuntimeError`` description."""
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(RuntimeError(f"worker failed: {exc!r}"))


def _load_exc(blob: bytes) -> BaseException:
    try:
        return pickle.loads(blob)
    except Exception as exc:  # pragma: no cover - defensive
        return RuntimeError(f"worker failed (undecodable exception: {exc!r})")


@dataclass(frozen=True)
class _BuildSpec:
    """Everything a worker needs to build one (sub-)payload, picklable."""

    binning: Binning | None
    adaptive_digits: int = 1
    chunk_elements: int = 1 << 20

    def resolve_binning(self, data: np.ndarray) -> Binning:
        if self.binning is not None:
            return self.binning
        return PrecisionBinning.from_data(data, digits=self.adaptive_digits)


class _AttachmentCache:
    """Per-process cache of shared-memory attachments, keyed by name."""

    def __init__(self) -> None:
        self._segments: dict[str, SharedMemory] = {}

    def view(self, name: str, dtype: str, start: int, stop: int) -> np.ndarray:
        shm = self._segments.get(name)
        if shm is None:
            # Python <= 3.12 registers *attached* segments with the
            # resource tracker too (gh-82300); the parent owns and
            # unlinks every slab, so a worker's claim only makes the
            # tracker warn about "leaked" segments at shutdown.  Attach
            # with registration suppressed.
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            try:
                resource_tracker.register = lambda name, rtype: (
                    None if rtype == "shared_memory" else original(name, rtype)
                )
                shm = SharedMemory(name=name)
            finally:
                resource_tracker.register = original
            self._segments[name] = shm
        return np.ndarray(
            (stop - start,),
            dtype=np.dtype(dtype),
            buffer=shm.buf,
            offset=start * np.dtype(dtype).itemsize,
        )

    def close(self) -> None:
        for shm in self._segments.values():
            shm.close()
        self._segments.clear()


def _worker(spec_blob: bytes, task_q, result_q, free_q=None) -> None:
    """Worker loop of both process engines: build one (sub-)payload per
    task and reply ``(key, exception blob or None, (binning blob, word
    buffers))``.

    A Shared Cores worker reports a failed block and keeps serving.  A
    Separate Cores worker (``free_q`` given) releases its slot after every
    task and *dies* after shipping a failure: the parent's ring poisons
    itself so the producer raises instead of deadlocking.
    """
    spec: _BuildSpec = pickle.loads(spec_blob)
    attachments = _AttachmentCache()
    try:
        while (task := task_q.get()) is not None:
            key, slot_id, shm_name, dtype, lo, hi, binning_blob = task
            try:
                data = attachments.view(shm_name, dtype, lo, hi)
                binning = (
                    pickle.loads(binning_blob)
                    if binning_blob is not None
                    else spec.resolve_binning(data)
                )
                vectors = build_bitvectors(
                    data, binning, chunk_elements=spec.chunk_elements
                )
                # Buffers are copied out of shared memory by tobytes(), so
                # the slot can be recycled before the result is consumed.
                reply = (
                    key,
                    None,
                    (
                        pickle.dumps(binning) if spec.binning is None else None,
                        bitvectors_to_buffers(vectors),
                    ),
                )
            except BaseException as exc:
                reply = (key, _dump_exc(exc), None)
            if free_q is not None:
                free_q.put(slot_id)
            result_q.put(reply)
            if free_q is not None and reply[1] is not None:
                return
    finally:
        attachments.close()


def _pick_context(start_method: str | None):
    if start_method is not None:
        return get_context(start_method)
    import multiprocessing as mp

    return get_context(
        "fork" if "fork" in mp.get_all_start_methods() else None
    )


class _Slab:
    """One growable shared-memory segment owned by the parent."""

    def __init__(self) -> None:
        self._shm: SharedMemory | None = None

    @property
    def nbytes(self) -> int:
        return self._shm.size if self._shm is not None else 0

    def ensure(self, nbytes: int) -> SharedMemory:
        """Return a segment of at least ``nbytes`` (growing by recreate)."""
        nbytes = max(1, int(nbytes))
        if self._shm is None or self._shm.size < nbytes:
            if self._shm is not None:
                self._shm.close()
                self._shm.unlink()
            self._shm = SharedMemory(create=True, size=nbytes)
        return self._shm

    def write(self, flat: np.ndarray) -> str:
        """Copy a 1-D array into the slab; returns the segment name."""
        shm = self.ensure(flat.nbytes)
        view = np.ndarray(flat.shape, dtype=flat.dtype, buffer=shm.buf)
        view[:] = flat
        return shm.name

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


def _reap(processes: Iterable, label: str) -> None:
    """Check pool liveness; raise if any worker died without reporting."""
    for proc in processes:
        if proc.exitcode is not None and proc.exitcode != 0:
            raise RuntimeError(
                f"{label} worker {proc.name} died with exit code {proc.exitcode}"
            )


def _spawn(ctx, target, args: tuple, n_workers: int, label: str) -> list:
    """Start ``n_workers`` daemon processes running ``target(*args)``."""
    procs = [
        ctx.Process(target=target, args=args, name=f"{label}-{i}", daemon=True)
        for i in range(n_workers)
    ]
    for proc in procs:
        proc.start()
    return procs


def _stop(procs: list, task_q) -> None:
    """Send every worker its sentinel and join it, terminating any that
    does not exit in time."""
    for _ in procs:
        try:
            task_q.put(None)
        except (ValueError, OSError):  # pragma: no cover - queue gone
            break
    for proc in procs:
        proc.join(timeout=_JOIN_SECONDS)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=_JOIN_SECONDS)


class _PoolEngine:
    """Context-manager and garbage-collection plumbing around ``close()``."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ------------------------------------------------------------- Shared Cores
class SharedCoresEngine(_PoolEngine):
    """Spatially partitioned per-step builds on a persistent worker pool.

    One time-step at a time: the payload lands in a shared slab, each
    worker process builds its 31-aligned sub-block zero-copy, and the
    parent stitches the word buffers.  Pass ``binning=None`` to supply a
    per-step binning at
    :meth:`build_bitvectors` time (the adaptive pipeline does; the parent
    derives the binning, workers receive it pickled per task).
    """

    stats = None
    resident_bytes = 0

    def __init__(
        self,
        n_workers: int,
        binning: Binning | None = None,
        *,
        chunk_elements: int = 1 << 20,
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.binning = binning
        self._spec = _BuildSpec(binning, chunk_elements=chunk_elements)
        self._slab = _Slab()
        self._seq = 0
        self._closed = False
        ctx = _pick_context(start_method)
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._procs = _spawn(
            ctx,
            _worker,
            (pickle.dumps(self._spec), self._task_q, self._result_q),
            self.n_workers,
            "shared-cores",
        )

    # ------------------------------------------------------------- building
    def build_bitvectors(
        self, payload: np.ndarray, *, binning: Binning | None = None
    ) -> list[WAHBitVector]:
        """Build one step's bitvectors, bit-identical to a serial build."""
        if self._closed:
            raise RuntimeError("engine already closed")
        binning = binning or self.binning
        if binning is None:
            raise ValueError("no binning: pass one here or at construction")
        flat = np.ascontiguousarray(np.asarray(payload).ravel())
        if flat.size < GROUP_BITS * 2 or self.n_workers == 1:
            # Too small to split (or nothing to gain): build in-process.
            return build_bitvectors(
                flat, binning, chunk_elements=self._spec.chunk_elements
            )
        blocks = group_aligned_partitions(flat.size, self.n_workers)
        shm_name = self._slab.write(flat)
        self._seq += 1
        binning_blob = (
            pickle.dumps(binning) if self._spec.binning is None else None
        )
        for block_id, block in enumerate(blocks):
            self._task_q.put(
                (
                    (self._seq, block_id),
                    None,
                    shm_name,
                    flat.dtype.str,
                    block.start,
                    block.stop,
                    binning_blob,
                )
            )
        parts: dict[int, tuple[int, list[bytes]]] = {}
        failure: BaseException | None = None
        while len(parts) < len(blocks):
            try:
                (seq, block_id), exc_blob, result = self._result_q.get(
                    timeout=_POLL_SECONDS
                )
            except _queue_mod.Empty:
                _reap(self._procs, "shared-cores")
                continue
            if seq != self._seq:  # stale result from an abandoned step
                continue
            if exc_blob is not None:
                failure = failure or _load_exc(exc_blob)
                parts[block_id] = (0, [])  # placeholder to finish the drain
            else:
                parts[block_id] = result[1]
        if failure is not None:
            raise failure
        return stitch_buffer_parts([parts[b] for b in range(len(blocks))])

    def build_index(
        self, payload: np.ndarray, *, binning: Binning | None = None
    ) -> BitmapIndex:
        binning = binning or self.binning
        flat = np.asarray(payload).ravel()
        vectors = self.build_bitvectors(flat, binning=binning)
        return BitmapIndex(binning, vectors, flat.size)

    def submit(
        self, step_id: int, payload: np.ndarray, *, binning: Binning | None = None
    ) -> BitmapIndex:
        return self.build_index(payload, binning=binning)

    def finish(self) -> dict[int, BitmapIndex]:
        return {}

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _stop(self._procs, self._task_q)
        for q in (self._task_q, self._result_q):
            q.close()
            q.join_thread()
        self._slab.close()


# ----------------------------------------------------------- Separate Cores
class SeparateCoresEngine(_PoolEngine):
    """Bounded shared-memory ring between the simulation and encoder pool.

    The parent (simulation) calls :meth:`submit` per step: it blocks while
    all ``n_slots`` payload slots are in flight -- the paper's
    memory-capacity backpressure -- and raises
    :class:`~repro.insitu.queue.QueueFailed` (even mid-block) once a
    worker has died.  :meth:`finish` drains the pool and returns every
    step's :class:`~repro.bitmap.index.BitmapIndex`, re-raises the first
    worker exception, or raises when a worker died without reporting one
    (killed by a signal, say) and took steps with it.

    ``QueueStats`` meanings here: ``puts``/``gets`` count submitted and
    encoded steps, ``producer_blocks`` counts submits that had to wait
    for a free slot, and ``max_depth`` is the peak number of steps
    submitted but not yet collected -- it can transiently exceed
    ``n_slots`` because a worker frees its slot before the parent's
    collector drains the result.  (``consumer_blocks`` is not observable
    across the process boundary and stays 0.)
    """

    def __init__(
        self,
        binning: Binning | None,
        *,
        n_workers: int,
        slot_nbytes: int,
        n_slots: int | None = None,
        adaptive_digits: int = 1,
        chunk_elements: int = 1 << 20,
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if slot_nbytes <= 0:
            raise ValueError(f"slot_nbytes must be > 0, got {slot_nbytes}")
        self.n_workers = int(n_workers)
        self.n_slots = int(n_slots) if n_slots is not None else n_workers + 1
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        self._spec = _BuildSpec(
            binning, adaptive_digits=adaptive_digits, chunk_elements=chunk_elements
        )
        self.stats = QueueStats()
        ctx = _pick_context(start_method)
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._free_q = ctx.Queue()
        self._slots = [_Slab() for _ in range(self.n_slots)]
        for i, slab in enumerate(self._slots):
            slab.ensure(slot_nbytes)
            self._free_q.put(i)
        self._results: dict[int, tuple[bytes | None, tuple[int, list[bytes]]]] = {}
        self._lock = threading.Lock()
        self._failure: BaseException | None = None
        self._in_flight = 0
        self._closed = False
        self._finished = False
        self._procs = _spawn(
            ctx,
            _worker,
            (pickle.dumps(self._spec), self._task_q, self._result_q, self._free_q),
            self.n_workers,
            "separate-cores",
        )
        # Results are drained continuously so workers never block on a
        # full result pipe and in-flight accounting stays current.
        self._collector = threading.Thread(
            target=self._drain, name="separate-cores-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------ collector
    def _drain(self) -> None:
        while True:
            msg = self._result_q.get()
            if msg is None:
                return
            step_id, exc_blob, result = msg
            with self._lock:
                self._in_flight -= 1
                if exc_blob is None:
                    self._results[step_id] = result
                    self.stats.gets += 1
                elif self._failure is None:
                    self._failure = _load_exc(exc_blob)

    def _check_failed(self, message: str) -> None:
        with self._lock:
            if self._failure is not None:
                raise QueueFailed(
                    f"{message}: {self._failure!r}", self._failure
                ) from self._failure

    # -------------------------------------------------------------- producer
    def submit(
        self,
        step_id: int,
        payload: np.ndarray,
        *,
        binning: Binning | None = None,
    ) -> None:
        """Ship one step's payload to the encoder pool (blocking).

        Blocks while every slot is in flight; raises
        :class:`~repro.insitu.queue.QueueFailed` once the pool is
        poisoned, and :class:`~repro.insitu.queue.QueueClosed` after
        :meth:`finish`.  ``binning`` overrides the engine's binning for
        this one step -- the cluster runtime uses it to hand every rank
        the same globally-reduced adaptive binning.
        """
        if self._finished or self._closed:
            raise QueueClosed("engine already finished")
        self._check_failed("encoder pool failed before submit")
        flat = np.ascontiguousarray(np.asarray(payload).ravel())
        try:
            # A submit that has to wait *at all* counts as a producer
            # block.
            slot_id = self._free_q.get_nowait()
        except _queue_mod.Empty:
            self.stats.producer_blocks += 1
            while True:
                self._check_failed("encoder pool failed while blocked on submit")
                _reap(self._procs, "separate-cores")
                try:
                    slot_id = self._free_q.get(timeout=_POLL_SECONDS)
                    break
                except _queue_mod.Empty:
                    continue
        shm_name = self._slots[slot_id].write(flat)
        with self._lock:
            self._in_flight += 1
            self.stats.max_depth = max(self.stats.max_depth, self._in_flight)
        self._task_q.put(
            (
                int(step_id),
                slot_id,
                shm_name,
                flat.dtype.str,
                0,
                flat.size,
                pickle.dumps(binning) if binning is not None else None,
            )
        )
        self.stats.puts += 1

    @property
    def resident_bytes(self) -> int:
        """Bytes of payload currently parked in in-flight slots."""
        with self._lock:
            depth = self._in_flight
        return depth * max((s.nbytes for s in self._slots), default=0)

    # -------------------------------------------------------------- results
    def finish(self) -> dict[int, BitmapIndex]:
        """Close the ring, drain the pool, and return step -> index.

        Re-raises the first worker exception (original type and args)
        after the pool has drained.  A worker that exited non-zero
        without shipping an exception, or any step that never came back,
        raises :class:`RuntimeError`: a partial result would pair the
        surviving indices with the wrong step ids.
        """
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        _stop(self._procs, self._task_q)
        self._result_q.put(None)  # parent's sentinel lands after worker output
        self._collector.join(timeout=_JOIN_SECONDS)
        if self._failure is not None:
            raise self._failure
        dead = [
            f"{p.name} (exit code {p.exitcode})"
            for p in self._procs
            if p.exitcode != 0
        ]
        if dead or self.stats.gets != self.stats.puts:
            raise RuntimeError(
                f"encoder pool lost {self.stats.puts - self.stats.gets} of "
                f"{self.stats.puts} steps; dead workers: {dead or 'none'}"
            )
        indices: dict[int, BitmapIndex] = {}
        for step_id, (binning_blob, (n_bits, buffers)) in self._results.items():
            binning = (
                pickle.loads(binning_blob)
                if binning_blob is not None
                else self._spec.binning
            )
            vectors = stitch_buffer_parts([(n_bits, buffers)])
            indices[step_id] = BitmapIndex(binning, vectors, n_bits)
        return indices

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=_JOIN_SECONDS)
        if self._collector.is_alive():
            try:
                self._result_q.put(None)
            except (ValueError, OSError):  # pragma: no cover
                pass
            self._collector.join(timeout=_JOIN_SECONDS)
        for q in (self._task_q, self._result_q, self._free_q):
            q.close()
            q.join_thread()
        for slab in self._slots:
            slab.close()
