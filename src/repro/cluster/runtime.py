"""Cluster runtime: per-rank in-situ pipelines over a slab decomposition.

Each rank advances its own simulation twin, slices out its axis-0 slab of
every time-step (C-order flattening makes slabs contiguous in the flat
payload), builds per-step bitmap indices with one of the single-node build
engines of :mod:`repro.insitu.parallel` -- inline, or either §2.3 process
engine -- and joins the distributed selection merge
of :mod:`repro.cluster.merge`.  Selected steps land under
``rank_*/step_*/`` with a global ``cluster.json`` manifest;
:func:`assemble_global_index` splices the per-rank stores back into an
index word-identical to a single-node build, which is how the equivalence
suite (and ``repro cluster --verify``) checks the whole stack.

Collectives used per run: one ``allreduce`` per step in adaptive-binning
mode (global min/max), two per selection interval (packed counts + the
pick broadcast), one optional packed allreduce for info-volume
partitioning, and one final ``gather`` of rank reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bitmap.binning import Binning, PrecisionBinning
from repro.bitmap.builder import splice_bitvectors
from repro.bitmap.index import BitmapIndex
from repro.bitmap.serialization import load_index
from repro.cluster.checkpoint import CheckpointStore, StepCheckpoint
from repro.cluster.merge import distributed_select
from repro.cluster.transport import (
    ON_FAULT_POLICIES,
    ClusterFailed,
    FaultPlan,
    LocalClusterTransport,
    MPITransport,
    RecoveryEvent,
    RecoveryPolicy,
    Transport,
)
from repro.insitu.parallel import (
    InlineEngine,
    SeparateCoresEngine,
    SharedCoresEngine,
)
from repro.insitu.writer import OutputWriter
from repro.selection.greedy import Partitioning, SelectionResult
from repro.selection.metrics import get_metric
from repro.sims.base import Simulation

#: Name of the global manifest rank 0 writes at the store root.
MANIFEST_NAME = "cluster.json"
MANIFEST_FORMAT = 1


# ------------------------------------------------------------ decomposition
@dataclass(frozen=True)
class SlabDecomposition:
    """Axis-0 slabs of a grid, one per rank.

    Uses the same ``linspace`` bounds as
    :class:`~repro.sims.heat3d_mpi.DecomposedHeat3D`, so a cluster run
    over that workload sees exactly the slab its simulated rank owns.
    Because fields are C-ordered, rank ``r``'s slab is the contiguous
    flat range ``[row_lo * stride, row_hi * stride)``.
    """

    shape: tuple[int, ...]
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if not self.shape or self.shape[0] < self.n_ranks:
            raise ValueError(
                f"axis 0 of {self.shape} cannot host {self.n_ranks} non-empty slabs"
            )

    @property
    def _bounds(self) -> np.ndarray:
        return np.linspace(0, self.shape[0], self.n_ranks + 1).astype(int)

    @property
    def stride(self) -> int:
        """Flat elements per axis-0 row."""
        return int(np.prod(self.shape[1:], dtype=np.int64)) if len(self.shape) > 1 else 1

    def row_bounds(self, rank: int) -> tuple[int, int]:
        b = self._bounds
        return int(b[rank]), int(b[rank + 1])

    def flat_bounds(self, rank: int) -> tuple[int, int]:
        lo, hi = self.row_bounds(rank)
        return lo * self.stride, hi * self.stride


# -------------------------------------------------------------------- spec
@dataclass(frozen=True)
class ClusterSpec:
    """One cluster run, fully picklable (it ships to every rank).

    ``sim_factory`` must build a deterministic simulation: every rank
    constructs its own twin and extracts its slab, so any nondeterminism
    would silently break the ranks' agreement on the data.  ``binning=None``
    selects per-step adaptive precision binning with a global min/max
    allreduce, matching the serial pipeline's adaptive mode exactly.
    """

    sim_factory: Callable[[], Simulation]
    n_steps: int
    select_k: int
    metric: str = "conditional_entropy"
    binning: Binning | None = None
    adaptive_digits: int = 1
    partitioning: Partitioning = "fixed"
    out: str | None = None
    engine: str = "serial"  # serial | shared | separate
    workers_per_rank: int = 1
    chunk_elements: int = 1 << 20
    on_fault: str = "fail"  # fail | respawn | shrink
    max_recoveries: int = 4
    recovery_timeout: float = 60.0
    checkpoint: bool | None = None  # None = on iff recovering with a store

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 1 <= self.select_k <= self.n_steps:
            raise ValueError(
                f"select_k must be in [1, {self.n_steps}], got {self.select_k}"
            )
        if self.engine not in ("serial", "shared", "separate"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.workers_per_rank < 1:
            raise ValueError(
                f"workers_per_rank must be >= 1, got {self.workers_per_rank}"
            )
        if self.on_fault not in ON_FAULT_POLICIES:
            raise ValueError(
                f"unknown on_fault policy {self.on_fault!r}; "
                f"expected one of {ON_FAULT_POLICIES}"
            )
        if self.checkpoint and self.out is None:
            raise ValueError("checkpointing requires an output store (out=...)")

    @property
    def checkpoint_enabled(self) -> bool:
        """Checkpoint at step boundaries?  Defaults to on exactly when a
        recovery policy is active and there is a store to persist into;
        without a checkpoint a replacement rank still recovers exactly,
        it just rebuilds every step from the simulation."""
        if self.checkpoint is not None:
            return bool(self.checkpoint)
        return self.on_fault != "fail" and self.out is not None

    @property
    def recovery_policy(self) -> RecoveryPolicy:
        return RecoveryPolicy(
            on_fault=self.on_fault,
            max_recoveries=self.max_recoveries,
            recovery_timeout=self.recovery_timeout,
        )


@dataclass
class RankReport:
    """What one rank did: its slab, its selection view, its store files."""

    rank: int
    row_bounds: tuple[int, int]
    flat_bounds: tuple[int, int]
    selection: SelectionResult
    step_ids: list[int]
    files: list[str] = field(default_factory=list)
    nbytes: int = 0


@dataclass
class ClusterResult:
    """Parent-side outcome of :func:`run_cluster`."""

    selection: SelectionResult
    n_ranks: int
    reports: list[RankReport]
    out: Path | None = None
    #: Replacement attempts the coordinator made (empty on fault-free or
    #: ``fail``-policy runs); also persisted into ``cluster.json``.
    recovery: list[RecoveryEvent] = field(default_factory=list)

    @property
    def selected_steps(self) -> list[int]:
        """Simulation step ids of the selected time-steps."""
        report = self.reports[0]
        return [report.step_ids[pos] for pos in report.selection.selected]

    @property
    def manifest_path(self) -> Path | None:
        return self.out / MANIFEST_NAME if self.out is not None else None


# --------------------------------------------------------------- rank body
def _step_binning(
    transport: Transport, spec: ClusterSpec, vmin: float, vmax: float
) -> Binning:
    """The step's binning: fixed, or globally-reduced adaptive precision.

    The adaptive case allreduces ``[min, -max]`` under ``op='min'`` --
    the global minimum of rank minima and maximum of rank maxima are the
    exact floats ``PrecisionBinning.from_data`` would read off the
    undecomposed array, so every rank (and the serial reference) agrees
    on the step's binning bit-for-bit.  ``vmin``/``vmax`` are this rank's
    slab extremes -- computed from the slab, or replayed from a
    checkpoint for an already-built step (the allreduce must be issued
    either way: the collective schedule is lockstep).
    """
    if spec.binning is not None:
        return spec.binning
    extremes = transport.allreduce(
        np.array([vmin, -vmax], dtype=np.float64), op="min"
    )
    return PrecisionBinning(
        float(extremes[0]), float(-extremes[1]), digits=spec.adaptive_digits
    )


def run_rank(transport: Transport, spec: ClusterSpec) -> RankReport:
    """SPMD body executed by every rank (the per-rank `InSituPipeline`).

    When ``transport.resume`` is set (this body is a recovery
    replacement), the checkpointed prefix of steps is reloaded from the
    rank's store, the simulation is fast-forwarded past it with
    :meth:`~repro.sims.base.Simulation.skip`, and only the missing steps
    are rebuilt -- but every collective of the schedule is still issued,
    so the coordinator can replay completed ones from its log.
    """
    sim = spec.sim_factory()
    if len(sim.variable_names) != 1:
        raise ValueError(
            "the cluster runtime decomposes one spatial field; got variables "
            f"{sim.variable_names}"
        )
    variable = sim.variable_names[0]
    decomp = SlabDecomposition(tuple(sim.shape), transport.size)
    lo, hi = decomp.flat_bounds(transport.rank)

    ckpt: CheckpointStore | None = None
    recovered: dict[int, tuple[StepCheckpoint, BitmapIndex]] = {}
    if spec.checkpoint_enabled:
        ckpt = CheckpointStore(Path(spec.out), transport.rank)
        if getattr(transport, "resume", False):
            recovered = ckpt.resume(transport.size, (lo, hi))
            # Only a contiguous prefix is usable: the simulation can be
            # fast-forwarded exactly once, before the first rebuilt step.
            sim.skip(len(recovered))
        else:
            ckpt.begin(transport.size, (lo, hi))

    if spec.engine == "separate":
        engine = SeparateCoresEngine(
            spec.binning,
            n_workers=spec.workers_per_rank,
            slot_nbytes=max((hi - lo) * 8, 1),
            adaptive_digits=spec.adaptive_digits,
            chunk_elements=spec.chunk_elements,
        )
    elif spec.engine == "shared":
        engine = SharedCoresEngine(
            spec.workers_per_rank, spec.binning, chunk_elements=spec.chunk_elements
        )
    else:
        engine = InlineEngine(chunk_elements=spec.chunk_elements)

    step_ids: list[int] = []
    extremes: list[tuple[float, float]] = []
    indices: list[BitmapIndex | None] = [None] * spec.n_steps

    def keep(pos: int, index: BitmapIndex) -> None:
        # A step's boundary for checkpointing is when the engine hands
        # its index back: at once for inline/shared, at finish() for
        # separate cores.
        indices[pos] = index
        if ckpt is not None:
            ckpt.record_step(step_ids[pos], index, *extremes[pos])

    try:
        for pos in range(spec.n_steps):
            if pos in recovered:
                sc, index = recovered[pos]
                step_ids.append(sc.step_id)
                extremes.append((sc.vmin, sc.vmax))
                indices[pos] = index
                _step_binning(transport, spec, sc.vmin, sc.vmax)
                continue
            step = sim.advance()
            # The rank's slab of the canonical float64 flat payload.
            slab = np.asarray(step.fields[variable], dtype=np.float64).ravel()[lo:hi]
            step_ids.append(step.step)
            extremes.append((float(slab.min()), float(slab.max())))
            binning = _step_binning(transport, spec, *extremes[pos])
            index = engine.submit(pos, slab, binning=binning)
            if index is not None:
                keep(pos, index)
        for pos, index in sorted(engine.finish().items()):
            keep(pos, index)
    finally:
        engine.close()

    selection = distributed_select(
        transport,
        indices,
        spec.select_k,
        spec.metric,
        partitioning=spec.partitioning,
        aligned=spec.binning is None,
        on_pick=ckpt.record_selection if ckpt is not None else None,
    )

    files: list[str] = []
    nbytes = 0
    if spec.out is not None:
        rank_dir = f"rank_{transport.rank:04d}"
        if ckpt is not None:
            # Every step is already persisted at its boundary; converge
            # the store to the selected-steps-only layout a fault-free
            # non-checkpointed run writes (save_index is deterministic,
            # so the surviving files are byte-identical).
            keep = [step_ids[pos] for pos in selection.selected]
            ckpt.prune(keep)
            for step_id in keep:
                rel = f"{rank_dir}/{ckpt.step_file(step_id)}"
                files.append(rel)
                nbytes += (Path(spec.out) / rel).stat().st_size
        else:
            writer = OutputWriter(Path(spec.out) / rank_dir)
            for pos in selection.selected:
                writer.write_bitmap_step(step_ids[pos], {"payload": indices[pos]})
                files.append(f"{rank_dir}/step_{step_ids[pos]:05d}/payload.rbmp")
            nbytes = writer.stats.bytes_written

    report = RankReport(
        rank=transport.rank,
        row_bounds=decomp.row_bounds(transport.rank),
        flat_bounds=(lo, hi),
        selection=selection,
        step_ids=step_ids,
        files=files,
        nbytes=nbytes,
    )
    summaries = transport.gather(
        {
            "rank": report.rank,
            "row_bounds": list(report.row_bounds),
            "flat_bounds": list(report.flat_bounds),
            "files": report.files,
            "nbytes": report.nbytes,
        }
    )
    if transport.rank == 0 and spec.out is not None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "n_ranks": transport.size,
            "shape": list(sim.shape),
            "variable": variable,
            "metric": selection.metric_name,
            "n_steps": spec.n_steps,
            "step_ids": step_ids,
            "selected_steps": [step_ids[pos] for pos in selection.selected],
            "scores": selection.scores,
            "ranks": summaries,
        }
        path = Path(spec.out) / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=2) + "\n")
    return report


# ------------------------------------------------------------------ driver
def run_cluster(
    spec: ClusterSpec,
    n_ranks: int,
    *,
    transport: str = "local",
    collective_timeout: float = 120.0,
    fault: FaultPlan | tuple | list | None = None,
    start_method: str | None = None,
) -> ClusterResult:
    """Run the cluster pipeline; returns the (rank-agreed) selection.

    ``transport='local'`` spawns ``n_ranks`` real processes under a
    parent coordinator -- always available.  ``transport='mpi'`` assumes
    this process *is* one rank of an ``mpiexec`` launch and requires
    ``mpi4py``; ``n_ranks`` must then match the communicator size.
    ``spec.on_fault`` selects the recovery policy (local transport only):
    ``fail`` poisons the cluster on any rank fault, ``respawn``/``shrink``
    replace the failed rank and replay it from the checkpoint, producing
    the exact fault-free result.
    """
    recovery_events: list[RecoveryEvent] = []
    if transport == "local":
        cluster = LocalClusterTransport(
            n_ranks,
            collective_timeout=collective_timeout,
            start_method=start_method,
        )
        reports = cluster.run(
            run_rank, spec, fault=fault, recovery=spec.recovery_policy
        )
        recovery_events = list(cluster.recovery_events)
    elif transport == "mpi":
        if spec.on_fault != "fail":
            raise ClusterFailed(
                f"on_fault={spec.on_fault!r} recovery requires the local "
                "transport; the MPI adapter cannot replace ranks"
            )
        mpi = MPITransport()
        if mpi.size != n_ranks:
            raise ClusterFailed(
                f"MPI world size {mpi.size} != requested n_ranks {n_ranks}"
            )
        reports = [run_rank(mpi, spec)]
    else:
        raise ValueError(f"unknown transport {transport!r}; use 'local' or 'mpi'")
    if spec.out is not None and spec.on_fault != "fail":
        _amend_manifest_recovery(Path(spec.out), spec, recovery_events)
    return ClusterResult(
        selection=reports[0].selection,
        n_ranks=n_ranks,
        reports=reports,
        out=Path(spec.out) if spec.out is not None else None,
        recovery=recovery_events,
    )


def _amend_manifest_recovery(
    root: Path, spec: ClusterSpec, events: list[RecoveryEvent]
) -> None:
    """Record recovery counters/timings in ``cluster.json``.

    Only the coordinator knows the replacement history, and only after
    the ranks are done -- so the section is appended parent-side after
    rank 0 wrote the manifest.  ``fail``-policy manifests are never
    touched (byte-stable with pre-recovery runs).
    """
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["recovery"] = {
        "on_fault": spec.on_fault,
        "max_recoveries": spec.max_recoveries,
        "checkpoint": spec.checkpoint_enabled,
        "n_recoveries": len(events),
        "total_recovery_s": round(sum(e.elapsed_s for e in events), 6),
        "events": [e.to_json() for e in events],
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")


# ------------------------------------------------------------ reassembly
def read_manifest(root: Path | str) -> dict[str, Any]:
    """Load and sanity-check the ``cluster.json`` manifest."""
    path = Path(root) / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"unsupported cluster manifest format {manifest.get('format')!r}"
        )
    return manifest


def assemble_global_index(root: Path | str, step_id: int) -> BitmapIndex:
    """Splice one selected step's per-rank stores into the global index.

    Loads every rank's ``rank_*/step_*/payload.rbmp``, verifies they
    agree on the binning, and splices each bin's bitvectors in rank order
    at the (generally ragged) slab boundaries.  The result is
    word-identical to indexing the undecomposed payload on one node --
    the property the differential suite asserts byte-for-byte.
    """
    root = Path(root)
    manifest = read_manifest(root)
    parts: list[BitmapIndex] = []
    for rank in range(int(manifest["n_ranks"])):
        path = root / f"rank_{rank:04d}" / f"step_{step_id:05d}" / "payload.rbmp"
        parts.append(load_index(path))
    n_bins = parts[0].n_bins
    if any(p.n_bins != n_bins for p in parts):
        raise ValueError("per-rank stores disagree on the binning")
    vectors = [
        splice_bitvectors([p.bitvectors[b] for p in parts]) for b in range(n_bins)
    ]
    n_elements = sum(p.n_elements for p in parts)
    return BitmapIndex(parts[0].binning, vectors, n_elements)
