"""Measurement helpers shared by the workload families."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bitmap import EqualWidthBinning

HERE = Path(__file__).resolve().parent
#: Scratch space for stores and written bitmaps.  Inside the checkout
#: because the benchmark may read and write nowhere else; git-ignored.
WORK_ROOT = HERE / ".work"
RESULTS = HERE / "results"

NPROC = os.cpu_count() or 1
#: clients = shards = min(2, nproc); a 1-CPU host is recorded as degraded.
PARALLELISM = min(2, NPROC)


#: Declared value domains of the ocean fields.  The generator's eddies and
#: noise tails occasionally leave them (salinity 40.003 at one seed), and a
#: value outside its binning fails the build, so fields are clipped to them.
OCEAN_RANGES = {"temperature": (-5.0, 35.0), "salinity": (28.0, 40.0)}


def ocean_binning(variable: str, bins: int) -> EqualWidthBinning:
    return EqualWidthBinning(*OCEAN_RANGES[variable], bins)


def ocean_field(snapshot, variable: str) -> np.ndarray:
    return np.clip(snapshot.fields[variable], *OCEAN_RANGES[variable])


def tail(samples: list[float]) -> float:
    """Nearest-rank 90th percentile, or the slowest sample when fewer than
    20 were timed (an in-situ run takes ~2 s, so ~5 fit in a run).

    p90 rather than p95: two closed-loop clients on two shards give a
    bimodal latency, p95 falls on the slope between the modes and moved
    12-20 % between runs of the same code where p90 moved 3-12 %.
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1]
    return ordered[int(0.9 * len(ordered))]


def peak_rss_mib() -> float:
    """High-water resident set of this process and its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def reap_children(grace_s: float = 10.0) -> None:
    """Stop and wait for every process this run started, so that none
    outlives it.

    ``run_parallel`` creates shared memory, which starts multiprocessing's
    resource tracker: a child that lives until its pipe closes -- normally
    when this process exits, which leaves it behind for a moment (or for
    good, as a zombie, where init does not reap).  Close the pipe and wait
    for it here; then wait for, and after ``grace_s`` kill, anything else.
    """
    import multiprocessing
    import signal
    import time
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no children left
        if pid == 0:
            if time.monotonic() < deadline:
                time.sleep(0.01)
                continue
            strays = [
                int(word)
                for listing in Path(f"/proc/{os.getpid()}/task").glob("*/children")
                for word in listing.read_text().split()
            ]
            if not strays:
                break
            for stray in strays:
                try:
                    os.kill(stray, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # ended by itself meanwhile
            deadline = float("inf")  # killed: the next waits return them
    tracker._pid = None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def store_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.rbmp"))


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in store_files(root))


def store_sha256(root: Path) -> str:
    """Digest of every index file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in store_files(root):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Samples:
    """What one timed loop produced.

    ``latencies`` are seconds per *operation* (one in-situ time step, one
    served query, one load+mine); ``ops`` is how many operations completed
    in ``busy_s`` seconds of measuring.
    """

    latencies: list[float] = field(default_factory=list)
    ops: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Samples") -> None:
        self.latencies += other.latencies
        self.ops += other.ops
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Oracle:
    """Tally of correctness comparisons made outside the timed region."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def timed_loop(op, seconds: float) -> list[float]:
    """Call ``op()`` -- which returns the seconds it measured itself --
    until another call would overrun ``seconds`` of measuring."""
    measured: list[float] = []
    while True:
        measured.append(op())
        if sum(measured) + statistics.median(measured) > seconds:
            return measured
