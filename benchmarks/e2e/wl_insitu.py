"""In-situ workloads: Heat3D through ``InSituPipeline``, bitmaps written.

One operation is one simulation time step as the pipeline's caller sees
it: the wall time of a whole ``run``/``run_parallel`` call (simulate +
reduce + select + write) divided by its step count.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from repro.bitmap import BitmapIndex, PrecisionBinning, load_index
from repro.insitu import InSituPipeline, OutputWriter, SeparateCores
from repro.selection import select_timesteps_full
from repro.selection.metrics import (
    CONDITIONAL_ENTROPY,
    EMD_COUNT,
    SelectionMetric,
)
from repro.sims import Heat3D, HeatSource, Simulation, TimeStepData

import probes
from harness import (
    Oracle,
    Samples,
    fresh_dir,
    store_bytes,
    store_files,
    store_sha256,
    timed_loop,
)
from tracing import ID, PARENT, Tracer

#: Strata diffusivities come from Heat3D's own generator.  They set how
#: fast heat spreads, hence how many of the 821 bins fill and how long a
#: step takes (2.0-2.7 s per ``insitu_select`` run across seeds), so they
#: are held fixed and ``--seed`` moves the heat source instead: different
#: bitmaps, same amount of work.
STRATA_SEED = 11

CONFIGS = {
    "insitu_build": dict(
        shape=(32, 64, 64), steps=24, select=8, metric=EMD_COUNT, parallel=False
    ),
    "insitu_select": dict(
        shape=(16, 32, 64), steps=16, select=5, metric=CONDITIONAL_ENTROPY,
        parallel=False,
    ),
    "insitu_parallel": dict(
        shape=(32, 64, 64), steps=24, select=8, metric=EMD_COUNT, parallel=True
    ),
}
SMOKE = dict(shape=(8, 16, 32), steps=8, select=3)


class _TracedSimulation(Simulation):
    """Delegates to the real simulation, one span per ``advance``."""

    def __init__(self, inner: Simulation, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    @property
    def shape(self):
        return self._inner.shape

    @property
    def variable_names(self):
        return self._inner.variable_names

    @property
    def substrate_nbytes(self) -> int:
        return self._inner.substrate_nbytes

    def advance(self) -> TimeStepData:
        with self._tracer.span("sims.advance"):
            return self._inner.advance()


class _TracedWriter(OutputWriter):
    tracer: Tracer

    def write_bitmap_step(self, step_id, indices):
        with self.tracer.span("insitu.writer.write"):
            return super().write_bitmap_step(step_id, indices)


def _traced_metric(metric: SelectionMetric, tracer: Tracer, spans: list):
    def bitmap(prev, cand):
        with tracer.span("metrics.eval") as span:
            spans.append(span)
            return metric.bitmap(prev, cand)

    return SelectionMetric(metric.name, metric.full, bitmap)


class InSituWorkload:
    trace_prefix = "run-"

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        cfg = dict(CONFIGS[name])
        if smoke:
            cfg.update(SMOKE)
        self.name = name
        self.seed = seed
        self.work = work
        self.shape = cfg["shape"]
        self.steps = cfg["steps"]
        self.select = cfg["select"]
        self.metric: SelectionMetric = cfg["metric"]
        self.parallel = cfg["parallel"]
        # 821 bins; the smoke run keeps whole degrees (83 bins), because the
        # 821 x 821 joint-count probe costs the same at any mesh size
        self.binning = PrecisionBinning(19, 101, digits=0 if smoke else 1)
        self.reduce_layer = (
            "insitu.parallel.build_wait" if self.parallel
            else "bitmap.builder.build"
        )
        self.results: list = []
        self.hashes: list[str] = []
        self.last_out: Path | None = None

    # -------------------------------------------------------------- inputs
    def simulation(self) -> Heat3D:
        rng = np.random.default_rng(self.seed)
        d, h, w = self.shape
        half = max(1, min(self.shape) // 8)
        cy = int(rng.integers(h // 4, 3 * h // 4 + 1))
        cz = int(rng.integers(w // 4, 3 * w // 4 + 1))
        source = HeatSource(
            (d - 2 * half, cy - half, cz - half),
            (d - half, cy + half, cz + half),
            100.0,
        )
        return Heat3D(self.shape, seed=STRATA_SEED, sources=[source])

    def _drive(self, pipeline: InSituPipeline, steps: int, select: int):
        if self.parallel:
            return pipeline.run_parallel(
                steps, select, allocation=SeparateCores(1, 1),
                executor="processes", queue_capacity_bytes=8 << 20,
            )
        return pipeline.run(steps, select)

    # ------------------------------------------------------------- set-up
    def setup(self) -> None:
        """Inputs, output directory and a quarter-length warm-up run."""
        fresh_dir(self.work)
        pipeline = InSituPipeline(
            self.simulation(), self.binning, self.metric,
            writer=OutputWriter(self.work / "warm"),
        )
        self._drive(pipeline, max(4, self.steps // 4), 2)

    def teardown(self) -> None:
        pass

    # -------------------------------------------------------------- timed
    def _run_once(self, tracer: Tracer | None) -> float:
        i = len(self.results)
        out = self.work / f"out_{i}"
        sim, metric = self.simulation(), self.metric
        if tracer is None:
            writer = OutputWriter(out)
        else:
            evals: list = []
            sim = _TracedSimulation(sim, tracer)
            metric = _traced_metric(metric, tracer, evals)
            writer = _TracedWriter(out)
            writer.tracer = tracer
        pipeline = InSituPipeline(sim, self.binning, metric, writer=writer)
        if tracer is None:
            t0 = time.perf_counter()
            result = self._drive(pipeline, self.steps, self.select)
            wall = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            with tracer.span("bench.op", request=f"run-{i}"):
                with tracer.span("insitu.pipeline.run") as run_span:
                    result = self._drive(pipeline, self.steps, self.select)
            wall = time.perf_counter() - t0
            phases = result.timings.phases
            tracer.add(
                self.reduce_layer, phases["reduce_bitmap"], run_span, "reported"
            )
            select_span = tracer.add(
                "selection.select", phases["select"], run_span, "reported"
            )
            for span in evals:
                span[PARENT] = select_span[ID]
        self.results.append((wall, result))
        self.hashes.append(store_sha256(out))
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out
        return wall

    def run(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        walls = timed_loop(lambda: self._run_once(tracer), seconds)
        return Samples(
            latencies=[w / self.steps for w in walls],
            ops=len(walls) * self.steps,
            busy_s=sum(walls),
            attempted=len(walls),
        )

    # ----------------------------------------------------------- accounting
    def _payloads(self) -> list[np.ndarray]:
        return [s.concatenated() for s in self.simulation().run(self.steps)]

    def disk_ratio(self) -> float:
        """Written bitmap bytes per raw float64 byte of the selected steps
        (what the full-data method would have written instead)."""
        raw = self.select * int(np.prod(self.shape)) * 8
        return store_bytes(self.last_out) / raw

    def check(self) -> Oracle:
        oracle = Oracle()
        _, last = self.results[-1]
        oracle.expect(len(set(self.hashes)) == 1, "store differs between runs")
        oracle.expect(
            len({r.bytes_written for _, r in self.results}) == 1
            and last.bytes_written == store_bytes(self.last_out),
            "bytes_written differs between runs or from the files on disk",
        )
        oracle.expect(
            len({r.selection.n_evaluations for _, r in self.results}) == 1,
            "metric evaluation count differs between runs",
        )
        payloads = self._payloads()
        expected = select_timesteps_full(
            payloads, self.select, self.metric, self.binning
        )
        oracle.expect(
            last.selection.selected == expected.selected,
            f"selected {last.selection.selected}, full data selects "
            f"{expected.selected}",
        )
        files = store_files(self.last_out)
        oracle.expect(len(files) == self.select, "wrong number of files written")
        for path in files:
            step = int(path.parent.name.split("_")[1])
            index = load_index(path)
            counts = np.bincount(
                self.binning.assign(payloads[step]), minlength=self.binning.n_bins
            )
            oracle.expect(
                index.n_elements == payloads[step].size
                and np.array_equal(index.bin_counts(), counts),
                f"{path.parent.name}: stored bin counts differ from the data",
            )
        if self.parallel:
            serial = self.work / "serial"
            InSituPipeline(
                self.simulation(), self.binning, self.metric,
                writer=OutputWriter(serial),
            ).run(self.steps, self.select)
            oracle.expect(
                store_sha256(serial) == self.hashes[-1],
                "parallel store differs from the serial store",
            )
        return oracle

    # --------------------------------------------------------------- layers
    def layers(self, tracer: Tracer, samples: Samples) -> dict[str, float]:
        """Pipeline phases in ms per time step, so that they add up to the
        step time."""
        self_s = tracer.self_seconds(self.trace_prefix)
        per_step = 1e3 / samples.ops
        evals = tracer.durations("metrics.eval")
        select_s = sum(tracer.durations("selection.select"))
        _, last = self.results[-1]
        queue = last.queue_stats  # None unless run_parallel
        return {
            "sims.advance_ms": self_s.get("sims.advance", 0.0) * per_step,
            "insitu.pipeline.reduce_ms": self_s[self.reduce_layer] * per_step,
            "selection.select_ms": select_s * per_step,
            "selection.metric_evals": float(last.selection.n_evaluations),
            "metrics.eval_ms": float(np.median(evals)) * 1e3 if evals else 0.0,
            "insitu.writer.write_ms": self_s["insitu.writer.write"] * per_step,
            "insitu.writer.bytes": float(last.bytes_written),
            "insitu.pipeline.self_ms": self_s["insitu.pipeline.run"] * per_step,
            **{
                f"insitu.queue.{field}": float(getattr(queue, field, 0))
                for field in ("producer_blocks", "consumer_blocks", "max_depth")
            },
        }

    def probe(self, tracer: Tracer) -> dict[str, float]:
        """The builder on every replayed step payload, then the kernels on
        the indices it built and the storage layer on the written files."""
        indices = []
        for payload in self._payloads():
            with tracer.span("probe:bitmap.builder.build"):
                indices.append(BitmapIndex.build(payload, self.binning))
        builds = tracer.durations("probe:bitmap.builder.build")
        mid = len(indices) // 2
        warm = (40.0, 60.0)
        return {
            "bitmap.builder.build_ms": float(np.median(builds)) * 1e3,
            "bitmap.builder.mb_s":
                len(builds) * int(np.prod(self.shape)) * 8 / 1e6 / sum(builds),
            "bitmap.builder.words_out": float(
                sum(v.n_words for index in indices for v in index.bitvectors)
            ),
            **probes.kernel_probe(tracer, [
                (indices[0], indices[1], warm),
                (indices[mid], indices[mid + 1], warm),
            ]),
            **probes.storage_probe(
                tracer, self.last_out, store_files(self.last_out)
            ),
        }
