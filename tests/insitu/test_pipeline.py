"""Integration tests: the full in-situ pipeline on real simulations."""

import numpy as np
import pytest

from repro.bitmap import PrecisionBinning
from repro.insitu.pipeline import InSituPipeline
from repro.insitu.sampling import Sampler
from repro.insitu.writer import OutputWriter
from repro.selection import CONDITIONAL_ENTROPY, EMD_COUNT, EMD_SPATIAL
from repro.sims.heat3d import Heat3D
from repro.sims.lulesh import LuleshProxy


def _heat_binning() -> PrecisionBinning:
    # Heat3D temperatures live in [boundary, source] = [20, 100]; §5.1 uses
    # 1 decimal digit.  Coarser digits=0 keeps tests fast.
    return PrecisionBinning(19.0, 101.0, digits=0)


class TestBitmapPipeline:
    def test_end_to_end(self, tmp_path):
        sim = Heat3D((8, 8, 8), seed=1)
        writer = OutputWriter(tmp_path / "out")
        pipe = InSituPipeline(
            sim, _heat_binning(), CONDITIONAL_ENTROPY, mode="bitmap", writer=writer
        )
        result = pipe.run(n_steps=20, select_k=5)
        assert result.selection.k == 5
        assert result.bytes_written > 0
        assert writer.stats.files == 5
        assert set(result.timings.phases) >= {
            "simulate", "reduce_bitmap", "select", "output",
        }
        # Selected bitmaps are readable back.
        from repro.bitmap import load_index

        for d in sorted((tmp_path / "out").iterdir()):
            idx = load_index(d / "payload.rbmp")
            assert idx.n_elements == 8 * 8 * 8

    def test_matches_fulldata_selection(self, tmp_path):
        """The pipeline-level exactness check: both modes select the same
        steps given one binning scale."""
        results = {}
        for mode in ("bitmap", "fulldata"):
            sim = Heat3D((8, 8, 8), seed=4)
            pipe = InSituPipeline(
                sim, _heat_binning(), CONDITIONAL_ENTROPY, mode=mode
            )
            results[mode] = pipe.run(n_steps=24, select_k=6)
        assert (
            results["bitmap"].selection.selected
            == results["fulldata"].selection.selected
        )

    def test_bitmap_writes_less_than_fulldata(self, tmp_path):
        sizes = {}
        for mode in ("bitmap", "fulldata"):
            sim = Heat3D((8, 16, 64), seed=2)
            writer = OutputWriter(tmp_path / mode)
            pipe = InSituPipeline(
                sim, _heat_binning(), CONDITIONAL_ENTROPY, mode=mode, writer=writer
            )
            sizes[mode] = pipe.run(n_steps=10, select_k=3).bytes_written
        assert sizes["bitmap"] < 0.6 * sizes["fulldata"]

    def test_memory_accounting_present(self):
        sim = Heat3D((8, 8, 8))
        pipe = InSituPipeline(sim, _heat_binning(), CONDITIONAL_ENTROPY)
        result = pipe.run(n_steps=8, select_k=2)
        assert result.memory.peak_bytes > 0
        assert "retained_window" in result.memory.peak_snapshot

    def test_online_build_method(self):
        sim = Heat3D((8, 8, 8), seed=6)
        pipe = InSituPipeline(
            sim, _heat_binning(), CONDITIONAL_ENTROPY, build_method="online"
        )
        result = pipe.run(n_steps=6, select_k=2)
        assert result.selection.k == 2

    @pytest.mark.timeout(120)
    def test_auto_allocation_probe_consumes_every_step(self):
        """allocation='auto' with calibration_steps >= n_steps: the serial
        calibration probe builds every index and the separate-cores engine
        is never started, yet the run must equal the serial pipeline."""
        sim = Heat3D((8, 8, 8), seed=11)
        base = InSituPipeline(sim, _heat_binning(), CONDITIONAL_ENTROPY).run(4, 2)
        sim = Heat3D((8, 8, 8), seed=11)
        pipe = InSituPipeline(sim, _heat_binning(), CONDITIONAL_ENTROPY)
        result = pipe.run_parallel(
            4, 2, allocation="auto", n_workers=2, calibration_steps=8
        )
        assert result.selection.selected == base.selection.selected
        assert result.artifact_bytes == base.artifact_bytes
        # No steps were left for the engine, so no queue ever existed.
        assert result.queue_stats is None


class TestRowOrderingPerRun:
    def test_reused_pipeline_orders_each_run_afresh(self):
        """Regression: a reused pipeline encoded its second run under the
        first run's permutation.  The second run must equal a fresh
        pipeline started where the first run stopped."""
        binning = _heat_binning()
        pipe = InSituPipeline(
            Heat3D((8, 8, 8), seed=3), binning, EMD_COUNT, ordering="lex"
        )
        pipe.run(4, 2)
        second = pipe.run(4, 2)
        sim = Heat3D((8, 8, 8), seed=3)
        sim.skip(4)
        fresh = InSituPipeline(sim, binning, EMD_COUNT, ordering="lex").run(4, 2)
        assert second.artifact_bytes == fresh.artifact_bytes
        assert second.selection.selected == fresh.selection.selected


class TestSamplingPipeline:
    def test_end_to_end(self, tmp_path):
        sim = Heat3D((8, 8, 8), seed=3)
        pipe = InSituPipeline(
            sim,
            _heat_binning(),
            CONDITIONAL_ENTROPY,
            mode="sampling",
            sampler=Sampler(0.3),
            writer=OutputWriter(tmp_path / "samples"),
        )
        result = pipe.run(n_steps=12, select_k=3)
        assert result.selection.k == 3
        assert result.bytes_written > 0
        assert "reduce_sample" in result.timings.phases

    def test_sampler_required(self):
        sim = Heat3D((8, 8, 8))
        with pytest.raises(ValueError, match="needs a Sampler"):
            InSituPipeline(sim, _heat_binning(), CONDITIONAL_ENTROPY, mode="sampling")

    def test_written_positions_roundtrip(self, tmp_path):
        """Regression: written positions must be the exact ones the sample
        was drawn with.  Reconstructing the payload size from the sample
        length and fraction (round(154 / 0.3) = 513 != 512) used to emit
        positions for a phantom extra element, including an out-of-range
        index."""
        sim = Heat3D((8, 8, 8), seed=3)  # 512 elements per step
        sampler = Sampler(0.3)
        pipe = InSituPipeline(
            sim,
            _heat_binning(),
            CONDITIONAL_ENTROPY,
            mode="sampling",
            sampler=sampler,
            writer=OutputWriter(tmp_path / "samples"),
        )
        pipe.run(n_steps=6, select_k=2)
        expected = sampler.positions(512)
        step_dirs = sorted((tmp_path / "samples").iterdir())
        assert step_dirs
        for d in step_dirs:
            positions = np.load(d / "positions.npy")
            sample = np.load(d / "payload.sample.npy")
            assert positions.size == sample.size
            assert positions.max() < 512
            assert np.array_equal(positions, expected)

    def test_sampling_can_misselect(self):
        """Sampling may pick different steps than the exact methods --
        the information loss of §5.5.  (Not guaranteed per-seed; we assert
        the artifact sizes differ, and selection runs at a tiny fraction.)"""
        sim = Heat3D((8, 8, 8), seed=3)
        pipe = InSituPipeline(
            sim,
            _heat_binning(),
            CONDITIONAL_ENTROPY,
            mode="sampling",
            sampler=Sampler(0.01, mode="random"),
        )
        result = pipe.run(n_steps=10, select_k=3)
        assert all(b < 8 * 8 * 8 * 8 for b in result.artifact_bytes)


class TestLuleshPipeline:
    def test_twelve_array_payload(self):
        sim = LuleshProxy((6, 6, 6))
        probe = LuleshProxy((6, 6, 6))
        steps = [s.concatenated() for s in probe.run(8)]
        from repro.bitmap import common_binning

        binning = common_binning(steps, bins=64)
        pipe = InSituPipeline(sim, binning, EMD_SPATIAL, mode="bitmap")
        result = pipe.run(n_steps=8, select_k=3)
        assert result.selection.k == 3
        # payload = 12 arrays x 6^3 nodes
        assert result.memory.peak_snapshot.get("current_step_raw", 0) in (
            0, 12 * 216 * 8,
        )

    def test_summary_string(self):
        sim = Heat3D((8, 8, 8))
        pipe = InSituPipeline(sim, _heat_binning(), CONDITIONAL_ENTROPY)
        result = pipe.run(4, 2)
        s = result.summary()
        assert "bitmap" in s and "selected" in s


class TestAdaptivePipeline:
    def test_adaptive_binning_end_to_end(self, tmp_path):
        """binning=None: per-step tick-aligned indices, aligned metrics."""
        sim = Heat3D((8, 8, 8), seed=13)
        pipe = InSituPipeline(
            sim, None, CONDITIONAL_ENTROPY,
            writer=OutputWriter(tmp_path / "adaptive"),
        )
        result = pipe.run(16, 4)
        assert result.selection.k == 4
        assert result.selection.metric_name == "conditional_entropy@adaptive"
        assert result.bytes_written > 0

    def test_adaptive_bins_vary_per_step(self):
        sim = Heat3D((8, 8, 8), seed=13)
        pipe = InSituPipeline(sim, None, CONDITIONAL_ENTROPY)
        result = pipe.run(12, 3)
        # Early near-constant steps need fewer bins than late ones, so
        # artifact sizes grow as the temperature range develops.
        assert result.artifact_bytes[-1] > result.artifact_bytes[0]
        assert max(result.artifact_bytes) > 1.05 * min(result.artifact_bytes)

    def test_adaptive_requires_bitmap_mode(self):
        sim = Heat3D((8, 8, 8))
        with pytest.raises(ValueError, match="adaptive binning"):
            InSituPipeline(sim, None, CONDITIONAL_ENTROPY, mode="fulldata")

    def test_adaptive_streaming(self):
        sim = Heat3D((8, 8, 8), seed=13)
        pipe = InSituPipeline(sim, None, CONDITIONAL_ENTROPY)
        result = pipe.run_streaming(12, 3)
        assert result.selection.k == 3

    def test_streaming_retained_window_tracks_actual_artifacts(self):
        """Regression: the retained window must account the *resident*
        artifacts' own sizes, not resident_count x current step's size.
        Adaptive binning makes bitmap sizes vary per step, so the two
        formulas disagree."""
        from repro.selection.streaming import StreamingSelector

        n_steps, k = 12, 3
        pipe = InSituPipeline(Heat3D((8, 8, 8), seed=13), None, CONDITIONAL_ENTROPY)
        result = pipe.run_streaming(n_steps, k)

        # Oracle: replay the identical run, tracking true resident bytes.
        probe = InSituPipeline(Heat3D((8, 8, 8), seed=13), None, CONDITIONAL_ENTROPY)
        sel = StreamingSelector(
            n_steps, k, lambda p, c: probe.metric.bitmap(p[1], c[1])
        )
        expected_peak = 0
        for _ in range(n_steps):
            step = probe.simulation.advance()
            index = probe._build_index(probe.payload_fn(step))
            sel.push((step.step, index))
            expected_peak = max(
                expected_peak, sum(a[1].nbytes for a in sel.resident())
            )
        # Substrate and current-step-raw sizes are constant, so the total
        # peaks exactly where the retained window does.
        assert result.memory.peak_snapshot["retained_window"] == expected_peak
