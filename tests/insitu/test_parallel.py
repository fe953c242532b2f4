"""Tests for the process-parallel generation engines (repro.insitu.parallel)."""

import sys
import threading

import numpy as np
import pytest

from repro.bitmap import EqualWidthBinning, PrecisionBinning
from repro.bitmap.adaptive import AdaptivePrecisionIndexer
from repro.bitmap.builder import build_bitvectors, build_bitvectors_parallel
from repro.insitu.allocation import SeparateCores, SharedCores
from repro.insitu.parallel import (
    SeparateCoresEngine,
    SharedCoresEngine,
    ThreadedSeparateCoresEngine,
    group_aligned_partitions,
)
from repro.insitu.pipeline import InSituPipeline
from repro.insitu.queue import QueueClosed, QueueFailed
from repro.selection import CONDITIONAL_ENTROPY
from repro.sims.heat3d import Heat3D

# Multiprocess engines under test: a stuck queue or worker must fail the
# test (pytest-timeout, or the conftest SIGALRM fallback), never hang CI.
pytestmark = pytest.mark.timeout(300)


class TestGroupAlignedPartitions:
    def test_tiles_exactly(self):
        blocks = group_aligned_partitions(1000, 4)
        assert blocks[0].start == 0
        assert blocks[-1].stop == 1000
        for prev, nxt in zip(blocks, blocks[1:]):
            assert prev.stop == nxt.start
        for block in blocks[:-1]:
            assert len(block) % 31 == 0

    def test_ragged_tail_only_in_last_block(self):
        blocks = group_aligned_partitions(31 * 10 + 7, 3)
        assert all(len(b) % 31 == 0 for b in blocks[:-1])
        assert sum(len(b) for b in blocks) == 31 * 10 + 7

    def test_clamps_to_group_count(self):
        # 100 elements hold only 3 full groups: never more than 3 blocks.
        assert len(group_aligned_partitions(100, 8)) <= 3

    def test_small_input_single_block(self):
        blocks = group_aligned_partitions(30, 4)
        assert blocks == [range(0, 30)]

    def test_empty_input(self):
        assert group_aligned_partitions(0, 4) == [range(0, 0)]

    def test_invalid_parts(self):
        with pytest.raises(ValueError, match=">= 1"):
            group_aligned_partitions(100, 0)


class TestSharedCoresEngine:
    def test_identical_to_serial_across_steps(self, rng):
        """The engine is persistent: several steps, each word-identical."""
        binning = EqualWidthBinning(0.0, 1.0, 12)
        with SharedCoresEngine(3, binning) as engine:
            for n in (12_345, 31 * 40, 5_000):  # ragged and aligned sizes
                data = rng.random(n)
                assert engine.build_bitvectors(data) == build_bitvectors(
                    data, binning
                )

    def test_per_call_binning(self, rng):
        """binning=None at construction: the adaptive pipeline's shape."""
        data = rng.normal(50.0, 4.0, 4_000)
        binning = PrecisionBinning.from_data(data, digits=1)
        with SharedCoresEngine(2) as engine:
            assert engine.build_bitvectors(data, binning=binning) == (
                build_bitvectors(data, binning)
            )

    def test_missing_binning_rejected(self, rng):
        with SharedCoresEngine(2) as engine:
            with pytest.raises(ValueError, match="binning"):
                engine.build_bitvectors(rng.random(1000))

    def test_build_index(self, rng):
        data = rng.random(2_000)
        binning = EqualWidthBinning(0.0, 1.0, 6)
        with SharedCoresEngine(2, binning) as engine:
            index = engine.build_index(data)
        assert index.n_elements == 2_000
        assert index.bitvectors == build_bitvectors(data, binning)

    def test_tiny_input_builds_in_process(self, rng):
        data = rng.random(40)  # < 2 groups: no task ever leaves the parent
        binning = EqualWidthBinning(0.0, 1.0, 4)
        with SharedCoresEngine(4, binning) as engine:
            assert engine.build_bitvectors(data) == build_bitvectors(data, binning)

    def test_one_shot_builder_executor_processes(self, rng):
        data = rng.random(6_200)
        binning = EqualWidthBinning(0.0, 1.0, 8)
        out = build_bitvectors_parallel(
            data, binning, n_workers=2, executor="processes"
        )
        assert out == build_bitvectors(data, binning)

    def test_unknown_executor_rejected(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="executor"):
            build_bitvectors_parallel(
                rng.random(1000), binning, n_workers=2, executor="gpu"
            )

    def test_worker_exception_propagates_and_engine_survives(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 8)
        good = rng.random(4_000)
        bad = np.full(4_000, 7.5)  # outside [0, 1]: assign_checked raises
        with SharedCoresEngine(2, binning) as engine:
            with pytest.raises(ValueError, match="domain"):
                engine.build_bitvectors(bad)
            # Stale results from the failed step are discarded; the pool
            # keeps serving.
            assert engine.build_bitvectors(good) == build_bitvectors(good, binning)

    def test_closed_engine_rejected(self, rng):
        engine = SharedCoresEngine(2, EqualWidthBinning(0.0, 1.0, 4))
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.build_bitvectors(rng.random(1000))

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            SharedCoresEngine(0, EqualWidthBinning(0.0, 1.0, 4))


class TestSeparateCoresEngine:
    def test_matches_serial_per_step(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 10)
        payloads = {step: rng.random(3_100 + step) for step in range(6)}
        with SeparateCoresEngine(
            binning, n_workers=2, slot_nbytes=8 * 4_000
        ) as engine:
            for step, payload in payloads.items():
                engine.submit(step, payload)
            indices = engine.finish()
        assert set(indices) == set(payloads)
        for step, payload in payloads.items():
            assert indices[step].bitvectors == build_bitvectors(payload, binning)
            assert indices[step].n_elements == payload.size

    def test_adaptive_binning_resolved_in_worker(self, rng):
        """binning=None: each worker derives the per-step binning and
        ships it back; the stitched index must match the serial indexer."""
        indexer = AdaptivePrecisionIndexer(digits=1)
        payloads = {step: rng.normal(40.0, 3.0, 2_000) for step in range(3)}
        with SeparateCoresEngine(
            None, n_workers=1, slot_nbytes=8 * 2_000, adaptive_digits=1
        ) as engine:
            for step, payload in payloads.items():
                engine.submit(step, payload)
            indices = engine.finish()
        for step, payload in payloads.items():
            expected = indexer.index(payload)
            assert indices[step].bitvectors == expected.bitvectors
            assert indices[step].binning.n_bins == expected.binning.n_bins

    def test_backpressure_stats(self, rng):
        # One slot and builds far slower than a submit: every later
        # submit must wait for the ring, so producer_blocks is
        # deterministic.
        n = 200_000
        binning = EqualWidthBinning(0.0, 1.0, 8)
        with SeparateCoresEngine(
            binning, n_workers=1, slot_nbytes=8 * n, n_slots=1
        ) as engine:
            for step in range(3):
                engine.submit(step, rng.random(n))
            engine.finish()
        stats = engine.stats
        assert stats.puts == 3
        assert stats.gets == 3
        # max_depth counts submitted-but-uncollected steps; with one slot
        # it stays within puts and reaches at least 1.
        assert 1 <= stats.max_depth <= 3
        assert stats.producer_blocks >= 1  # 3 submits through 1 slot

    def test_worker_failure_propagates_without_deadlock(self, rng):
        """Regression (cross-process mirror of run_threaded's): when the
        lone encoder dies, a producer blocked on a full slot ring must
        raise instead of waiting forever, and finish() must re-raise the
        worker's original exception type."""
        binning = EqualWidthBinning(0.0, 1.0, 8)
        engine = SeparateCoresEngine(
            binning, n_workers=1, slot_nbytes=8 * 256, n_slots=1
        )
        bad = np.full(256, 5.0)  # outside [0, 1]: the worker dies on step 0
        good = rng.random(256)
        outcome: dict[str, BaseException] = {}

        def run():
            try:
                for step in range(12):
                    engine.submit(step, bad if step == 0 else good)
                engine.finish()
            except BaseException as exc:
                outcome["exc"] = exc

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=30)
        try:
            assert not t.is_alive(), "engine deadlocked after worker death"
            exc = outcome["exc"]
            # Either submit noticed the poisoned ring (QueueFailed wrapping
            # the worker exception) or finish() re-raised it directly.  The
            # exception crossed a process boundary, so compare type and
            # message, not identity.
            cause = exc.cause if isinstance(exc, QueueFailed) else exc
            assert isinstance(cause, ValueError)
            assert "domain" in str(cause)
        finally:
            engine.close()

    def test_submit_after_finish_rejected(self, rng):
        binning = EqualWidthBinning(0.0, 1.0, 4)
        with SeparateCoresEngine(
            binning, n_workers=1, slot_nbytes=8 * 100
        ) as engine:
            engine.submit(0, rng.random(100))
            engine.finish()
            with pytest.raises(QueueClosed):
                engine.submit(1, rng.random(100))

    def test_double_finish_rejected(self, rng):
        with SeparateCoresEngine(
            EqualWidthBinning(0.0, 1.0, 4), n_workers=1, slot_nbytes=800
        ) as engine:
            engine.finish()
            with pytest.raises(RuntimeError, match="finish"):
                engine.finish()

    def test_invalid_construction(self):
        binning = EqualWidthBinning(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="n_workers"):
            SeparateCoresEngine(binning, n_workers=0, slot_nbytes=100)
        with pytest.raises(ValueError, match="slot_nbytes"):
            SeparateCoresEngine(binning, n_workers=1, slot_nbytes=0)
        with pytest.raises(ValueError, match="n_slots"):
            SeparateCoresEngine(binning, n_workers=1, slot_nbytes=100, n_slots=0)


class TestThreadedSeparateCoresEngine:
    def test_many_workers_lose_no_step(self, rng):
        """More worker threads than cores, a queue of three payloads and a
        tiny switch interval: every step comes back, word-identical."""
        binning = EqualWidthBinning(0.0, 1.0, 8)
        payloads = {step: rng.random(1_000 + step) for step in range(40)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine = ThreadedSeparateCoresEngine(
                n_workers=6, capacity_bytes=3 * 8 * 1_040
            )
            try:
                for step, payload in payloads.items():
                    engine.submit(step, payload, binning=binning)
                indices = engine.finish()
            finally:
                engine.close()
        finally:
            sys.setswitchinterval(interval)
        assert engine.stats.puts == engine.stats.gets == 40
        assert set(indices) == set(payloads)
        for step, payload in payloads.items():
            assert indices[step].bitvectors == build_bitvectors(payload, binning)

    def test_shared_cores_threads_matches_serial(self, rng):
        data = rng.random(12_345)
        binning = EqualWidthBinning(0.0, 1.0, 12)
        with SharedCoresEngine(3, binning, executor="threads") as engine:
            assert engine.submit(0, data).bitvectors == build_bitvectors(
                data, binning
            )
            assert engine.finish() == {}


def _baseline(n_steps: int = 10, select_k: int = 3):
    sim = Heat3D((8, 8, 8), seed=11)
    pipe = InSituPipeline(
        sim, PrecisionBinning(19.0, 101.0, digits=0), CONDITIONAL_ENTROPY
    )
    return pipe.run(n_steps, select_k)


def _parallel(runner, n_steps: int = 10, select_k: int = 3):
    sim = Heat3D((8, 8, 8), seed=11)
    pipe = InSituPipeline(
        sim, PrecisionBinning(19.0, 101.0, digits=0), CONDITIONAL_ENTROPY
    )
    return runner(pipe, n_steps, select_k)


class TestRunParallel:
    """run_parallel must reproduce run() exactly in every configuration."""

    def _assert_equivalent(self, result, base):
        assert result.selection.selected == base.selection.selected
        assert result.artifact_bytes == base.artifact_bytes

    def test_shared_processes(self):
        base = _baseline()
        result = _parallel(
            lambda p, n, k: p.run_parallel(n, k, allocation=SharedCores(2))
        )
        self._assert_equivalent(result, base)

    def test_shared_threads(self):
        base = _baseline()
        result = _parallel(
            lambda p, n, k: p.run_parallel(
                n, k, allocation=SharedCores(2), executor="threads"
            )
        )
        self._assert_equivalent(result, base)

    def test_separate_processes(self):
        base = _baseline()
        result = _parallel(
            lambda p, n, k: p.run_parallel(
                n, k, allocation=SeparateCores(1, 1),
                queue_capacity_bytes=1 << 20,
            )
        )
        self._assert_equivalent(result, base)
        assert result.queue_stats is not None
        assert result.queue_stats.puts == 10

    def test_auto_allocation(self):
        base = _baseline()
        result = _parallel(
            lambda p, n, k: p.run_parallel(n, k, allocation="auto", n_workers=2)
        )
        self._assert_equivalent(result, base)

    def test_workers_only_defaults_to_shared(self):
        base = _baseline()
        result = _parallel(lambda p, n, k: p.run_parallel(n, k, n_workers=2))
        self._assert_equivalent(result, base)

    def test_adaptive_binning_shared_and_separate(self):
        results = []
        for runner in (
            lambda p, n, k: p.run(n, k),
            lambda p, n, k: p.run_parallel(n, k, allocation=SharedCores(2)),
            lambda p, n, k: p.run_parallel(
                n, k, allocation=SeparateCores(1, 1),
                queue_capacity_bytes=1 << 20,
            ),
        ):
            sim = Heat3D((8, 8, 8), seed=13)
            pipe = InSituPipeline(sim, None, CONDITIONAL_ENTROPY)
            results.append(runner(pipe, 8, 2))
        for result in results[1:]:
            self._assert_equivalent(result, results[0])

    def test_argument_validation(self):
        sim = Heat3D((8, 8, 8), seed=1)
        pipe = InSituPipeline(
            sim, PrecisionBinning(19.0, 101.0, digits=0), CONDITIONAL_ENTROPY
        )
        with pytest.raises(ValueError, match="allocation.*n_workers"):
            pipe.run_parallel(4, 2)
        with pytest.raises(ValueError, match="n_workers"):
            pipe.run_parallel(4, 2, allocation="auto")
        with pytest.raises(ValueError, match="executor"):
            pipe.run_parallel(4, 2, n_workers=2, executor="fibers")
