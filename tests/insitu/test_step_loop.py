"""The one in-situ step loop: legality grid, engine parity, resume.

Every (mode x engine x ordering x metric x resume x streaming) cell
either writes exactly the store the inline engine writes or is refused
by :func:`~repro.insitu.pipeline.check_combination`.
"""

import hashlib
import itertools
from pathlib import Path

import pytest

from repro.bitmap import BitmapIndex, PrecisionBinning
from repro.bitmap.ordering import compute_ordering
from repro.insitu.allocation import SeparateCores, SharedCores
from repro.insitu.parallel import (
    SeparateCoresEngine,
    SharedCoresEngine,
    ThreadedSeparateCoresEngine,
)
from repro.insitu.pipeline import InSituPipeline, UnsupportedCombination
from repro.insitu.sampling import Sampler
from repro.insitu.writer import OutputWriter
from repro.selection import CONDITIONAL_ENTROPY, EMD_SPATIAL
from repro.sims.heat3d import Heat3D

# Process engines under test: a stuck worker must fail the test, not hang.
pytestmark = pytest.mark.timeout(300)

BINNING = PrecisionBinning(19.0, 101.0, digits=0)
N_STEPS, SELECT_K = 4, 2
ENGINES = (
    "inline",
    "shared-processes",
    "shared-threads",
    "separate-processes",
    "separate-threads",
)


def _store_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _pipeline(out: Path, binning=BINNING, metric=CONDITIONAL_ENTROPY, **kwargs):
    return InSituPipeline(
        Heat3D((8, 8, 8), seed=5), binning, metric,
        writer=OutputWriter(out), **kwargs,
    )


def _outcome(result, out: Path):
    return result.selection.selected, result.artifact_bytes, _store_sha256(out)


def _engine(engine: str, pipe: InSituPipeline):
    """(engine kind, factory) for driving the step loop directly."""
    if engine == "inline":
        return "inline", lambda payload, timings: pipe._inline
    strategy, executor = engine.split("-")

    def open_engine(payload, timings):
        if strategy == "shared":
            return SharedCoresEngine(2, pipe.binning, executor=executor)
        if executor == "threads":
            return ThreadedSeparateCoresEngine(
                n_workers=1, capacity_bytes=4 * payload.nbytes
            )
        return SeparateCoresEngine(
            pipe.binning, n_workers=1, slot_nbytes=payload.nbytes
        )

    return strategy, open_engine


def _prefix(n: int, ordering: str | None) -> list[tuple[int, BitmapIndex]]:
    """The first ``n`` steps, built the way the loop builds them."""
    payloads = [s.concatenated() for s in Heat3D((8, 8, 8), seed=5).run(n)]
    order = (
        compute_ordering(payloads[:1], BINNING, ordering)
        if ordering and payloads
        else None
    )
    return [
        (i, BitmapIndex.build(p, BINNING, ordering=order))
        for i, p in enumerate(payloads)
    ]


def _legal(mode, engine, ordering, metric, resume, streaming) -> bool:
    bitmap_only = engine != "inline" or ordering or resume or streaming
    return not (
        (bitmap_only and mode != "bitmap")
        or (ordering and metric is EMD_SPATIAL)
        or (streaming and engine.startswith("separate"))
    )


GRID = list(
    itertools.product(
        ("bitmap", "fulldata", "sampling"),
        ENGINES,
        (None, "lex"),
        (CONDITIONAL_ENTROPY, EMD_SPATIAL),
        (0, 1),
        (False, True),
    )
)


@pytest.mark.parametrize(
    "mode,engine,ordering,metric,resume,streaming",
    GRID,
    ids=[
        f"{m}-{e}-{o}-{x.name}-resume{r}-{'stream' if s else 'batch'}"
        for m, e, o, x, r, s in GRID
    ],
)
def test_legality_grid(tmp_path, mode, engine, ordering, metric, resume, streaming):
    kwargs = dict(
        metric=metric,
        mode=mode,
        ordering=ordering,
        sampler=Sampler(0.3) if mode == "sampling" else None,
    )

    def run_cell():
        pipe = _pipeline(tmp_path / "cell", **kwargs)
        kind, open_engine = _engine(engine, pipe)
        return pipe._loop(
            N_STEPS, SELECT_K, kind, open_engine,
            resume=_prefix(resume, ordering), streaming=streaming,
        )

    if not _legal(mode, engine, ordering, metric, resume, streaming):
        with pytest.raises(UnsupportedCombination):
            run_cell()
        return
    oracle = _pipeline(tmp_path / "oracle", **kwargs).run(N_STEPS, SELECT_K)
    assert _outcome(run_cell(), tmp_path / "cell") == _outcome(
        oracle, tmp_path / "oracle"
    )


@pytest.mark.parametrize("ordering", [None, "lex"])
@pytest.mark.parametrize("binning", [BINNING, None], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("engine", ENGINES)
def test_store_parity_through_public_api(tmp_path, engine, binning, ordering):
    """run_parallel on every engine writes the store run() writes."""
    n_steps, select_k = 6, 2
    oracle = _pipeline(tmp_path / "inline", binning, ordering=ordering)
    expected = _outcome(oracle.run(n_steps, select_k), tmp_path / "inline")
    pipe = _pipeline(tmp_path / engine, binning, ordering=ordering)
    if engine == "inline":
        result = pipe.run(n_steps, select_k)
    else:
        strategy, executor = engine.split("-")
        result = pipe.run_parallel(
            n_steps, select_k,
            allocation=SharedCores(2) if strategy == "shared" else SeparateCores(1, 1),
            executor=executor,
        )
    assert _outcome(result, tmp_path / engine) == expected


@pytest.mark.parametrize("ordering", [None, "lex"])
@pytest.mark.parametrize("engine", ENGINES)
def test_resume_prefix_on_every_engine(tmp_path, engine, ordering):
    """A run resumed after 3 of 6 steps equals the uninterrupted run."""
    full = _pipeline(tmp_path / "full", ordering=ordering).run(6, 3)
    pipe = _pipeline(tmp_path / "resumed", ordering=ordering)
    kind, open_engine = _engine(engine, pipe)
    resumed = pipe._loop(6, 3, kind, open_engine, resume=_prefix(3, ordering))
    assert _outcome(resumed, tmp_path / "resumed") == _outcome(
        full, tmp_path / "full"
    )
    assert resumed.selection.scores[1:] == full.selection.scores[1:]


@pytest.mark.parametrize("executor", ["processes", "threads"])
def test_auto_allocation_on_both_executors(tmp_path, executor):
    full = _pipeline(tmp_path / "full", ordering="lex").run(6, 2)
    auto = _pipeline(tmp_path / "auto", ordering="lex").run_parallel(
        6, 2, allocation="auto", n_workers=2, executor=executor
    )
    assert _outcome(auto, tmp_path / "auto") == _outcome(full, tmp_path / "full")
    assert auto.queue_stats.puts == 4  # two calibration steps built inline
