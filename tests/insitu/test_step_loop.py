"""The one in-situ step loop: legality grid, engine parity, resume.

Every (mode x engine x ordering x metric x resume x streaming x
multi-variable) cell either writes exactly the store the inline engine
writes or is refused by :func:`~repro.insitu.pipeline.check_combination`.
"""

import hashlib
import itertools
import math
from pathlib import Path

import pytest

from repro.bitmap import BitmapIndex, PrecisionBinning
from repro.bitmap.ordering import compute_ordering
from repro.insitu.allocation import SeparateCores, SharedCores
from repro.insitu.parallel import SeparateCoresEngine, SharedCoresEngine
from repro.insitu.pipeline import InSituPipeline, UnsupportedCombination
from repro.insitu.sampling import Sampler
from repro.insitu.variables import MultiVariableStep, binnings_from_probe
from repro.insitu.writer import OutputWriter
from repro.selection import CONDITIONAL_ENTROPY, EMD_COUNT, EMD_SPATIAL
from repro.sims import LuleshProxy
from repro.sims.heat3d import Heat3D

# Process engines under test: a stuck worker must fail the test, not hang.
pytestmark = pytest.mark.timeout(300)

BINNING = PrecisionBinning(19.0, 101.0, digits=0)
N_STEPS, SELECT_K = 4, 2
#: Engine ids name strategy and executor; processes are the only executor.
ENGINES = ("inline", "shared-processes", "separate-processes")
#: Three of Lulesh's arrays, each binned over its own range (§5.1).
MV_BINNINGS = binnings_from_probe(
    list(LuleshProxy((6, 6, 6), seed=4).run(10)),
    bins=16,
    variables=["velocity_x", "force_x", "coord_x"],
)


def _store_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _simulation(binning):
    if binning is MV_BINNINGS:
        return LuleshProxy((6, 6, 6), seed=4)
    return Heat3D((8, 8, 8), seed=5)


def _pipeline(out: Path, binning=BINNING, metric=CONDITIONAL_ENTROPY, **kwargs):
    return InSituPipeline(
        _simulation(binning), binning, metric, writer=OutputWriter(out), **kwargs
    )


def _outcome(result, out: Path):
    return result.selection.selected, result.artifact_bytes, _store_sha256(out)


def _engine(engine: str, pipe: InSituPipeline):
    """(engine kind, factory) for driving the step loop directly."""
    if engine == "inline":
        return "inline", lambda payload, timings: pipe._inline
    strategy = engine.split("-")[0]
    binning = None if pipe.variables else pipe.binning

    def open_engine(payload, timings):
        if strategy == "shared":
            return SharedCoresEngine(2, binning)
        return SeparateCoresEngine(binning, n_workers=1, slot_nbytes=payload.nbytes)

    return strategy, open_engine


def _allocation(engine: str):
    return SharedCores(2) if engine.startswith("shared") else SeparateCores(1, 1)


def _prefix(n: int, ordering: str | None, binning=BINNING) -> list:
    """The first ``n`` steps, built the way the loop builds them."""
    if binning is MV_BINNINGS:
        steps = list(_simulation(binning).run(n))
        names = sorted(binning)
        order = (
            compute_ordering(
                [steps[0].fields[v] for v in names],
                [binning[v] for v in names],
                ordering,
            )
            if ordering and steps
            else None
        )
        return [
            (s.step, MultiVariableStep(s.step, {
                v: BitmapIndex.build(s.fields[v], b, ordering=order)
                for v, b in binning.items()
            }))
            for s in steps
        ]
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


def _legal(mode, engine, ordering, metric, resume, streaming, multivar) -> bool:
    bitmap_only = engine != "inline" or ordering or resume or streaming or multivar
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
        (False, True),
    )
)


@pytest.mark.parametrize(
    "mode,engine,ordering,metric,resume,streaming,multivar",
    GRID,
    ids=[
        f"{m}-{e}-{o}-{x.name}-resume{r}-{'stream' if s else 'batch'}"
        + ("-multivar" if v else "")
        for m, e, o, x, r, s, v in GRID
    ],
)
def test_legality_grid(
    tmp_path, mode, engine, ordering, metric, resume, streaming, multivar
):
    binning = MV_BINNINGS if multivar else BINNING
    kwargs = dict(
        binning=binning,
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
            resume=_prefix(resume, ordering, binning), streaming=streaming,
        )

    if not _legal(mode, engine, ordering, metric, resume, streaming, multivar):
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
        result = pipe.run_parallel(
            n_steps, select_k, allocation=_allocation(engine)
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


def test_auto_allocation(tmp_path):
    full = _pipeline(tmp_path / "full", ordering="lex").run(6, 2)
    auto = _pipeline(tmp_path / "auto", ordering="lex").run_parallel(
        6, 2, allocation="auto", n_workers=2
    )
    assert _outcome(auto, tmp_path / "auto") == _outcome(full, tmp_path / "full")
    assert auto.queue_stats.puts == 4  # two calibration steps built inline


# ------------------------------------------------------------ multi-variable
#: SHA-256 of every record the retired multi-variable driver stored for
#: ``run(10, 3)`` over ``MV_BINNINGS``; it selected [0, 5, 9] scoring
#: [nan, 62.0, 29.0] under ``multivar:emd_count``.
MV_PINNED = {
    None: {
        "step_00000/coord_x.rbmp": "3bc6885ffecf9ceae35bc9273474811b972f3b1a8e0eeab81df365b7c4da5446",
        "step_00000/force_x.rbmp": "72c9a545ae3d17ec8d53db2009705a45eea1ac3219194b24d67bc30d9d867a5b",
        "step_00000/velocity_x.rbmp": "7e60d5f0712eceaa97828021c9a9917570834866ed8f5967e0dd4bd3cb0a5285",
        "step_00005/coord_x.rbmp": "473720f346e2f57a07afc02a94411933bcc1b53427405bc962becd67f6287736",
        "step_00005/force_x.rbmp": "7ad3014d07475f1767b61fa4253fb99ecbeb20a7e554616b2514c5e07e3d743c",
        "step_00005/velocity_x.rbmp": "c0ba355c3cb84ea0772f4149c5ccad8d228c3715ce730a9d8a7f3395324b3638",
        "step_00009/coord_x.rbmp": "34c75a7b67d5d53f889c4e96419c4c2f240e3081e9126a4ce187b69681cae2df",
        "step_00009/force_x.rbmp": "a54af638b30f293cc016ad104dea17f3ba5bac1233be400089368467b1a14721",
        "step_00009/velocity_x.rbmp": "93dfe0b600e4be89df2aa8d3806751fa1fc5896a2490a2f0d9a88c46f4633530",
    },
    "lex": {
        "step_00000/coord_x.rbmp": "2f74c628a136b52a7bfceee430848fc206c241314573d2da528e271d39c4d313",
        "step_00000/force_x.rbmp": "bc88f1db8f57e514df0e762f603d7d69957159fc98b8db2fbdcc1bdb2d0555b8",
        "step_00000/velocity_x.rbmp": "f4ee5246e9480ddcecb49115699e739a7a6bf6363ba14fd92788998d09933ffb",
        "step_00005/coord_x.rbmp": "c76884bcba67c0e9cbbacf1b55fda4edab2b3de481bc6663c283952fb28ba4c1",
        "step_00005/force_x.rbmp": "388ae7f162bcdaaa77cf33a428d46877643caeb2736f018ec2fe90e882d4e7fb",
        "step_00005/velocity_x.rbmp": "42203d234c59849270241d24be0a6c9cd1308502e365d989a1545254b18cb6c0",
        "step_00009/coord_x.rbmp": "4db013c1719f752673d853cbd7f591338a4772428bd8f2df284b86279f693f6e",
        "step_00009/force_x.rbmp": "be4158b0cfc0b910ff70422e088cae91aea78c484073267db54ef1877e414667",
        "step_00009/velocity_x.rbmp": "01169765d1ef364307729313c20c2fa180e3296993d007ec59bac3ff040dc8bb",
    },
}


def _record_sha256(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*.rbmp"))
    }


@pytest.mark.parametrize("ordering", [None, "lex"])
@pytest.mark.parametrize("engine", ENGINES)
def test_multivariable_store_parity(tmp_path, engine, ordering):
    """Every engine writes, record for record, what the retired
    multi-variable driver wrote, and selects what it selected."""
    pipe = _pipeline(tmp_path, MV_BINNINGS, EMD_COUNT, ordering=ordering)
    if engine == "inline":
        result = pipe.run(10, 3)
    else:
        result = pipe.run_parallel(10, 3, allocation=_allocation(engine))
    selection = result.selection
    assert selection.selected == [0, 5, 9]
    assert math.isnan(selection.scores[0])
    assert selection.scores[1:] == [62.0, 29.0]
    assert selection.metric_name == "multivar:emd_count"
    assert _record_sha256(tmp_path) == MV_PINNED[ordering]


@pytest.mark.parametrize("ordering", [None, "lex"])
@pytest.mark.parametrize("engine", ENGINES)
def test_multivariable_resume_on_every_engine(tmp_path, engine, ordering):
    full = _pipeline(tmp_path / "full", MV_BINNINGS, ordering=ordering).run(6, 3)
    pipe = _pipeline(tmp_path / "resumed", MV_BINNINGS, ordering=ordering)
    kind, open_engine = _engine(engine, pipe)
    resumed = pipe._loop(
        6, 3, kind, open_engine, resume=_prefix(3, ordering, MV_BINNINGS)
    )
    assert _outcome(resumed, tmp_path / "resumed") == _outcome(
        full, tmp_path / "full"
    )
    assert resumed.selection.scores[1:] == full.selection.scores[1:]


def test_multivariable_streaming_retains_two_steps(tmp_path):
    batch = _pipeline(tmp_path / "batch", MV_BINNINGS, EMD_COUNT).run(10, 3)
    stream = _pipeline(tmp_path / "stream", MV_BINNINGS, EMD_COUNT).run_streaming(
        10, 3
    )
    assert _outcome(stream, tmp_path / "stream") == _outcome(
        batch, tmp_path / "batch"
    )
    window = stream.memory.peak_snapshot["retained_window"]
    assert window <= 2 * max(stream.artifact_bytes)
    assert window < batch.memory.peak_snapshot["retained_window"]


def test_multivariable_reused_pipeline_orders_each_run_afresh(tmp_path):
    """A pipeline's second run computes its own row ordering: it stores
    what a fresh pipeline stores for the same steps."""
    pipe = _pipeline(tmp_path / "first", MV_BINNINGS, EMD_COUNT, ordering="lex")
    pipe.run(5, 2)
    pipe.writer = OutputWriter(tmp_path / "reused")
    reused = pipe.run(5, 2)
    fresh = _pipeline(tmp_path / "fresh", MV_BINNINGS, EMD_COUNT, ordering="lex")
    fresh.simulation.skip(5)
    expected = fresh.run(5, 2)
    assert reused.bytes_written == expected.bytes_written
    assert _record_sha256(tmp_path / "reused") == _record_sha256(tmp_path / "fresh")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"partitioning": "info_volume"},
        {"payload_fn": lambda step: step.fields["force_x"]},
    ],
    ids=["info-volume", "payload-fn"],
)
def test_multivariable_rejections(tmp_path, kwargs):
    with pytest.raises(UnsupportedCombination):
        _pipeline(tmp_path, MV_BINNINGS, EMD_COUNT, **kwargs)
