"""Multi-variable runs of the in-situ pipeline: per-variable binnings,
one ``.rbmp`` record per variable per selected step."""

import pytest

from repro.bitmap.serialization import load_index
from repro.insitu import InSituPipeline, OutputWriter
from repro.insitu.variables import binnings_from_probe, combined_metric
from repro.selection.metrics import EMD_COUNT
from repro.sims import LuleshProxy

VARIABLES = ["velocity_x", "force_x", "coord_x"]


@pytest.fixture
def setup(tmp_path):
    probe = list(LuleshProxy((6, 6, 6), seed=4).run(10))
    binnings = binnings_from_probe(probe, bins=16, variables=VARIABLES)
    sim = LuleshProxy((6, 6, 6), seed=4)
    return sim, binnings, tmp_path / "mvstore"


def _record(root, step, variable):
    return load_index(root / f"step_{step:05d}" / f"{variable}.rbmp")


class TestMultiVariablePipeline:
    def test_end_to_end(self, setup):
        sim, binnings, root = setup
        pipe = InSituPipeline(sim, binnings, EMD_COUNT, writer=OutputWriter(root))
        result = pipe.run(10, 3)
        assert result.selection.k == 3
        assert result.selection.metric_name == "multivar:emd_count"
        assert result.bytes_written > 0
        # The store holds every selected step with all three variables.
        steps = sorted(int(p.name[5:]) for p in root.glob("step_*"))
        assert steps == sorted(result.selection.selected)
        for step in steps:
            records = sorted(p.name for p in (root / f"step_{step:05d}").iterdir())
            assert records == ["coord_x.rbmp", "force_x.rbmp", "velocity_x.rbmp"]

    def test_stored_indices_usable_offline(self, setup):
        sim, binnings, root = setup
        result = InSituPipeline(
            sim, binnings, EMD_COUNT, writer=OutputWriter(root)
        ).run(10, 3)
        # Offline: cross-variable correlation on one retained step.
        from repro.metrics import mutual_information_bitmap

        mis = [
            mutual_information_bitmap(
                _record(root, step, "velocity_x"), _record(root, step, "force_x")
            )
            for step in result.selection.selected
        ]
        # F = ma couples them once the blast develops; some retained step
        # must show it (early steps can be near-constant => MI ~ 0).
        assert max(mis) > 0.05
        assert all(mi >= 0.0 for mi in mis)

    def test_without_store(self, setup):
        sim, binnings, _ = setup
        result = InSituPipeline(sim, binnings, EMD_COUNT).run(8, 2)
        assert result.bytes_written == 0
        assert result.selection.k == 2
        assert "output" not in result.timings.phases

    def test_weighted(self, setup):
        """Weights reach selection: weighting one variable selects and
        scores exactly as a run binning only that variable."""
        sim, binnings, _ = setup
        weighted = InSituPipeline(
            sim, binnings, combined_metric(EMD_COUNT, weights={"velocity_x": 1.0})
        ).run(8, 2)
        alone = InSituPipeline(
            LuleshProxy((6, 6, 6), seed=4),
            {"velocity_x": binnings["velocity_x"]},
            EMD_COUNT,
        ).run(8, 2)
        assert weighted.selection.selected == alone.selection.selected
        assert weighted.selection.scores[1:] == alone.selection.scores[1:]

    def test_summary(self, setup):
        sim, binnings, _ = setup
        result = InSituPipeline(sim, binnings, EMD_COUNT).run(6, 2)
        assert f"selected={result.selection.selected}" in result.summary()
