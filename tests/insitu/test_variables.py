"""Tests for per-variable reduction (repro.insitu.variables) and the
multi-variable runs of the in-situ pipeline."""

import pytest

from repro.bitmap import BitmapIndex
from repro.bitmap.serialization import load_index
from repro.insitu import InSituPipeline, OutputWriter
from repro.insitu.pipeline import UnsupportedCombination
from repro.insitu.variables import (
    MultiVariableStep,
    binnings_from_probe,
    combined_metric,
)
from repro.selection import select_timesteps_bitmap
from repro.selection.metrics import EMD_COUNT
from repro.sims import LuleshProxy


@pytest.fixture(scope="module")
def lulesh_steps():
    probe = LuleshProxy((6, 6, 6), seed=2)
    binnings = binnings_from_probe(list(probe.run(12)), bins=24)
    reduced = [
        MultiVariableStep(s.step, {
            name: BitmapIndex.build(s.fields[name], b)
            for name, b in binnings.items()
        })
        for s in LuleshProxy((6, 6, 6), seed=2).run(12)
    ]
    return binnings, reduced


class TestIndexer:
    def test_all_twelve_variables(self, lulesh_steps, tmp_path):
        binnings, _ = lulesh_steps
        assert len(binnings) == 12
        InSituPipeline(
            LuleshProxy((6, 6, 6), seed=2), binnings, EMD_COUNT,
            writer=OutputWriter(tmp_path),
        ).run(12, 3)
        for step_dir in sorted(tmp_path.glob("step_*")):
            records = sorted(step_dir.glob("*.rbmp"))
            assert [r.stem for r in records] == sorted(binnings)
            for record in records:
                assert load_index(record).n_elements == 216

    def test_per_variable_binnings_differ(self, lulesh_steps):
        """Coordinates and forces have wildly different ranges -- per-
        variable binning must reflect that."""
        binnings, _ = lulesh_steps
        coord = binnings["coord_x"]
        force = binnings["force_x"]
        assert (coord.lo, coord.hi) != (force.lo, force.hi)

    def test_variable_subset(self, tmp_path):
        probe = list(LuleshProxy((5, 5, 5)).run(3))
        binnings = binnings_from_probe(
            probe, bins=8, variables=["velocity_x", "velocity_y"]
        )
        assert list(binnings) == ["velocity_x", "velocity_y"]
        InSituPipeline(
            LuleshProxy((5, 5, 5)), binnings, EMD_COUNT,
            writer=OutputWriter(tmp_path),
        ).run(3, 1)
        records = sorted(p.name for p in (tmp_path / "step_00000").iterdir())
        assert records == ["velocity_x.rbmp", "velocity_y.rbmp"]

    def test_missing_variable_rejected(self, lulesh_steps):
        binnings, _ = lulesh_steps
        pipe = InSituPipeline(
            LuleshProxy((6, 6, 6), seed=2),
            {**binnings, "not_a_field": binnings["coord_x"]},
            EMD_COUNT,
        )
        with pytest.raises(KeyError, match="lacks variable"):
            pipe.run(1, 1)

    def test_empty_binnings_rejected(self):
        with pytest.raises(UnsupportedCombination):
            InSituPipeline(LuleshProxy((5, 5, 5)), {}, EMD_COUNT)

    def test_nbytes(self, lulesh_steps):
        _, reduced = lulesh_steps
        assert reduced[0].nbytes == sum(
            i.nbytes for i in reduced[0].indices.values()
        )


class TestCombinedMetric:
    def test_sums_per_variable(self, lulesh_steps):
        _, reduced = lulesh_steps
        score = combined_metric(EMD_COUNT)
        assert score.name == "multivar:emd_count"
        total = score.bitmap(reduced[0], reduced[5])
        manual = sum(
            EMD_COUNT.bitmap(reduced[0].indices[v], reduced[5].indices[v])
            for v in reduced[0].variables()
        )
        assert total == pytest.approx(manual)

    def test_weights(self, lulesh_steps):
        _, reduced = lulesh_steps
        only_vel = combined_metric(
            EMD_COUNT, weights={"velocity_x": 1.0}
        )
        total = only_vel.bitmap(reduced[0], reduced[5])
        assert total == pytest.approx(
            EMD_COUNT.bitmap(
                reduced[0].indices["velocity_x"], reduced[5].indices["velocity_x"]
            )
        )

    def test_variable_mismatch_rejected(self, lulesh_steps):
        _, reduced = lulesh_steps
        score = combined_metric(EMD_COUNT)
        partial = MultiVariableStep(
            0, {"velocity_x": reduced[0].indices["velocity_x"]}
        )
        with pytest.raises(ValueError, match="different variables"):
            score.bitmap(reduced[0], partial)


class TestSelection:
    def test_selection_runs(self, lulesh_steps):
        _, reduced = lulesh_steps
        result = select_timesteps_bitmap(reduced, 4, combined_metric(EMD_COUNT))
        assert result.selected[0] == 0
        assert len(result.selected) == 4
        assert result.metric_name == "multivar:emd_count"
        assert result.n_evaluations == len(reduced) - 1

    def test_weighting_changes_selection_possible(self, lulesh_steps):
        """Weighted and unweighted selections need not agree; both valid."""
        _, reduced = lulesh_steps
        all_vars = select_timesteps_bitmap(reduced, 4, combined_metric(EMD_COUNT))
        coords_only = select_timesteps_bitmap(
            reduced, 4,
            combined_metric(
                EMD_COUNT, weights={"coord_x": 1.0, "coord_y": 1.0, "coord_z": 1.0}
            ),
        )
        assert len(coords_only.selected) == len(all_vars.selected) == 4
