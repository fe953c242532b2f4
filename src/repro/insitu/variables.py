"""Per-variable in-situ reduction -- the multi-array handling of §5.1.

Lulesh emits "a total of 12 data arrays for each time-step, and we
support in-situ analysis based on all of them".  Two faithful readings,
both run by :class:`~repro.insitu.pipeline.InSituPipeline`:

* index the concatenated payload under one binning (the pipeline's
  default) -- simple, but mixes value distributions of unlike quantities;
* index **each variable under its own binning** and combine the
  per-variable correlation scores -- what a physics-aware deployment does,
  and what the pipeline does when its ``binning`` maps field names to
  binnings.

This module holds what the second reading adds:
:func:`binnings_from_probe` derives per-variable binnings from probe
steps; :class:`MultiVariableStep` is the step artifact the selectors see;
:func:`combined_metric` lifts any
:class:`~repro.selection.metrics.SelectionMetric` to it by summing
per-variable distinctness (each variable contributes in its own binning,
exactness preserved per variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bitmap.binning import Binning, common_binning
from repro.bitmap.index import BitmapIndex
from repro.selection.metrics import SelectionMetric
from repro.sims.base import TimeStepData


@dataclass(frozen=True)
class MultiVariableStep:
    """One time-step reduced to per-variable bitmap indices."""

    step: int
    indices: Mapping[str, BitmapIndex]

    @property
    def nbytes(self) -> int:
        return sum(i.nbytes for i in self.indices.values())

    @property
    def ordering(self):
        """The row ordering every variable of the run shares, if any."""
        return next(iter(self.indices.values())).ordering

    def variables(self) -> list[str]:
        return sorted(self.indices)


def binnings_from_probe(
    steps: Sequence[TimeStepData],
    *,
    bins: int,
    variables: Sequence[str] | None = None,
) -> dict[str, Binning]:
    """Per-variable equal-width binnings spanning the probe steps.

    ``variables`` picks the analysis variables (default: every field);
    the paper indexes analysis variables, not every internal array.
    """
    if not steps:
        raise ValueError("need at least one probe step")
    names = list(variables) if variables is not None else sorted(steps[0].fields)
    return {
        name: common_binning([s.fields[name] for s in steps], bins=bins)
        for name in names
    }


def combined_metric(
    metric: SelectionMetric, *, weights: Mapping[str, float] | None = None
) -> SelectionMetric:
    """Lift ``metric`` to :class:`MultiVariableStep` artifacts.

    The lifted ``bitmap(prev, cand)`` is the ``weights``-weighted sum of
    per-variable distinctness (unit weights by default; variables absent
    from ``weights`` count zero).  The full-data path is ``metric``'s own:
    multi-variable runs are bitmap-only.
    """

    def bitmap(prev: MultiVariableStep, cand: MultiVariableStep) -> float:
        if set(prev.indices) != set(cand.indices):
            raise ValueError(
                f"steps carry different variables: "
                f"{sorted(prev.indices)} vs {sorted(cand.indices)}"
            )
        total = 0.0
        for name in prev.indices:
            w = 1.0 if weights is None else float(weights.get(name, 0.0))
            if w == 0.0:
                continue
            total += w * metric.bitmap(prev.indices[name], cand.indices[name])
        return total

    return SelectionMetric(f"multivar:{metric.name}", metric.full, bitmap)
