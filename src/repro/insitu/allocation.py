"""Core allocation strategies for in-situ bitmap generation (§2.3, §5.2).

Two strategies, verbatim from the paper:

* **Shared Cores** -- all cores alternate: simulate a step with every core,
  pause the simulation, build bitmaps with every core, repeat.

* **Separate Cores** -- a static split: ``sim_cores`` always simulate,
  ``bitmap_cores`` always build bitmaps, with a bounded data queue between
  them.  The split matters; Equations 1-2 derive it from measured
  single-phase times:

      Core_sim    = Core_total * Time_sim / (Time_sim + Time_bitmap)
      Core_bitmap = Core_total - Core_sim

These dataclasses carry the split.  The discrete-event pipeline model
(:mod:`repro.perfmodel.pipeline_model`) simulates both strategies, and
:meth:`repro.insitu.pipeline.InSituPipeline.run_parallel` executes them
on the build engines of :mod:`repro.insitu.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SharedCores:
    """All cores used for both phases, alternating."""

    total_cores: int

    def __post_init__(self) -> None:
        if self.total_cores < 1:
            raise ValueError(f"need >= 1 core, got {self.total_cores}")

    @property
    def label(self) -> str:
        return "c_all"


@dataclass(frozen=True)
class SeparateCores:
    """A static core split with a shared bounded data queue."""

    sim_cores: int
    bitmap_cores: int

    def __post_init__(self) -> None:
        if self.sim_cores < 1 or self.bitmap_cores < 1:
            raise ValueError(
                f"both pools need >= 1 core, got {self.sim_cores}/{self.bitmap_cores}"
            )

    @property
    def total_cores(self) -> int:
        return self.sim_cores + self.bitmap_cores

    @property
    def label(self) -> str:
        return f"c{self.sim_cores}_c{self.bitmap_cores}"


def equation_1_2_allocation(
    total_cores: int, time_simulate: float, time_bitmap: float
) -> SeparateCores:
    """The paper's Equations 1-2: split cores by the measured time ratio.

    ``time_simulate`` and ``time_bitmap`` are per-step times measured with
    an *initial* allocation (the calibration run of §2.3).  The result is
    clamped so both pools get at least one core.
    """
    if total_cores < 2:
        raise ValueError(f"separate-cores needs >= 2 cores, got {total_cores}")
    if time_simulate <= 0 or time_bitmap <= 0:
        raise ValueError("phase times must be positive")
    sim = round(total_cores * time_simulate / (time_simulate + time_bitmap))
    sim = min(max(sim, 1), total_cores - 1)
    return SeparateCores(sim, total_cores - sim)


def resolve_allocation(
    spec: "str | SharedCores | SeparateCores", total_workers: int
) -> "SharedCores | SeparateCores | str":
    """Turn a CLI-style spec into a strategy instance.

    ``"shared"`` -> all ``total_workers`` build every step together;
    ``"separate"`` -> one simulation core (the parent), the rest encode;
    ``"auto"`` passes through (the pipeline calibrates the Equations 1-2
    split itself).  Instances pass through unchanged.
    """
    if isinstance(spec, (SharedCores, SeparateCores)) or spec == "auto":
        return spec
    if spec == "shared":
        return SharedCores(total_workers)
    if spec == "separate":
        if total_workers < 2:
            raise ValueError(
                f"separate-cores needs >= 2 workers, got {total_workers}"
            )
        return SeparateCores(1, total_workers - 1)
    raise ValueError(f"unknown allocation spec {spec!r}")


def enumerate_separate_allocations(total_cores: int) -> list[SeparateCores]:
    """Every valid split of ``total_cores`` -- the x axis of Figure 12."""
    if total_cores < 2:
        return []
    return [SeparateCores(s, total_cores - s) for s in range(1, total_cores)]
