"""Per-variable in-situ reduction on the Lulesh proxy (§5.1's 12 arrays).

Two faithful ways to handle a multi-array time-step, both run by
``InSituPipeline``:

* one index over the concatenated payload (one shared binning), or
* one index **per variable**, each under its own physical range, with
  selection combining per-variable distinctness (optionally weighted).

This script runs both, shows how differently variables are distributed
(why per-variable binning exists), and demonstrates weighting: selecting
on kinematics (velocity/acceleration) vs geometry (coordinates).

Run:  python examples/multivariable_lulesh.py
"""

import tempfile
from pathlib import Path

from repro.bitmap import common_binning
from repro.insitu import (
    InSituPipeline,
    OutputWriter,
    binnings_from_probe,
    combined_metric,
)
from repro.selection import EMD_COUNT
from repro.sims import LuleshProxy

N_STEPS, SELECT_K = 24, 6
NODE_SHAPE = (8, 8, 8)


def select(binning, metric=EMD_COUNT, writer=None):
    pipe = InSituPipeline(
        LuleshProxy(NODE_SHAPE, seed=5), binning, metric, writer=writer
    )
    return pipe.run(N_STEPS, SELECT_K)


def main() -> None:
    probe = list(LuleshProxy(NODE_SHAPE, seed=5).run(N_STEPS))
    binnings = binnings_from_probe(probe, bins=24)

    print("per-variable binnings (each variable has its own range):")
    for name in ("coord_x", "velocity_x", "force_x"):
        b = binnings[name]
        print(f"  {name:14s} [{b.lo:12.4g}, {b.hi:12.4g}]  {b.n_bins} bins")

    # --- selection on all 12 variables ----------------------------------
    with tempfile.TemporaryDirectory() as out:
        all_vars = select(binnings, writer=OutputWriter(Path(out)))
        records = sorted(p.name for p in (Path(out) / "step_00000").iterdir())
    per_step_bytes = all_vars.artifact_bytes[0]
    raw_bytes = probe[0].nbytes
    print(f"\nreduced step: {per_step_bytes / 1024:.1f} KiB of bitmaps "
          f"vs {raw_bytes / 1024:.1f} KiB raw ({per_step_bytes / raw_bytes:.1%}), "
          f"{len(records)} records per selected step")
    print(f"\nselection, all 12 variables:    {all_vars.selection.selected}")

    # --- weighted variants ----------------------------------------------
    kinematics = {f"{v}_{c}": 1.0 for v in ("velocity", "acceleration")
                  for c in "xyz"}
    geometry = {f"coord_{c}": 1.0 for c in "xyz"}
    kin = select(binnings, combined_metric(EMD_COUNT, weights=kinematics))
    geo = select(binnings, combined_metric(EMD_COUNT, weights=geometry))
    print(f"selection, kinematics only:     {kin.selection.selected}")
    print(f"selection, geometry only:       {geo.selection.selected}")

    # --- the concatenated alternative ------------------------------------
    binning = common_binning([s.concatenated() for s in probe], bins=96)
    cat = select(binning)
    print(f"selection, concatenated payload: {cat.selection.selected}")
    print("\n(the variants legitimately disagree -- they answer different "
          "questions about which physics matters)")


if __name__ == "__main__":
    main()
