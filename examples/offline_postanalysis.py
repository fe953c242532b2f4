"""Offline post-analysis over stored bitmaps (the step-4 of the intro).

The in-situ run keeps only the selected bitmaps; this script plays the
*offline* side: run a streaming pipeline that persists the selected
bitmaps into a :class:`~repro.io.timeseries.BitmapStore`, then — with the
simulation long gone — answer questions from the store alone:

  * how different are consecutive retained steps (pairwise EMD walk)?
  * interactive SQL-ish correlation queries over two retained steps;
  * subgroup discovery: where does the late field deviate from the early
    one the most?

Run:  python examples/offline_postanalysis.py
"""

import tempfile
from pathlib import Path

from repro import Heat3D, PrecisionBinning
from repro.analysis import discover_subgroups, query
from repro.bitmap import BitmapIndex
from repro.io.timeseries import BitmapStore
from repro.metrics import emd_count_bitmap
from repro.selection import CONDITIONAL_ENTROPY
from repro.selection.streaming import StreamingSelector

N_STEPS, SELECT_K = 30, 6
SHAPE = (12, 12, 32)


def in_situ_phase(store: BitmapStore) -> None:
    """Simulate + select online; write selected bitmaps on commit."""
    sim = Heat3D(SHAPE, seed=4)
    binning = PrecisionBinning(19.0, 101.0, digits=1)
    selector = StreamingSelector(
        N_STEPS, SELECT_K,
        lambda prev, cand: CONDITIONAL_ENTROPY.bitmap(prev[1], cand[1]),
    )
    for out in sim.run(N_STEPS):
        index = BitmapIndex.build(out.fields["temperature"], binning)
        for _, (step_id, kept) in selector.push((out.step, index)):
            store.write(step_id, "temperature", kept)  # write on commit
    result = selector.finalize()
    store.set_attr("workload", "heat3d")
    store.set_attr("selection", ",".join(map(str, result.selected)))
    print(f"in-situ phase: kept {result.selected} of {N_STEPS} steps "
          f"({store.total_bytes() / 1024:.1f} KiB of bitmaps on disk)")


def offline_phase(store: BitmapStore) -> None:
    """Everything below runs without any raw simulation data."""
    print(f"\nstore: {store}")

    print("\npairwise count-EMD between consecutive retained steps:")
    for a, b, value in store.pairwise_metric("temperature", emd_count_bitmap):
        print(f"  step {a:2d} -> {b:2d}: EMD = {value:10.1f}")

    steps = store.steps()
    first = store.load(steps[0], "temperature")
    last = store.load(steps[-1], "temperature")
    indices = {"early": first, "late": last}
    for q in (
        "SELECT MI FROM early, late",
        "SELECT CE FROM late, early",
        "SELECT COUNT FROM early, late WHERE early BETWEEN 20 AND 25",
        "SELECT EMD FROM early, late",
    ):
        print(f"  {q:58s} -> {query(q, indices):.4f}")

    print("\nsubgroups where the late field deviates most, explained by the "
          "early field:")
    for sub in discover_subgroups(first, last, unit_bits=31 * 8, top_k=4):
        print(f"  {sub}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = BitmapStore(Path(tmp) / "run_0001")
        in_situ_phase(store)
        offline_phase(store)


if __name__ == "__main__":
    main()
