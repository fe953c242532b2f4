"""In-situ Heat3D: the full Figure 2 pipeline at laptop scale.

Runs the Heat3D simulation three ways -- bitmaps, full data, and in-situ
sampling -- through the same reduce/select/write pipeline (selecting 10 of
40 time-steps with conditional entropy), then runs the bitmap pipeline a
fourth time with the *Separate Cores* strategy on threads: simulation on
the caller thread, bitmap construction on one worker thread, a bounded
data queue between them.

Run:  python examples/insitu_heat3d.py
"""

import tempfile
from pathlib import Path

from repro import Heat3D, PrecisionBinning
from repro.insitu import InSituPipeline, OutputWriter, Sampler, SeparateCores
from repro.selection import CONDITIONAL_ENTROPY

SHAPE = (16, 16, 48)
N_STEPS, SELECT_K = 40, 10


def run(mode: str, out_root: Path, **kwargs) -> None:
    sim = Heat3D(SHAPE, seed=7)
    # Heat3D temperatures live in [boundary, source]; 1 decimal digit is
    # the paper's binning scale for this workload (§5.1).
    binning = PrecisionBinning(19.0, 101.0, digits=1)
    pipe = InSituPipeline(
        sim,
        binning,
        CONDITIONAL_ENTROPY,
        mode=mode,  # type: ignore[arg-type]
        writer=OutputWriter(out_root / mode),
        **kwargs,
    )
    result = pipe.run(N_STEPS, SELECT_K)
    print(f"\n=== {mode} ===")
    print(result.summary())
    print(result.memory.report())


def run_separate_cores(out_root: Path) -> None:
    sim = Heat3D(SHAPE, seed=7)
    binning = PrecisionBinning(19.0, 101.0, digits=1)
    pipe = InSituPipeline(sim, binning, CONDITIONAL_ENTROPY, mode="bitmap",
                          writer=OutputWriter(out_root / "separate"))
    step_bytes = 16 * 16 * 48 * 8
    result = pipe.run_parallel(
        N_STEPS, SELECT_K, allocation=SeparateCores(1, 1), executor="threads",
        queue_capacity_bytes=4 * step_bytes,
    )
    print("\n=== bitmap, Separate Cores (threaded, bounded queue) ===")
    print(result.summary())
    qs = result.queue_stats
    print(
        f"queue: {qs.puts} puts / {qs.gets} gets, max depth {qs.max_depth}, "
        f"producer blocked {qs.producer_blocks}x, consumer starved "
        f"{qs.consumer_blocks}x"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run("bitmap", root)
        run("fulldata", root)
        run("sampling", root, sampler=Sampler(0.15, mode="random", seed=1))
        run_separate_cores(root)
    print(
        "\nNote the written bytes: bitmaps write a fraction of the raw "
        "output, which is the I/O saving Figures 7-10 measure at scale."
    )


if __name__ == "__main__":
    main()
