"""The repository benchmark: seven workloads, end to end and layer by layer.

One workload, one run (the form the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload serve_joint --seed 3 \\
        --seconds 10 --trace 0

prints progress notes, then one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer
metric with ``--trace 1`` (which also writes
``results/trace_<workload>.json``).

The whole set, each workload in a fresh subprocess::

    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--smoke] \\
        [--check-repeat]

prints every metric by name with its unit and writes
``results/latest.json`` (``results/smoke.json`` with ``--smoke``).
See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

try:
    import numpy
    from repro.util import HAS_HARDWARE_POPCOUNT
except ImportError as exc:
    sys.exit(f"benchmark needs the repro package under {REPO / 'src'}: {exc}")

from harness import (  # noqa: E402 - after the path bootstrap
    NPROC,
    PARALLELISM,
    RESULTS,
    WORK_ROOT,
    Samples,
    peak_rss_mib,
    reap_children,
    tail,
)
from tracing import Tracer  # noqa: E402
from wl_insitu import InSituWorkload  # noqa: E402
from wl_mine import MineWorkload  # noqa: E402
from wl_serve import ServeWorkload  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = {
    "insitu_build": InSituWorkload,
    "insitu_select": InSituWorkload,
    "insitu_parallel": InSituWorkload,
    "serve_joint": ServeWorkload,
    "serve_select": ServeWorkload,
    "serve_cold": ServeWorkload,
    "mine_corr": MineWorkload,
}
if list(WORKLOADS) != [w["name"] for w in SPEC["workloads"]]:
    sys.exit("BENCHMARK.json and run.py name different workloads")

#: Set-up runs this many times per end-to-end run and reports the median.
SETUP_REPS = 3
SMOKE_SECONDS = 0.4


def _note(text: str) -> None:
    print(f"# {text}", flush=True)


def _with_units(values: dict[str, float], declared: list[dict]) -> dict:
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns the driver's result object."""
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](name, seed, smoke, work)
    # A polite kill (the driver's time limit) must unwind through the
    # clean-up below too, not leave shard or encoder processes behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if trace:
            result = _traced_run(workload, seconds)
        else:
            result = _end_to_end_run(workload, seconds, 1 if smoke else SETUP_REPS)
    finally:
        try:
            workload.teardown()
        finally:
            reap_children()  # on every path out: nothing may outlive a run
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return result


def _finish(workload, samples_list, metrics: dict) -> dict:
    oracle = workload.check()
    for note in oracle.notes:
        _note(f"ORACLE MISMATCH: {note}")
    attempted = sum(s.attempted for s in samples_list) + oracle.attempted
    failed = sum(s.failed for s in samples_list) + oracle.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _end_to_end_run(workload, seconds: float, setup_reps: int) -> dict:
    setups = []
    for rep in range(setup_reps):
        if rep:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    samples = workload.run(seconds)
    # Children must have been waited for before their peak counts, and the
    # oracle's own memory (raw replays, full-data mining) must not.
    workload.teardown()
    rss = peak_rss_mib()
    latencies = samples.latencies
    _note(
        f"{workload.name}: {len(latencies)} timed samples, "
        f"min {min(latencies) * 1e3:.3f} ms, max {max(latencies) * 1e3:.3f} ms"
    )
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies) * 1e3,
        "ops_per_s": samples.ops / samples.busy_s,
        "disk_ratio": workload.disk_ratio(),
        "peak_rss_mb": rss,
    }
    return _finish(workload, [samples], _with_units(values, SPEC["end_to_end"]))


def _traced_run(workload, seconds: float) -> dict:
    """Untraced and traced loops in alternating slices, so that host drift
    hits both alike (the ratio of their medians is the tracing overhead),
    then the workload's layer breakdown and its direct probes."""
    workload.setup()
    tracer = Tracer()
    plain, traced = Samples(), Samples()
    for _ in range(2):
        plain.add(workload.run(seconds * 0.15))
        traced.add(workload.run(seconds * 0.15, tracer))
    values = workload.layers(tracer, traced)
    # Probes need the workload's files but not its server; stop it first so
    # they do not compete with the shard workers for the two cores.
    workload.teardown()
    values.update(workload.probe(tracer))
    values["bench.trace_overhead_ratio"] = (
        statistics.median(traced.latencies) / statistics.median(plain.latencies)
        - 1.0
    )
    values["bench.accounted_ratio"] = tracer.accounted_ratio(workload.trace_prefix)
    tracer.dump(
        RESULTS / f"trace_{workload.name}.json",
        workload=workload.name, seed=workload.seed,
    )
    unknown = set(values) - {m["name"] for m in SPEC["per_layer"]}
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {sorted(unknown)}")
    return _finish(
        workload, [plain, traced], _with_units(values, SPEC["per_layer"])
    )


# ------------------------------------------------------------------ the set
def _environment(seed: int, seconds: float, smoke: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": NPROC,
        "clients": PARALLELISM,
        "shards": PARALLELISM,
        "degraded_host": NPROC < 2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "has_hardware_popcount": bool(HAS_HARDWARE_POPCOUNT),
        "smoke": smoke,
        "seed": seed,
        "run_seconds": seconds,
    }


def _run_subprocess(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if not done.stdout.strip():
        sys.exit(f"{name}: no result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    return result


def run_set(names, seed, seconds, traced, smoke) -> dict:
    report = _environment(seed, seconds, smoke)
    report["workloads"] = {}
    for name in names:
        entry = {"end_to_end": _run_subprocess(name, seed, seconds, False, smoke)}
        if traced:
            entry["per_layer"] = _run_subprocess(name, seed, seconds, True, smoke)
        for kind, result in entry.items():
            result["fail_ratio"] = result["failed"] / result["attempted"]
            print(f"\n{name} [{kind}]  correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for metric, cell in result["metrics"].items():
                print(f"  {metric:40s} {cell['value']:16.6g} {cell['unit']}")
        report["workloads"][name] = entry
    return report


def _all_correct(report: dict) -> bool:
    return all(
        result["correct"] and result["exit_code"] == 0
        for entry in report["workloads"].values()
        for result in entry.values()
    )


def check_repeat(first: dict, second: dict) -> bool:
    """Both sets side by side; False if any end-to-end metric moved by
    more than its own bound between two runs of the same code."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    bounds["disk_ratio"] = 0.0  # same seed, same bytes: must repeat exactly
    steady = True
    print(f"\n{'workload':16s} {'metric':12s} {'first':>12s} {'second':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for name, entry in first["workloads"].items():
        again = second["workloads"][name]["end_to_end"]["metrics"]
        for metric, cell in entry["end_to_end"]["metrics"].items():
            a, b = cell["value"], again[metric]["value"]
            diff = abs(b - a) / a
            flag = "" if diff <= bounds[metric] else "  UNSTEADY"
            steady = steady and not flag
            print(f"{name:16s} {metric:12s} {a:12.5g} {b:12.5g} "
                  f"{diff:8.2%} {bounds[metric]:6.2f}{flag}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 1 = traced run, per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="whole set: add the traced run of each workload")
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down sizes; the whole set in under 20 s")
    parser.add_argument("--check-repeat", action="store_true",
                        help="whole set twice; fail if they disagree")
    args = parser.parse_args()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else SPEC["run_seconds"])

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = measure(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    report = run_set(names, args.seed, seconds, args.traced, args.smoke)
    ok = _all_correct(report)
    if args.check_repeat:
        second = run_set(names, args.seed, seconds, False, args.smoke)
        ok = ok and _all_correct(second) and check_repeat(report, second)
        report["repeat"] = second["workloads"]
    out = RESULTS / ("smoke.json" if args.smoke else "latest.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(REPO)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
