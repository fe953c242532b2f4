"""Smoke test of the benchmark itself (outside tier-1's ``testpaths``).

Runs the whole set once at ``--smoke`` sizes and checks the report's shape
against ``BENCHMARK.json``::

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def report():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--seed", "5"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((HERE / "results" / "smoke.json").read_text())


def test_declared_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_every_workload_reports_exactly_the_declared_metrics(report):
    declared = {
        kind: {m["name"]: m["unit"] for m in SPEC[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in report["workloads"].items():
        for kind, units in declared.items():
            result = entry[kind]
            assert result["correct"] and result["failed"] == 0, (name, kind)
            assert result["attempted"] >= 1
            reported = {m: c["unit"] for m, c in result["metrics"].items()}
            assert reported == units, (name, kind)
        values = entry["end_to_end"]["metrics"]
        assert all(cell["value"] > 0 for cell in values.values()), name


def test_report_says_where_it_came_from(report):
    for key in ("commit", "nproc", "python", "numpy", "has_hardware_popcount",
                "degraded_host", "run_seconds"):
        assert key in report
    assert report["smoke"] is True
    assert report["seed"] == 5
