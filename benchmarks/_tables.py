"""Shared table formatting/saving for the per-figure benchmarks.

Every ``bench_figXX_*.py`` regenerates one figure/table of the paper's §5
and writes its rows to ``benchmarks/results/figXX.txt`` (also echoed to
stdout when pytest runs with ``-s``).  EXPERIMENTS.md quotes these files.
``--smoke`` runs pass ``smoke=True`` and write to the untracked
``benchmarks/results/smoke/`` instead, so a smoke run never overwrites a
committed full-size artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def results_dir(smoke: bool = False) -> Path:
    """Where a run's artifacts go: ``results/``, or ``results/smoke/``."""
    path = RESULTS_DIR / "smoke" if smoke else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_table(title: str, headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width table with a title line."""
    cols = len(headers)
    widths = [len(h) for h in headers]
    rendered: list[list[str]] = []
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row has {len(row)} cells, expected {cols}")
        cells = [
            f"{c:.3f}" if isinstance(c, float) else str(c) for c in row
        ]
        rendered.append(cells)
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for cells in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def save_table(name: str, text: str, *, smoke: bool = False) -> Path:
    """Write a rendered table under :func:`results_dir` and echo it."""
    path = results_dir(smoke) / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


def save_json(name: str, record: dict, *, smoke: bool = False) -> Path:
    """Write a machine-readable record (``BENCH_*.json``) under
    :func:`results_dir`."""
    path = results_dir(smoke) / f"{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[saved to {path}]")
    return path
