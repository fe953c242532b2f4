"""Direct layer probes of the traced run.

Each probe times a layer's public function on inputs captured from the
workload (its own indices, its own store files), under a span named
``probe:<module>`` so probe time never mixes with operation time in the
trace.  They give the per-layer numbers the operations cannot: the
program exposes no hook inside ``BitmapIndex.build``, ``joint_counts`` or
``LazyBitmapIndex.get``, so the runner calls them itself.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from repro.bitmap import BitmapIndex, LazyBitmapIndex, auto_op_many, load_index
from repro.bitmap.index import overlapping_bins
from repro.bitmap.kernels import KWAY_RUNMERGE_RATIO_THRESHOLD
from repro.bitmap.ops import STREAMING_COUNT_RATIO_THRESHOLD, prefers_runmerge
from repro.metrics import joint_counts
from repro.service import Catalog
from repro.service.catalog import CATALOG_NAME

from tracing import Tracer


def _ms(tracer: Tracer, name: str) -> float:
    durations = tracer.durations(name)
    return statistics.median(durations) * 1e3 if durations else 0.0


def _fresh(index: BitmapIndex) -> BitmapIndex:
    """Same bitvectors, no memoised counts or group matrix -- what the
    executor assembles per query and the pipeline per step."""
    return BitmapIndex(index.binning, index.bitvectors, index.n_elements)


def kernel_probe(
    tracer: Tracer,
    cases: list[tuple[BitmapIndex, BitmapIndex, tuple[float, float]]],
) -> dict[str, float]:
    """Joint-count, fused-OR and group-matrix kernels on index pairs.

    Each case is ``(a, b, (lo, hi))``: the value range is a predicate on
    ``a`` whose overlapping bins are the planned operand set of the fused
    OR, as the executor plans a ``BETWEEN``.
    ``runmerge_share`` is the share of probed operand sets that dispatch
    to the compressed-domain route: for a joint count both indices must
    compress to the streaming threshold (the rule ``joint_counts``
    applies), for the fused OR ``prefers_runmerge`` must hold.
    """
    compressed = 0
    operand_sets = 0
    for a, b, value_range in cases:
        with tracer.span("probe:bitmap.index.group_matrix"):
            _fresh(a).group_matrix()
        fa, fb = _fresh(a), _fresh(b)
        with tracer.span("probe:bitmap.kernels.joint_counts"):
            joint_counts(fa, fb)
        t = STREAMING_COUNT_RATIO_THRESHOLD
        compressed += a.compression_ratio() <= t and b.compression_ratio() <= t
        bins = overlapping_bins(a.binning, *value_range)
        vectors = [a.bitvectors[int(i)] for i in bins]
        with tracer.span("probe:bitmap.kernels.or_many"):
            auto_op_many(vectors, "or")
        compressed += prefers_runmerge(vectors, KWAY_RUNMERGE_RATIO_THRESHOLD)
        operand_sets += 2
    return {
        "bitmap.kernels.joint_counts_ms": _ms(
            tracer, "probe:bitmap.kernels.joint_counts"
        ),
        "bitmap.kernels.or_many_ms": _ms(tracer, "probe:bitmap.kernels.or_many"),
        "bitmap.index.group_matrix_ms": _ms(
            tracer, "probe:bitmap.index.group_matrix"
        ),
        "bitmap.kernels.runmerge_share": compressed / operand_sets,
    }


def storage_probe(tracer: Tracer, root: Path, files: list[Path]) -> dict[str, float]:
    """Whole-index load (per file), single-bin lazy reads and a cold
    catalog open against the workload's own files."""
    for path in files:
        with tracer.span("probe:bitmap.serialization.load"):
            load_index(path)
        with LazyBitmapIndex(path) as lazy:
            for bin_id in np.linspace(0, lazy.n_bins - 1, 8).astype(int):
                with tracer.span("probe:bitmap.serialization.lazy_get"):
                    lazy.get(int(bin_id))
    for _ in range(3):
        # Without the manifest every open is the scan + header probe +
        # persist a first server launch pays.
        (root / CATALOG_NAME).unlink(missing_ok=True)
        with tracer.span("probe:service.catalog.open"):
            Catalog.open(root)
    return {
        "bitmap.serialization.load_ms": _ms(
            tracer, "probe:bitmap.serialization.load"
        ),
        "bitmap.serialization.lazy_get_us": _ms(
            tracer, "probe:bitmap.serialization.lazy_get"
        ) * 1e3,
        "service.catalog.open_ms": _ms(tracer, "probe:service.catalog.open"),
    }
