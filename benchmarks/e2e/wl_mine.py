"""Offline correlation mining (Algorithm 2) over indices stored on disk.

One operation is ``load_index`` of one snapshot's two variables followed
by ``correlation_mining``: the paper's offline path, with no service or
pipeline code in the way.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bitmap import BitmapIndex, ZOrderLayout, load_index, save_index
from repro.mining import correlation_mining, correlation_mining_fulldata
from repro.sims import OceanDataGenerator

import probes
from harness import (
    Oracle,
    Samples,
    fresh_dir,
    ocean_binning,
    ocean_field,
    store_bytes,
    store_files,
    timed_loop,
)
from tracing import Tracer

MINING = dict(value_threshold=0.002, spatial_threshold=0.05, unit_bits=512)
VARIABLES = ("temperature", "salinity")
BINNINGS = {v: ocean_binning(v, 16) for v in VARIABLES}
#: Operations cycle over this many independent snapshots.  How many bin
#: pairs survive the value threshold (8-13 of 256) depends on the snapshot
#: and moves one snapshot's mining time by +-6 %; the median over a cycle
#: of several moves less from seed to seed.
SNAPSHOTS = 4


def _hits(result) -> tuple[set, set]:
    """(value hits, spatial hits) as comparable sets."""
    return (
        {(h.a_bin, h.b_bin) for h in result.value_hits},
        {(h.a_bin, h.b_bin, h.unit) for h in result.spatial_hits},
    )


class MineWorkload:
    trace_prefix = "op-"

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.shape = (8, 48, 96) if smoke else (16, 192, 384)
        #: a store-shaped directory (step = snapshot), so the catalog
        #: probe can open it
        self.root = work / "store"
        self.data: list[dict] = []
        #: (snapshot, MiningResult) of every operation
        self.results: list[tuple[int, object]] = []

    def _step_dir(self, snapshot: int) -> Path:
        return self.root / f"step_{snapshot:05d}"

    def setup(self) -> None:
        """Snapshots, Z-order flattening, indices built and saved, one
        warm-up operation per snapshot."""
        layout = ZOrderLayout.for_shape(self.shape)
        fresh_dir(self.root)
        self.data = []
        for k in range(SNAPSHOTS):
            snapshot = OceanDataGenerator(self.shape, seed=self.seed + k).advance()
            fields = {
                v: layout.flatten(ocean_field(snapshot, v)) for v in VARIABLES
            }
            self.data.append(fields)
            self._step_dir(k).mkdir()
            for variable, data in fields.items():
                save_index(
                    self._step_dir(k) / f"{variable}.rbmp",
                    BitmapIndex.build(data, BINNINGS[variable]),
                )
        for _ in range(SNAPSHOTS):
            self._operation(None)
        self.results.clear()

    def teardown(self) -> None:
        pass

    def _operation(self, tracer: Tracer | None) -> float:
        n = len(self.results)
        paths = [self._step_dir(n % SNAPSHOTS) / f"{v}.rbmp" for v in VARIABLES]
        t0 = time.perf_counter()
        if tracer is None:
            a, b = (load_index(p) for p in paths)
            result = correlation_mining(a, b, **MINING)
        else:
            with tracer.span("bench.op", request=f"op-{n}"):
                with tracer.span("bitmap.serialization.load"):
                    a, b = (load_index(p) for p in paths)
                with tracer.span("mining.correlation.mine"):
                    result = correlation_mining(a, b, **MINING)
        elapsed = time.perf_counter() - t0
        self.results.append((n % SNAPSHOTS, result))
        return elapsed

    def run(self, seconds: float, tracer: Tracer | None = None) -> Samples:
        latencies = timed_loop(lambda: self._operation(tracer), seconds)
        return Samples(
            latencies=latencies, ops=len(latencies), busy_s=sum(latencies),
            attempted=len(latencies),
        )

    def disk_ratio(self) -> float:
        raw = sum(d.nbytes for fields in self.data for d in fields.values())
        return store_bytes(self.root) / raw

    def check(self) -> Oracle:
        oracle = Oracle()
        for k, fields in enumerate(self.data):
            mined = [result for snapshot, result in self.results if snapshot == k]
            if not mined:
                continue
            expected = _hits(correlation_mining_fulldata(
                fields["temperature"], fields["salinity"],
                BINNINGS["temperature"], BINNINGS["salinity"], **MINING,
            ))
            oracle.expect(
                _hits(mined[-1]) == expected,
                f"snapshot {k}: hit sets differ from full data",
            )
            counts = {
                (r.n_pairs_evaluated, r.n_pairs_survived, r.n_units_evaluated,
                 len(r.spatial_hits))
                for r in mined
            }
            oracle.expect(
                len(counts) == 1,
                f"snapshot {k}: mining counters differ between operations",
            )
        return oracle

    def layers(self, tracer: Tracer, samples: Samples) -> dict[str, float]:
        self_s = tracer.self_seconds(self.trace_prefix)
        cycle = [result for _, result in self.results[-SNAPSHOTS:]]
        return {
            "mining.correlation.mine_ms":
                self_s["mining.correlation.mine"] * 1e3 / samples.ops,
            # exact counts, mean over one cycle of snapshots
            "mining.correlation.pairs_evaluated":
                sum(r.n_pairs_evaluated for r in cycle) / len(cycle),
            "mining.correlation.units_evaluated":
                sum(r.n_units_evaluated for r in cycle) / len(cycle),
        }

    def probe(self, tracer: Tracer) -> dict[str, float]:
        a = load_index(self._step_dir(0) / "temperature.rbmp")
        b = load_index(self._step_dir(0) / "salinity.rbmp")
        return {
            **probes.kernel_probe(tracer, [
                (a, b, (10.0, 20.0)),
                (b, a, (33.0, 35.0)),
            ]),
            **probes.storage_probe(tracer, self.root, store_files(self.root)[:2]),
        }
