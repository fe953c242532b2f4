"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the library's main entry points so the system is usable
without writing Python:

* ``repro insitu``  -- run the in-situ pipeline on a built-in workload;
* ``repro index``   -- build a bitmap index from a ``.npy`` array;
* ``repro query``   -- inspect stored indices, or run SQL against them;
* ``repro serve``   -- serve SQL queries over a bitmap store: batch mode
  (``--sql``) through the query service, or a sharded network server
  (``--port``/``--shards``) speaking length-prefixed JSON over TCP,
  optionally with hot-set replication (``--replicate``);
* ``repro serve-stats`` -- print a running network server's live
  counters (admission, per-shard dispatch, cache hit rates, hot set);
* ``repro mine``    -- correlation mining on the POP-like ocean data;
* ``repro model``   -- print a modelled figure table (Figures 7-13/15);
* ``repro cluster`` -- run the multi-rank cluster pipeline, optionally
  verifying it against a single-node reference run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'In-Situ Bitmaps Generation and Efficient Data "
            "Analysis based on Bitmaps' (HPDC'15)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insitu", help="run the in-situ pipeline on a workload")
    p.add_argument("--workload", choices=["heat3d", "lulesh"], default="heat3d")
    p.add_argument("--shape", default="12,12,32", help="grid, e.g. 12,12,32")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--select", type=int, default=5)
    p.add_argument(
        "--mode", choices=["bitmap", "fulldata", "sampling"], default="bitmap"
    )
    p.add_argument("--metric", choices=["conditional_entropy", "emd_count",
                                        "emd_spatial"], default=None,
                   help="default: conditional_entropy (heat3d) / emd_spatial (lulesh)")
    p.add_argument("--sample-fraction", type=float, default=0.15)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="total worker count; > 1 runs the parallel engines "
                        "(bitmap mode only)")
    p.add_argument("--allocation", choices=["shared", "separate", "auto"],
                   default="shared",
                   help="core-allocation strategy for --workers > 1 "
                        "(auto calibrates the Eq. 1-2 split)")
    p.add_argument("--executor", choices=["threads", "processes"],
                   default="processes",
                   help="parallel engine backend (processes = shared-memory "
                        "multi-core; threads = GIL-bound escape hatch)")
    p.add_argument("--queue-mb", type=float, default=64.0,
                   help="separate-cores data-queue capacity in MiB")
    p.add_argument("--ordering", choices=["lex", "gray", "hist"], default=None,
                   help="row-order every step's payload before encoding "
                        "(compression-maximizing; permutation persisted as "
                        "a sidecar so queries map back exactly)")

    p = sub.add_parser("index", help="build a bitmap index from a .npy file")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bins", type=int, default=64)
    group.add_argument("--digits", type=int, default=None,
                       help="fixed-decimal binning instead of equal-width")
    p.add_argument("--zorder", action="store_true",
                   help="linearise multi-dimensional input in Z-order")
    p.add_argument("--ordering", choices=["lex", "gray", "hist"], default=None,
                   help="reorder rows for compression before encoding; the "
                        "inverse permutation rides with the index record")
    p.add_argument("--codec", choices=["wah", "roaring", "auto"],
                   default="wah",
                   help="storage codec of the written file (auto = smallest "
                        "payload per bin); the index is WAH in memory")

    p = sub.add_parser(
        "query", help="inspect stored bitmap indices or run SQL against them"
    )
    p.add_argument("index", type=Path, nargs="+")
    p.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None, help="count elements with value in [LO, HI]")
    p.add_argument("--sql", default=None, metavar="QUERY",
                   help="run an analysis SQL string against the indices "
                        "(variable names are the file stems)")
    p.add_argument("--zorder-shape", default=None, metavar="SHAPE",
                   help="grid shape for REGION predicates, e.g. 8,16,32")

    p = sub.add_parser("mine", help="correlation mining on ocean-like data")
    p.add_argument("--shape", default="8,48,96")
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--value-threshold", type=float, default=0.002)
    p.add_argument("--spatial-threshold", type=float, default=0.05)
    p.add_argument("--unit-bits", type=int, default=512)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--baseline", action="store_true",
                   help="also run the full-data miner and compare")

    p = sub.add_parser("model", help="print a modelled evaluation table")
    p.add_argument("figure", choices=["fig7", "fig8", "fig9", "fig10",
                                      "fig12", "fig13", "fig15"])

    p = sub.add_parser(
        "calibrate",
        help="measure this host's kernel rates for the performance model",
    )
    p.add_argument("--shape", default="16,32,64")
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser(
        "serve",
        help="serve SQL queries over a bitmap store: batch mode (--sql) "
             "or a sharded network server (--port)",
    )
    p.add_argument("root", type=Path, help="bitmap store directory")
    p.add_argument("--sql", action="append", metavar="QUERY",
                   help="batch mode: query to run (repeatable)")
    p.add_argument("--step", type=int, default=None,
                   help="time step to query (default: latest stored)")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the batch N times (warm-cache demonstration)")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--max-pending", type=int, default=32)
    p.add_argument("--cache-mb", type=float, default=64.0,
                   help="bitvector cache budget in MiB "
                        "(network mode: per shard)")
    p.add_argument("--zorder-shape", default=None, metavar="SHAPE",
                   help="grid shape for REGION predicates, e.g. 8,16,32")
    p.add_argument("--port", type=int, default=None,
                   help="network mode: listen on this TCP port (0 = pick)")
    p.add_argument("--host", default="127.0.0.1",
                   help="network mode: bind address")
    p.add_argument("--shards", type=int, default=1,
                   help="network mode: query worker process count")
    p.add_argument("--replicate", action="store_true",
                   help="network mode: enable hot-set replication -- "
                        "access-driven replica placement on non-owner "
                        "shards plus least-loaded adaptive routing")
    p.add_argument("--hotset-budget", type=float, default=8.0,
                   metavar="MIB",
                   help="per-shard replica slot budget in MiB "
                        "(with --replicate)")
    p.add_argument("--rebalance-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between replica placement cycles "
                        "(with --replicate)")

    p = sub.add_parser(
        "serve-stats",
        help="fetch and print live counters from a running network server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)

    p = sub.add_parser("store", help="inspect a bitmap time-series store")
    p.add_argument("root", type=Path)
    p.add_argument("--pairwise", metavar="VARIABLE", default=None,
                   help="walk consecutive steps with count-EMD and "
                        "conditional entropy")

    p = sub.add_parser(
        "cluster",
        help="run the cluster-scale in-situ pipeline (one process per rank)",
    )
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--shape", default="8,6,6", help="grid, e.g. 8,6,6")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--select", type=int, default=3)
    p.add_argument("--metric", choices=["conditional_entropy", "emd_count",
                                        "emd_spatial"],
                   default="conditional_entropy")
    p.add_argument("--partitioning", choices=["fixed", "info_volume"],
                   default="fixed")
    p.add_argument("--adaptive", action="store_true",
                   help="per-step adaptive precision binning (global "
                        "min/max allreduce) instead of the fixed heat3d "
                        "binning")
    p.add_argument("--digits", type=int, default=1,
                   help="decimal digits for --adaptive binning")
    p.add_argument("--engine", choices=["serial", "shared", "separate"],
                   default="serial", help="per-rank bitmap build engine")
    p.add_argument("--workers-per-rank", type=int, default=1)
    p.add_argument("--transport", choices=["local", "mpi"], default="local")
    p.add_argument("--out", type=Path, default=None,
                   help="store root for rank_*/step_*/ output + manifest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=120.0,
                   help="collective timeout in seconds")
    p.add_argument("--on-fault", choices=["fail", "respawn", "shrink"],
                   default="fail",
                   help="rank-fault policy: fail the run (default), "
                        "re-spawn a replacement process, or shrink onto "
                        "a surviving host (local transport only)")
    p.add_argument("--max-recoveries", type=int, default=4,
                   help="recovery budget before the run is declared lost")
    p.add_argument("--inject", action="append", default=None,
                   metavar="RANK:KIND[:COLLECTIVE[:CALL_INDEX]]",
                   help="inject a fault for demonstration, e.g. "
                        "1:die:allreduce:0 (kinds: die, raise, delay, "
                        "drop; repeatable)")
    p.add_argument("--verify", action="store_true",
                   help="also run the single-node pipeline and check the "
                        "selection matches and reassembled stores are "
                        "bit-identical (exit 1 on mismatch)")
    return parser


def _parse_shape(text: str, dims: int = 3) -> tuple[int, ...]:
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != dims:
        raise SystemExit(f"--shape needs {dims} comma-separated ints, got {text!r}")
    return parts


# ------------------------------------------------------------- subcommands
def _cmd_insitu(args: argparse.Namespace) -> int:
    from repro.insitu import (
        InSituPipeline,
        OutputWriter,
        Sampler,
        resolve_allocation,
    )
    from repro.insitu.pipeline import UnsupportedCombination
    from repro.selection import get_metric
    from repro.sims import Heat3D, LuleshProxy

    shape = _parse_shape(args.shape)
    if args.workload == "heat3d":
        sim = Heat3D(shape, seed=args.seed)
        from repro.bitmap import PrecisionBinning

        binning = PrecisionBinning(19.0, 101.0, digits=1)
        metric_name = args.metric or "conditional_entropy"
    else:
        sim = LuleshProxy(shape, seed=args.seed)
        probe = LuleshProxy(shape, seed=args.seed)
        from repro.bitmap import common_binning

        payloads = [s.concatenated() for s in probe.run(args.steps)]
        binning = common_binning(payloads, bins=args.bins)
        metric_name = args.metric or "emd_spatial"

    writer = OutputWriter(args.out) if args.out else None
    sampler = (
        Sampler(args.sample_fraction, mode="random", seed=args.seed)
        if args.mode == "sampling"
        else None
    )
    try:
        pipe = InSituPipeline(
            sim, binning, get_metric(metric_name), mode=args.mode,
            sampler=sampler, writer=writer, ordering=args.ordering,
        )
        if args.workers > 1:
            result = pipe.run_parallel(
                args.steps,
                args.select,
                allocation=resolve_allocation(args.allocation, args.workers),
                n_workers=args.workers,
                executor=args.executor,
                queue_capacity_bytes=int(args.queue_mb * 2**20),
            )
        else:
            result = pipe.run(args.steps, args.select)
    except UnsupportedCombination as exc:
        raise SystemExit(f"repro insitu: {exc}") from None
    if result.queue_stats is not None:
        print(f"queue: {result.queue_stats}")
    print(result.summary())
    print(result.memory.report())
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.bitmap import (
        BitmapIndex,
        EqualWidthBinning,
        PrecisionBinning,
        ZOrderLayout,
        save_index,
    )

    data = np.load(args.input)
    if args.zorder and data.ndim > 1:
        layout = ZOrderLayout.for_shape(data.shape)
        flat = layout.flatten(data)
    else:
        flat = data.ravel()
    if args.digits is not None:
        binning = PrecisionBinning.from_data(flat, digits=args.digits)
    else:
        binning = EqualWidthBinning.from_data(flat, args.bins)
    index = BitmapIndex.build(
        flat, binning, codec=args.codec, ordering=args.ordering
    )
    written = save_index(args.output, index)
    ratio = written / data.nbytes if data.nbytes else 0.0
    ordered = f", ordering={args.ordering}" if args.ordering else ""
    print(
        f"indexed {data.size} elements into {binning.n_bins} bins{ordered}; "
        f"wrote {written} bytes ({ratio:.1%} of raw) to {args.output}"
    )
    return 0


def _parse_layout(text: str | None):
    if text is None:
        return None
    from repro.bitmap import ZOrderLayout

    return ZOrderLayout.for_shape(tuple(int(x) for x in text.split(",")))


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.bitmap import load_index
    from repro.metrics import shannon_entropy_bitmap

    for path in args.index:
        index = load_index(path)
        print(
            f"{path}: {index.n_elements} elements, {index.n_bins} bins, "
            f"{index.nbytes} bytes, entropy {shannon_entropy_bitmap(index):.4f} bits"
        )
        if args.range is not None:
            lo, hi = args.range
            hits = index.query_value_range(lo, hi)
            print(f"values in [{lo}, {hi}] (bin-granular): {hits.count()} elements")
    if args.sql is not None:
        from repro.service import Catalog, QueryService

        catalog = Catalog.from_files(args.index)
        with QueryService(
            catalog, layout=_parse_layout(args.zorder_shape)
        ) as service:
            result = service.execute(args.sql)
            print(f"{result.metric} = {result.value:.6g}")
            print(f"  {result.stats.summary()}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    import time

    from repro.bitmap import BitmapIndex, EqualWidthBinning, ZOrderLayout
    from repro.mining import correlation_mining, correlation_mining_fulldata
    from repro.sims import OceanDataGenerator

    shape = _parse_shape(args.shape)
    gen = OceanDataGenerator(shape, seed=args.seed)
    snap = gen.advance()
    layout = ZOrderLayout.for_shape(shape)
    tz = layout.flatten(snap.fields["temperature"])
    sz = layout.flatten(snap.fields["salinity"])
    bt = EqualWidthBinning.from_data(tz, args.bins)
    bs = EqualWidthBinning.from_data(sz, args.bins)
    it = BitmapIndex.build(tz, bt)
    is_ = BitmapIndex.build(sz, bs)
    kw = dict(
        value_threshold=args.value_threshold,
        spatial_threshold=args.spatial_threshold,
        unit_bits=args.unit_bits,
    )
    t0 = time.perf_counter()
    result = correlation_mining(it, is_, **kw)
    elapsed = time.perf_counter() - t0
    print(f"bitmap mining: {result} in {elapsed:.3f}s")
    for hit in result.value_hits[:10]:
        print(
            f"  value subset A={bt.bin_label(hit.a_bin)} x "
            f"B={bs.bin_label(hit.b_bin)}: joint={hit.joint_count} "
            f"MI={hit.mutual_information:.4f}"
        )
    if args.baseline:
        t0 = time.perf_counter()
        fd = correlation_mining_fulldata(tz, sz, bt, bs, **kw)
        t_fd = time.perf_counter() - t0
        same = len(fd.value_hits) == len(result.value_hits)
        print(
            f"full-data baseline: {t_fd:.3f}s "
            f"(speedup {t_fd / max(elapsed, 1e-9):.2f}x, hits equal: {same})"
        )
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.perfmodel import (
        MIC60,
        OAKLEY_NODE,
        XEON32,
        ClusterScenario,
        InSituScenario,
        model_sampling,
        model_bitmaps,
        scalability_series,
        speedup_over_cores,
        sweep_allocations,
    )
    from repro.perfmodel.rates import (
        HEAT3D_CLUSTER_RATES,
        HEAT3D_RATES,
        LULESH_RATES,
    )

    if args.figure in ("fig7", "fig8", "fig9", "fig10"):
        configs = {
            "fig7": (XEON32, HEAT3D_RATES, 800e6, [1, 2, 4, 8, 16, 32]),
            "fig8": (MIC60, HEAT3D_RATES, 200e6, [1, 4, 16, 56]),
            "fig9": (XEON32, LULESH_RATES, 6.14e9 / 8, [1, 4, 16, 32]),
            "fig10": (MIC60, LULESH_RATES, 0.768e9 / 8, [1, 16, 56]),
        }
        machine, rates, elems, cores = configs[args.figure]
        sc = InSituScenario(machine, rates, elems)
        print(f"{args.figure}: {rates.name} on {machine.name}")
        for c, full, bm, sp in speedup_over_cores(sc, cores):
            print(
                f"  cores={c:3d} fulldata={full.total:9.1f}s "
                f"bitmaps={bm.total:9.1f}s speedup={sp:.2f}x"
            )
    elif args.figure == "fig12":
        sc = InSituScenario(XEON32.with_cores(28), HEAT3D_RATES, 800e6)
        print("fig12a: heat3d on 28-core xeon")
        for o in sweep_allocations(sc, stride=3):
            print(f"  {o.label:>8s} {o.total_seconds:9.1f}s")
    elif args.figure == "fig13":
        base = InSituScenario(OAKLEY_NODE, HEAT3D_CLUSTER_RATES, 800e6)
        for row in scalability_series(ClusterScenario(OAKLEY_NODE, base),
                                      [1, 2, 4, 8, 16, 32]):
            print(
                f"  nodes={int(row['nodes']):3d} "
                f"local {row['speedup_local']:.2f}x  "
                f"remote {row['speedup_remote']:.2f}x"
            )
    elif args.figure == "fig15":
        sc = InSituScenario(XEON32, HEAT3D_RATES, 800e6)
        bm = model_bitmaps(sc, 32)
        print(f"  bitmaps    {bm.total:9.1f}s")
        for frac in (0.30, 0.15, 0.05, 0.01):
            s = model_sampling(sc, 32, frac)
            print(f"  sample-{frac:4.0%} {s.total:9.1f}s")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.perfmodel import measure_rates
    from repro.perfmodel.rates import HEAT3D_RATES

    shape = _parse_shape(args.shape)
    rates = measure_rates(shape=shape, repeats=args.repeats)
    print(f"measured per-element rates on this host (Heat3D {shape}):")
    for name in ("simulate", "bitmap_gen", "select_full", "select_bitmap", "sample"):
        measured = getattr(rates, name)
        default = getattr(HEAT3D_RATES, name)
        print(f"  {name:14s} {measured:.3e} s/elem  (model default {default:.3e})")
    print(f"  {'size_fraction':14s} {rates.bitmap_size_fraction:.3f}       "
          f"(model default {HEAT3D_RATES.bitmap_size_fraction:.3f})")
    print("\nuse programmatically:  InSituScenario(machine, measure_rates(), elems)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.port is not None:
        return _cmd_serve_network(args)
    if not args.sql:
        print("serve: batch mode needs --sql (or use --port for the "
              "network server)", file=sys.stderr)
        return 2
    from repro.service import QueryService

    with QueryService(
        args.root,
        cache_bytes=int(args.cache_mb * 2**20),
        max_workers=args.workers,
        max_pending=args.max_pending,
        layout=_parse_layout(args.zorder_shape),
    ) as service:
        print(f"serving {service.catalog!r}")
        for round_id in range(max(1, args.repeat)):
            label = "cold" if round_id == 0 else f"warm#{round_id}"
            results = service.execute_many(args.sql, step=args.step)
            for result in results:
                print(
                    f"[{label}] step={result.step} {result.metric} = "
                    f"{result.value:.6g}  ({result.text})"
                )
                print(f"  {result.stats.summary()}")
        print(f"cache: {service.cache.stats()!r}")
        stats = service.service_stats()
        print(
            f"served={stats['served']} rejected={stats['rejected']} "
            f"file_reads={service.file_reads()} "
            f"file_bytes_read={service.file_bytes_read()}"
        )
    return 0


def _cmd_serve_network(args: argparse.Namespace) -> int:
    from repro.service import QueryServer

    server = QueryServer(
        args.root,
        shards=args.shards,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        cache_bytes=int(args.cache_mb * 2**20),
        layout=_parse_layout(args.zorder_shape),
        replicate=args.replicate,
        hotset_budget=int(args.hotset_budget * 2**20),
        rebalance_interval=args.rebalance_interval,
    )
    try:
        server.launch()
        replication = (
            f" replicate(budget={args.hotset_budget:g}MiB "
            f"every {args.rebalance_interval:g}s)"
            if args.replicate
            else ""
        )
        print(
            f"serving {server.catalog!r}\n"
            f"listening on {server.host}:{server.port} "
            f"shards={args.shards} max_pending={server.max_pending}"
            f"{replication}",
            flush=True,
        )
        try:
            while True:
                server._thread.join(timeout=1.0)
                if not server._thread.is_alive():
                    break
        except KeyboardInterrupt:
            print("\nshutting down ...", flush=True)
        stats = server.server_stats()
        print(
            f"served={stats['served']} rejected={stats['rejected']} "
            f"errors={stats['errors']} connections={stats['connections']}"
        )
    finally:
        server.close()
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    """Fetch the ``stats`` frame from a live server and pretty-print it."""
    from repro.service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        stats = client.stats()
    server = stats["server"]
    print(
        f"server {args.host}:{args.port}: served={server['served']} "
        f"rejected={server['rejected']} errors={server['errors']} "
        f"pending={server['pending']}/{server['max_pending']} "
        f"connections={server['connections']}"
    )
    replication = server.get("replication", {})
    if replication.get("enabled"):
        last = replication.get("last_cycle") or {}
        print(
            f"replication: epoch={replication['epoch']} "
            f"cycles={replication['cycles']} "
            f"routes={len(replication.get('routes', {}))} "
            f"last(installed={last.get('installed', 0)} "
            f"dropped={last.get('dropped', 0)} "
            f"hot_keys={last.get('hot_keys', 0)})"
        )
        for rank, holders in sorted(replication.get("routes", {}).items()):
            print(f"  route {rank} -> shards {holders}")
    else:
        print("replication: disabled")
    dispatch = server.get("dispatch", [])
    respawns = server.get("respawns", [])
    for shard in stats.get("shards", []):
        cache = shard["cache"]
        hotset = shard.get("hotset", {})
        replicas = hotset.get("replicas", {})
        sid = shard["shard"]
        print(
            f"shard {sid}: dispatched="
            f"{dispatch[sid] if sid < len(dispatch) else '?'} "
            f"respawns={respawns[sid] if sid < len(respawns) else '?'} "
            f"served={shard['service']['served']} "
            f"cache_hit_rate={cache['hit_rate']:.1%} "
            f"cached={cache['entries']} entries/{cache['bytes_cached']}B "
            f"replicas={len(replicas.get('keys', []))} "
            f"({replicas.get('bytes', 0)}B, hits={replicas.get('hits', 0)}) "
            f"hot_keys={len(hotset.get('access', {}).get('keys', []))}"
        )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.io.timeseries import BitmapStore
    from repro.metrics import conditional_entropy_bitmap, emd_count_bitmap

    store = BitmapStore(args.root)
    steps = store.steps()
    print(f"{args.root}: {len(steps)} steps, "
          f"{store.total_bytes() / 2**20:.2f} MiB of bitmaps")
    for key, value in store.attrs.items():
        print(f"  {key} = {value}")
    for step in steps:
        names = ", ".join(store.variables(step))
        print(f"  step {step:5d}: {names}")
    if args.pairwise is not None:
        print(f"\npairwise walk over {args.pairwise!r}:")
        emd_rows = store.pairwise_metric(args.pairwise, emd_count_bitmap)
        ce_rows = store.pairwise_metric(args.pairwise, conditional_entropy_bitmap)
        for (a, b, emd), (_, _, ce) in zip(emd_rows, ce_rows):
            print(f"  {a:5d} -> {b:5d}:  EMD={emd:12.1f}  H(next|prev)={ce:.4f}")
    return 0


def _parse_fault_specs(specs: list[str] | None):
    """``RANK:KIND[:COLLECTIVE[:CALL_INDEX]]`` strings -> FaultPlan tuple."""
    if not specs:
        return None
    from repro.cluster import FaultPlan

    plans = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise SystemExit(
                f"--inject needs RANK:KIND[:COLLECTIVE[:CALL_INDEX]], "
                f"got {spec!r}"
            )
        try:
            rank = int(parts[0])
            collective = parts[2] if len(parts) > 2 and parts[2] else None
            call_index = int(parts[3]) if len(parts) > 3 else 0
            plans.append(
                FaultPlan(rank, parts[1], collective=collective,
                          call_index=call_index)
            )
        except ValueError as exc:
            raise SystemExit(f"bad --inject spec {spec!r}: {exc}") from exc
    return tuple(plans)


def _cmd_cluster(args: argparse.Namespace) -> int:
    import functools
    import tempfile

    from repro.bitmap import PrecisionBinning
    from repro.cluster import ClusterFailed, ClusterSpec, run_cluster
    from repro.sims import DecomposedHeat3D

    shape = _parse_shape(args.shape)
    if args.ranks < 1:
        raise SystemExit("--ranks must be >= 1")
    fault = _parse_fault_specs(args.inject)
    factory = functools.partial(
        DecomposedHeat3D, shape, n_ranks=args.ranks, seed=args.seed
    )
    binning = None if args.adaptive else PrecisionBinning(19.0, 101.0, digits=1)
    out = args.out
    tmp = None
    if out is None and args.verify:
        tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        out = Path(tmp.name) / "store"
    try:
        spec = ClusterSpec(
            factory,
            args.steps,
            args.select,
            metric=args.metric,
            binning=binning,
            adaptive_digits=args.digits,
            partitioning=args.partitioning,
            out=str(out) if out is not None else None,
            engine=args.engine,
            workers_per_rank=args.workers_per_rank,
            on_fault=args.on_fault,
            max_recoveries=args.max_recoveries,
        )
        try:
            result = run_cluster(
                spec,
                args.ranks,
                transport=args.transport,
                collective_timeout=args.timeout,
                fault=fault,
            )
        except ClusterFailed as exc:
            raise SystemExit(f"cluster failed: {exc}") from exc
        if args.transport == "mpi" and result.reports[0].rank != 0:
            return 0  # non-root MPI ranks stay quiet
        selection = result.selection
        print(
            f"cluster: {args.ranks} ranks over {shape}, "
            f"{args.steps} steps, metric={selection.metric_name}"
        )
        print(f"  selected steps: {result.selected_steps}")
        print(f"  scores: {[f'{s:.4f}' for s in selection.scores[1:]]}")
        for report in result.reports:
            lo, hi = report.flat_bounds
            print(
                f"  rank {report.rank}: rows {report.row_bounds}, "
                f"{hi - lo} elements, {report.nbytes} bytes written"
            )
        if result.manifest_path is not None:
            print(f"  manifest: {result.manifest_path}")
        if result.recovery:
            total = sum(e.elapsed_s for e in result.recovery)
            print(
                f"  recovery: {len(result.recovery)} event(s), "
                f"{total:.2f}s total"
            )
            for event in result.recovery:
                where = (
                    f" onto rank {event.host_rank}"
                    if event.host_rank is not None
                    else ""
                )
                print(
                    f"    rank {event.rank} {event.reason} after "
                    f"{event.at_collective} collective(s) -> {event.mode}"
                    f"{where} (incarnation {event.incarnation}, "
                    f"{event.elapsed_s:.2f}s, "
                    f"{'ok' if event.recovered else 'FAILED'})"
                )
        elif args.on_fault != "fail":
            print(f"  recovery: 0 events (policy {args.on_fault})")
        if args.verify:
            return _verify_cluster(args, factory, binning, result, out)
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


def _verify_cluster(args, factory, binning, result, out) -> int:
    """Differential check: cluster run vs. single-node reference."""
    import tempfile

    from repro.bitmap import save_index
    from repro.cluster import assemble_global_index
    from repro.insitu import InSituPipeline, OutputWriter
    from repro.selection import get_metric

    with tempfile.TemporaryDirectory(prefix="repro-serial-") as td:
        serial_out = Path(td) / "serial"
        pipe = InSituPipeline(
            factory(),
            binning,
            get_metric(args.metric),
            writer=OutputWriter(serial_out),
            partitioning=args.partitioning,
            adaptive_digits=args.digits,
        )
        ref = pipe.run(args.steps, args.select)
        ok = result.selection.selected == ref.selection.selected
        print(
            f"  verify selection: cluster={result.selected_steps} "
            f"serial={[s for s in ref.selection.selected]} "
            f"{'MATCH' if ok else 'MISMATCH'}"
        )
        if out is not None:
            for step in result.selected_steps:
                assembled = assemble_global_index(out, step)
                spliced = Path(td) / "assembled.rbmp"
                save_index(spliced, assembled)
                serial_file = serial_out / f"step_{step:05d}" / "payload.rbmp"
                same = spliced.read_bytes() == serial_file.read_bytes()
                ok = ok and same
                print(
                    f"  verify step {step}: reassembled store "
                    f"{'bit-identical' if same else 'DIFFERS'}"
                )
        if not ok:
            print("  VERIFICATION FAILED")
            return 1
        print("  verification passed")
        return 0


_HANDLERS = {
    "insitu": _cmd_insitu,
    "index": _cmd_index,
    "query": _cmd_query,
    "mine": _cmd_mine,
    "model": _cmd_model,
    "calibrate": _cmd_calibrate,
    "serve": _cmd_serve,
    "serve-stats": _cmd_serve_stats,
    "store": _cmd_store,
    "cluster": _cmd_cluster,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
