"""Concurrent SQL-query executor over stored bitmap indices.

This is the serving path the paper's offline-analysis story implies
(§2.3, §4): once the in-situ pipeline has written selected indices, every
later query runs against those files -- never against raw data.  The
:class:`QueryService` takes the query strings of :mod:`repro.analysis.sql`
and executes them against a :class:`~repro.service.catalog.Catalog` in
four phases, each timed into :class:`QueryStats`:

* **parse** -- :func:`repro.analysis.sql.parse_query`;
* **plan** -- resolve FROM variables through the catalog, validate
  predicates, and compile them to the *minimal* set of bin vectors:
  a ``COUNT`` query touches only the bins its predicates overlap, while
  distribution metrics (``MI``/``CE``/``EMD``) need every bin of both
  variables for the joint histogram;
* **load** -- fetch each planned bitvector through the shared
  :class:`~repro.service.cache.BitvectorCache`; misses fall through to
  :class:`~repro.bitmap.serialization.LazyBitmapIndex`, reading only that
  record's byte range;
* **execute** -- combine masks with the fused k-way density-dispatched
  kernels (:func:`~repro.bitmap.kernels.auto_op_many` /
  :func:`~repro.bitmap.kernels.auto_count_many`: every operand decodes
  once into a single reduce sweep) and evaluate the metric.

Concurrency: queries run on a thread pool behind a *bounded* admission
count -- both :meth:`QueryService.submit` and :meth:`QueryService.execute`
raise :class:`ServiceOverloadError` once ``max_pending`` queries are in
flight instead of queueing without bound, so an overloaded server degrades
by rejecting, not by dying.  The check and the increment happen atomically
under one lock, so hammering the boundary from many threads can never
admit more than ``max_pending`` queries.

Two capabilities feed the sharded network server
(:mod:`repro.service.server`):

* **mask results** -- :meth:`QueryService.execute_mask` returns the
  WHERE clause's combined element bitvector (the SELECT result *set*)
  alongside its popcount;
* **global variables** -- over a cluster store (``rank_NNNN/<var>``
  slabs) an *unqualified* variable name scatter-gathers across every
  rank: per-slab partials merge via
  :func:`~repro.bitmap.builder.splice_bitvectors` (masks) and exact
  integer count-merge (COUNT and the joint histograms behind MI/CE/EMD),
  so results are bit-identical to a single-node evaluation over the
  undecomposed data.  :meth:`QueryService.rank_partial` exposes one
  rank's contribution -- the unit of work a shard worker executes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.queries import spatial_subset_mask
from repro.analysis.sql import (
    Query,
    QueryError,
    clamp_subset,
    execute_query,
    finish_metric,
    parse_query,
    query_joint_counts,
)
from repro.bitmap.builder import splice_bitvectors
from repro.bitmap.index import BitmapIndex, overlapping_bins
from repro.bitmap.kernels import auto_count_many, auto_op_many
from repro.bitmap.ordering import RowOrdering, orderings_compatible
from repro.bitmap.serialization import LazyBitmapIndex
from repro.bitmap.wah import WAHBitVector
from repro.bitmap.zorder import ZOrderLayout
from repro.cluster.merge import merge_query_counts
from repro.service.cache import BitvectorCache, CacheKey
from repro.service.catalog import Catalog, CatalogEntry, CatalogError


class ServiceOverloadError(RuntimeError):
    """Raised when a query is rejected because the service is saturated."""

    def __init__(self, pending: int, capacity: int) -> None:
        super().__init__(
            f"query rejected: {pending} queries already in flight "
            f"(capacity {capacity}); retry later"
        )
        self.pending = pending
        self.capacity = capacity


@dataclass
class QueryStats:
    """Per-query cost accounting across the four execution phases."""

    parse_s: float = 0.0
    plan_s: float = 0.0
    load_s: float = 0.0
    execute_s: float = 0.0
    bytes_loaded: int = 0  # record bytes read from disk (cache misses)
    bitvectors_planned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_s(self) -> float:
        return self.parse_s + self.plan_s + self.load_s + self.execute_s

    def absorb(self, other: "QueryStats") -> None:
        """Accumulate another phase breakdown into this one.

        The scatter-gather front end sums the per-shard stats: the result
        reads as cumulative work across every process that touched the
        query (so phase times can exceed wall clock, like CPU time).
        """
        self.parse_s += other.parse_s
        self.plan_s += other.plan_s
        self.load_s += other.load_s
        self.execute_s += other.execute_s
        self.bytes_loaded += other.bytes_loaded
        self.bitvectors_planned += other.bitvectors_planned
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def as_dict(self) -> dict:
        """JSON-ready form for the wire protocol."""
        return {
            "parse_s": self.parse_s,
            "plan_s": self.plan_s,
            "load_s": self.load_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
            "bytes_loaded": self.bytes_loaded,
            "bitvectors_planned": self.bitvectors_planned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def summary(self) -> str:
        return (
            f"total={self.total_s * 1e3:.2f}ms "
            f"(parse={self.parse_s * 1e3:.2f} plan={self.plan_s * 1e3:.2f} "
            f"load={self.load_s * 1e3:.2f} exec={self.execute_s * 1e3:.2f}) "
            f"bitvectors={self.bitvectors_planned} "
            f"cache={self.cache_hits}h/{self.cache_misses}m "
            f"loaded={self.bytes_loaded}B"
        )


@dataclass
class QueryResult:
    """A finished query: its value plus where the time and bytes went.

    ``mask`` is populated only by :meth:`QueryService.execute_mask` (and
    the server's ``mask`` op): the combined WHERE bitvector whose
    popcount is ``value``.
    """

    value: float
    text: str
    metric: str
    step: int
    stats: QueryStats
    mask: WAHBitVector | None = None


@dataclass
class RankPartial:
    """One rank slab's contribution to a global scatter-gather query.

    Exactly one of ``count`` / ``joint`` / ``mask`` is set, per ``kind``:
    ``"count"`` for COUNT queries, ``"joint"`` for metric queries
    (MI/CE/EMD joint histograms), ``"mask"`` for mask queries.  Partials
    merge with :func:`merge_rank_partials`; ``same_scale`` carries the
    per-rank EMD binning-scale check to the merge point.
    """

    rank: str
    kind: str
    count: float | None = None
    joint: np.ndarray | None = None
    mask: WAHBitVector | None = None
    same_scale: bool = True
    stats: QueryStats = field(default_factory=QueryStats)


@dataclass(frozen=True)
class GlobalQuery:
    """A query over unqualified (multi-rank) variables: the resolved
    step plus the rank directories to scatter over, in slab order."""

    step: int
    ranks: tuple[str, ...]


def partial_kind(metric: str, want_mask: bool) -> str:
    """Which partial a rank must produce for a metric."""
    if want_mask:
        return "mask"
    return "count" if metric == "COUNT" else "joint"


def qualify_query(query: Query, rank: str) -> Query:
    """Rewrite a global query onto one rank's qualified variable names."""
    prefix = f"{rank}/"
    return Query(
        metric=query.metric,
        var_a=prefix + query.var_a,
        var_b=prefix + query.var_b,
        value_predicates={
            prefix + var: subset
            for var, subset in query.value_predicates.items()
        },
        region=query.region,
        text=query.text,
    )


def resolve_global(
    catalog: Catalog, query: Query, step: int | None
) -> GlobalQuery | None:
    """Decide whether a query needs the scatter-gather path.

    Returns ``None`` when ``var_a`` resolves directly (single-file
    queries, including explicitly rank-qualified names -- the direct
    name always wins over a global interpretation).  Otherwise looks for
    rank-qualified members; both FROM variables must decompose over the
    same rank set at one step.  Raises :class:`QueryError` for global
    queries that cannot merge (REGION clauses, mismatched rank sets).
    Shared by the in-process service and the network front end so both
    route identically.
    """
    try:
        catalog.resolve(query.var_a, step)
        return None
    except CatalogError:
        pass
    members_a = catalog.rank_members(query.var_a, step)
    if not members_a:
        return None
    resolved_step = members_a[0].step
    for var in query.value_predicates:
        if var not in (query.var_a, query.var_b):
            raise QueryError(
                f"predicate on {var!r}, which is not in the FROM clause"
            )
    if query.region is not None:
        raise QueryError(
            "REGION is not supported for multi-rank variables: a Z-order "
            "layout does not span a slab-decomposed store"
        )
    ranks_a = tuple(e.variable.split("/", 1)[0] for e in members_a)
    if query.var_b == query.var_a:
        return GlobalQuery(step=resolved_step, ranks=ranks_a)
    members_b = catalog.rank_members(query.var_b, resolved_step)
    ranks_b = tuple(e.variable.split("/", 1)[0] for e in members_b)
    if ranks_b != ranks_a:
        raise QueryError(
            f"FROM variables decompose over different rank sets: "
            f"{query.var_a!r} on {list(ranks_a)}, "
            f"{query.var_b!r} on {list(ranks_b)}"
        )
    return GlobalQuery(step=resolved_step, ranks=ranks_a)


def merge_rank_partials(
    metric: str, want_mask: bool, partials: list[RankPartial]
) -> tuple[float, WAHBitVector | None]:
    """Gather per-rank partials into the final result.

    Masks splice in rank (slab) order via
    :func:`~repro.bitmap.builder.splice_bitvectors` -- byte-identical to
    a mask computed over the undecomposed store; COUNT and joint
    histograms merge by exact integer summation
    (:func:`~repro.cluster.merge.merge_query_counts`) before the metric
    formula runs once on the global counts.  Used verbatim by both the
    in-process path and the network front end.
    """
    if not partials:
        raise QueryError("global query produced no rank partials")
    if want_mask:
        mask = splice_bitvectors([p.mask for p in partials])
        return float(mask.count()), mask
    if metric == "COUNT":
        return float(sum(p.count for p in partials)), None
    if metric == "EMD" and not all(p.same_scale for p in partials):
        raise QueryError("EMD requires both variables on one binning scale")
    joint = merge_query_counts([p.joint for p in partials])
    return finish_metric(metric, joint), None


@contextmanager
def _timed(stats: QueryStats, phase: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        setattr(stats, phase, getattr(stats, phase) + time.perf_counter() - t0)


@dataclass
class _Plan:
    """Resolved execution plan: which bins of which stored files to load."""

    query: Query
    step: int
    entries: dict[str, CatalogEntry]
    lazies: dict[str, LazyBitmapIndex]
    #: variable -> bin ids to load (minimal for COUNT, all bins otherwise)
    needed: dict[str, np.ndarray]
    #: variable -> bin ids forming that variable's predicate mask
    predicate_bins: dict[str, np.ndarray]
    count_only: bool = False
    n_elements: int = 0
    #: shared row ordering of the stored files (None = simulation order).
    #: Bin vectors live in ordered space; result masks are de-permuted
    #: back to simulation order before they cross any boundary.
    ordering: RowOrdering | None = None


class QueryService:
    """Serves :mod:`repro.analysis.sql` queries from a stored catalog.

    Parameters
    ----------
    catalog:
        A :class:`Catalog`, or a store root path to open one over.
    cache:
        Shared :class:`BitvectorCache`; built from ``cache_bytes`` when
        omitted.
    max_workers:
        Thread-pool width for :meth:`submit`.
    max_pending:
        Hard cap on in-flight (queued + running) submitted queries;
        beyond it :meth:`submit` raises :class:`ServiceOverloadError`.
    layout:
        Optional :class:`ZOrderLayout` for ``REGION`` predicates.
    access:
        Optional :class:`~repro.service.hotset.AccessStats` recording
        every bitvector lookup (threaded into the cache) -- the hot-set
        replication subsystem's accounting feed.
    replicas:
        Optional :class:`~repro.service.hotset.ReplicaStore` consulted
        before the cache; holds manager-placed copies of hot bitvectors
        from rank slabs this service does not own.
    """

    def __init__(
        self,
        catalog: Catalog | Path | str,
        *,
        cache: BitvectorCache | None = None,
        cache_bytes: int = 64 << 20,
        max_workers: int = 4,
        max_pending: int = 32,
        layout: ZOrderLayout | None = None,
        access=None,
        replicas=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"need >= 1 worker, got {max_workers}")
        if max_pending < 1:
            raise ValueError(f"need max_pending >= 1, got {max_pending}")
        self.catalog = (
            catalog if isinstance(catalog, Catalog) else Catalog.open(catalog)
        )
        self.cache = cache if cache is not None else BitvectorCache(cache_bytes)
        self.access = access
        if access is not None and self.cache.access is None:
            self.cache.access = access
        self.replicas = replicas
        self.layout = layout
        self.max_pending = int(max_pending)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        self._admission = threading.Lock()
        self._pending = 0
        self._files_lock = threading.Lock()
        self._files: dict[str, LazyBitmapIndex] = {}
        self._served = 0
        self._rejected = 0
        self._busy_s = 0.0
        self._closed = False

    # ----------------------------------------------------------- admission
    def _admit(self) -> None:
        """Atomically claim one admission slot or reject.

        Both the check and the increment happen under ``_admission``, so
        any mix of concurrent :meth:`execute` / :meth:`execute_mask` /
        :meth:`submit` callers can never push the in-flight count past
        ``max_pending``.
        """
        with self._admission:
            if self._pending >= self.max_pending:
                self._rejected += 1
                raise ServiceOverloadError(self._pending, self.max_pending)
            self._pending += 1

    def _unadmit(self) -> None:
        with self._admission:
            self._pending -= 1

    # ----------------------------------------------------------- frontend
    def execute(self, sql: str, *, step: int | None = None) -> QueryResult:
        """Run one query synchronously in the calling thread.

        Counts against ``max_pending`` like :meth:`submit` does: a server
        fanning synchronous ``execute`` calls across its own threads gets
        the same bounded-admission guarantee as the pool path.
        """
        self._admit()
        try:
            return self._run(sql, step)
        finally:
            self._unadmit()

    def execute_mask(self, sql: str, *, step: int | None = None) -> QueryResult:
        """Run a COUNT query and also return its WHERE bitvector.

        The result's ``mask`` is the combined predicate bitvector -- the
        query's element *set* -- and ``value`` is its popcount.  Only
        ``COUNT`` queries have a mask result (a metric's result is a
        scalar over a joint histogram, not a row set).
        """
        self._admit()
        try:
            return self._run(sql, step, want_mask=True)
        finally:
            self._unadmit()

    def submit(self, sql: str, *, step: int | None = None) -> "Future[QueryResult]":
        """Enqueue one query on the pool; bounded, rejecting on overload."""
        if self._closed:
            raise RuntimeError("QueryService is closed")
        self._admit()
        try:
            future = self._pool.submit(self._run, sql, step)
        except BaseException:
            self._unadmit()
            raise
        future.add_done_callback(lambda _f: self._unadmit())
        return future

    def execute_many(
        self, sqls: list[str], *, step: int | None = None
    ) -> list[QueryResult]:
        """Run a batch concurrently (blocking); admission still applies."""
        futures = [self.submit(sql, step=step) for sql in sqls]
        return [f.result() for f in futures]

    def rank_partial(
        self,
        sql: str,
        *,
        rank: str,
        step: int | None = None,
        want_mask: bool = False,
    ) -> RankPartial:
        """One rank slab's partial for a global query -- the shard unit.

        Parses ``sql``, rewrites it onto ``rank``'s qualified variables,
        and evaluates just that slab, returning the summable partial
        (count / joint histogram / slab mask) for
        :func:`merge_rank_partials`.  Called by shard workers
        (:mod:`repro.service.shard`); also the building block of this
        service's own in-process global path, which keeps the two
        byte-identical by construction.
        """
        query = parse_query(sql)
        if want_mask and query.metric != "COUNT":
            raise QueryError(
                f"mask results require COUNT, not {query.metric}"
            )
        t0 = time.thread_time()
        for attempt in (0, 1):
            try:
                partial = self._rank_partial(query, rank, step, want_mask)
                self._busy_s += time.thread_time() - t0
                return partial
            except FileNotFoundError as exc:
                if attempt:
                    raise QueryError(
                        f"store file vanished and rebuild did not recover "
                        f"it: {exc}"
                    ) from exc
                self._refresh_catalog()

    # ------------------------------------------------------------- phases
    def _run(
        self, sql: str, step: int | None, want_mask: bool = False
    ) -> QueryResult:
        t0 = time.thread_time()
        stats = QueryStats()
        with _timed(stats, "parse_s"):
            query = parse_query(sql)
        if want_mask and query.metric != "COUNT":
            raise QueryError(
                f"mask results require COUNT, not {query.metric}"
            )
        # A lookup can trip over files deleted after catalog.json was
        # written.  The manifest is derived state: rebuild it once and
        # retry; a second failure means the data is really gone and
        # surfaces as a clean QueryError from the re-plan.
        for attempt in (0, 1):
            try:
                result = self._attempt(query, step, want_mask, stats)
                break
            except FileNotFoundError as exc:
                if attempt:
                    raise QueryError(
                        f"store file vanished and rebuild did not recover "
                        f"it: {exc}"
                    ) from exc
                self._refresh_catalog()
        self._served += 1
        self._busy_s += time.thread_time() - t0
        return result

    def _attempt(
        self,
        query: Query,
        step: int | None,
        want_mask: bool,
        stats: QueryStats,
    ) -> QueryResult:
        glob = resolve_global(self.catalog, query, step)
        if glob is not None:
            return self._run_global(query, glob, want_mask, stats)

        with _timed(stats, "plan_s"):
            plan = self._plan(query, step)
        with _timed(stats, "load_s"):
            loaded = self._load(plan, stats)
        with _timed(stats, "execute_s"):
            if want_mask:
                mask = self._mask_vector(plan, loaded)
                value, result_mask = float(mask.count()), mask
            else:
                value, result_mask = self._execute(plan, loaded), None
        return QueryResult(
            value=value,
            text=query.text,
            metric=query.metric,
            step=plan.step,
            stats=stats,
            mask=result_mask,
        )

    def _run_global(
        self,
        query: Query,
        glob: GlobalQuery,
        want_mask: bool,
        stats: QueryStats,
    ) -> QueryResult:
        """Scatter over rank slabs in-process, then the exact merge."""
        partials = [
            self._rank_partial(query, rank, glob.step, want_mask)
            for rank in glob.ranks
        ]
        for partial in partials:
            stats.absorb(partial.stats)
        with _timed(stats, "execute_s"):
            value, mask = merge_rank_partials(query.metric, want_mask, partials)
        return QueryResult(
            value=value,
            text=query.text,
            metric=query.metric,
            step=glob.step,
            stats=stats,
            mask=mask,
        )

    def _rank_partial(
        self, query: Query, rank: str, step: int | None, want_mask: bool
    ) -> RankPartial:
        stats = QueryStats()
        local = qualify_query(query, rank)
        with _timed(stats, "plan_s"):
            plan = self._plan(local, step)
        with _timed(stats, "load_s"):
            loaded = self._load(plan, stats)
        kind = partial_kind(query.metric, want_mask)
        with _timed(stats, "execute_s"):
            if kind == "mask":
                return RankPartial(
                    rank=rank,
                    kind=kind,
                    mask=self._mask_vector(plan, loaded),
                    stats=stats,
                )
            if kind == "count":
                return RankPartial(
                    rank=rank,
                    kind=kind,
                    count=self._execute_count(plan, loaded),
                    stats=stats,
                )
            joint, same_scale = self._joint_partial(plan, loaded)
            return RankPartial(
                rank=rank,
                kind=kind,
                joint=joint,
                same_scale=same_scale,
                stats=stats,
            )

    def _plan(self, query: Query, step: int | None) -> _Plan:
        try:
            entry_a = self.catalog.resolve(query.var_a, step)
            resolved_step = entry_a.step if step is None else step
            entry_b = self.catalog.resolve(query.var_b, resolved_step)
        except CatalogError as exc:
            raise QueryError(f"unknown variable in FROM clause: {exc}") from exc
        entries = {query.var_a: entry_a, query.var_b: entry_b}
        if entry_a.n_elements != entry_b.n_elements:
            raise QueryError("FROM variables cover different element sets")
        for var in query.value_predicates:
            if var not in entries:
                raise QueryError(
                    f"predicate on {var!r}, which is not in the FROM clause"
                )
        if query.region is not None and self.layout is None:
            raise QueryError("REGION clause requires a ZOrderLayout")

        lazies = {var: self._open(entries[var]) for var in entries}
        ordering_a = lazies[query.var_a].ordering
        ordering_b = lazies[query.var_b].ordering
        if not orderings_compatible(ordering_a, ordering_b):
            raise QueryError(
                "FROM variables are stored under different row orderings; "
                "joint results would not be row-aligned"
            )
        predicate_bins: dict[str, np.ndarray] = {}
        for var, subset in query.value_predicates.items():
            clamped = clamp_subset(subset, lazies[var].binning)
            predicate_bins[var] = overlapping_bins(
                lazies[var].binning, clamped.lo, clamped.hi
            )

        count_only = query.metric == "COUNT"
        if count_only:
            needed = {var: bins for var, bins in predicate_bins.items()}
        else:
            needed = {
                var: np.arange(lazies[var].n_bins, dtype=np.int64)
                for var in entries
            }
        return _Plan(
            query=query,
            step=resolved_step,
            entries=entries,
            lazies=lazies,
            needed=needed,
            predicate_bins=predicate_bins,
            count_only=count_only,
            n_elements=entry_a.n_elements,
            ordering=ordering_a if ordering_a is not None else ordering_b,
        )

    def _load(
        self, plan: _Plan, stats: QueryStats
    ) -> dict[str, dict[int, WAHBitVector]]:
        loaded: dict[str, dict[int, WAHBitVector]] = {}
        for var, bins in plan.needed.items():
            entry = plan.entries[var]
            lazy = plan.lazies[var]
            path = str(self.catalog.path_of(entry))
            vectors: dict[int, WAHBitVector] = {}
            for bin_id in bins:
                bin_id = int(bin_id)
                key = CacheKey.for_bin(path, var, bin_id)
                if self.replicas is not None:
                    replica = self.replicas.get(key)
                    if replica is not None:
                        # Manager-placed copy: counts as a hit (no disk
                        # touched) and still feeds the access accounting.
                        if self.access is not None:
                            self.access.record(key)
                        stats.cache_hits += 1
                        vectors[bin_id] = replica
                        continue
                vector, hit = self.cache.get_or_load(
                    key, lambda b=bin_id: lazy.get(b)
                )
                if hit:
                    stats.cache_hits += 1
                else:
                    stats.cache_misses += 1
                    stats.bytes_loaded += lazy.nbytes_of(bin_id)
                vectors[bin_id] = vector
            stats.bitvectors_planned += len(vectors)
            loaded[var] = vectors
        return loaded

    def _execute(
        self, plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> float:
        if plan.count_only:
            return self._execute_count(plan, loaded)
        return execute_query(
            plan.query, self._indices(plan, loaded), layout=self.layout
        )

    @staticmethod
    def _indices(
        plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> dict[str, BitmapIndex]:
        """Every FROM variable's full index, assembled from loaded bins."""
        return {
            var: BitmapIndex(
                plan.lazies[var].binning,
                [loaded[var][b] for b in range(plan.lazies[var].n_bins)],
                plan.n_elements,
                plan.lazies[var].ordering,
            )
            for var in plan.entries
        }

    def _where_masks(
        self, plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> list[WAHBitVector] | None:
        """The WHERE plan in ordered space: one OR over each variable's
        predicate bins, plus the region; the result set is their AND.
        ``None`` when a predicate overlaps no bin (the set is empty)."""
        masks: list[WAHBitVector] = []
        for var, bins in plan.predicate_bins.items():
            if bins.size == 0:
                return None
            vectors = [loaded[var][int(b)] for b in bins]
            masks.append(auto_op_many(vectors, "or"))
        if plan.query.region is not None:
            region = spatial_subset_mask(
                plan.n_elements, plan.query.region, self.layout
            )
            if plan.ordering is not None:
                # Bin vectors live in ordered space; the grid layout
                # lives in simulation order.  Move the region predicate
                # into ordered space (counts are space-invariant).
                region = plan.ordering.permute_mask(region)
            masks.append(region)
        return masks

    def _execute_count(
        self, plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> float:
        """COUNT from the minimal bin set: OR within a predicate, AND across.

        Matches ``execute_query``'s ``joint.sum()`` exactly -- the bins
        partition the element set, so the joint histogram's total is the
        popcount of the combined mask -- without ever touching bins the
        predicates don't overlap.  Both folds run on the fused k-way
        kernels (:mod:`repro.bitmap.kernels`): each bin vector decodes
        once into one reduce sweep, and the final AND never materialises
        a result vector at all (``auto_count_many``).
        """
        masks = self._where_masks(plan, loaded)
        if masks is None:
            return 0.0
        if not masks:
            return float(plan.n_elements)
        return float(auto_count_many(masks, "and"))

    def _mask_vector(
        self, plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> WAHBitVector:
        """The combined WHERE bitvector from the minimal COUNT plan.

        Same combination as :meth:`_execute_count` (OR within each
        variable's predicate bins, AND across variables and the region)
        but materialising the vector instead of short-circuiting to a
        popcount.

        The returned mask is always in *simulation* order: when the
        stored file was row-ordered, the combined ordered-space vector is
        de-permuted here, rank-locally -- so splice, the wire protocol,
        and every caller stay ordering-agnostic, even when a store mixes
        ordered and unordered ranks.
        """
        masks = self._where_masks(plan, loaded)
        if masks is None:
            return WAHBitVector.zeros(plan.n_elements)
        if not masks:
            return WAHBitVector.ones(plan.n_elements)
        mask = auto_op_many(masks, "and")
        if plan.ordering is not None:
            mask = plan.ordering.unpermute_mask(mask)
        return mask

    def _joint_partial(
        self, plan: _Plan, loaded: dict[str, dict[int, WAHBitVector]]
    ) -> tuple[np.ndarray, bool]:
        """One slab's restricted joint histogram (+ binning-scale flag)."""
        indices = self._indices(plan, loaded)
        index_a = indices[plan.query.var_a]
        index_b = indices[plan.query.var_b]
        joint = query_joint_counts(
            plan.query, index_a, index_b, layout=self.layout
        )
        return joint, index_a.binning == index_b.binning

    def fetch_bitvector(
        self, file: str, variable: str, bin_id: int, level: int = 0
    ) -> WAHBitVector:
        """Load one bitvector by cache identity -- the replication unit.

        The owner-side half of a replica push: the manager asks the
        owning shard for the raw vector (served from replica slot, cache,
        or a single-record disk read) and forwards its word buffer to the
        holders.  ``file`` must be a store file this service can open.
        """
        key = CacheKey.for_bin(file, variable, bin_id, level)
        if self.replicas is not None:
            replica = self.replicas.get(key)
            if replica is not None:
                return replica
        with self._files_lock:
            lazy = self._files.get(key.file)
            if lazy is None:
                lazy = LazyBitmapIndex(key.file)
                self._files[key.file] = lazy
        vector, _ = self.cache.get_or_load(key, lambda: lazy.get(key.bin))
        return vector

    # ------------------------------------------------------------ backend
    def _open(self, entry: CatalogEntry) -> LazyBitmapIndex:
        """Shared per-file lazy reader (header parsed once, then reused)."""
        path = str(self.catalog.path_of(entry))
        with self._files_lock:
            lazy = self._files.get(path)
            if lazy is None:
                lazy = LazyBitmapIndex(path)
                self._files[path] = lazy
            return lazy

    def _refresh_catalog(self) -> None:
        """Recover from store files vanishing behind the manifest.

        Closes and drops every open reader whose file is gone (an open
        handle would keep serving deleted bytes on POSIX, silently
        answering queries from a directory that no longer exists), evicts
        their cache entries, then rebuilds the catalog from what is still
        on disk.
        """
        with self._files_lock:
            vanished = [
                path for path in self._files if not Path(path).exists()
            ]
            for path in vanished:
                self._files.pop(path).close()
        for path in vanished:
            self.cache.invalidate_file(path)
        if self.replicas is not None:
            # Replica bytes were read from files that may have been
            # rewritten; past a rebuild they are not trusted.
            self.replicas.clear()
        self.catalog.refresh()

    def file_bytes_read(self) -> int:
        """Total record bytes read from disk across every open file."""
        with self._files_lock:
            return sum(lazy.bytes_read for lazy in self._files.values())

    def file_reads(self) -> int:
        """Total bitvector record reads issued against the store."""
        with self._files_lock:
            return sum(lazy.reads for lazy in self._files.values())

    def service_stats(self) -> dict[str, int]:
        with self._admission:
            pending = self._pending
        return {
            "served": self._served,
            "rejected": self._rejected,
            "pending": pending,
            "open_files": len(self._files),
            "busy_s": self._busy_s,
        }

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._files_lock:
            for lazy in self._files.values():
                lazy.close()
            self._files.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService({self.catalog!r}, cache={self.cache.stats()!r}, "
            f"stats={self.service_stats()!r})"
        )
