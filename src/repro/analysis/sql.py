"""A restricted SQL-ish query language for correlation analysis (§4.1).

The authors' interactive framework [30] let scientists "submit different
SQL queries to specify the data subsets (either value-based or
dimension-based subsets) they are interested in for correlation analysis".
This module provides that front end over the bitmap machinery:

    SELECT MI FROM temperature, salinity
        WHERE temperature BETWEEN 2.5 AND 9
          AND salinity >= 34
          AND REGION(0:4, 10:20, 0:48)

Grammar (case-insensitive keywords):

* ``SELECT <metric>`` -- one of ``MI`` (mutual information), ``CE``
  (conditional entropy of var1 given var2), ``EMD`` (count-based EMD,
  requires a shared binning scale), ``COUNT`` (join cardinality);
* ``FROM a, b`` -- two variable names resolved against a dict of indices;
* ``WHERE`` clauses joined by ``AND``:
  - ``<var> BETWEEN x AND y``,
  - ``<var> >= x`` / ``<var> <= x``,
  - ``REGION(lo:hi, lo:hi, ...)`` -- a grid box (needs a Z-order layout).

All predicates compile to bitvector masks (bin-granular, like the rest of
the system); evaluation never touches raw data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.queries import (
    SpatialSubset,
    ValueSubset,
    restricted_joint_counts,
    spatial_subset_mask,
    value_subset_mask,
)
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import auto_op_many
from repro.bitmap.ordering import orderings_compatible
from repro.bitmap.wah import WAHBitVector
from repro.bitmap.zorder import ZOrderLayout
from repro.metrics.entropy import (
    conditional_entropy_from_joint,
    mutual_information_from_joint,
)
from repro.metrics.emd import emd_from_counts

_METRICS = ("MI", "CE", "EMD", "COUNT")


class QueryError(ValueError):
    """Raised for malformed query text."""


@dataclass
class Query:
    """A parsed query, ready to evaluate against named indices."""

    metric: str
    var_a: str
    var_b: str
    value_predicates: dict[str, ValueSubset] = field(default_factory=dict)
    region: SpatialSubset | None = None
    text: str = ""

    def __repr__(self) -> str:
        return f"Query({self.text!r})"


# Variable tokens admit "/" so the rank-qualified names the catalog
# derives from cluster stores ("rank_0000/payload") stay addressable.
# Numeric literals are real floats: sign, decimals, signed exponent --
# "[-\d.eE+]+"-style character classes silently rejected "1e-3".
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_SELECT_RE = re.compile(
    r"^\s*SELECT\s+(?P<metric>\w+)\s+FROM\s+(?P<a>[\w/]+)\s*,\s*(?P<b>[\w/]+)"
    r"(?:\s+WHERE\b(?P<where>.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_BETWEEN_RE = re.compile(
    rf"^(?P<var>[\w/]+)\s+BETWEEN\s+(?P<lo>{_NUM})\s+AND\s+(?P<hi>{_NUM})$",
    re.IGNORECASE,
)
_CMP_RE = re.compile(
    rf"^(?P<var>[\w/]+)\s*(?P<op>>=|<=)\s*(?P<val>{_NUM})$"
)
_REGION_RE = re.compile(r"^REGION\s*\((?P<body>[^)]*)\)$", re.IGNORECASE)


def _split_where(text: str) -> list[str]:
    """Split WHERE clauses on AND, but not the AND inside BETWEEN."""
    parts: list[str] = []
    tokens = re.split(r"\bAND\b", text, flags=re.IGNORECASE)
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if re.search(rf"\bBETWEEN\s+{_NUM}\s*$", token, re.IGNORECASE):
            if i + 1 >= len(tokens) or not tokens[i + 1].strip():
                raise QueryError(f"dangling BETWEEN in {token.strip()!r}")
            token = f"{token} AND {tokens[i + 1]}"
            i += 1
        parts.append(token.strip())
        i += 1
    if any(not p for p in parts):
        raise QueryError(f"dangling AND in WHERE clause {text.strip()!r}")
    return parts


def parse_query(text: str) -> Query:
    """Parse query text; raises :class:`QueryError` with a useful message."""
    # Interactive clients habitually terminate statements with ";".
    core = text.strip()
    while core.endswith(";"):
        core = core[:-1].rstrip()
    m = _SELECT_RE.match(core)
    if not m:
        raise QueryError(
            f"cannot parse {text!r}: expected "
            "'SELECT <metric> FROM <a>, <b> [WHERE ...]'"
        )
    metric = m.group("metric").upper()
    if metric not in _METRICS:
        raise QueryError(f"unknown metric {metric!r}; supported: {_METRICS}")
    query = Query(metric, m.group("a"), m.group("b"), text=text.strip())

    where = m.group("where")
    if where is not None and not where.strip():
        raise QueryError("empty WHERE clause")
    if where:
        for clause in _split_where(where):
            if bm := _BETWEEN_RE.match(clause):
                lo, hi = float(bm.group("lo")), float(bm.group("hi"))
                if hi < lo:
                    raise QueryError(
                        f"inverted BETWEEN bounds on {bm.group('var')!r}: "
                        f"[{lo}, {hi}]"
                    )
                _merge_predicate(query, bm.group("var"), ValueSubset(lo, hi))
            elif cm := _CMP_RE.match(clause):
                val = float(cm.group("val"))
                subset = (
                    ValueSubset(val, float("inf"))
                    if cm.group("op") == ">="
                    else ValueSubset(float("-inf"), val)
                )
                _merge_predicate(query, cm.group("var"), subset)
            elif rm := _REGION_RE.match(clause):
                if query.region is not None:
                    raise QueryError("multiple REGION clauses")
                query.region = _parse_region(rm.group("body"))
            else:
                raise QueryError(f"cannot parse WHERE clause {clause!r}")
    return query


def _merge_predicate(query: Query, var: str, subset: ValueSubset) -> None:
    existing = query.value_predicates.get(var)
    if existing is None:
        query.value_predicates[var] = subset
        return
    lo = max(existing.lo, subset.lo)
    hi = min(existing.hi, subset.hi)
    if hi < lo:
        raise QueryError(f"contradictory predicates on {var!r}")
    query.value_predicates[var] = ValueSubset(lo, hi)


def _parse_region(body: str) -> SpatialSubset:
    lo: list[int] = []
    hi: list[int] = []
    for dim in body.split(","):
        dim = dim.strip()
        m = re.match(r"^(\d+)\s*:\s*(\d+)$", dim)
        if not m:
            raise QueryError(f"bad REGION dimension {dim!r}; expected lo:hi")
        lo.append(int(m.group(1)))
        hi.append(int(m.group(2)))
    return SpatialSubset(tuple(lo), tuple(hi))


def clamp_subset(subset: ValueSubset, binning) -> ValueSubset:
    """Replace +-inf bounds with the binning's extremes.

    Public because the query service's planner
    (:mod:`repro.service.executor`) must clamp predicates against a
    *binning alone* -- before any bitvector is loaded -- to pick the same
    bins this module would.
    """
    edges = getattr(binning, "edges", None)
    if edges is None:
        values = getattr(binning, "values", None)
        domain_lo, domain_hi = float(values[0]), float(values[-1])
    else:
        domain_lo, domain_hi = float(edges[0]), float(edges[-1])
    lo = domain_lo if np.isneginf(subset.lo) else subset.lo
    hi = domain_hi if np.isposinf(subset.hi) else subset.hi
    return ValueSubset(min(lo, hi), max(lo, hi))


def _clamped(subset: ValueSubset, index: BitmapIndex) -> ValueSubset:
    return clamp_subset(subset, index.binning)


def predicate_mask(
    query: Query,
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    *,
    layout: ZOrderLayout | None = None,
) -> WAHBitVector:
    """The combined element mask a query's WHERE clause selects.

    One fused AND (``repro.bitmap.kernels.auto_op_many``) of every value
    predicate's bin-granular mask plus the optional region mask;
    all-ones when there is no WHERE clause.  Public because
    the query service's scatter-gather path computes this per rank slab
    and splices the parts (`repro.service.shard`).

    The mask lives in the *indices'* row space: for row-ordered indices
    (:mod:`repro.bitmap.ordering`) the region predicate -- built from
    the simulation-order grid layout -- is permuted into ordered space
    before the AND, and callers that need the result in simulation order
    de-permute it with ``index_a.ordering.unpermute_mask``.  Both
    indices must share one row ordering, else bit ``i`` would name two
    different elements.
    """
    ordering_a = getattr(index_a, "ordering", None)
    if not orderings_compatible(ordering_a, getattr(index_b, "ordering", None)):
        raise QueryError(
            "FROM variables are stored under different row orderings; "
            "joint results would not be row-aligned"
        )
    n = index_a.n_elements
    masks: list[WAHBitVector] = []
    for var, subset in query.value_predicates.items():
        if var not in (query.var_a, query.var_b):
            raise QueryError(
                f"predicate on {var!r}, which is not in the FROM clause"
            )
        index = index_a if var == query.var_a else index_b
        masks.append(value_subset_mask(index, _clamped(subset, index)))
    if query.region is not None:
        if layout is None:
            raise QueryError("REGION clause requires a ZOrderLayout")
        region = spatial_subset_mask(n, query.region, layout)
        if ordering_a is not None:
            region = ordering_a.permute_mask(region)
        masks.append(region)
    return auto_op_many(masks, "and") if masks else WAHBitVector.ones(n)


def query_joint_counts(
    query: Query,
    index_a: BitmapIndex,
    index_b: BitmapIndex,
    *,
    layout: ZOrderLayout | None = None,
) -> np.ndarray:
    """The restricted joint histogram a query's metric is computed from.

    Integer counts: over a domain decomposition the elementwise sum of
    per-slab results equals the single-node histogram exactly, which is
    what makes sharded metric queries bit-identical to serial ones.
    """
    if index_b.n_elements != index_a.n_elements:
        raise QueryError("FROM variables cover different element sets")
    mask = predicate_mask(query, index_a, index_b, layout=layout)
    return restricted_joint_counts(index_a, index_b, mask)


def finish_metric(metric: str, joint: np.ndarray) -> float:
    """Apply a metric's float formula to a (possibly merged) joint
    histogram.  The EMD same-binning-scale requirement is the caller's
    to enforce (it needs the binnings, which the counts don't carry)."""
    if metric == "MI":
        return mutual_information_from_joint(joint)
    if metric == "CE":
        return conditional_entropy_from_joint(joint)
    if metric == "COUNT":
        return float(joint.sum())
    if metric == "EMD":
        return emd_from_counts(joint.sum(axis=1), joint.sum(axis=0))
    raise QueryError(f"unknown metric {metric!r}; supported: {_METRICS}")


def execute_query(
    query: Query,
    indices: dict[str, BitmapIndex],
    *,
    layout: ZOrderLayout | None = None,
) -> float:
    """Evaluate a parsed query against named bitmap indices."""
    try:
        index_a = indices[query.var_a]
        index_b = indices[query.var_b]
    except KeyError as exc:
        raise QueryError(
            f"unknown variable {exc.args[0]!r}; available: {sorted(indices)}"
        ) from None
    if query.metric == "EMD" and index_a.binning != index_b.binning:
        # EMD over the restricted marginals requires one binning scale.
        raise QueryError("EMD requires both variables on one binning scale")
    joint = query_joint_counts(query, index_a, index_b, layout=layout)
    return finish_metric(query.metric, joint)


def query(
    text: str,
    indices: dict[str, BitmapIndex],
    *,
    layout: ZOrderLayout | None = None,
) -> float:
    """Parse and execute in one call."""
    return execute_query(parse_query(text), indices, layout=layout)
