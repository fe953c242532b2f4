"""Compression-maximizing row ordering with an invertible permutation.

The paper builds bitmaps in simulation order, but Lemire & Kaser
("Sorting improves word-aligned bitmap indexes") showed that reordering
rows before encoding shrinks WAH indexes by integer factors: sorting
turns scattered set bits into long runs, which WAH's fill words compress
to a couple of words per bin.  "Histogram-Aware Sorting for Enhanced
Word-Aligned Compression in Bitmap Indexes" refines this for
multi-column indexes by reordering *columns* (low-cardinality first) and
relabelling *values* by frequency before the sort.

This module computes a row permutation from one or more columns of
binned ids and packages it as an invertible :class:`RowOrdering`:

* ``"lex"`` -- plain lexicographic sort of the bin-id tuples (the
  Lemire/Kaser baseline; optimal for a single column);
* ``"gray"`` -- reflected mixed-radix Gray-code ordering: consecutive
  rows differ in as few columns as possible, which lengthens runs in
  *every* column, not just the primary sort key;
* ``"hist"`` -- histogram-aware ordering: columns sorted by ascending
  distinct-bin count, bin ids relabelled by descending frequency, then
  lexicographic -- frequent values coalesce into the longest runs.

The permutation maps ordered position to original (simulation) position:
``ordered[i] = original[permutation[i]]``.  Counts and joint histograms
are invariant under a permutation *shared* by every index in a query, so
analysis results are unchanged; element *masks* are not invariant, so
query paths de-permute masks back to simulation order with
:meth:`RowOrdering.unpermute_mask` (and permute spatial region masks
into ordered space with :meth:`RowOrdering.permute_mask`).  The
permutation is persisted next to the bitvectors as a minimal-width
sidecar section in the V2.1 record (:mod:`repro.bitmap.serialization`).
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.wah import WAHBitVector

#: Ordering methods computable from data (``compute_ordering``).
ORDERING_METHODS = ("lex", "gray", "hist")

#: Serialisation tags for the permutation sidecar (uint8; frozen format).
ORDERING_METHOD_TAGS = {"custom": 0, "lex": 1, "gray": 2, "hist": 3}
_TAG_METHODS = {tag: name for name, tag in ORDERING_METHOD_TAGS.items()}


def method_for_tag(tag: int) -> str:
    """Resolve a sidecar method tag; unknown tags raise cleanly."""
    try:
        return _TAG_METHODS[int(tag)]
    except KeyError:
        raise ValueError(
            f"unknown ordering method tag {tag} (known: "
            f"{sorted(ORDERING_METHOD_TAGS.values())})"
        ) from None


class RowOrdering:
    """An invertible row permutation applied before bitmap encoding.

    ``permutation[i]`` is the original (simulation-order) position of the
    row stored at ordered position ``i``; it must be a bijection on
    ``[0, n_rows)``.  ``method`` records how it was computed ("lex",
    "gray", "hist", or "custom" for caller-supplied permutations) --
    informational only; correctness depends solely on the permutation.
    """

    __slots__ = ("method", "permutation", "_inverse", "_digest")

    def __init__(self, method: str, permutation: np.ndarray) -> None:
        perm = np.ascontiguousarray(permutation, dtype=np.int64).ravel()
        if perm.size and (
            perm.min() < 0
            or perm.max() >= perm.size
            or np.bincount(perm, minlength=perm.size).max() != 1
        ):
            raise ValueError(
                f"permutation is not a bijection on [0, {perm.size})"
            )
        if method not in ORDERING_METHOD_TAGS:
            raise ValueError(
                f"unknown ordering method {method!r} "
                f"(known: {sorted(ORDERING_METHOD_TAGS)})"
            )
        self.method = method
        self.permutation = perm
        self._inverse: np.ndarray | None = None
        self._digest: int | None = None

    # -------------------------------------------------------------- rows
    @property
    def n_rows(self) -> int:
        return int(self.permutation.size)

    @property
    def inverse(self) -> np.ndarray:
        """``inverse[original_position] = ordered_position`` (memoised)."""
        if self._inverse is None:
            inv = np.empty_like(self.permutation)
            inv[self.permutation] = np.arange(self.n_rows, dtype=np.int64)
            self._inverse = inv
        return self._inverse

    @property
    def is_identity(self) -> bool:
        return bool(
            np.array_equal(
                self.permutation, np.arange(self.n_rows, dtype=np.int64)
            )
        )

    @property
    def digest(self) -> int:
        """CRC32 of the permutation bytes -- a cheap planner equality
        screen (equal permutations always share a digest; full
        ``np.array_equal`` confirms)."""
        if self._digest is None:
            self._digest = zlib.crc32(self.permutation.tobytes())
        return self._digest

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Reorder flat simulation-order ``data`` into ordered space."""
        flat = np.asarray(data).ravel()
        if flat.size != self.n_rows:
            raise ValueError(
                f"ordering covers {self.n_rows} rows, data has {flat.size}"
            )
        return flat[self.permutation]

    def restore(self, ordered: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`apply`: ordered space back to simulation order."""
        flat = np.asarray(ordered).ravel()
        if flat.size != self.n_rows:
            raise ValueError(
                f"ordering covers {self.n_rows} rows, data has {flat.size}"
            )
        out = np.empty_like(flat)
        out[self.permutation] = flat
        return out

    # ------------------------------------------------------------- masks
    def permute_mask(self, mask: WAHBitVector) -> WAHBitVector:
        """Simulation-order mask -> ordered space (for region predicates
        built from the grid layout, which lives in simulation order)."""
        return WAHBitVector.from_bools(self.apply(mask.to_bools()))

    def unpermute_mask(self, mask: WAHBitVector) -> WAHBitVector:
        """Ordered-space mask -> simulation order (for query results
        crossing any service/wire boundary)."""
        return WAHBitVector.from_bools(self.restore(mask.to_bools()))

    # ---------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowOrdering):
            return NotImplemented
        return self.method == other.method and np.array_equal(
            self.permutation, other.permutation
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # mutable ndarray payload

    def __repr__(self) -> str:
        return (
            f"RowOrdering({self.method!r}, n_rows={self.n_rows}, "
            f"digest=0x{self.digest:08x})"
        )


def orderings_compatible(
    a: RowOrdering | None, b: RowOrdering | None
) -> bool:
    """True when joint queries over indices ordered by ``a`` and ``b``
    are row-aligned: both absent, both equal permutations, or one absent
    and the other the identity."""
    if a is None and b is None:
        return True
    if a is None:
        return b.is_identity
    if b is None:
        return a.is_identity
    return a.digest == b.digest and np.array_equal(
        a.permutation, b.permutation
    )


# ------------------------------------------------------- ordering methods
def _as_id_columns(
    id_columns: Sequence[np.ndarray],
) -> list[np.ndarray]:
    if not id_columns:
        raise ValueError("need at least one id column to order rows")
    cols = [
        np.ascontiguousarray(np.asarray(c, dtype=np.int64).ravel())
        for c in id_columns
    ]
    n = cols[0].size
    for c in cols[1:]:
        if c.size != n:
            raise ValueError(
                f"id columns disagree on row count: {c.size} != {n}"
            )
    return cols


def _radices(
    cols: list[np.ndarray], radices: Sequence[int] | None
) -> list[int]:
    if radices is None:
        return [int(c.max(initial=-1)) + 1 for c in cols]
    if len(radices) != len(cols):
        raise ValueError(
            f"{len(radices)} radices for {len(cols)} id columns"
        )
    out = []
    for c, r in zip(cols, radices):
        r = int(r)
        if c.size and (c.min() < 0 or c.max() >= r):
            raise ValueError(f"id column exceeds its radix {r}")
        out.append(r)
    return out


def _lexsort(keys: list[np.ndarray]) -> np.ndarray:
    # np.lexsort treats its *last* key as primary; keys[0] is our most
    # significant column.  Stable, so equal tuples keep simulation order.
    return np.lexsort(tuple(reversed(keys))).astype(np.int64)


def lexicographic_ordering(
    id_columns: Sequence[np.ndarray],
    radices: Sequence[int] | None = None,
) -> RowOrdering:
    """Sort rows by their bin-id tuples, first column most significant."""
    cols = _as_id_columns(id_columns)
    _radices(cols, radices)  # validation only
    return RowOrdering("lex", _lexsort(cols))


def gray_code_ordering(
    id_columns: Sequence[np.ndarray],
    radices: Sequence[int] | None = None,
) -> RowOrdering:
    """Sort rows along the reflected mixed-radix Gray curve.

    Ranking rule: the transformed digit of column ``c`` is ``d_c`` when
    the sum of the *preceding original* digits is even, else
    ``R_c - 1 - d_c`` (the reflection); lexicographic order of the
    transformed digits is exactly reflected-Gray order (verified against
    a brute-force reflected enumeration in the tests).  Consecutive
    tuples on the curve differ in one digit by one step, so secondary
    columns change direction instead of resetting -- longer runs for
    every column than plain lexicographic.
    """
    cols = _as_id_columns(id_columns)
    rads = _radices(cols, radices)
    n = cols[0].size
    keys: list[np.ndarray] = []
    parity = np.zeros(n, dtype=np.int64)
    for ids, radix in zip(cols, rads):
        keys.append(np.where((parity & 1) == 0, ids, radix - 1 - ids))
        parity += ids
    return RowOrdering("gray", _lexsort(keys))


def histogram_aware_ordering(
    id_columns: Sequence[np.ndarray],
    radices: Sequence[int] | None = None,
) -> RowOrdering:
    """Frequency-sorted column/value ordering (histogram-aware sorting).

    Columns are reordered by ascending distinct-bin count (few-valued
    columns make the cheapest long prefixes), each column's bin ids are
    relabelled by descending frequency (ties by original id, so the
    relabelling is deterministic), and the relabelled tuples are sorted
    lexicographically.  The stored bitvectors are unchanged -- only the
    row order moves -- so no query-side remapping is needed beyond the
    shared permutation.
    """
    cols = _as_id_columns(id_columns)
    rads = _radices(cols, radices)
    relabelled: list[np.ndarray] = []
    distinct: list[int] = []
    for ids, radix in zip(cols, rads):
        counts = np.bincount(ids, minlength=max(radix, 1))
        by_freq = np.argsort(-counts, kind="stable")  # ties keep bin id
        rank = np.empty(by_freq.size, dtype=np.int64)
        rank[by_freq] = np.arange(by_freq.size, dtype=np.int64)
        relabelled.append(rank[ids] if ids.size else ids)
        distinct.append(int((counts > 0).sum()))
    col_order = sorted(range(len(cols)), key=lambda c: (distinct[c], c))
    perm = _lexsort([relabelled[c] for c in col_order])
    return RowOrdering("hist", perm)


_ORDERING_FNS = {
    "lex": lexicographic_ordering,
    "gray": gray_code_ordering,
    "hist": histogram_aware_ordering,
}


def compute_ordering(
    data_columns: Sequence[np.ndarray],
    binnings: Sequence[Binning] | Binning,
    method: str,
) -> RowOrdering:
    """Compute a row ordering from raw data columns under their binnings.

    ``data_columns`` are one array per variable (any shape; flattened
    C-order, all the same size); ``binnings`` is one binning per column
    or a single binning shared by all.  ``method`` is one of
    ``ORDERING_METHODS``.  The sort keys are the columns' *bin ids* --
    ordering on ids rather than raw values is what makes every bin's
    bitvector runs coalesce.
    """
    fn = _ORDERING_FNS.get(method)
    if fn is None:
        raise ValueError(
            f"unknown ordering method {method!r} "
            f"(known: {list(ORDERING_METHODS)})"
        )
    if isinstance(binnings, Binning):
        binnings = [binnings] * len(data_columns)
    if len(binnings) != len(data_columns):
        raise ValueError(
            f"{len(binnings)} binnings for {len(data_columns)} data columns"
        )
    cols = [
        b.assign_checked(np.asarray(d).ravel())
        for d, b in zip(data_columns, binnings)
    ]
    return fn(cols, [b.n_bins for b in binnings])
