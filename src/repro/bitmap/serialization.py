"""On-disk format for bitvectors and bitmap indices.

The in-situ pipeline's whole point is that it writes *bitmaps*, not raw
data, to persistent storage (§2.3 / Figures 7-10 "output" bars).  This
module defines that byte format:

* a bitvector record: ``n_bits`` + word count + the raw ``uint32`` words;
* an index record: a magic header, the binning (self-describing, no
  pickle), element count, and the bitvector records;
* a per-time-step container used by :mod:`repro.insitu.writer`.

All integers are little-endian.  The format is versioned so stored bitmaps
outlive code changes.

Two record versions exist, the second with a tagged minor revision:

* **V1** -- header + bitvector records, readable only front to back.
* **V2** (default for new writes) -- V1's layout followed by an *offset
  table* (``n_bins + 1`` int64 byte offsets, relative to the record
  start; the final entry is the table's own offset) and a 12-byte footer
  (``<q table_offset>`` + ``RBOT``).  The table makes every bitvector
  independently addressable, which is what :class:`LazyBitmapIndex` and
  the query service (:mod:`repro.service`) build on: a single-bin query
  against a stored index reads only that bin's bytes.
* **V2.1 (codec-tagged)** -- V2 with bit 0 of the header's 16-bit flags
  field set (the flags field was written as zero by every earlier
  version, so old readers reject tagged files cleanly and old files
  parse unchanged).  A *codec tag table* of ``n_bins`` ``uint8`` tags
  follows the ``<qi n_elements n_bins>`` header, one per bitvector in
  record order, naming the storage codec of each record's payload
  (:mod:`repro.bitmap.codec`: 0 = WAH, 1 = Roaring; tag 2, the 64-bit
  WAH of earlier versions, is retired and reads as an unknown tag).
  Record framing is unchanged -- ``<qi n_bits payload_words>`` then
  ``payload_words`` little-endian ``uint32`` words -- only the payload
  encoding varies by tag.  Unknown tags and truncated tag tables raise
  clear errors before any payload byte is read.  The codec is a
  property of the file: the writer encodes from the index's codec name
  and every reader decodes to WAH, so in-memory indices are always WAH.
  Writers emit the tagged layout only when a non-WAH payload is
  present, so all-WAH indices remain byte-identical to plain V2 (and
  V1/V2-untagged files load bit-identically).
* **V2.1 (row-ordered)** -- flags bit 1 marks an index whose rows were
  permuted before encoding (:mod:`repro.bitmap.ordering`).  A
  *permutation sidecar* follows the codec tag table (or the
  ``<qi n_elements n_bins>`` header when untagged):
  ``<B method_tag> <B width> <q n_rows>`` then ``n_rows`` little-endian
  unsigned integers of ``width`` bytes each (1/2/4/8 -- the minimal
  width for ``n_rows - 1``, which is the "compression" relative to a
  naive int64 dump).  ``ordered_row[i] = simulation_row[perm[i]]``; the
  sidecar is validated as a bijection on read, so spatial/region
  queries and mask results can be mapped back to simulation order
  *exactly*.  Both flags compose (tag table first, then sidecar).
  Writers emit the sidecar only when the index carries an ordering, so
  unordered records stay byte-identical to pre-ordering output.

Sequential readers consume V2 records exactly (table and footer
included), so V2 indices still embed in containers with trailing data;
V1 files written by older code load unchanged.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import threading
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.bitmap.binning import (
    Binning,
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
)
from repro.bitmap.codec import (
    WAH as WAH_CODEC,
    Codec,
    codec_for_name,
    codec_for_tag,
    select_codec,
)
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ordering import (
    ORDERING_METHOD_TAGS,
    RowOrdering,
    method_for_tag,
)
from repro.bitmap.wah import WAHBitVector

MAGIC = b"RBMP"
FOOTER_MAGIC = b"RBOT"
VERSION = 1
VERSION_V2 = 2
#: Version used for new writes (V1 remains fully readable).
DEFAULT_VERSION = VERSION_V2
_SUPPORTED_VERSIONS = (VERSION, VERSION_V2)

#: Header-flags bit marking the V2.1 codec-tagged layout.
FLAG_CODEC_TAGS = 0x0001
#: Header-flags bit marking a row-ordered index (permutation sidecar).
FLAG_ORDERING = 0x0002
_KNOWN_FLAGS = FLAG_CODEC_TAGS | FLAG_ORDERING

_FOOTER_SIZE = 12  # <q table_offset> + FOOTER_MAGIC
_ORDERING_HEADER = struct.Struct("<BBq")  # method_tag, byte width, n_rows
_ORDERING_WIDTHS = (1, 2, 4, 8)


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise a clean ``EOFError``."""
    raw = fh.read(n)
    if len(raw) != n:
        raise EOFError(f"truncated {what}: wanted {n} bytes, got {len(raw)}")
    return raw


def _bytes_remaining(fh: BinaryIO) -> int | None:
    """Bytes left in a seekable stream, or ``None`` when unknowable."""
    try:
        cur = fh.tell()
        end = fh.seek(0, os.SEEK_END)
        fh.seek(cur)
    except (OSError, AttributeError, io.UnsupportedOperation):
        return None
    return end - cur

_BINNING_TAGS: dict[type, int] = {
    EqualWidthBinning: 1,
    PrecisionBinning: 2,
    ExplicitBinning: 3,
    DistinctValueBinning: 4,
}


# ------------------------------------------------------------- bitvectors
def write_bitvector(
    fh: BinaryIO, vector: WAHBitVector, codec: Codec = WAH_CODEC
) -> int:
    """Append one bitvector record, its payload encoded by ``codec``;
    returns bytes written.

    The record frame is codec-uniform: ``<qi n_bits payload_words>``
    followed by the payload as little-endian ``uint32`` words.  *Which*
    codec the payload belongs to is not part of the record -- V1/V2
    records are always WAH; the V2.1 tag table carries it otherwise.
    """
    payload = codec.encode(vector)
    header = struct.pack("<qi", vector.n_bits, payload.size)
    fh.write(header)
    raw = payload.astype("<u4").tobytes()
    fh.write(raw)
    return len(header) + len(raw)


def _check_bitvector_header(
    n_bits: int, n_words: int, codec: Codec = WAH_CODEC
) -> None:
    """Reject word counts no valid stream of ``n_bits`` can have.

    Every codec has a hard upper bound on payload words for a given bit
    count (:meth:`~repro.bitmap.codec.Codec.max_payload_words`; for WAH,
    one word per 31-bit group).  Checking this *before* reading the
    payload means a corrupt header cannot demand gigabytes from
    ``_read_exact``.
    """
    if n_bits < 0 or n_words < 0:
        raise ValueError(
            f"corrupt bitvector header: n_bits={n_bits}, n_words={n_words}"
        )
    if n_words > codec.max_payload_words(n_bits):
        raise ValueError(
            f"corrupt bitvector header: {n_words} words cannot encode "
            f"{n_bits} bits ({codec.max_payload_words(n_bits)} {codec.name} "
            f"payload words max)"
        )


def read_bitvector(fh: BinaryIO, codec: Codec = WAH_CODEC) -> WAHBitVector:
    """Read one bitvector record, decoding its payload with ``codec``
    (always to WAH)."""
    return _read_record(fh, codec)[0]


def _read_record(fh: BinaryIO, codec: Codec) -> tuple[WAHBitVector, int]:
    """:func:`read_bitvector` plus the record's size in bytes."""
    header = _read_exact(fh, 12, "bitvector header")
    n_bits, n_words = struct.unpack("<qi", header)
    _check_bitvector_header(n_bits, n_words, codec)
    remaining = _bytes_remaining(fh)
    if remaining is not None and 4 * n_words > remaining:
        # Checked *before* the read so a corrupt word count can never
        # demand a giant allocation from _read_exact.
        raise EOFError(
            f"truncated bitvector payload: {4 * n_words} bytes demanded "
            f"but only {remaining} remain in the stream"
        )
    raw = _read_exact(fh, 4 * n_words, "bitvector payload")
    words = np.frombuffer(raw, dtype="<u4")
    if words.dtype != np.uint32:  # big-endian host: byte-swapped copy
        words = words.astype(np.uint32)
    return codec.decode(words, n_bits), 12 + 4 * n_words


# ---------------------------------------------------------------- binning
def write_binning(fh: BinaryIO, binning: Binning) -> None:
    """Serialise a binning without pickle (each strategy is self-describing)."""
    tag = _BINNING_TAGS.get(type(binning))
    if tag is None:
        raise TypeError(f"cannot serialise binning {type(binning).__name__}")
    fh.write(struct.pack("<B", tag))
    if isinstance(binning, EqualWidthBinning):
        fh.write(struct.pack("<ddq", binning.lo, binning.hi, binning.bins))
    elif isinstance(binning, PrecisionBinning):
        fh.write(struct.pack("<ddq", binning.lo, binning.hi, binning.digits))
    elif isinstance(binning, ExplicitBinning):
        edges = binning.bin_edges.astype("<f8")
        fh.write(struct.pack("<q", edges.size))
        fh.write(edges.tobytes())
    elif isinstance(binning, DistinctValueBinning):
        values = np.asarray(binning.values, dtype="<f8")
        fh.write(struct.pack("<q", values.size))
        fh.write(values.tobytes())


def read_binning(fh: BinaryIO) -> Binning:
    """Inverse of :func:`write_binning`."""
    (tag,) = struct.unpack("<B", _read_exact(fh, 1, "binning tag"))
    if tag == 1:
        lo, hi, bins = struct.unpack("<ddq", _read_exact(fh, 24, "binning header"))
        return EqualWidthBinning(lo, hi, int(bins))
    if tag == 2:
        lo, hi, digits = struct.unpack("<ddq", _read_exact(fh, 24, "binning header"))
        return PrecisionBinning(lo, hi, int(digits))
    if tag == 3:
        (n,) = struct.unpack("<q", _read_exact(fh, 8, "binning size"))
        if n < 0:
            raise ValueError(f"corrupt binning: negative edge count {n}")
        edges = np.frombuffer(
            _read_exact(fh, 8 * n, "binning edges"), dtype="<f8"
        ).astype(np.float64)
        return ExplicitBinning(edges)
    if tag == 4:
        (n,) = struct.unpack("<q", _read_exact(fh, 8, "binning size"))
        if n < 0:
            raise ValueError(f"corrupt binning: negative value count {n}")
        values = np.frombuffer(
            _read_exact(fh, 8 * n, "binning values"), dtype="<f8"
        ).astype(np.float64)
        return DistinctValueBinning(values)
    raise ValueError(f"unknown binning tag {tag}")


# ------------------------------------------------------- ordering sidecar
def _ordering_width(n_rows: int) -> int:
    """Minimal byte width able to hold every index in ``[0, n_rows)``."""
    hi = max(n_rows - 1, 0)
    for width in _ORDERING_WIDTHS:
        if hi < 1 << (8 * width):
            return width
    raise ValueError(f"permutation of {n_rows} rows exceeds uint64")


def _ordering_size(ordering: RowOrdering) -> int:
    return _ORDERING_HEADER.size + ordering.n_rows * _ordering_width(
        ordering.n_rows
    )


def write_ordering(fh: BinaryIO, ordering: RowOrdering) -> int:
    """Append the permutation sidecar section; returns bytes written."""
    width = _ordering_width(ordering.n_rows)
    fh.write(
        _ORDERING_HEADER.pack(
            ORDERING_METHOD_TAGS[ordering.method], width, ordering.n_rows
        )
    )
    fh.write(ordering.permutation.astype(f"<u{width}").tobytes())
    return _ORDERING_HEADER.size + ordering.n_rows * width


def read_ordering(fh: BinaryIO, n_elements: int) -> RowOrdering:
    """Read and validate the permutation sidecar section."""
    tag, width, n_rows = _ORDERING_HEADER.unpack(
        _read_exact(fh, _ORDERING_HEADER.size, "ordering sidecar header")
    )
    method = method_for_tag(tag)
    if width not in _ORDERING_WIDTHS:
        raise ValueError(f"corrupt ordering sidecar: byte width {width}")
    if n_rows != n_elements:
        raise ValueError(
            f"ordering sidecar covers {n_rows} rows, index covers "
            f"{n_elements} elements"
        )
    if n_rows > 0 and n_rows - 1 >= 1 << (8 * width):
        raise ValueError(
            f"corrupt ordering sidecar: width {width} cannot index "
            f"{n_rows} rows"
        )
    raw = _read_exact(fh, n_rows * width, "ordering sidecar permutation")
    perm = np.frombuffer(raw, dtype=f"<u{width}").astype(np.int64)
    # RowOrdering validates the bijection; corrupt bytes raise here.
    return RowOrdering(method, perm)


# ------------------------------------------------------------------ index
def _header_size(binning: Binning) -> int:
    """Bytes before the codec tag table (or the first record, untagged)."""
    return 4 + 4 + _binning_size(binning) + 12


def _index_codecs(index: BitmapIndex) -> list[Codec]:
    """Each bin's storage codec: the index's codec name, per bin for
    ``"auto"``."""
    if index.codec == "auto":
        return [select_codec(v) for v in index.bitvectors]
    return [codec_for_name(index.codec)] * index.n_bins


def _file_codec(codecs: list[Codec]) -> str:
    """The codec name a loaded index records: the file's one codec, or
    ``"auto"`` when its tag table is mixed."""
    names = {c.name for c in codecs} or {"wah"}
    return names.pop() if len(names) == 1 else "auto"


def write_index(
    fh: BinaryIO, index: BitmapIndex, *, version: int = DEFAULT_VERSION
) -> int:
    """Serialise a full bitmap index; returns bytes written.

    ``version=2`` (the default) appends the per-bitvector offset table and
    footer enabling random access; ``version=1`` writes the legacy layout.
    Each bin's payload is encoded under the index's codec name
    (``index.codec``; ``"auto"`` picks per bin with
    :func:`~repro.bitmap.codec.select_codec`).  Records holding any
    non-WAH payload are written in the V2.1 codec-tagged layout (flags
    bit 0 + per-bin tag table); all-WAH records stay byte-identical to
    plain V2.  Indices carrying a
    :class:`~repro.bitmap.ordering.RowOrdering` additionally set flags
    bit 1 and write the permutation sidecar after the tag table.  V1
    cannot carry codec tags or an ordering, so writing either as V1 is
    an error.
    """
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"cannot write index version {version}")
    codecs = _index_codecs(index)
    tagged = any(c is not WAH_CODEC for c in codecs)
    ordering = index.ordering
    if tagged and version != VERSION_V2:
        raise ValueError(
            "V1 records cannot carry codec tags; write version=2 or "
            "set the index's codec to 'wah'"
        )
    if ordering is not None and version != VERSION_V2:
        raise ValueError(
            "V1 records cannot carry a row ordering; write version=2 or "
            "strip the ordering"
        )
    flags = (FLAG_CODEC_TAGS if tagged else 0) | (
        FLAG_ORDERING if ordering is not None else 0
    )
    start = fh.tell()
    fh.write(MAGIC)
    fh.write(struct.pack("<HH", version, flags))
    write_binning(fh, index.binning)
    fh.write(struct.pack("<qi", index.n_elements, index.n_bins))
    pos = _header_size(index.binning)
    if tagged:
        fh.write(np.array([c.tag for c in codecs], dtype=np.uint8).tobytes())
        pos += index.n_bins
    if ordering is not None:
        pos += write_ordering(fh, ordering)
    offsets = np.empty(index.n_bins + 1, dtype=np.int64)
    for b, (vector, codec) in enumerate(zip(index.bitvectors, codecs)):
        offsets[b] = pos
        pos += write_bitvector(fh, vector, codec)
    offsets[index.n_bins] = pos
    if version == VERSION_V2:
        fh.write(offsets.astype("<i8").tobytes())
        fh.write(struct.pack("<q", pos) + FOOTER_MAGIC)
    return fh.tell() - start


def _parse_flags(version: int, flags: int) -> tuple[bool, bool]:
    """Validate header flags; returns ``(codec_tagged, row_ordered)``."""
    if flags & ~_KNOWN_FLAGS:
        raise ValueError(f"unsupported format flags 0x{flags:04x}")
    tagged = bool(flags & FLAG_CODEC_TAGS)
    ordered = bool(flags & FLAG_ORDERING)
    if tagged and version != VERSION_V2:
        raise ValueError(
            f"codec-tagged layout requires a V2 record, got version {version}"
        )
    if ordered and version != VERSION_V2:
        raise ValueError(
            f"row-ordered layout requires a V2 record, got version {version}"
        )
    return tagged, ordered


def _read_tag_table(fh: BinaryIO, n_bins: int) -> list[Codec]:
    """Read and resolve the V2.1 codec tag table (one uint8 per bin)."""
    raw = _read_exact(fh, n_bins, "codec tag table")
    return [codec_for_tag(t) for t in raw]


def _read_offset_table(fh: BinaryIO, n_bins: int, expected: np.ndarray) -> None:
    """Consume and validate a V2 offset table + footer (sequential path).

    The table is redundant for a front-to-back read, but validating it
    against the offsets actually observed catches silent corruption (and
    keeps lazy readers honest about what they would have read).
    """
    raw = _read_exact(fh, 8 * (n_bins + 1), "offset table")
    table = np.frombuffer(raw, dtype="<i8")
    footer = _read_exact(fh, _FOOTER_SIZE, "index footer")
    (table_offset,) = struct.unpack("<q", footer[:8])
    if footer[8:] != FOOTER_MAGIC:
        raise ValueError(f"bad footer magic {footer[8:]!r}")
    if table_offset != expected[-1] or not np.array_equal(table, expected):
        raise ValueError("corrupt offset table: offsets disagree with records")


def read_index(fh: BinaryIO) -> BitmapIndex:
    """Inverse of :func:`write_index` (reads V1, V2 and V2.1 records).

    Every bitvector is decoded to WAH; the index records its file's
    codec (``"auto"`` for a mixed tag table), so load -> save rewrites
    the same bytes."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a repro bitmap index")
    version, flags = struct.unpack("<HH", _read_exact(fh, 4, "index version"))
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported index version {version}")
    tagged, ordered = _parse_flags(version, flags)
    binning = read_binning(fh)
    n_elements, n_bins = struct.unpack("<qi", _read_exact(fh, 12, "index header"))
    if n_elements < 0 or n_bins < 0:
        raise ValueError(
            f"corrupt index header: n_elements={n_elements}, n_bins={n_bins}"
        )
    pos = _header_size(binning)
    if tagged:
        codecs = _read_tag_table(fh, n_bins)
        pos += n_bins
    else:
        codecs = [WAH_CODEC] * n_bins
    ordering = None
    if ordered:
        ordering = read_ordering(fh, n_elements)
        pos += _ordering_size(ordering)
    offsets = np.empty(n_bins + 1, dtype=np.int64)
    vectors = []
    for b in range(n_bins):
        offsets[b] = pos
        vector, size = _read_record(fh, codecs[b])
        vectors.append(vector)
        pos += size
    offsets[n_bins] = pos
    if version == VERSION_V2:
        _read_offset_table(fh, n_bins, offsets)
    return BitmapIndex(
        binning, vectors, n_elements, ordering, codec=_file_codec(codecs)
    )


def index_to_bytes(index: BitmapIndex, *, version: int = DEFAULT_VERSION) -> bytes:
    """Serialise an index to a bytes object."""
    buf = io.BytesIO()
    write_index(buf, index, version=version)
    return buf.getvalue()


def index_from_bytes(data: bytes) -> BitmapIndex:
    """Deserialise an index from bytes."""
    return read_index(io.BytesIO(data))


def save_index(path, index: BitmapIndex, *, version: int = DEFAULT_VERSION) -> int:
    """Write an index to ``path``; returns file size in bytes."""
    with open(path, "wb") as fh:
        return write_index(fh, index, version=version)


def load_index(path) -> BitmapIndex:
    """Read an index from ``path``."""
    with open(path, "rb") as fh:
        return read_index(fh)


def serialized_size(index: BitmapIndex, *, version: int = DEFAULT_VERSION) -> int:
    """Exact on-disk size without materialising the bytes."""
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"cannot size index version {version}")
    codecs = _index_codecs(index)
    size = _header_size(index.binning)
    if any(c is not WAH_CODEC for c in codecs):
        size += index.n_bins  # codec tag table
    if index.ordering is not None:
        size += _ordering_size(index.ordering)  # permutation sidecar
    for c, v in zip(codecs, index.bitvectors):
        size += 12 + 4 * c.payload_n_words(v)
    if version == VERSION_V2:
        size += 8 * (index.n_bins + 1) + _FOOTER_SIZE
    return size


def _binning_size(binning: Binning) -> int:
    if isinstance(binning, (EqualWidthBinning, PrecisionBinning)):
        return 1 + 24
    if isinstance(binning, ExplicitBinning):
        return 1 + 8 + 8 * binning.bin_edges.size
    if isinstance(binning, DistinctValueBinning):
        return 1 + 8 + 8 * np.asarray(binning.values).size
    raise TypeError(type(binning).__name__)


# ------------------------------------------------------------- lazy loads
class LazyBitmapIndex:
    """Random access to one stored index without materialising it.

    Opens an index *file* (memory-mapped when possible), parses only the
    header (plus the V2.1 codec tag table when present), and resolves
    each bin's byte range from the V2 offset table -- or, for V1 files
    and V2 records whose footer cannot be trusted (e.g. trailing bytes
    appended to the file), from a one-pass scan of the bitvector
    *headers* that never touches payload bytes.  Individual bitvectors
    are decoded to WAH on demand by :meth:`get`, each with its bin's
    storage codec (``codecs[bin_id]``; always WAH for untagged files).

    ``bytes_read`` / ``reads`` count the record bytes actually decoded,
    which is the accounting the query service's cold/warm assertions and
    ``QueryStats.bytes_loaded`` are built on.  Concurrent :meth:`get`
    calls are safe: mmap slicing is lock-free, the file-handle fallback
    serialises around a lock.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.bytes_read = 0
        self.reads = 0
        self._lock = threading.Lock()
        self._fh: BinaryIO | None = open(self.path, "rb")
        self._mm: mmap.mmap | None = None
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty or unmappable file
            self._mm = None
        try:
            self._parse_header()
        except Exception:
            self.close()
            raise

    @classmethod
    def open(cls, path: Path | str) -> "LazyBitmapIndex":
        """Alias constructor, symmetric with :func:`load_index`."""
        return cls(path)

    # ----------------------------------------------------------- plumbing
    def _parse_header(self) -> None:
        fh = self._fh
        fh.seek(0)
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a repro bitmap index")
        version, flags = struct.unpack("<HH", _read_exact(fh, 4, "index version"))
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported index version {version}")
        self.version = int(version)
        tagged, ordered = _parse_flags(self.version, flags)
        self.binning = read_binning(fh)
        n_elements, n_bins = struct.unpack(
            "<qi", _read_exact(fh, 12, "index header")
        )
        if n_elements < 0 or n_bins < 0:
            raise ValueError(
                f"corrupt index header: n_elements={n_elements}, n_bins={n_bins}"
            )
        self.n_elements = int(n_elements)
        self.n_bins = int(n_bins)
        self._data_start = _header_size(self.binning)
        if tagged:
            self.codecs = _read_tag_table(fh, self.n_bins)
            self._data_start += self.n_bins
        else:
            self.codecs = [WAH_CODEC] * self.n_bins
        self.ordering: RowOrdering | None = None
        if ordered:
            # Decoded eagerly: the executor needs the permutation to
            # de-permute masks and permute region predicates, and the
            # bijection check must reject corrupt sidecars before any
            # payload byte is trusted.
            fh.seek(self._data_start)
            self.ordering = read_ordering(fh, self.n_elements)
            self._data_start += _ordering_size(self.ordering)
        self.offsets = None
        if self.version == VERSION_V2:
            self.offsets = self._offsets_from_footer()
        if self.offsets is None:
            self.offsets = self._offsets_from_scan()

    def _offsets_from_footer(self) -> np.ndarray | None:
        """Load the V2 offset table via the footer; ``None`` if untrusted."""
        fh = self._fh
        size = fh.seek(0, os.SEEK_END)
        if size < self._data_start + 8 * (self.n_bins + 1) + _FOOTER_SIZE:
            return None
        fh.seek(size - _FOOTER_SIZE)
        footer = _read_exact(fh, _FOOTER_SIZE, "index footer")
        (table_offset,) = struct.unpack("<q", footer[:8])
        if footer[8:] != FOOTER_MAGIC:
            return None
        table_end = size - _FOOTER_SIZE
        if table_offset + 8 * (self.n_bins + 1) != table_end:
            return None
        fh.seek(table_offset)
        raw = _read_exact(fh, 8 * (self.n_bins + 1), "offset table")
        offsets = np.frombuffer(raw, dtype="<i8").astype(np.int64)
        if (
            offsets[0] != self._data_start
            or offsets[-1] != table_offset
            or np.any(np.diff(offsets) < 12)
        ):
            raise ValueError("corrupt offset table: implausible offsets")
        return offsets

    def _offsets_from_scan(self) -> np.ndarray:
        """Build the offset table by hopping over bitvector *headers* only."""
        fh = self._fh
        offsets = np.empty(self.n_bins + 1, dtype=np.int64)
        pos = self._data_start
        for b in range(self.n_bins):
            offsets[b] = pos
            fh.seek(pos)
            n_bits, n_words = struct.unpack(
                "<qi", _read_exact(fh, 12, "bitvector header")
            )
            _check_bitvector_header(n_bits, n_words, self.codecs[b])
            if n_bits != self.n_elements:
                raise ValueError(
                    f"bitvector {b} covers {n_bits} bits, index covers "
                    f"{self.n_elements} elements"
                )
            pos += 12 + 4 * n_words
        offsets[self.n_bins] = pos
        return offsets

    def _read_range(self, lo: int, hi: int, what: str) -> bytes:
        if self._mm is not None:
            raw = self._mm[lo:hi]
            if len(raw) != hi - lo:
                raise EOFError(
                    f"truncated {what}: wanted {hi - lo} bytes, got {len(raw)}"
                )
            return raw
        with self._lock:
            self._fh.seek(lo)
            return _read_exact(self._fh, hi - lo, what)

    # ------------------------------------------------------------ reading
    def nbytes_of(self, bin_id: int) -> int:
        """On-disk record size of one bin's bitvector."""
        self._check_bin(bin_id)
        return int(self.offsets[bin_id + 1] - self.offsets[bin_id])

    def get(self, bin_id: int) -> WAHBitVector:
        """Decode one bin's bitvector to WAH, reading only its byte
        range."""
        self._check_bin(bin_id)
        lo, hi = int(self.offsets[bin_id]), int(self.offsets[bin_id + 1])
        raw = self._read_range(lo, hi, f"bitvector record {bin_id}")
        vector = read_bitvector(io.BytesIO(raw), self.codecs[bin_id])
        if vector.n_bits != self.n_elements:
            raise ValueError(
                f"bitvector {bin_id} covers {vector.n_bits} bits, index "
                f"covers {self.n_elements} elements"
            )
        self.bytes_read += hi - lo
        self.reads += 1
        return vector

    def materialize(self) -> BitmapIndex:
        """Load every bin into a regular :class:`BitmapIndex`."""
        vectors = [self.get(b) for b in range(self.n_bins)]
        return BitmapIndex(
            self.binning,
            vectors,
            self.n_elements,
            self.ordering,
            codec=_file_codec(self.codecs),
        )

    def _check_bin(self, bin_id: int) -> None:
        if not 0 <= bin_id < self.n_bins:
            raise IndexError(f"bin {bin_id} out of range [0, {self.n_bins})")

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "LazyBitmapIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"LazyBitmapIndex({str(self.path)!r}, v{self.version}, "
            f"n_elements={self.n_elements}, n_bins={self.n_bins}, "
            f"bytes_read={self.bytes_read})"
        )
