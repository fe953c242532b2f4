"""The pluggable codec layer: one interface, three bitmap codecs.

Everything above the codec boundary -- the builder, serialization, the
query service, the cluster splice -- speaks to compressed bitvectors
through a :class:`Codec`: ``encode`` / ``decode`` (u32 payload framing)
and geometry accessors.  Three backends register here:

========  ===  =========================================================
name      tag  backend
========  ===  =========================================================
wah        0   :class:`~repro.bitmap.wah.WAHBitVector` -- the paper's
               32-bit Word-Aligned Hybrid codec (Wu et al.), run-length
               over 31-bit groups.  The *reference* codec: all cross-
               codec differential tests compare against it, and mixed-
               codec operations converge here.
roaring    1   :class:`~repro.bitmap.roaring.RoaringBitVector` -- the
               two-level container codec of Chambi, Lemire et al.,
               "Better bitmap performance with Roaring bitmaps".  Wins
               on dense bins (8 KiB bitset chunks) and on very sparse
               scattered bins (uint16 array chunks).
wah64      2   :class:`~repro.bitmap.wah64.WAH64BitVector` -- 64-bit WAH
               (63-bit groups), the CONCISE-adjacent literal-heavy
               option: mid-density bins that defeat 31-bit run
               detection need roughly half the words.
========  ===  =========================================================

The tag is what the V2.1 record format stores per bitvector (see
:mod:`repro.bitmap.serialization`); :func:`codec_for_tag` raises a clear
error on unknown tags so future codecs fail loudly, not silently.

:func:`select_codec` is the density-driven build-time policy, the codec
sibling of the kernel ladder's route rule: run-structured bins stay WAH
(the run merge wins there), dense and very sparse bins go
Roaring, and incompressible mid-density bins go WAH64.  The policy is a
pure function of (compression ratio, density), so index builds remain
deterministic.

Combines and counts are not a codec method: the kernel ladder's two
entries (``repro.bitmap.kernels.auto_op_many`` /
``repro.bitmap.kernels.auto_count_many``) accept any mix of codecs and
convert operands to the WAH word domain (:func:`to_wah`) at that merge
boundary -- the same convention the service and cluster layers use,
which is what keeps masks byte-identical across codec choices.  Roaring
and WAH64 vectors keep their native operators (``&``, ``|``, ``^``,
``andnot`` and Roaring's ``*_count``) for code that stays in one codec.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.bitmap.roaring import CHUNK_BITS, _U32_PER_CHUNK, RoaringBitVector
from repro.bitmap.wah import WAHBitVector
from repro.bitmap.wah64 import WAH64BitVector, groups_needed64
from repro.util.bits import groups_needed

#: Any compressed bitvector the codec layer understands.
BitVectorAny = Union[WAHBitVector, RoaringBitVector, WAH64BitVector]


class Codec:
    """Interface every bitmap codec implements.

    A codec is stateless; vectors themselves are the immutable value
    objects.  Payloads are little-endian ``uint32`` arrays so the record
    framing of :mod:`repro.bitmap.serialization` is codec-uniform.
    """

    name: str
    tag: int
    vector_cls: type

    # ------------------------------------------------------------- encode
    def encode_bools(self, bits: np.ndarray) -> BitVectorAny:
        """Compress a boolean array."""
        return self.vector_cls.from_bools(bits)

    def from_indices(self, indices: np.ndarray, n_bits: int) -> BitVectorAny:
        """Build a vector with ones at the given positions."""
        return self.vector_cls.from_indices(indices, n_bits)

    def zeros(self, n_bits: int) -> BitVectorAny:
        return self.vector_cls.zeros(n_bits)

    def ones(self, n_bits: int) -> BitVectorAny:
        return self.vector_cls.ones(n_bits)

    # -------------------------------------------------------------- wire
    def payload_words(self, vec: BitVectorAny) -> np.ndarray:
        """Serialise ``vec`` to its ``uint32`` payload."""
        raise NotImplementedError

    def decode_payload(self, payload: np.ndarray, n_bits: int) -> BitVectorAny:
        """Rebuild a vector from its ``uint32`` payload."""
        raise NotImplementedError

    def max_payload_words(self, n_bits: int) -> int:
        """Upper bound on payload words for ``n_bits`` -- the corruption
        guard used when validating record headers before reading."""
        raise NotImplementedError

    def payload_n_words(self, vec: BitVectorAny) -> int:
        """Exact payload word count without materialising the payload."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Codec {self.name} tag={self.tag}>"


class WAHCodec(Codec):
    """The paper's 32-bit WAH codec -- tag 0, the reference codec."""

    name = "wah"
    tag = 0
    vector_cls = WAHBitVector

    def payload_words(self, vec: WAHBitVector) -> np.ndarray:
        return vec.words

    def decode_payload(self, payload: np.ndarray, n_bits: int) -> WAHBitVector:
        return WAHBitVector(payload, n_bits)

    def max_payload_words(self, n_bits: int) -> int:
        # Fills only ever shrink the stream: never more words than groups.
        return groups_needed(n_bits)

    def payload_n_words(self, vec: WAHBitVector) -> int:
        return vec.n_words



class RoaringCodec(Codec):
    """Roaring containers (Chambi, Lemire et al.) -- tag 1."""

    name = "roaring"
    tag = 1
    vector_cls = RoaringBitVector

    def payload_words(self, vec: RoaringBitVector) -> np.ndarray:
        return vec.to_u32_payload()

    def decode_payload(self, payload: np.ndarray, n_bits: int) -> RoaringBitVector:
        return RoaringBitVector.from_u32_payload(payload, n_bits)

    def max_payload_words(self, n_bits: int) -> int:
        # Directory entry + the larger container form, per chunk.
        n_chunks = -(-n_bits // CHUNK_BITS)
        return 1 + n_chunks * (2 + _U32_PER_CHUNK)

    def payload_n_words(self, vec: RoaringBitVector) -> int:
        return vec.n_words



class WAH64Codec(Codec):
    """64-bit WAH (63-bit groups) -- tag 2."""

    name = "wah64"
    tag = 2
    vector_cls = WAH64BitVector

    def payload_words(self, vec: WAH64BitVector) -> np.ndarray:
        return vec.to_u32_payload()

    def decode_payload(self, payload: np.ndarray, n_bits: int) -> WAH64BitVector:
        return WAH64BitVector.from_u32_payload(payload, n_bits)

    def max_payload_words(self, n_bits: int) -> int:
        # At most one uint64 word (= 2 payload words) per 63-bit group.
        return 2 * groups_needed64(n_bits)

    def payload_n_words(self, vec: WAH64BitVector) -> int:
        return 2 * vec.n_words



#: Registered codecs by name.
CODECS: dict[str, Codec] = {
    c.name: c for c in (WAHCodec(), RoaringCodec(), WAH64Codec())
}

#: Registered codecs by on-disk tag.
CODEC_TAGS: dict[int, Codec] = {c.tag: c for c in CODECS.values()}

#: The reference codec all others must agree with.
WAH = CODECS["wah"]

_BY_TYPE: dict[type, Codec] = {c.vector_cls: c for c in CODECS.values()}


def codec_for_name(name: str) -> Codec:
    """Look up a codec by name; unknown names raise a clear error."""
    try:
        return CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; registered codecs: {sorted(CODECS)}"
        ) from None


def codec_for_tag(tag: int) -> Codec:
    """Look up a codec by on-disk tag; unknown tags raise a clear error."""
    try:
        return CODEC_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown codec tag {tag}; registered tags: "
            f"{sorted(CODEC_TAGS)} ({', '.join(c.name for _, c in sorted(CODEC_TAGS.items()))})"
        ) from None


def codec_of(vec: BitVectorAny) -> Codec:
    """The codec a vector belongs to."""
    try:
        return _BY_TYPE[type(vec)]
    except KeyError:
        raise TypeError(
            f"{type(vec).__name__} is not a registered bitvector type"
        ) from None


def to_wah(vec: BitVectorAny) -> WAHBitVector:
    """Convert any codec's vector to the reference WAH form.

    The identity for WAH vectors.  This is the *merge-boundary*
    conversion: dispatchers, the mask splice, and the wire protocol call
    it so that every cross-codec combination lands in one common word
    domain and results stay byte-identical regardless of storage codec.
    """
    if isinstance(vec, WAHBitVector):
        return vec
    return WAHBitVector.from_bools(vec.to_bools())


def convert(vec: BitVectorAny, codec: str | Codec) -> BitVectorAny:
    """Re-encode a vector under another codec (identity if already there)."""
    target = codec_for_name(codec) if isinstance(codec, str) else codec
    if type(vec) is target.vector_cls:
        return vec
    return target.encode_bools(vec.to_bools())


# --------------------------------------------------------- selection policy
#: Compression ratio (WAH words per group) at or below which a bin stays
#: WAH: run-structured data is exactly what the O(runs) streaming kernels
#: and fill words are built for.
SELECT_WAH_RATIO = 0.05

#: Density at or above which an incompressible bin goes Roaring: dense
#: chunks become 8 KiB bitset containers, and chunk-local ops beat WAH's
#: literal-word walk.
SELECT_ROARING_DENSE = 1.0 / 32

#: Density at or below which an incompressible bin goes Roaring: sparse
#: scattered bits pack into uint16 array containers at 2 bytes per set
#: bit, smaller than any literal-word encoding.
SELECT_ROARING_SPARSE = 1.0 / 1024


def select_codec(vec: WAHBitVector) -> Codec:
    """Pick the cheapest codec for one bin from its density profile.

    A pure function of the WAH compression ratio and the set-bit density,
    mirroring the calibrated kernel dispatch rules (DESIGN.md, "Kernel
    dispatch policy"): runs stay WAH, density extremes go Roaring,
    mid-density literal soup goes WAH64.  Deterministic, so two builds of
    the same data always pick the same codecs.
    """
    if vec.n_bits == 0 or vec.compression_ratio() <= SELECT_WAH_RATIO:
        return CODECS["wah"]
    density = vec.density()
    if density >= SELECT_ROARING_DENSE or density <= SELECT_ROARING_SPARSE:
        return CODECS["roaring"]
    return CODECS["wah64"]


def as_wah_all(vectors: Sequence[BitVectorAny]) -> list[WAHBitVector]:
    """Convert a sequence to WAH (no-op copies for WAH members)."""
    return [to_wah(v) for v in vectors]
