"""Storage codecs: how a WAH bitvector is laid out in a stored record.

The storage codec is a property of the *file*, not of the in-memory
vector.  Every bitvector the program holds -- in a
:class:`~repro.bitmap.index.BitmapIndex`, a cache, a replica or a kernel
operand -- is a :class:`~repro.bitmap.wah.WAHBitVector`, the paper's
format (§2.1 fixes WAH for its operation speed).  A codec is applied in
one place on write (:func:`repro.bitmap.serialization.write_index`,
from the index's codec name) and undone in one place on read
(:meth:`Codec.decode`, which always returns WAH).  Two codecs register:

========  ===  =========================================================
name      tag  payload
========  ===  =========================================================
wah        0   the WAH words themselves (the reference codec; untagged
               records are all-WAH).
roaring    1   Roaring containers (Chambi, Lemire et al., "Better bitmap
               performance with Roaring bitmaps"): 2^16-bit chunks as
               ``uint16`` arrays or 8 KiB bitsets
               (:class:`~repro.bitmap.roaring.RoaringBitVector`).
========  ===  =========================================================

The tag is what the V2.1 record format stores per bitvector (see
:mod:`repro.bitmap.serialization`); :func:`codec_for_tag` raises a clear
error on unknown tags -- including tag 2, the retired 64-bit WAH -- so
records no reader understands fail loudly, not silently.

:func:`select_codec` is the per-bin rule behind ``codec="auto"``: the
codec with the smallest exact payload, ties going to WAH.  A pure
function of the bin's bits, so two writes of the same index always
produce the same bytes, and an ``"auto"`` record is never larger than
the all-WAH one.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.roaring import (
    _ARRAY_MAX,
    _U32_PER_CHUNK,
    CHUNK_BITS,
    RoaringBitVector,
)
from repro.bitmap.wah import (
    FILL_COUNT_MASK,
    FILL_FLAG,
    FILL_VALUE_FLAG,
    WAHBitVector,
)
from repro.util.bits import GROUP_BITS, groups_needed


class Codec:
    """Interface every storage codec implements.

    A codec is stateless.  Payloads are little-endian ``uint32`` arrays
    so the record framing of :mod:`repro.bitmap.serialization` is
    codec-uniform.
    """

    name: str
    tag: int

    def encode(self, vec: WAHBitVector) -> np.ndarray:
        """Serialise a WAH vector to this codec's ``uint32`` payload."""
        raise NotImplementedError

    def decode(self, payload: np.ndarray, n_bits: int) -> WAHBitVector:
        """Rebuild the WAH vector from a payload, rejecting corrupt ones
        with ``ValueError``."""
        raise NotImplementedError

    def max_payload_words(self, n_bits: int) -> int:
        """Upper bound on payload words for ``n_bits`` -- the corruption
        guard used when validating record headers before reading."""
        raise NotImplementedError

    def payload_n_words(self, vec: WAHBitVector) -> int:
        """Exact payload word count of ``vec`` without building the
        payload."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Codec {self.name} tag={self.tag}>"


class WAHCodec(Codec):
    """The paper's 32-bit WAH words -- tag 0, the reference codec."""

    name = "wah"
    tag = 0

    def encode(self, vec: WAHBitVector) -> np.ndarray:
        return vec.words

    def decode(self, payload: np.ndarray, n_bits: int) -> WAHBitVector:
        _check_wah_words(payload, n_bits)
        return WAHBitVector(payload, n_bits)

    def max_payload_words(self, n_bits: int) -> int:
        # Fills only ever shrink the stream: never more words than groups.
        return groups_needed(n_bits)

    def payload_n_words(self, vec: WAHBitVector) -> int:
        return vec.n_words


#: ``c * _INV31 mod 2**32`` is ``c // 31`` when 31 divides ``c`` (31 is
#: odd, so it has an inverse mod 2**32) and exceeds ``_MAX_QUOTIENT``
#: otherwise: one multiply checks divisibility and yields the group count.
_INV31 = np.uint32(pow(GROUP_BITS, -1, 2**32))
_MAX_QUOTIENT = np.uint32((2**32 - 1) // GROUP_BITS)


def _check_wah_words(words: np.ndarray, n_bits: int) -> None:
    """One vectorised pass over a stored WAH stream: every fill count is
    a nonzero multiple of 31, the words encode exactly
    ``groups_needed(n_bits)`` groups, and the final group's padding bits
    are clear.  A stream failing any of these would make popcounts and
    joint histograms disagree with the index's element count.

    Runs on every load, so it keeps to a few numpy calls: ``take`` of the
    fill positions beats a boolean-mask index on uint32 words, and fills
    are usually the minority."""
    fills = words.take((words >= FILL_FLAG).nonzero()[0])
    groups = words.size
    if fills.size:
        # Fill groups minus one: a zero count wraps to 2**32 - 1.
        groups_less_one = (fills & FILL_COUNT_MASK) * _INV31 - np.uint32(1)
        if groups_less_one.max() >= _MAX_QUOTIENT:
            raise ValueError(
                "corrupt WAH payload: a fill count is zero or not a multiple "
                "of 31"
            )
        groups += int(groups_less_one.sum(dtype=np.int64))
    if groups != groups_needed(n_bits):
        raise ValueError(
            f"corrupt WAH payload: words encode {groups} groups, "
            f"{n_bits} bits need {groups_needed(n_bits)}"
        )
    tail_bits = n_bits % GROUP_BITS
    if tail_bits and words.size:
        last = int(words[-1])
        # Padding is bits tail_bits..30 of a final literal; a 1-fill over
        # the final group would set them all.
        pad = last & FILL_VALUE_FLAG if last & FILL_FLAG else last >> tail_bits
        if pad:
            raise ValueError("corrupt WAH payload: padding bits set in final group")


class RoaringCodec(Codec):
    """Roaring containers (Chambi, Lemire et al.) -- tag 1."""

    name = "roaring"
    tag = 1

    def encode(self, vec: WAHBitVector) -> np.ndarray:
        return RoaringBitVector.from_indices(
            vec.to_indices(), vec.n_bits
        ).to_u32_payload()

    def decode(self, payload: np.ndarray, n_bits: int) -> WAHBitVector:
        roaring = RoaringBitVector.from_u32_payload(payload, n_bits)
        return WAHBitVector.from_bools(roaring.to_bools())

    def max_payload_words(self, n_bits: int) -> int:
        # Directory entry + the larger container form, per chunk.
        n_chunks = -(-n_bits // CHUNK_BITS)
        return 1 + n_chunks * (2 + _U32_PER_CHUNK)

    def payload_n_words(self, vec: WAHBitVector) -> int:
        cards = np.bincount(vec.to_indices() >> 16)
        cards = cards[cards > 0]
        containers = np.where(cards < _ARRAY_MAX, (cards + 1) // 2, _U32_PER_CHUNK)
        return 1 + 2 * cards.size + int(containers.sum())


#: Registered codecs by name.
CODECS: dict[str, Codec] = {c.name: c for c in (WAHCodec(), RoaringCodec())}

#: Registered codecs by on-disk tag.
CODEC_TAGS: dict[int, Codec] = {c.tag: c for c in CODECS.values()}

#: The reference codec.
WAH = CODECS["wah"]


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


def select_codec(vec: WAHBitVector) -> Codec:
    """The codec with the smallest exact payload for one bin, ties going
    to WAH (registration order)."""
    return min(CODECS.values(), key=lambda c: c.payload_n_words(vec))
