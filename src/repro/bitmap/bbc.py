"""Byte-aligned Bitmap Code (BBC) -- the paper's cited alternative codec.

§2.1 names two run-length schemes: WAH [41] (what Algorithm 1 uses) and
BBC (Antoshenkov [4]).  This module implements a byte-aligned codec in the
BBC family so the WAH-vs-BBC trade-off the literature discusses (BBC
compresses tighter; WAH's word alignment makes operations faster) is
reproducible as an ablation (``benchmarks/bench_ablation_codec.py``).

Encoding (documented variant of the byte-aligned idea):

* **fill atom** -- control byte with MSB set: bit 6 is the fill value,
  bits 0-5 hold a run length of 1..63 *bytes* of ``0x00`` or ``0xFF``
  (longer runs split across atoms);
* **literal atom** -- control byte with MSB clear: bits 0-6 hold a count
  of 1..127 verbatim payload bytes that follow.

Compared to WAH's 31-bit groups, the byte granularity captures shorter
runs (tighter compression on moderately dirty data) at the cost of
unaligned operations.  Logical ops here decode to the byte domain,
apply the numpy kernel and re-encode -- the byte-domain analogue of
the dense path of ``repro.bitmap.kernels.auto_op_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_FILL_FLAG = 0x80
_FILL_VALUE = 0x40
_FILL_LEN_MASK = 0x3F
_LITERAL_MAX = 0x7F
_FILL_MAX = 0x3F

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def encode_bytes(raw: np.ndarray) -> np.ndarray:
    """Encode a ``uint8`` byte stream into BBC atoms (``uint8`` array)."""
    raw = np.asarray(raw, dtype=np.uint8)
    n = raw.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)

    fillable = (raw == 0) | (raw == 0xFF)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = (raw[1:] != raw[:-1]) | ~fillable[1:] | ~fillable[:-1]
    # Literal bytes coalesce into blocks: a "run" here is either one fill
    # value repeated, or a maximal stretch of non-fillable bytes.
    run_start = np.flatnonzero(starts)
    run_len = np.diff(np.append(run_start, n))

    out: list[np.ndarray] = []
    pending_lit: list[np.ndarray] = []

    def flush_literals() -> None:
        if not pending_lit:
            return
        lit = np.concatenate(pending_lit)
        pending_lit.clear()
        for i in range(0, lit.size, _LITERAL_MAX):
            chunk = lit[i : i + _LITERAL_MAX]
            out.append(np.asarray([chunk.size], dtype=np.uint8))
            out.append(chunk)

    for s, length in zip(run_start, run_len):
        value = raw[s]
        if fillable[s] and length > 1:
            flush_literals()
            header = _FILL_FLAG | (_FILL_VALUE if value == 0xFF else 0)
            remaining = int(length)
            fills = []
            while remaining > 0:
                take = min(remaining, _FILL_MAX)
                fills.append(header | take)
                remaining -= take
            out.append(np.asarray(fills, dtype=np.uint8))
        else:
            # Single fillable bytes ride along as literals (an atom would
            # cost the same byte anyway).
            pending_lit.append(raw[s : s + length])
    flush_literals()
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint8)


def decode_bytes(atoms: np.ndarray) -> np.ndarray:
    """Decode BBC atoms back into the raw byte stream."""
    atoms = np.asarray(atoms, dtype=np.uint8)
    out: list[np.ndarray] = []
    pos = 0
    n = atoms.size
    while pos < n:
        c = int(atoms[pos])
        pos += 1
        if c & _FILL_FLAG:
            value = 0xFF if c & _FILL_VALUE else 0x00
            length = c & _FILL_LEN_MASK
            if length == 0:
                raise ValueError("corrupt BBC stream: zero-length fill")
            out.append(np.full(length, value, dtype=np.uint8))
        else:
            if c == 0 or pos + c > n:
                raise ValueError("corrupt BBC stream: bad literal block")
            out.append(atoms[pos : pos + c])
            pos += c
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint8)


@dataclass(frozen=True)
class BBCBitVector:
    """An immutable BBC-compressed bitvector (bit 0 of byte 0 first)."""

    atoms: np.ndarray
    n_bits: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "atoms", np.ascontiguousarray(self.atoms, dtype=np.uint8)
        )
        if self.n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {self.n_bits}")

    # ------------------------------------------------------------- builds
    @classmethod
    def from_bools(cls, bits: np.ndarray) -> "BBCBitVector":
        bits = np.asarray(bits, dtype=bool).ravel()
        raw = np.packbits(bits, bitorder="little")
        return cls(encode_bytes(raw), bits.size)

    @classmethod
    def zeros(cls, n_bits: int) -> "BBCBitVector":
        return cls.from_bools(np.zeros(n_bits, dtype=bool))

    @classmethod
    def ones(cls, n_bits: int) -> "BBCBitVector":
        return cls.from_bools(np.ones(n_bits, dtype=bool))

    # ------------------------------------------------------------ content
    def to_raw_bytes(self) -> np.ndarray:
        return decode_bytes(self.atoms)

    def to_bools(self) -> np.ndarray:
        raw = self.to_raw_bytes()
        return np.unpackbits(raw, bitorder="little")[: self.n_bits].astype(bool)

    def count(self) -> int:
        """Popcount on the compressed stream (no full decode).

        Literal payloads contribute table popcounts; 1-fills contribute
        8 bits per run byte.  Padding bits beyond ``n_bits`` are zero by
        construction (``np.packbits`` zero-pads), except that a trailing
        1-fill cannot cover padding, so no correction is needed.
        """
        atoms = self.atoms
        total = 0
        pos = 0
        n = atoms.size
        while pos < n:
            c = int(atoms[pos])
            pos += 1
            if c & _FILL_FLAG:
                if c & _FILL_VALUE:
                    total += 8 * (c & _FILL_LEN_MASK)
            else:
                total += int(_POP8[atoms[pos : pos + c]].sum())
                pos += c
        return total

    @property
    def nbytes(self) -> int:
        return int(self.atoms.nbytes)

    def compression_ratio(self) -> float:
        raw_bytes = -(-self.n_bits // 8)
        return self.nbytes / raw_bytes if raw_bytes else 1.0

    # ------------------------------------------------------------ dunders
    def __len__(self) -> int:
        return self.n_bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BBCBitVector):
            return NotImplemented
        return self.n_bits == other.n_bits and np.array_equal(self.atoms, other.atoms)

    def __hash__(self) -> int:
        return hash((self.n_bits, self.atoms.tobytes()))

    def __repr__(self) -> str:
        return f"BBCBitVector(n_bits={self.n_bits}, nbytes={self.nbytes})"


_BYTE_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def bbc_logical_op(a: BBCBitVector, b: BBCBitVector, op: str) -> BBCBitVector:
    """Byte-domain logical op (decode -> numpy kernel -> re-encode)."""
    if a.n_bits != b.n_bits:
        raise ValueError(f"operand length mismatch: {a.n_bits} != {b.n_bits}")
    try:
        kernel = _BYTE_KERNELS[op]
    except KeyError:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(_BYTE_KERNELS)}")
    out = kernel(a.to_raw_bytes(), b.to_raw_bytes())
    return BBCBitVector(encode_bytes(out), a.n_bits)


def bbc_and_count(a: BBCBitVector, b: BBCBitVector) -> int:
    """popcount(a AND b) without re-encoding the result."""
    if a.n_bits != b.n_bits:
        raise ValueError(f"operand length mismatch: {a.n_bits} != {b.n_bits}")
    joint = a.to_raw_bytes() & b.to_raw_bytes()
    return int(_POP8[joint].sum())


def wah_to_bbc(vector) -> BBCBitVector:
    """Transcode a WAH bitvector to BBC (for the codec ablation)."""
    return BBCBitVector.from_bools(vector.to_bools())
