"""Canonical prefix codes with bit-exact encode/decode and a flat container.

Codewords of equal length are consecutive integers ordered by symbol index;
bits are emitted most-significant-bit first and packed into bytes with the
final partial byte zero-padded.  The container format is:

    magic "PFX1" | n (8-byte LE) | n lengths (2-byte LE each)
    | payload bit count (8-byte LE) | packed payload
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import CodeLengthProfile, check_length_range

MAGIC = b"PFX1"


class ContainerFormatError(ValueError):
    """Malformed bitstream container."""


class DecodeError(ValueError):
    """Bit stream does not decode against the table."""


@dataclass(frozen=True)
class CanonicalTable:
    """Canonical code table: per-symbol (length, codeword value)."""

    lengths: tuple[int, ...]
    codes: tuple[int, ...]
    first_codes: tuple[int, ...]          # indexed by length, 0 where unused
    counts: tuple[int, ...]               # codewords per length
    symbols_by_rank: tuple[tuple[int, ...], ...]  # per length, symbol order

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def codeword_bits(self, symbol: int) -> str:
        return format(self.codes[symbol], f"0{self.lengths[symbol]}b")


def canonical_codes(lengths: CodeLengthProfile) -> CanonicalTable:
    """Assign canonical codewords to a length profile.

    Symbols in (length, index) order get consecutive integer codes; the
    first code of each length is (first + count of the previous length)
    shifted left once.  Requires a Kraft sum of at most 1.
    """
    ls = lengths.lengths
    top = max(ls)
    by_rank: list[list[int]] = [[] for _ in range(top + 1)]
    for sym, l in enumerate(ls):
        by_rank[l].append(sym)
    counts = [len(b) for b in by_rank]
    if sum(c << (top - l) for l, c in enumerate(counts)) > 1 << top:
        raise ValueError("lengths oversubscribe the code space (Kraft sum > 1)")
    first = [0] * (top + 1)
    codes = [0] * len(ls)
    code = 0
    for l in range(1, top + 1):
        first[l] = code
        for sym in by_rank[l]:
            codes[sym] = code
            code += 1
        code <<= 1
    return CanonicalTable(tuple(ls), tuple(codes), tuple(first),
                          tuple(counts), tuple(tuple(b) for b in by_rank))


def encode(symbols: Iterable[int], table: CanonicalTable) -> tuple[bytes, int]:
    """Pack the symbol sequence; returns (payload bytes, exact bit count)."""
    lengths = table.lengths
    codes = table.codes
    out = bytearray()
    buf = 0
    nbits = 0
    total = 0
    for sym in symbols:
        if not 0 <= sym < len(lengths):
            raise ValueError(f"symbol {sym} outside the table")
        l = lengths[sym]
        buf = (buf << l) | codes[sym]
        nbits += l
        total += l
        while nbits >= 8:
            nbits -= 8
            out.append((buf >> nbits) & 0xFF)
        buf &= (1 << nbits) - 1
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out), total


def decode(payload: bytes, bit_count: int, table: CanonicalTable) -> list[int]:
    """Inverse of encode; needs the exact bit count to stop cleanly."""
    if bit_count > len(payload) * 8:
        raise DecodeError("bit count exceeds the payload")
    first = table.first_codes
    counts = table.counts
    by_rank = table.symbols_by_rank
    max_len = table.max_length
    out: list[int] = []
    code = 0
    code_len = 0
    consumed = 0
    for byte in payload:
        take = min(8, bit_count - consumed)
        for k in range(7, 7 - take, -1):
            code = (code << 1) | ((byte >> k) & 1)
            code_len += 1
            if code_len > max_len:
                raise DecodeError("bit run exceeds the longest codeword")
            offset = code - first[code_len]
            if 0 <= offset < counts[code_len]:
                out.append(by_rank[code_len][offset])
                code = 0
                code_len = 0
        consumed += take
        if consumed >= bit_count:
            break
    if code_len:
        raise DecodeError("stream truncated inside a codeword")
    return out


def pack_container(lengths: Sequence[int], payload: bytes, bit_count: int) -> bytes:
    out = bytearray(MAGIC)
    try:
        out += struct.pack(f"<Q{len(lengths)}H", len(lengths), *lengths)
        out += struct.pack("<Q", bit_count)
    except struct.error as exc:
        raise ContainerFormatError(f"cannot pack the container: {exc}") from None
    out += payload
    return bytes(out)


def unpack_container(blob: bytes) -> tuple[list[int], bytes, int]:
    """Returns (lengths, payload, bit count).

    Accepts only what `pack_container` writes for a complete code: lengths
    in 1..max(1, n-1) with Kraft sum 1 (for n >= 2), and a payload of
    exactly ceil(bits/8) bytes whose pad bits are zero.
    """
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ContainerFormatError("bad magic")
    n = struct.unpack_from("<Q", blob, 4)[0]
    off = 12
    if len(blob) < off + 2 * n + 8:
        raise ContainerFormatError("truncated header")
    if n == 0:
        raise ContainerFormatError("no codeword lengths")
    lengths = list(struct.unpack_from(f"<{n}H", blob, off))
    try:
        top = check_length_range(lengths, n)
    except ValueError as exc:
        raise ContainerFormatError(f"codeword {exc}") from None
    if n >= 2 and sum(c << (top - l) for l, c in Counter(lengths).items()) != 1 << top:
        raise ContainerFormatError("codeword lengths do not have Kraft sum 1")
    off += 2 * n
    bit_count = struct.unpack_from("<Q", blob, off)[0]
    off += 8
    payload = blob[off:]
    if bit_count > len(payload) * 8:
        raise ContainerFormatError("payload shorter than the declared bit count")
    if len(payload) > (bit_count + 7) // 8:
        raise ContainerFormatError("bytes past the end of the payload")
    if payload and payload[-1] & (0xFF >> ((bit_count - 1) % 8 + 1)):
        raise ContainerFormatError("non-zero pad bits")
    return lengths, payload, bit_count
