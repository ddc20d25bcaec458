"""Canonical prefix codes with bit-exact encode/decode and a flat container.

Codewords of equal length are consecutive integers ordered by symbol index;
bits are emitted most-significant-bit first and packed into bytes with the
final partial byte zero-padded.

Neither direction runs a Python loop turn per bit.  Each makes one pass
per message and holds the message's bits as one '0'/'1' string, one
character per payload bit.  `encode` formats the codeword string of each
distinct symbol once and joins the strings.  `decode` follows Moffat and
Turpin's table-driven canonical decoder: one dict lookup of the next W
stream bits gives the symbol and length of any codeword of at most W
bits, and a longer codeword costs one bisection over at most k
left-justified limits, k being the number of distinct codeword lengths.
The container format is:

    magic "PFX1" | n (8-byte LE) | n lengths (2-byte LE each)
    | payload bit count (8-byte LE) | packed payload
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .core import CodeLengthProfile, _kraft_scaled, check_length_range

MAGIC = b"PFX1"

# Decode window W in bits; `_window_bits` picks it within these limits.
WINDOW_MIN_BITS = 6
WINDOW_MAX_BITS = 12


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
    """Pack the symbol sequence; returns (payload bytes, exact bit count).

    One pass over the message: the codeword string of each distinct symbol
    is formatted once, the strings of all the symbols are joined into one
    '0'/'1' string, and one ``int(..., 2).to_bytes`` packs it.  A symbol
    thus costs a list lookup inside ``str.join``, not a Python loop turn.
    List indexing, like the table's tuples, rejects a symbol that is not an
    integer.  A bad symbol raises what the first bad one in input order
    raises.
    """
    codes, lengths = table.codes, table.lengths
    n = len(lengths)
    if type(symbols) is not list:
        symbols = list(symbols)  # read twice below; a list message is not copied
    if not symbols:
        return b"", 0
    words: list[str | None] = [None] * n
    try:
        distinct = set(symbols)
        if min(distinct) >= 0 and max(distinct) < n:
            for sym in distinct:
                # codeword_bits, inlined: code + 2^length in binary, less "0b1"
                words[sym] = bin(codes[sym] | 1 << lengths[sym])[3:]
            bits = "".join(map(words.__getitem__, symbols))
            pad = -len(bits) % 8
            return (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big"), len(bits)
    except TypeError:
        pass
    for sym in symbols:
        if not 0 <= sym < n:
            raise ValueError(f"symbol {sym} outside the table")
        codes[sym]  # a symbol that is not an integer raises TypeError here
    # reached only by symbols whose comparisons or hashes disagree with each other
    raise TypeError("symbols must be integers that index the table")


def decode(payload: bytes, bit_count: int, table: CanonicalTable) -> list[int]:
    """Inverse of encode; needs the exact bit count to stop cleanly.

    Table-driven canonical decoding (Moffat and Turpin, "On the
    implementation of minimum redundancy prefix codes", IEEE Trans.
    Commun. 1997), in one pass over the message: the payload turns into
    one '0'/'1' string, one character per stream bit.  Each symbol is then
    one slice of the next W bits and one dict lookup that gives (symbol,
    length), for every codeword of at most W bits.  A longer codeword reads
    max_length bits and bisects the left-justified limits of the lengths
    above W: at most k of them, k being the number of distinct codeword
    lengths.  W (see `_window_bits`) grows with the stream, so a short
    message builds a small window table.
    """
    if bit_count > len(payload) * 8:
        raise DecodeError("bit count exceeds the payload")
    top = table.max_length
    width = _window_bits(top, bit_count)
    windows = _window_table(table, width)
    first, counts, by_rank = table.first_codes, table.counts, table.symbols_by_rank
    long_lengths = [l for l in range(width + 1, top + 1) if counts[l]]
    limits = [(first[l] + counts[l]) << (top - l) for l in long_lengths]
    nbytes = (bit_count + 7) // 8
    # the stream's bits; zeros past them keep every read in range
    bits = (format(int.from_bytes(payload[:nbytes], "big"), f"0{8 * nbytes}b")[:bit_count]
            + "0" * top)
    out: list[int] = []
    append = out.append
    pos = 0
    while pos < bit_count:
        try:
            sym, l = windows[bits[pos:pos + width]]
        except KeyError:
            v = int(bits[pos:pos + top], 2)
            i = bisect_right(limits, v)
            if i == len(limits):
                raise DecodeError("bit run exceeds the longest codeword"
                                  if bit_count - pos > top else
                                  "stream truncated inside a codeword") from None
            l = long_lengths[i]
            sym = by_rank[l][(v >> (top - l)) - first[l]]
        append(sym)
        pos += l
    if pos > bit_count:  # the last codeword runs past the stream's end
        raise DecodeError("stream truncated inside a codeword")
    return out


def _window_bits(max_length: int, bit_count: int) -> int:
    """W: about one window table entry per 64 stream bits, within
    WINDOW_MIN_BITS..WINDOW_MAX_BITS and no wider than the longest codeword."""
    return min(max_length, max(WINDOW_MIN_BITS,
                               min(WINDOW_MAX_BITS, bit_count.bit_length() - 6)))


def _window_table(table: CanonicalTable, width: int) -> dict[str, tuple[int, int]]:
    """Maps each `width`-bit string that starts with a codeword of at most
    `width` bits to (symbol, codeword length).

    Canonical codewords in (length, symbol) order fill the windows from
    all zeros upward with no gap, so entry j is the window of value j.
    """
    entries: list[tuple[int, int]] = []
    for l in range(1, width + 1):
        span = 1 << (width - l)
        for entry in zip(table.symbols_by_rank[l], repeat(l)):
            entries += [entry] * span
    half = width // 2
    tails = _bit_strings(half)
    return dict(zip([head + tail for head in _bit_strings(width - half) for tail in tails],
                    entries))


def _bit_strings(k: int) -> list[str]:
    """The 2^k strings of k '0'/'1' characters, in numeric order."""
    return [format(i, "b")[1:] for i in range(1 << k, 2 << k)]


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
        check_length_range(lengths, n)
    except ValueError as exc:
        raise ContainerFormatError(f"codeword {exc}") from None
    num, top = _kraft_scaled(lengths)
    if n >= 2 and num != 1 << top:
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
