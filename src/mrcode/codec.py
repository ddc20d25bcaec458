"""Canonical prefix codes with bit-exact encode/decode and a flat container.

Codewords of equal length are consecutive integers ordered by symbol index;
bits are emitted most-significant-bit first and packed into bytes with the
final partial byte zero-padded.

A `CanonicalTable` holds what Moffat and Turpin's canonical decoder needs,
per codeword length: the first code, the count, and the symbols in rank
(index) order.  It stores no per-symbol codeword: the codeword of a symbol
is its length's first code plus its rank among the symbols of that
length, and is derived only where it is sent.

A profile whose lengths never increase, as a presorted construction
returns, is k runs of equal lengths, k being the number of distinct
lengths.  A `CodeLengthProfile` holds its runs: a presorted construction
hands them over, as the `core.RunLengths` that are its lengths, and
`core._length_runs` finds them in O(k log n) steps for any other
profile.  On such a profile `canonical_codes` works from the runs: each
length's symbols are one ``range``, and a symbol's rank is its offset
from the range's start.  `pack_container` writes the runs as
the container's header, and `unpack_container` reads them back.  `encode`
and `decode` then work in proportion to the message.  Every other
profile takes the same steps symbol by symbol, with the same results and
errors.

Neither direction runs a Python loop turn per bit.  Each makes one pass
per message and holds the message's bits as one '0'/'1' string, one
character per payload bit.  `encode` formats the codeword string of each
distinct symbol once and joins the strings.  `decode` follows Moffat and
Turpin's table-driven canonical decoder: one dict lookup of the next W
stream bits gives the symbol and length of any codeword of at most W
bits, and a longer codeword costs one bisection over at most k
left-justified limits, k being the number of distinct codeword lengths.
The container has two header forms, the per-symbol one:

    magic "PFX1" | n (8-byte LE) | n lengths (2-byte LE each)
    | payload bit count (8-byte LE) | packed payload

and the run one, the count of each length (Moffat and Turpin 1997; the
BITS list of JPEG's DHT segment, ITU-T T.81), lengths strictly falling:

    magic "PFX2" | n (8-byte LE) | k (2-byte LE)
    | k x (length (2-byte LE), count (8-byte LE))
    | payload bit count (8-byte LE) | packed payload

`pack_container` writes the run form for integer lengths that never
increase, when its 2 + 10k header bytes are fewer than the 2n of the
per-symbol form and n is at most `MAX_RUN_SYMBOLS`; any other lengths
keep the per-symbol form.  `unpack_container` reads both, and refuses a
run header that declares more than `MAX_RUN_SYMBOLS` symbols before it
builds any list.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

from .core import (CodeLengthProfile, RunLengths, _kraft_scaled, _length_counts,
                   _length_runs, check_length_range)

MAGIC = b"PFX1"  # the per-symbol header
RUN_MAGIC = b"PFX2"  # the run header

# The most symbols a run header may declare, so that a short header cannot
# make `unpack_container` build a list of arbitrary length.
MAX_RUN_SYMBOLS = 1 << 24

# Decode window W in bits; `_window_bits` picks it within these limits.
WINDOW_MIN_BITS = 6
WINDOW_MAX_BITS = 12


class ContainerFormatError(ValueError):
    """Malformed bitstream container."""


class DecodeError(ValueError):
    """Bit stream does not decode against the table."""


@dataclass(frozen=True)
class CanonicalTable:
    """Canonical code table, kept per codeword length.

    ``lengths`` gives each symbol's codeword length: the profile's tuple,
    or its `core.RunLengths` for a presorted construction.  The three
    per-length tuples are indexed by length, 0 to `max_length`:
    ``first_codes`` holds the first (smallest) codeword of each length,
    ``counts`` the number of codewords, and ``groups`` the symbols of
    that length in index order: every group a ``range`` of consecutive
    indices in the table of a profile whose lengths never increase, and a
    tuple in any other table; unused lengths hold 0, 0 and an empty
    group.  The codeword of a symbol is its length's first code plus its
    rank in its group.  ``groups`` is what `encode` and `decode` read.  It
    follows from ``lengths`` and takes no part in equality, so a table
    compares by its lengths and per-length codes.  `codeword_bits` derives
    one symbol's codeword.
    """

    lengths: Sequence[int]
    first_codes: tuple[int, ...]
    counts: tuple[int, ...]
    groups: tuple[Sequence[int], ...] = field(compare=False)

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def codeword_bits(self, symbol: int) -> str:
        """The codeword of `symbol`, in 0..n-1, as a '0'/'1' string: its
        rank among the symbols of its length, its offset in a range group or
        found by bisection in a tuple one, plus the length's first code."""
        l = self.lengths[symbol]
        group = self.groups[l]
        rank = symbol - group.start if type(group) is range else bisect_left(group, symbol)
        return bin((self.first_codes[l] + rank) | 1 << l)[3:]  # code + 2^l in binary, less "0b1"


def canonical_codes(lengths: CodeLengthProfile) -> CanonicalTable:
    """Assign canonical codewords to a length profile.

    On a profile whose lengths never increase, each length's symbols are
    the ``range`` of its run (`core._length_runs`), in O(k log n) steps
    for k distinct lengths.  Any other profile is grouped by one loop turn
    per symbol (`_group_symbols`).  Symbols in (length, index) order get
    consecutive integer codes; the first code of each length is (first +
    count of the previous length) shifted left once, and the counts and
    the Kraft test read only the k group sizes.  Requires a Kraft sum of
    at most 1.
    """
    ls = lengths.lengths
    runs = lengths._runs
    if runs is None:
        groups = _group_symbols(ls)
    else:
        by_length = [range(0)] * (runs[0][0] + 1)  # the first run holds the longest length
        for l, lo, hi in runs:
            by_length[l] = range(lo, hi)
        groups = tuple(by_length)
    counts = tuple(map(len, groups))
    top = len(counts) - 1
    if sum(c << (top - l) for l, c in enumerate(counts)) > 1 << top:
        raise ValueError("lengths oversubscribe the code space (Kraft sum > 1)")
    first = [0] * (top + 1)
    code = 0
    for l in range(1, top + 1):
        first[l] = code
        code = (code + counts[l]) << 1
    return CanonicalTable(ls, tuple(first), counts, groups)


def _group_symbols(ls: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per length 0..max(ls), the symbols of that length in index order,
    by one loop turn per symbol."""
    by_rank: list[list[int]] = [[] for _ in range(max(ls) + 1)]
    for sym, l in enumerate(ls):
        by_rank[l].append(sym)
    return tuple(map(tuple, by_rank))


def encode(symbols: Iterable[int], table: CanonicalTable) -> tuple[bytes, int]:
    """Pack the symbol sequence; returns (payload bytes, exact bit count).

    One pass over the message: the codeword string of each distinct symbol
    is formatted once, the strings of all the symbols are joined into one
    '0'/'1' string, and one ``int(..., 2).to_bytes`` packs it.  A symbol
    thus costs a lookup inside ``str.join``, not a Python loop turn.
    Codewords are derived only for the d distinct symbols of the message.
    When d * bit_length(n) < n, each one comes from `codeword_bits`, and
    the strings go in a dict.  Otherwise one pass over the groups, counting
    codewords up, is cheaper: it costs O(n) = O(d log n) steps, and the
    strings go in a list of n.  Both lookups, like the table's tuples,
    reject a symbol that is not an integer.  A bad symbol raises what the
    first bad one in input order raises.
    """
    lengths = table.lengths
    n = len(lengths)
    if type(symbols) is not list:
        symbols = list(symbols)  # read twice below; a list message is not copied
    if not symbols:
        return b"", 0
    try:
        distinct = set(symbols)
        if min(distinct) >= 0 and max(distinct) < n:
            if len(distinct) * n.bit_length() < n:
                words = dict(zip(distinct, map(table.codeword_bits, distinct)))
                # operator.index refuses 1.0, which the dict would take as 1
                bits = "".join(map(words.__getitem__, map(operator.index, symbols)))
            else:
                word_list: list[str | None] = [None] * n
                for l, (syms, code) in enumerate(zip(table.groups, table.first_codes)):
                    code |= 1 << l  # code + 2^length in binary, less "0b1", is the codeword
                    for sym in syms:
                        if sym in distinct:
                            word_list[sym] = bin(code)[3:]
                        code += 1
                bits = "".join(map(word_list.__getitem__, symbols))
            pad = -len(bits) % 8
            return (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big"), len(bits)
    except (TypeError, KeyError):
        pass
    for sym in symbols:
        if not 0 <= sym < n:
            raise ValueError(f"symbol {sym} outside the table")
        lengths[sym]  # a symbol that is not an integer raises TypeError here
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
    lengths; its window's entry reads (None, 0).  W (see `_window_bits`)
    grows with the stream, so a short message builds a small window
    table.  Only the per-length fields of the table are read, so a table
    of range groups costs nothing per symbol of the alphabet.
    """
    if bit_count < 0:
        raise DecodeError(f"negative bit count {bit_count}")
    if bit_count > len(payload) * 8:
        raise DecodeError("bit count exceeds the payload")
    top = table.max_length
    width = _window_bits(top, bit_count)
    windows = _window_table(table, width)
    first, counts, by_rank = table.first_codes, table.counts, table.groups
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
        sym, l = windows[bits[pos:pos + width]]
        if not l:  # a codeword longer than W, or none
            v = int(bits[pos:pos + top], 2)
            i = bisect_right(limits, v)
            if i == len(limits):
                raise DecodeError("bit run exceeds the longest codeword"
                                  if bit_count - pos > top else
                                  "stream truncated inside a codeword")
            l = long_lengths[i]
            sym = by_rank[l][(v >> (top - l)) - first[l]]
        append(sym)
        pos += l
    if pos > bit_count:  # the last codeword runs past the stream's end
        raise DecodeError("stream truncated inside a codeword")
    return out


def _window_bits(max_length: int, bit_count: int) -> int:
    """W: about one window table entry per 16 stream bits, within
    WINDOW_MIN_BITS..WINDOW_MAX_BITS and no wider than the longest codeword."""
    return min(max_length, max(WINDOW_MIN_BITS,
                               min(WINDOW_MAX_BITS, bit_count.bit_length() - 4)))


def _window_table(table: CanonicalTable, width: int) -> dict[str, tuple[int | None, int]]:
    """Maps each `width`-bit string to (symbol, codeword length) when it
    starts with a codeword of at most `width` bits, and to (None, 0) when
    it starts a longer codeword or none.

    Canonical codewords in (length, symbol) order fill the windows from
    all zeros upward with no gap, so entry j is the window of value j, and
    every window after the last short codeword is (None, 0).
    """
    entries: list[tuple[int | None, int]] = []
    for l in range(1, width + 1):
        span = 1 << (width - l)
        for entry in zip(table.groups[l], repeat(l)):
            entries += [entry] * span
    entries += [(None, 0)] * ((1 << width) - len(entries))
    half = width // 2
    tails = _bit_strings(half)
    return dict(zip([head + tail for head in _bit_strings(width - half) for tail in tails],
                    entries))


def _bit_strings(k: int) -> list[str]:
    """The 2^k strings of k '0'/'1' characters, in numeric order."""
    return [format(i, "b")[1:] for i in range(1 << k, 2 << k)]


def pack_container(lengths: Sequence[int], payload: bytes, bit_count: int) -> bytes:
    """The container of `lengths`, `payload` and its exact `bit_count`.

    Integer lengths that never increase (`core._length_runs`) take the run
    header, ``PFX2``, when it is shorter than the per-symbol one and n is
    at most `MAX_RUN_SYMBOLS`; any other lengths the per-symbol header,
    ``PFX1``.  A `core.RunLengths`, the lengths of a presorted
    construction, gives its runs in O(1) and holds ints by construction,
    so its run header costs O(k); any other sequence is read in full
    once, by its run check and the ``sum`` that proves every length an
    int.  A length or bit count that does not fit raises
    `ContainerFormatError`.
    """
    runs = _length_runs(lengths)
    n = len(lengths)
    try:
        # a float equal to an int passes the runs' count, not struct.pack;
        # a `RunLengths` holds ints by construction
        run_form = (runs is not None and n <= MAX_RUN_SYMBOLS and 2 + 10 * len(runs) < 2 * n
                    and (type(lengths) is RunLengths or type(sum(lengths)) is int))
    except TypeError:
        run_form = False
    try:
        if run_form:
            head = RUN_MAGIC + struct.pack("<QH", n, len(runs)) + b"".join(
                struct.pack("<HQ", l, hi - lo) for l, lo, hi in runs)
        else:
            head = MAGIC + struct.pack(f"<Q{n}H", n, *lengths)
        tail = struct.pack("<Q", bit_count)
    except struct.error as exc:
        raise ContainerFormatError(f"cannot pack the container: {exc}") from None
    return b"".join((head, tail, payload))


def unpack_container(blob: bytes) -> tuple[list[int], bytes, int]:
    """Returns (lengths, payload, bit count), from either header form.

    Accepts only what `pack_container` writes for a complete code: lengths
    in 1..max(1, n-1) with Kraft sum 1 (for n >= 2), and a payload of
    exactly ceil(bits/8) bytes whose pad bits are zero.  A run header must
    also declare at most `MAX_RUN_SYMBOLS` symbols, checked before any
    list is built, and hold at least one run, no run of zero symbols,
    strictly falling lengths and counts that sum to n.  One count of each
    distinct length (from the run header, or from the runs of per-symbol
    lengths that never increase, else from a `Counter`) serves both
    length checks, which read only its k keys; a range fault is reported
    before a Kraft fault.
    """
    magic = blob[:4]
    if len(blob) < 12 or magic not in (MAGIC, RUN_MAGIC):
        raise ContainerFormatError("bad magic")
    n = struct.unpack_from("<Q", blob, 4)[0]
    if magic == MAGIC:
        off = 12 + 2 * n
        if len(blob) < off + 8:
            raise ContainerFormatError("truncated header")
        if n == 0:
            raise ContainerFormatError("no codeword lengths")
        lengths = struct.unpack_from(f"<{n}H", blob, 12)
        runs = None
        counts = _length_counts(lengths, _length_runs(lengths))
    else:
        runs, off = _read_run_header(blob, n)
        counts = dict(runs)
    try:
        check_length_range(counts, n)
    except ValueError as exc:
        raise ContainerFormatError(f"codeword {exc}") from None
    num, top = _kraft_scaled(counts)
    if n >= 2 and num != 1 << top:
        raise ContainerFormatError("codeword lengths do not have Kraft sum 1")
    bit_count = struct.unpack_from("<Q", blob, off)[0]
    off += 8
    payload = blob[off:]
    if bit_count > len(payload) * 8:
        raise ContainerFormatError("payload shorter than the declared bit count")
    if len(payload) > (bit_count + 7) // 8:
        raise ContainerFormatError("bytes past the end of the payload")
    if payload and payload[-1] & (0xFF >> ((bit_count - 1) % 8 + 1)):
        raise ContainerFormatError("non-zero pad bits")
    if runs is None:
        return list(lengths), payload, bit_count
    lengths = []
    for l, c in runs:
        lengths.extend(repeat(l, c))
    return lengths, payload, bit_count


def _read_run_header(blob: bytes, n: int) -> tuple[list[tuple[int, int]], int]:
    """The (length, count) runs of a ``PFX2`` container that declares `n`
    symbols, and the offset of its bit count."""
    if n > MAX_RUN_SYMBOLS:
        raise ContainerFormatError(
            f"run header declares {n} symbols, more than {MAX_RUN_SYMBOLS}")
    k = struct.unpack_from("<H", blob, 12)[0] if len(blob) >= 14 else 0
    off = 14 + 10 * k
    if len(blob) < off + 8:
        raise ContainerFormatError("truncated run header")
    if k == 0:
        raise ContainerFormatError("run header holds no runs")
    runs = list(struct.iter_unpack("<HQ", blob[14:off]))
    if not all(c for _, c in runs):
        raise ContainerFormatError("run header holds a run of no symbols")
    if not all(a > b for (a, _), (b, _) in zip(runs, runs[1:])):
        raise ContainerFormatError("run lengths do not strictly fall")
    if (total := sum(c for _, c in runs)) != n:
        raise ContainerFormatError(f"run counts sum to {total}, not to n = {n}")
    return runs, off
