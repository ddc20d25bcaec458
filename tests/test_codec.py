import random
from decimal import Decimal
from fractions import Fraction
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import example, find, given, settings, strategies as st

from mrcode import (CodeLengthProfile, ContainerFormatError, DecodeError,
                    WeightList, canonical_codes, construct_lengths,
                    decode, encode, generators, huffman_lengths, kraft_sum,
                    pack_container, unpack_container)
from mrcode import codec, core
from mrcode.codec import CanonicalTable
from oracles import (WORKED_COST, WORKED_VALUES, reference_codes,
                     reference_decode, reference_encode)


def test_two_codes():
    t = canonical_codes(CodeLengthProfile((1, 1)))
    assert [t.codeword_bits(s) for s in range(2)] == ["0", "1"]


def test_forced_canonical_order():
    t = canonical_codes(CodeLengthProfile((1, 2, 2)))
    assert [t.codeword_bits(s) for s in range(3)] == ["0", "10", "11"]


def test_equal_lengths_are_consecutive_by_symbol():
    t = canonical_codes(CodeLengthProfile((2, 1, 2)))
    assert t.codeword_bits(1) == "0"
    codes = reference_codes(t)
    assert codes[0] + 1 == codes[2]


def test_worked_example_prefix_free():
    w = WeightList.from_values(WORKED_VALUES)
    profile, _ = construct_lengths(w)
    t = canonical_codes(profile)
    words = [t.codeword_bits(s) for s in range(len(w))]
    assert len(set(words)) == len(words)
    assert sorted(len(word) for word in words) == sorted(profile.lengths)
    for a in words:
        for b in words:
            if a is not b:
                assert not b.startswith(a)


def test_oversubscribed_lengths_rejected():
    with pytest.raises(ValueError):
        canonical_codes(CodeLengthProfile((1, 1, 2)))


def test_empty_round_trip():
    t = canonical_codes(CodeLengthProfile((1, 1)))
    payload, bits = encode([], t)
    assert payload == b"" and bits == 0
    assert decode(payload, bits, t) == []


def test_single_symbol_round_trip():
    t = canonical_codes(CodeLengthProfile((1, 2, 2)))
    payload, bits = encode([2], t)
    assert bits == 2
    assert decode(payload, bits, t) == [2]


def test_bit_count_is_exact_cost():
    w = WeightList.from_values(WORKED_VALUES)
    profile, _ = construct_lengths(w)
    t = canonical_codes(profile)
    corpus = [i for i, it in enumerate(w.items) for _ in range(it.value)]
    random.Random(0).shuffle(corpus)
    payload, bits = encode(corpus, t)
    assert bits == WORKED_COST
    assert decode(payload, bits, t) == corpus


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=120, deadline=None)
def test_random_round_trip(n, seed):
    rng = random.Random(seed)
    w = WeightList.from_values([rng.randint(1, 500) for _ in range(n)])
    t = canonical_codes(huffman_lengths(w))
    corpus = [rng.randrange(n) for _ in range(rng.randint(0, 300))]
    payload, bits = encode(corpus, t)
    assert bits == sum(t.lengths[s] for s in corpus)
    assert len(payload) == (bits + 7) // 8
    assert decode(payload, bits, t) == corpus


def test_truncated_stream_detected():
    t = canonical_codes(CodeLengthProfile((1, 2, 2)))
    payload, bits = encode([1, 2, 1], t)
    with pytest.raises(DecodeError):
        decode(payload, bits - 1, t)
    with pytest.raises(DecodeError):
        decode(payload[:-1] if len(payload) > 1 else b"", bits, t)
    with pytest.raises(DecodeError, match="bit run exceeds the longest codeword"):
        decode(b"\xc0", 2, canonical_codes(CodeLengthProfile((1,))))
    # a negative bit count is named before the payload is sliced
    for bad in (-8, -3):
        with pytest.raises(DecodeError, match=f"^negative bit count {bad}$"):
            decode(b"X", bad, t)


def test_symbol_outside_table():
    t = canonical_codes(CodeLengthProfile((1, 1)))
    with pytest.raises(ValueError):
        encode([2], t)


def test_container_round_trip():
    lengths = [2, 1, 2]
    payload, bits = encode([0, 1, 2], canonical_codes(CodeLengthProfile(tuple(lengths))))
    blob = pack_container(lengths, payload, bits)
    assert blob[:4] == b"PFX1"
    got_lengths, got_payload, got_bits = unpack_container(blob)
    assert (got_lengths, got_payload, got_bits) == (lengths, payload, bits)


def test_container_golden_bytes():
    blob = pack_container([1, 1], b"\x80", 2)
    assert blob == (b"PFX1"
                    + (2).to_bytes(8, "little")
                    + (1).to_bytes(2, "little") * 2
                    + (2).to_bytes(8, "little")
                    + b"\x80")


def test_container_rejects_garbage():
    with pytest.raises(ContainerFormatError):
        unpack_container(b"nope")
    with pytest.raises(ContainerFormatError):
        unpack_container(b"PFX1" + (5).to_bytes(8, "little"))
    good = pack_container([1, 1], b"\x80", 2)
    with pytest.raises(ContainerFormatError):
        unpack_container(good[:-1] + b"")  # drops payload below bit count


def _valid_container():
    lengths = [2, 1, 2]
    payload, bits = encode([0, 1, 2, 1], canonical_codes(CodeLengthProfile(tuple(lengths))))
    assert bits % 8  # leaves pad bits in the last byte
    return lengths, payload, bits


def test_container_rejects_trailing_bytes():
    lengths, payload, bits = _valid_container()
    with pytest.raises(ContainerFormatError):
        unpack_container(pack_container(lengths, payload, bits) + b"xyz")
    with pytest.raises(ContainerFormatError):
        unpack_container(pack_container([1, 1], b"", 0) + b"\x00")


def test_container_rejects_nonzero_pad_bits():
    lengths, payload, bits = _valid_container()
    padded = payload[:-1] + bytes([payload[-1] | 1])
    with pytest.raises(ContainerFormatError):
        unpack_container(pack_container(lengths, padded, bits))
    with pytest.raises(ContainerFormatError):
        unpack_container(pack_container([1, 1], b"\x81", 2))


def test_container_rejects_length_out_of_range():
    for lengths in ([0, 1], [1, 0, 2], [1, 2, 3], [2], [60000], [70000], [-1]):
        with pytest.raises(ContainerFormatError):
            unpack_container(pack_container(lengths, b"", 0))
    with pytest.raises(ContainerFormatError, match=r"^codeword lengths must lie in 1\.\.2$"):
        unpack_container(pack_container([1, 3, 2], b"", 0))
    with pytest.raises(ContainerFormatError):
        unpack_container(pack_container([], b"", 0))


def test_container_reports_the_range_fault_before_the_kraft_fault():
    # each profile is out of range and has a Kraft sum other than 1
    for lengths in ([0, 1], [1, 1, 5, 5], [1, 3, 2], [3, 3], [4, 1, 2, 0]):
        bound = max(1, len(lengths) - 1)
        with pytest.raises(ContainerFormatError,
                           match=rf"^codeword lengths must lie in 1\.\.{bound}$"):
            unpack_container(pack_container(lengths, b"", 0))


def test_container_rejects_kraft_sum_not_one():
    for lengths in ([2, 2, 2], [1, 1, 2], [1, 2, 3, 3, 3], [1, 2, 3, 4, 4, 4],
                    [1, 2, 3, 4, 5, 5, 4]):
        with pytest.raises(ContainerFormatError,
                           match="^codeword lengths do not have Kraft sum 1$"):
            unpack_container(pack_container(lengths, b"", 0))
    assert unpack_container(pack_container([1], b"", 0)) == ([1], b"", 0)


def _run_container(n, runs, bits=0, payload=b"", k=None):
    """A ``PFX2`` container declaring `n` symbols, its (length, count)
    `runs` and `k` runs (default: as many as given)."""
    import struct
    head = b"PFX2" + struct.pack("<QH", n, len(runs) if k is None else k)
    return (head + b"".join(struct.pack("<HQ", l, c) for l, c in runs)
            + struct.pack("<Q", bits) + payload)


def test_run_header_golden_bytes():
    # eight lengths of 3: a 10-byte run header against 16 bytes of lengths
    blob = pack_container([3] * 8, b"\x2c", 6)
    assert blob == (b"PFX2"
                    + (8).to_bytes(8, "little")
                    + (1).to_bytes(2, "little")
                    + (3).to_bytes(2, "little") + (8).to_bytes(8, "little")
                    + (6).to_bytes(8, "little")
                    + b"\x2c")
    assert blob == _run_container(8, [(3, 8)], 6, b"\x2c")
    assert unpack_container(blob) == ([3] * 8, b"\x2c", 6)


def test_run_header_only_where_it_is_shorter():
    # the run header takes 2 + 10k bytes where the per-symbol one takes 2n
    for lengths, magic in (([1, 1], b"PFX1"), ([2] * 4, b"PFX1"), ([3] * 4 + [2] * 2, b"PFX1"),
                           ([3, 3, 2, 1], b"PFX1"), ([4] * 8 + [2] * 2, b"PFX1"),
                           ([4] * 8 + [3] * 2 + [2], b"PFX1"), ([2, 3, 3, 1], b"PFX1"),
                           ([3] * 8, b"PFX2"), ([4] * 12 + [3] * 2, b"PFX2")):
        blob = pack_container(lengths, b"", 0)
        assert blob[:4] == magic, lengths
        assert unpack_container(blob) == (lengths, b"", 0)
        if magic == b"PFX1":
            assert blob == _reference_container(lengths, b"", 0)
    # 2 + 10 * 1 < 2 * n from n = 7 on
    assert pack_container([3] * 6, b"", 0)[:4] == b"PFX1"
    assert pack_container([3] * 7, b"", 0)[:4] == b"PFX2"
    # floats equal to ints keep the per-symbol header, whose packing refuses
    # them, also where the run header would hold only ints: it packs each
    # run's first length
    for lengths in ([3.0] * 8, [3] * 7 + [3.0], [4] * 8 + [3, 3.0]):
        with pytest.raises(ContainerFormatError, match="^cannot pack the container"):
            pack_container(lengths, b"", 0)


def test_presorted_round_trip_container_is_small():
    # the 98 306 lengths of presorted example41-65536 are three runs
    table = _example41_presorted_table(65536)
    rng = random.Random(16)
    message = [rng.randrange(len(table.lengths)) for _ in range(256)]
    payload, bits = encode(message, table)
    blob = pack_container(table.lengths, payload, bits)
    assert blob[:4] == b"PFX2" and len(blob) < 1024
    lengths, payload_in, bits_in = unpack_container(blob)
    assert tuple(lengths) == table.lengths and (payload_in, bits_in) == (payload, bits)
    assert decode(payload_in, bits_in, canonical_codes(CodeLengthProfile(lengths))) == message


def test_run_header_bounds_n():
    # one run of 2^40 lengths of 40 has Kraft sum 1; its 32-byte container
    # is refused before any list is built
    blob = _run_container(1 << 40, [(40, 1 << 40)])
    with mock.patch.object(codec, "repeat", mock.Mock(side_effect=AssertionError)):
        with pytest.raises(ContainerFormatError,
                           match=r"^run header declares 1099511627776 symbols, "
                                 r"more than 16777216$"):
            unpack_container(blob)
    assert codec.MAX_RUN_SYMBOLS == 1 << 24
    # above the bound, pack_container writes the per-symbol header, which
    # unpacks; at the bound, the run header
    lengths = [5] * 32
    with mock.patch.object(codec, "MAX_RUN_SYMBOLS", 31):
        blob = pack_container(lengths, b"", 0)
        assert blob == _reference_container(lengths, b"", 0)
        assert unpack_container(blob) == (lengths, b"", 0)
        with pytest.raises(ContainerFormatError, match="^run header declares 32 symbols"):
            unpack_container(_run_container(32, [(5, 32)]))
    with mock.patch.object(codec, "MAX_RUN_SYMBOLS", 32):
        blob = pack_container(lengths, b"", 0)
        assert blob[:4] == b"PFX2"
        assert unpack_container(blob) == (lengths, b"", 0)


def test_run_header_rejects_no_runs():
    for n in (0, 2):
        with pytest.raises(ContainerFormatError, match="^run header holds no runs$"):
            unpack_container(_run_container(n, []))


def test_run_header_rejects_a_zero_count():
    for runs in ([(2, 0), (1, 2)], [(3, 4), (2, 2), (1, 0)], [(1, 0)]):
        n = sum(c for _, c in runs)
        with pytest.raises(ContainerFormatError, match="^run header holds a run of no symbols$"):
            unpack_container(_run_container(n, runs))


def test_run_header_rejects_lengths_that_do_not_strictly_fall():
    # equal lengths in two runs, a rise, and a rise after a fall; each
    # profile would otherwise pass the range and Kraft checks
    for runs in ([(2, 2), (2, 2)], [(1, 1), (2, 2)], [(3, 4), (2, 1), (3, 4), (1, 1)]):
        n = sum(c for _, c in runs)
        with pytest.raises(ContainerFormatError, match="^run lengths do not strictly fall$"):
            unpack_container(_run_container(n, runs))


def test_run_header_rejects_counts_that_do_not_sum_to_n():
    runs = [(18, 65536), (17, 32768), (2, 2)]
    for n in (98305, 98307, 0):
        with pytest.raises(ContainerFormatError,
                           match=rf"^run counts sum to 98306, not to n = {n}$"):
            unpack_container(_run_container(n, runs))


def test_run_header_rejects_length_out_of_range():
    for n, runs, bound in ((4, [(4, 2), (2, 1), (1, 1)], 3), (2, [(1, 1), (0, 1)], 1),
                           (1, [(2, 1)], 1), (8, [(65535, 8)], 7)):
        with pytest.raises(ContainerFormatError,
                           match=rf"^codeword lengths must lie in 1\.\.{bound}$"):
            unpack_container(_run_container(n, runs))


def test_run_header_rejects_kraft_sum_not_one():
    for runs in ([(3, 8), (1, 1)], [(3, 7)], [(3, 6), (2, 2)]):
        n = sum(c for _, c in runs)
        with pytest.raises(ContainerFormatError,
                           match="^codeword lengths do not have Kraft sum 1$"):
            unpack_container(_run_container(n, runs))
    assert unpack_container(_run_container(1, [(1, 1)])) == ([1], b"", 0)


def test_run_header_rejects_truncation():
    blob = _run_container(8, [(4, 4), (3, 2), (2, 2)])  # Kraft sum 1
    assert unpack_container(blob) == ([4] * 4 + [3] * 2 + [2] * 2, b"", 0)
    for cut in range(12, len(blob)):
        with pytest.raises(ContainerFormatError, match="^truncated run header$"):
            unpack_container(blob[:cut])
    # a k that claims more runs than the header holds
    with pytest.raises(ContainerFormatError, match="^truncated run header$"):
        unpack_container(_run_container(8, [(3, 8)], k=2))


def test_run_header_payload_checks():
    # after a run header, the payload checks of the per-symbol form
    lengths = [3] * 8
    payload, bits = encode([0, 7, 3], canonical_codes(CodeLengthProfile(lengths)))
    assert bits % 8
    blob = pack_container(lengths, payload, bits)
    assert blob[:4] == b"PFX2"
    assert unpack_container(blob) == (lengths, payload, bits)
    for bad, message in ((blob + b"\x00", "bytes past the end of the payload"),
                         (blob[:-1], "payload shorter than the declared bit count"),
                         (blob[:-1] + bytes([blob[-1] | 1]), "non-zero pad bits")):
        with pytest.raises(ContainerFormatError, match=f"^{message}$"):
            unpack_container(bad)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**30),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=255)),
                max_size=4),
       st.integers(min_value=-3, max_value=3), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mutated_containers_decode_or_raise_typed_errors(n, seed, edits, resize, monotone):
    rng = random.Random(seed)
    if monotone:
        # sorted weights of few distinct values: lengths that never increase,
        # most of them in a run header that the edits then land in
        n = 8 * n
        w = WeightList.from_values(sorted(rng.randint(1, rng.choice([2, 4, 50]))
                                          for _ in range(n)), sorted_flag=True)
        profile, _ = construct_lengths(w)
    else:
        w = WeightList.from_values([rng.randint(1, 50) for _ in range(n)])
        profile = huffman_lengths(w) if n > 1 else CodeLengthProfile((1,))
    message = [rng.randrange(n) for _ in range(rng.randint(0, 20))]
    payload, bits = encode(message, canonical_codes(profile))
    blob = bytearray(pack_container(profile.lengths, payload, bits))
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    if resize < 0:
        del blob[resize:]
    else:
        blob += bytes(resize)
    try:
        lengths, got_payload, got_bits = unpack_container(bytes(blob))
        decoded = decode(got_payload, got_bits,
                         canonical_codes(CodeLengthProfile(tuple(lengths))))
    except (ContainerFormatError, DecodeError):
        return
    assert all(0 <= s < len(lengths) for s in decoded)
    if bytes(blob) == pack_container(profile.lengths, payload, bits):
        assert decoded == message


def _reference_table(lengths):
    """Canonical table by the textbook recipe: sort symbols by (length,
    index), check Kraft with exact fractions."""
    from fractions import Fraction
    ls = lengths.lengths
    if sum(Fraction(1, 2 ** l) for l in ls) > 1:
        raise ValueError("oversubscribed")
    top = max(ls)
    counts = [0] * (top + 1)
    for l in ls:
        counts[l] += 1
    first = [0] * (top + 1)
    code = 0
    for l in range(1, top + 1):
        first[l] = code
        code = (code + counts[l]) << 1
    by_rank = [[] for _ in range(top + 1)]
    for sym in sorted(range(len(ls)), key=lambda s: (ls[s], s)):
        by_rank[ls[sym]].append(sym)
    codes = [0] * len(ls)
    for l in range(1, top + 1):
        for offset, sym in enumerate(by_rank[l]):
            codes[sym] = first[l] + offset
    return (tuple(ls), tuple(codes), tuple(first), tuple(counts),
            tuple(tuple(b) for b in by_rank))


def _reference_container(lengths, payload, bits):
    import struct
    out = bytearray(b"PFX1") + struct.pack("<Q", len(lengths))
    for l in lengths:
        out += struct.pack("<H", l)
    return bytes(out + struct.pack("<Q", bits) + payload)


def test_tables_and_containers_match_reference_recipe():
    rng = random.Random(0xC0DE)
    for trial in range(300):
        n = rng.randint(1, 300)
        if trial % 3:
            w = WeightList.from_values([rng.randint(1, rng.choice([3, 1000, 10**9]))
                                        for _ in range(n)])
            lengths = huffman_lengths(w)
        else:
            # incomplete codes (Kraft sum below 1) and oversubscribed ones
            lengths = CodeLengthProfile(tuple(rng.randint(1, 12) for _ in range(n)))
        try:
            expected = _reference_table(lengths)
        except ValueError:
            with pytest.raises(ValueError):
                canonical_codes(lengths)
            continue
        t = canonical_codes(lengths)
        assert (t.lengths, reference_codes(t), t.first_codes, t.counts,
                tuple(map(tuple, t.groups))) == expected
        message = [rng.randrange(n) for _ in range(50)]
        payload, bits = encode(message, t)
        assert pack_container(lengths.lengths, payload, bits) == \
            _reference_container(lengths.lengths, payload, bits)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:  # DecodeError is a ValueError
        return type(exc), str(exc)


@st.composite
def _tables(draw):
    """Canonical tables of complete codes, incomplete ones (Kraft sum below
    1) and one-symbol ones, with longest codewords of up to 64 bits."""
    kind = draw(st.sampled_from(["huffman", "chain", "random"]))
    if kind == "huffman":
        values = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=60))
        lengths = huffman_lengths(WeightList.from_values(values)).lengths
    elif kind == "chain":  # lengths 1, 2, ..., m, m: complete, m up to 64
        m = draw(st.integers(1, 64))
        lengths = tuple(range(1, m + 1)) + (m,)
    else:
        top = draw(st.integers(1, 64))
        lengths = draw(st.lists(st.integers(1, top), min_size=1, max_size=40))
        while sum(Fraction(1, 2 ** l) for l in lengths) > 1:
            lengths.pop()
        lengths = tuple(lengths)
    return canonical_codes(CodeLengthProfile(lengths))


@given(_tables(), st.data())
@settings(max_examples=600, deadline=None)
def test_decode_matches_bit_at_a_time_reference(table, data):
    n = len(table.lengths)
    if data.draw(st.booleans()):
        # an encoded message, cut short or followed by stray bytes
        message = data.draw(st.lists(st.integers(0, n - 1), max_size=300))
        payload, bits = reference_encode(message, table)
        bits -= data.draw(st.integers(0, min(bits, 2 * table.max_length)))
        payload += data.draw(st.binary(max_size=3))
    else:
        # random bits: runs with no codeword, truncations, bit counts past the payload
        payload = data.draw(st.binary(max_size=64))
        bits = data.draw(st.integers(0, 8 * len(payload) + 9))
    assert _outcome(decode, payload, bits, table) == \
        _outcome(reference_decode, payload, bits, table)


def test_decode_long_streams():
    rng = random.Random(9)
    for lengths in (tuple(range(1, 40)) + (39,),  # past any window
                    huffman_lengths(WeightList.from_values(
                        [rng.randint(1, 1000) for _ in range(256)])).lengths):
        table = canonical_codes(CodeLengthProfile(lengths))
        message = [rng.randrange(len(lengths)) for _ in range(20000)]
        payload, bits = reference_encode(message, table)
        assert bits > 32768
        assert decode(payload, bits, table) == message
        for cut in (1, 8, 32768):
            assert _outcome(decode, payload, bits - cut, table) == \
                _outcome(reference_decode, payload, bits - cut, table)


@st.composite
def _encode_cases(draw):
    """(table, symbols, as_generator): messages of in-range symbols, bools
    among them, with up to two out-of-range ones inserted."""
    table = draw(_tables())
    n = len(table.lengths)
    symbols = draw(st.lists(st.integers(0, n - 1) | st.booleans(), max_size=200))
    for _ in range(draw(st.integers(0, 2))):
        symbols.insert(draw(st.integers(0, len(symbols))),
                       draw(st.sampled_from([-2, -1, n, n + 1])))
    return table, symbols, draw(st.booleans())


@given(_encode_cases())
@settings(max_examples=400, deadline=None)
def test_encode_matches_reference(case):
    """Same payload and bit count, or the same error for the first bad
    symbol in input order: negative, = n or past it, from a generator or
    a list, bools included.  Short messages over large tables take the
    few-distinct path of `encode`, the rest the many-distinct one."""
    table, symbols, as_generator = case
    got = _outcome(encode, (s for s in symbols) if as_generator else symbols, table)
    assert got == _outcome(reference_encode, symbols, table)


def _example41_presorted_table(n):
    values = sorted(generators.generate("example41", n))
    profile, _ = construct_lengths(WeightList.from_values(values, sorted_flag=True))
    return canonical_codes(profile)


def test_read_path_builds_no_per_symbol_codewords():
    # a 256-symbol message over the 98 306 symbols of presorted
    # example41-65536: the read side derives no codeword at all
    table = _example41_presorted_table(65536)
    rng = random.Random(41)
    message = [rng.randrange(len(table.lengths)) for _ in range(256)]

    def refuse(*args):
        raise AssertionError("codeword derived on the read side")

    payload, bits = encode(message, table)
    blob = pack_container(table.lengths, payload, bits)
    with mock.patch.object(CanonicalTable, "codeword_bits", refuse):
        lengths, payload_in, bits_in = unpack_container(blob)
        table_in = canonical_codes(CodeLengthProfile(tuple(lengths)))
        assert table_in == table
        assert decode(payload_in, bits_in, table_in) == message
    assert (payload, bits) == reference_encode(message, table)


def _encode_path(symbols, table):
    """Which path `encode` takes on a valid message: "few" when it derives
    each distinct symbol's codeword on its own, "many" when it makes one
    pass over the table.  Its output must match the reference's."""
    seen = []
    codeword_bits = CanonicalTable.codeword_bits

    def few(t, sym):
        seen.append(sym)
        return codeword_bits(t, sym)

    with mock.patch.object(CanonicalTable, "codeword_bits", few):
        got = encode(symbols, table)
    assert got == reference_encode(symbols, table)
    assert sorted(seen) in ([], sorted(set(symbols)))
    return "few" if seen else "many"


def test_encode_paths_match_reference():
    # the same table through both paths: a few distinct symbols, then many
    table = _example41_presorted_table(1024)
    n = len(table.lengths)
    rng = random.Random(7)
    for d in (1, 2, 5, 50, n // 2, n):
        message = [rng.choice(range(d)) for _ in range(300)] + list(range(d))
        rng.shuffle(message)
        path = _encode_path(message, table)
        assert path == ("few" if d * n.bit_length() < n else "many")


def test_encode_strategy_reaches_both_paths():
    # test_encode_matches_reference draws from _encode_cases; each path is
    # found among its valid messages
    def valid(case):
        table, symbols, _ = case
        return symbols and all(type(s) is int and 0 <= s < len(table.lengths)
                               for s in symbols)

    for path in ("few", "many"):
        find(_encode_cases(), lambda case: valid(case) and _encode_path(case[1], case[0]) == path,
             settings=settings(max_examples=2000, database=None))


def test_encode_names_the_first_bad_symbol():
    table = canonical_codes(CodeLengthProfile((1, 2, 2)))
    with pytest.raises(ValueError, match=r"^symbol 3 outside the table$"):
        encode(iter([0, 1, 3, 2, -1]), table)
    with pytest.raises(ValueError, match=r"^symbol -1 outside the table$"):
        encode([True, -1, 3], table)
    # 1.0 equals 1 but indexes no tuple or list: refused, not read as 1
    assert _outcome(encode, [1, 1.0], table) == \
        _outcome(reference_encode, [1, 1.0], table)
    assert encode([True, False, 2], table) == reference_encode([1, 0, 2], table)


@st.composite
def _run_profiles(draw):
    """Length sequences that never increase, and near misses of them: one
    adjacent swap, a run split by another length, a last length out of
    order.  Some take 0, 65 536 or -1 at a run's end, or a float, a bool or
    a `Decimal` in place of a length; these reach only `pack_container`."""
    top = draw(st.sampled_from([2, 4, 16]))  # few distinct lengths take the run header
    lengths = sorted(draw(st.lists(st.integers(1, top), max_size=48)), reverse=True)
    kind = draw(st.sampled_from(["runs", "swap", "split", "last", "edge", "type"]))
    if kind == "swap" and len(set(lengths)) > 1:
        i = draw(st.sampled_from([i for i in range(len(lengths) - 1)
                                  if lengths[i] != lengths[i + 1]]))
        lengths[i], lengths[i + 1] = lengths[i + 1], lengths[i]
    elif kind == "split" and lengths:
        i = draw(st.integers(0, len(lengths) - 1))
        lengths.insert(i, draw(st.integers(1, 16).filter(lambda l: l != lengths[i])))
    elif kind == "last" and lengths:
        lengths.append(draw(st.integers(lengths[-1] + 1, 17)))
    elif kind == "edge":
        ends = [i for i in range(len(lengths)) if i + 1 == len(lengths)
                or lengths[i] != lengths[i + 1]]
        if ends:
            lengths[draw(st.sampled_from(ends))] = draw(st.sampled_from([0, 65536, -1]))
        if draw(st.booleans()):
            lengths.insert(0, 65536)
        else:
            lengths.append(draw(st.sampled_from([0, -1])))
    elif kind == "type" and lengths:
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i] = draw(st.sampled_from([float(lengths[i]), lengths[i] + 0.5,
                                           lengths[i] == 1, Decimal(lengths[i]),
                                           Decimal("NaN")]))
    return draw(st.sampled_from([tuple, list]))(lengths)


def _expected_runs(ls):
    """The (length, lo, hi) runs of lengths that never increase, or None,
    as for lengths that are not numbers or NaN."""
    if not ls or not all(type(l) in (int, bool, float, Decimal) and l == l for l in ls) \
            or not all(a >= b for a, b in zip(ls, ls[1:])):
        return None
    runs, lo = [], 0
    for l, group in groupby(ls):
        hi = lo + len(list(group))
        runs.append((l, lo, hi))
        lo = hi
    return runs


def test_run_check_reads_every_length_of_long_runs():
    # a length out of order at any position of long runs, deep inside a
    # run or at its ends, is found
    base = [9] * 700 + [5] * 1000 + [2] * 300
    assert core._length_runs(base) == [(9, 0, 700), (5, 700, 1700), (2, 1700, 2000)]
    for pos in range(len(base)):
        for delta in (-1, 1):
            ls = base[:pos] + [base[pos] + delta] + base[pos + 1:]
            assert core._length_runs(ls) == _expected_runs(ls)


def _per_symbol(fn, *args):
    """`_outcome` of fn(*args) with the run reader refusing every profile,
    so each one takes the per-symbol path.  A profile among the arguments
    is rebuilt under the refusal, so that it holds no runs."""
    with mock.patch.object(core, "_length_runs", lambda ls: None), \
            mock.patch.object(codec, "_length_runs", lambda ls: None):
        args = [CodeLengthProfile(a.lengths) if isinstance(a, CodeLengthProfile) else a
                for a in args]
        return _outcome(fn, *args)


def _assert_same_containers(lengths, payload, bits):
    """The containers of the run path and of the per-symbol path unpack to
    the same outcome, and the per-symbol one is the reference's bytes; or
    both paths raise the same error."""
    blob = _outcome(pack_container, lengths, payload, bits)
    flat = _per_symbol(pack_container, lengths, payload, bits)
    if not isinstance(flat, bytes):
        assert blob == flat
        return
    assert flat == _reference_container(lengths, payload, bits)
    got = _outcome(unpack_container, blob)
    assert got == _outcome(unpack_container, flat) == _per_symbol(unpack_container, flat)
    assert got == _per_symbol(unpack_container, blob)


def _contents(table):
    if not isinstance(table, CanonicalTable):
        return table  # the (type, message) of an error
    return (table.lengths, reference_codes(table), table.first_codes, table.counts,
            tuple(map(tuple, table.groups)))


@given(_run_profiles(), st.randoms(use_true_random=False))
@settings(max_examples=500, deadline=None)
@example((), random.Random(0))
@example((1,), random.Random(0))
@example((1, 2, 2), random.Random(0))          # one adjacent swap
@example((3, 3, 2, 3, 3, 1), random.Random(0))  # a run split by another length
@example((2, 1, 2), random.Random(0))          # a last length out of order
@example((65536, 2, 1), random.Random(0))
@example((2, 2, 0), random.Random(0))
@example((2, 1, -1), random.Random(0))
@example((2, 1.0, 1), random.Random(0))
@example([2, True, 1], random.Random(0))
@example((Decimal("NaN"),), random.Random(0))
@example((Decimal(2), Decimal(2), Decimal(1)), random.Random(0))
@example((3,) * 8, random.Random(0))           # the run header, complete
@example((5,) * 12 + (2,) * 3, random.Random(0))  # the run header, Kraft sum below 1
@example((4,) * 12 + (0,), random.Random(0))
@example((3,) * 7 + (3.0,), random.Random(0))  # a float the run header would drop
@example((4,) * 8 + (3, 3.0), random.Random(0))
@example((65536,) * 8, random.Random(0))
@example([True] * 8, random.Random(0))
def test_run_path_matches_per_symbol_path(lengths, rng):
    """On every length sequence, the runs of a profile that never
    increases and the per-symbol path give the same tables, Kraft sums,
    decoded symbols and errors, and containers that unpack alike."""
    ls = tuple(lengths)
    runs = core._length_runs(lengths)
    assert runs == _expected_runs(ls)
    _assert_same_containers(lengths, b"", 0)
    if not ls or not all(type(l) is int and 1 <= l <= 64 for l in ls):
        return
    profile = CodeLengthProfile(lengths)
    assert kraft_sum(profile) == _per_symbol(kraft_sum, profile)
    table = _outcome(canonical_codes, profile)
    flat = _per_symbol(canonical_codes, profile)
    assert _contents(table) == _contents(flat)
    if not isinstance(table, CanonicalTable):
        return
    assert all(type(g) is (range if runs else tuple) for g in table.groups)
    n = len(ls)
    message = [rng.randrange(n) for _ in range(rng.choice([0, 1, 5, 300]))]
    payload, bits = encode(message, table)
    assert (payload, bits) == encode(message, flat) == reference_encode(message, table)
    _assert_same_containers(lengths, payload, bits)
    cut = rng.randrange(bits + 1)
    for t in (table, flat):
        assert _outcome(decode, payload, cut, t) == _outcome(reference_decode, payload, cut, flat)
    assert decode(payload, bits, table) == message


def test_presorted_profile_takes_no_per_symbol_step():
    # the 98 306 lengths of presorted example41-65536, through every step of
    # the write and the read side: neither the per-symbol grouping loop nor
    # a Counter of the lengths is reached
    values = sorted(generators.generate("example41", 65536))
    profile, _ = construct_lengths(WeightList.from_values(values, sorted_flag=True))
    rng = random.Random(15)

    def refuse(*args):
        raise AssertionError("per-symbol step reached")

    with mock.patch.object(codec, "_group_symbols", refuse), \
            mock.patch.object(core, "Counter", refuse):
        assert kraft_sum(profile) == 1
        table = canonical_codes(profile)
        assert all(type(g) is range for g in table.groups)
        for size in (256, 65536):
            message = [rng.randrange(len(values)) for _ in range(size)]
            payload, bits = encode(message, table)
            blob = pack_container(profile.lengths, payload, bits)
            lengths, payload_in, bits_in = unpack_container(blob)
            table_in = canonical_codes(CodeLengthProfile(tuple(lengths)))
            assert decode(payload_in, bits_in, table_in) == message
    assert (payload, bits) == reference_encode(message, table)
