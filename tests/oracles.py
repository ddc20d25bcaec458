"""Independent oracles and fixtures shared by the tests.

The materializer builds every implied internal node of a level assignment
the slow way (sort, pair, sum), so engine results can be checked against
ground truth on small states; `slice_from_levels` lays such a state out
as a split-engine slice.  The exhaustive search over all complete
length profiles gives the exact minimum cost of tiny inputs.  The
bit-at-a-time codec loops are the references the table-driven `encode`
and `decode` are compared against.
"""

from __future__ import annotations

import random

from typing import Mapping, Sequence

from mrcode.codec import DecodeError
from mrcode.core import CodeLengthProfile, WeightItem, WeightList, _block_totals
from mrcode.split import LeafSlice, Store


def materialize(levels: dict[int, list[WeightItem]], context: int):
    """Rank-ordered nodes at `context`: list of (value, min_index, items)."""
    nodes: list[tuple[int, int, tuple[WeightItem, ...]]] = []
    for lv in range(0, context + 1):
        leaves = [(it.value, it.index, (it,)) for it in levels.get(lv, ())]
        nodes = sorted(nodes + leaves, key=lambda nd: nd[:2])
        if lv == context:
            return nodes
        assert len(nodes) % 2 == 0, f"odd node count at level {lv}"
        nodes = [(a[0] + b[0], min(a[1], b[1]), a[2] + b[2])
                 for a, b in zip(nodes[0::2], nodes[1::2])]
    raise AssertionError("unreachable")


def slice_from_levels(levels: Mapping[int, Sequence[WeightItem]],
                      presorted: bool = False) -> LeafSlice:
    """Slice of a fresh list holding the levels' weights, level after
    level; a presorted slice needs each level in ascending order."""
    arr: list[WeightItem] = []
    runs = []
    for lv in sorted(levels):
        items = list(levels[lv])
        if presorted and items != sorted(items):
            raise ValueError(f"level {lv} is not in ascending order")
        if items:
            runs.append((lv, len(arr), len(arr) + len(items)))
            arr += items
    vals = [it.value for it in arr] if presorted else None
    psum = None if vals is None else _block_totals(vals)
    return LeafSlice(Store(arr, vals, psum), tuple(runs), len(arr))


def splitting_rank_all(levels: dict, context: int, nodes) -> int:
    """Rank of the splitting node among all nodes at `context`.

    Pure-leaf windows use the lower median; otherwise the first node whose
    cumulative weight count exceeds half the total.
    """
    if all(lv == context for lv, items in levels.items() if items):
        return (len(nodes) + 1) // 2
    total = sum(len(nd[2]) for nd in nodes)
    acc = 0
    for i, nd in enumerate(nodes):
        if acc + len(nd[2]) > total // 2:
            return i + 1
        acc += len(nd[2])
    raise AssertionError("unreachable")


def random_level_state(rng: random.Random, max_total: int = 64,
                       max_levels: int = 3, max_value: int = 12):
    """A random level assignment whose counts fold into whole nodes.

    Returns None when the draw oversteps `max_total`; callers retry.
    """
    depth = rng.randint(1, max_levels)
    level_list = [0]
    for _ in range(depth - 1):
        level_list.append(level_list[-1] + rng.randint(1, 3))
    counts: dict[int, int] = {}
    folded = 0
    for i, lv in enumerate(level_list):
        if i == 0:
            if depth > 1:
                folded = (1 << (level_list[1] - lv)) * rng.randint(1, 4)
            else:
                folded = rng.randint(1, 10)
            counts[lv] = folded
            continue
        folded >>= lv - level_list[i - 1]
        if i + 1 < len(level_list):
            span = 1 << (level_list[i + 1] - lv)
            blocks = rng.randint(max(1, -(-folded // span)),
                                 max(2, folded // span + 3))
            fresh = span * blocks - folded
        else:
            fresh = rng.randint(1, 8)
        counts[lv] = fresh
        folded += fresh
    total = sum(counts.values())
    if total > max_total or any(c <= 0 for c in counts.values()):
        return None
    values = [rng.randint(1, max_value) for _ in range(total)]
    order = list(range(total))
    rng.shuffle(order)
    state: dict[int, list[WeightItem]] = {}
    pos = 0
    for lv in level_list:
        state[lv] = [WeightItem(values[pos + i], order[pos + i])
                     for i in range(counts[lv])]
        pos += counts[lv]
    return state


# Worked thirty-weight instance: ten 2s, ten 3s, five 5s, five 9s.
WORKED_VALUES = [2] * 10 + [3] * 10 + [5] * 5 + [9] * 5
WORKED_COST = 565
WORKED_LENGTH_COUNTS = {6: 10, 5: 13, 4: 7}

# Hand-built assignment whose implied level-2 nodes reproduce the splitting
# illustration: internals (value, mult) = four (4,4), (8,3), (11,4), (12,4),
# (13,4), (14,2), (17,4) and six leaves 9,9,10,16,18,21.  The splitting
# internal is the 8 (flank multiplicities 16 and 18); the splitting node of
# all nodes is the leaf 10 (flank multiplicities 21 and 21).
SPLIT_FIXTURE_LEVELS = {
    0: [1] * 16 + [2] * 3 + [3] * 10 + [4] * 4 + [5],
    1: [4, 7, 7],
    2: [9, 9, 10, 16, 18, 21],
}


def split_fixture_state() -> dict[int, list[WeightItem]]:
    state = {}
    idx = 0
    for lv in sorted(SPLIT_FIXTURE_LEVELS):
        vals = SPLIT_FIXTURE_LEVELS[lv]
        state[lv] = [WeightItem(v, idx + i) for i, v in enumerate(vals)]
        idx += len(vals)
    return state


_profile_cache: dict[int, list[tuple[int, ...]]] = {}


def _complete_profiles(n: int) -> list[tuple[int, ...]]:
    """All non-increasing length lists of size n with 2^-l summing to 1.

    Enumerated in units of 2^-(n-1): a length l consumes 2^(n-1-l) units and
    the whole list must consume exactly 2^(n-1).
    """
    cached = _profile_cache.get(n)
    if cached is not None:
        return cached
    out: list[tuple[int, ...]] = []
    total_units = 1 << (n - 1)
    prefix: list[int] = []

    def rec(remaining_syms: int, remaining_units: int, max_len: int) -> None:
        if remaining_syms == 0:
            if remaining_units == 0:
                out.append(tuple(prefix))
            return
        for length in range(max_len, 0, -1):
            units = 1 << (n - 1 - length)
            left = remaining_units - units
            if left < (remaining_syms - 1) * units:
                break  # smaller lengths only widen the gap
            if left > (remaining_syms - 1) * (1 << (n - 2)):
                continue  # the rest cannot absorb what remains
            prefix.append(length)
            rec(remaining_syms - 1, left, length)
            prefix.pop()

    rec(n, total_units, n - 1)
    _profile_cache[n] = out
    return out


def brute_force_optimal(weights: WeightList) -> tuple[int, CodeLengthProfile]:
    """Exact minimum cost by enumerating every complete length profile.

    Longer lengths pair with smaller weights inside each profile (an
    exchange argument makes that optimal per profile).  Only for n <= 12.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("no weights")
    if n > 12:
        raise ValueError("brute force capped at n=12")
    if n == 1:
        return weights.items[0].value, CodeLengthProfile((1,))
    order = sorted(weights.items)  # ascending (value, index)
    values = [it.value for it in order]
    best_cost = None
    best = None
    for profile in _complete_profiles(n):
        cost = sum(v * l for v, l in zip(values, profile))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = profile
    witness = [0] * n
    for it, length in zip(order, best):
        witness[it.index] = length
    return best_cost, CodeLengthProfile(tuple(witness))


def reference_codes(table):
    """Per-symbol codeword values, counted up from each length's first code
    through the symbols of that length."""
    codes = [0] * len(table.lengths)
    for syms, code in zip(table.groups, table.first_codes):
        for sym in syms:
            codes[sym] = code
            code += 1
    return tuple(codes)


def reference_encode(symbols, table):
    """One symbol and one output byte per loop turn."""
    lengths = table.lengths
    codes = reference_codes(table)
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


def reference_decode(payload, bit_count, table):
    """One stream bit per loop turn, checked against every length."""
    if bit_count > len(payload) * 8:
        raise DecodeError("bit count exceeds the payload")
    first = table.first_codes
    counts = table.counts
    by_rank = table.groups
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
