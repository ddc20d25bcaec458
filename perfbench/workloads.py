"""Seeded inputs for the three benchmark workloads.

Every operation of every workload is one message sent through the
pipeline that ``mrcode encode`` and ``mrcode decode`` run: build the
codeword lengths of the message's alphabet, write the container, read it
back.  The workloads differ only in their alphabets and messages.  Each
operation gets an alphabet of its own, because construction cost varies
several-fold between instances of one family: repeating one alphabet
would make a run measure its seed, not the program.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from itertools import accumulate

from mrcode import WeightList, generators

SHORT = 256
LONG = 65536

# The worked thirty-weight example of the README.
README_VALUES = [2] * 10 + [3] * 10 + [5] * 5 + [9] * 5

# (family, generator n, alphabets per run).  Sizes span 32..1024, geometric
# stays at n <= 128 and large sizes are few: construction cost of one
# uniform-1024 or geometric-256 instance varies +-35% with its seed, so a
# run's totals are steady only when many mid-size instances carry them.
UNSORTED_CELLS = (
    ("uniform", 32, 24), ("uniform", 64, 24), ("uniform", 128, 24),
    ("uniform", 192, 12), ("uniform", 256, 6), ("uniform", 1024, 1),
    ("geometric", 32, 24), ("geometric", 48, 24), ("geometric", 64, 16),
    ("geometric", 96, 8), ("geometric", 128, 3),
    ("two-cluster", 128, 16), ("two-cluster", 256, 16),
)

# (family, generator n, alphabets per run, long messages per run).  Short
# messages stress canonical_codes, long ones the bit loops.  The alphabets
# stay small because every message also builds its code.
CODEC_CELLS = (
    ("uniform", 256, 24, 1),
    ("example41", 1024, 24, 1),
    ("geometric", 64, 24, 1),
)

PRESORTED_SIZES = (4096, 16384, 65536)


@dataclass
class Alphabet:
    """One weight list with what the checks need, all built in set-up."""

    label: str
    weights: WeightList
    values: list[int]        # values in input order
    by_value: list[int]      # input positions in ascending value order
    ref_cost: int            # optimal cost from an independent greedy merge


@dataclass
class Op:
    alphabet: Alphabet
    message: list[int]


def optimal_cost(values: list[int]) -> int:
    """Minimum weighted codeword length by heap merging (Huffman's rule).

    Kept apart from the package's own oracles so that a change to them
    cannot make a wrong construction look right.
    """
    if len(values) == 1:
        return values[0]
    heap = list(values)
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def _alphabet(label: str, values: list[int], presorted: bool) -> Alphabet:
    if presorted:
        values = sorted(values)
        by_value = list(range(len(values)))
    else:
        by_value = sorted(range(len(values)), key=values.__getitem__)
    weights = WeightList.from_values(values, sorted_flag=presorted)
    return Alphabet(label, weights, values, by_value, optimal_cost(values))


def _message(rng: random.Random, alphabet: Alphabet, length: int) -> list[int]:
    """Symbols drawn with probability proportional to their weight."""
    cum = list(accumulate(alphabet.values))
    return rng.choices(range(len(cum)), cum_weights=cum, k=length)


def build(workload: str, seed: int) -> list[Op]:
    """All operations of one pass, in the order they are issued."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []
    if workload == "presorted-lowk":
        for n in PRESORTED_SIZES:
            a = _alphabet(f"example41-{n}",
                          generators.example41(n, rng.getrandbits(32)), True)
            ops.append(Op(a, _message(rng, a, SHORT)))
    elif workload == "unsorted-highk":
        a = _alphabet("readme-30", README_VALUES, False)
        ops.append(Op(a, _message(rng, a, SHORT)))
        for family, n, count in UNSORTED_CELLS:
            for _ in range(count):
                a = _alphabet(f"{family}-{n}",
                              generators.generate(family, n, rng.getrandbits(32)),
                              False)
                ops.append(Op(a, _message(rng, a, SHORT)))
    elif workload == "codec-roundtrip":
        for family, n, count, longs in CODEC_CELLS:
            for i in range(count):
                a = _alphabet(f"{family}-{n}",
                              generators.generate(family, n, rng.getrandbits(32)),
                              False)
                ops.append(Op(a, _message(rng, a, LONG if i < longs else SHORT)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def fingerprint(ops: list[Op]) -> str:
    """SHA-256 of every generated input, in issue order."""
    h = hashlib.sha256()
    for op in ops:
        w = op.alphabet.weights
        h.update(json.dumps([op.alphabet.label, w.sorted_flag, op.alphabet.values,
                             op.message], separators=(",", ":")).encode())
    return h.hexdigest()
