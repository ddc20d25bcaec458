"""Shared domain types and validators for minimum-redundancy prefix codes.

Weights are positive integers tagged with their original input position.
Levels are numbered bottom-up: the deepest leaves sit at level 0 and the
codeword length of a weight at level ``eta`` is ``root_level - eta``.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

MAX_WEIGHT = 2**63 - 1


class InvalidAssignmentError(ValueError):
    """A level assignment cannot be completed into a full binary tree."""


class ComparisonCounter:
    """Counts order comparisons between weight values and/or node values.

    Only value-vs-value comparisons count.  Index arithmetic, prefix sums,
    rank bookkeeping and tie-breaks on original indices are free.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class WeightItem(NamedTuple):
    """One input weight with its original 0-based position.

    Tuple ordering (value, then index) is exactly the strict tie-broken
    order used everywhere: equal values rank by smaller original index.
    """

    value: int
    index: int


class LevelTraceEntry(NamedTuple):
    level: int
    assigned: int
    moved: int


def _range_error(value) -> ValueError:
    return ValueError(f"weight {value} out of range [1, 2^63-1]")


_UNSORTED = "sorted_flag set but sequence is not non-decreasing in (value, index) order"


def _positional_items(vals: Sequence[int]) -> tuple[WeightItem, ...]:
    # tuple.__new__ makes each WeightItem without a Python-level call
    return tuple(map(tuple.__new__, repeat(WeightItem), zip(vals, count())))


def _check_items(items: Sequence[WeightItem]) -> None:
    seen = set()
    for it in items:
        if not 1 <= it.value <= MAX_WEIGHT:
            raise _range_error(it.value)
        if it.index in seen:
            raise ValueError(f"duplicate weight index {it.index}")
        seen.add(it.index)


@dataclass(frozen=True)
class WeightList:
    """The input multiset of weights, optionally declared presorted.

    When ``sorted_flag`` is set the sequence must be non-decreasing by value
    with ties in ascending index order, so that list position agrees with
    the strict order.  Presorted lists admit selection by pure index
    arithmetic (zero counted comparisons).  ``positional`` is True when
    every weight's index is its position in ``items``; it is derived from
    the items and takes no part in equality, hashing or ``repr``.

    A list built by `from_values` keeps its own tuple of the values, as
    ints.  A presorted construction reads only those, so a presorted list
    makes ``items`` from them on first use; an unsorted construction
    reads every item, so an unsorted list makes them at once.  A list
    built from items makes its tuple of values on first use (`_ints`).
    Each is made once and never changes, and ``items`` alone enters
    equality, hashing and ``repr``, so lists of the same items compare,
    hash and print alike however they were built.
    """

    items: tuple[WeightItem, ...]
    sorted_flag: bool = False
    positional: bool = field(default=False, init=False, repr=False, compare=False)
    _vals = None  # not a field: the values by position, once made

    def __getattr__(self, name: str):
        # reached only for ``items`` of a presorted list from `from_values`
        if name != "items":
            raise AttributeError(name)
        items = _positional_items(self._vals)
        object.__setattr__(self, "items", items)
        return items

    def _ints(self) -> tuple[int, ...]:
        """The values by position, as a tuple of ints."""
        vals = self._vals
        if vals is None:
            vals = tuple(map(operator.itemgetter(0), self.items))
            object.__setattr__(self, "_vals", vals)
        return vals

    def __post_init__(self) -> None:
        try:
            if self._passes_checks():
                return
        except TypeError:
            pass
        # the checks again, item by item: the first fault names the error
        _check_items(self.items)
        indices = sorted(it.index for it in self.items)
        if indices != list(range(len(self.items))):
            raise ValueError("weight indices must cover 0..n-1 exactly once")
        if self.sorted_flag:
            for a, b in zip(self.items, self.items[1:]):
                if b < a:
                    raise ValueError(_UNSORTED)

    def _passes_checks(self) -> bool:
        """The checks of `__post_init__` with C-level iteration; True iff
        every one passes.  The range test compares each value, as the
        item loop does, so that a NaN cannot slip past a `min`.  Nothing
        of size n is built unless the indices are not 0..n-1 in order.
        Sets ``positional`` from the first index test."""
        items = self.items
        value, index = operator.itemgetter(0), operator.itemgetter(1)
        positional = all(map(operator.eq, map(index, items), count()))
        object.__setattr__(self, "positional", positional)
        return (all(map(operator.le, repeat(1), map(value, items)))
                and all(map(operator.le, map(value, items), repeat(MAX_WEIGHT)))
                and (positional or sorted(map(index, items)) == list(range(len(items))))
                and (not self.sorted_flag
                     or all(map(operator.le, items, islice(items, 1, None)))))

    @classmethod
    def from_values(cls, values: Iterable[int], sorted_flag: bool = False) -> "WeightList":
        """Weights tagged with their positions.  Each value must be an
        integer (``int`` or any type with ``__index__``); anything else,
        a float included, raises `TypeError` rather than being truncated.
        The list keeps a copy of the values: changing `values` later does
        not change it."""
        if not isinstance(values, (list, tuple)):
            values = list(values)  # read again below if a value is bad
        try:
            vals = tuple(map(operator.index, values))
        except TypeError:
            for v in values:
                try:
                    operator.index(v)
                except TypeError:
                    raise TypeError(f"weight {v!r} is not an integer") from None
            raise
        # equal values tie-break by index, which ascends with position, so
        # ascending values are in (value, index) order
        ordered = not sorted_flag or all(map(operator.le, vals, islice(vals, 1, None)))
        if vals:
            lo, hi = (vals[0], vals[-1]) if sorted_flag and ordered else (min(vals), max(vals))
            if lo < 1 or hi > MAX_WEIGHT:
                raise _range_error(next(v for v in vals if not 1 <= v <= MAX_WEIGHT))
        if not ordered:
            raise ValueError(_UNSORTED)
        self = object.__new__(cls)
        object.__setattr__(self, "sorted_flag", sorted_flag)
        object.__setattr__(self, "positional", True)
        object.__setattr__(self, "_vals", vals)
        if not sorted_flag:
            object.__setattr__(self, "items", _positional_items(vals))
        return self

    def sorted_copy(self) -> "WeightList":
        """Same multiset, re-indexed in ascending value order, flagged sorted."""
        return WeightList.from_values(sorted(self._ints()), sorted_flag=True)

    def __len__(self) -> int:
        vals = self._vals
        return len(self.items if vals is None else vals)

    def values(self) -> list[int]:
        return list(self._ints())


@dataclass(frozen=True)
class CodeLengthProfile:
    """Per-input-index codeword lengths with exact Kraft accounting."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("empty length profile")
        if min(self.lengths) < 1:
            raise ValueError("codeword lengths must be >= 1")

    @classmethod
    def _checked(cls, lengths: tuple[int, ...]) -> "CodeLengthProfile":
        """A profile of lengths the caller has shown to be non-empty and
        at least 1, without a second pass over them."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "lengths", lengths)
        return profile

    @property
    def kraft(self) -> Fraction:
        return kraft_sum(self.lengths)

    @property
    def kraft_numerator(self) -> int:
        return self.kraft.numerator

    @property
    def kraft_denominator(self) -> int:
        return self.kraft.denominator

    def __len__(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class LevelState:
    """Leaf-bearing levels of a partially or fully built tree.

    Maps each level to its leaves; internal nodes are never stored, they
    are implied by sorted pairing of the nodes one level down.
    """

    levels: Mapping[int, tuple[WeightItem, ...]]

    def __post_init__(self) -> None:
        for lv, items in self.levels.items():
            if lv < 0:
                raise ValueError("levels are non-negative")
            if not items:
                raise ValueError(f"level {lv} present but empty")
        all_items = [it for items in self.levels.values() for it in items]
        _check_items(all_items)

    @classmethod
    def from_lists(cls, levels: Mapping[int, Sequence[WeightItem]]) -> "LevelState":
        return cls({lv: tuple(items) for lv, items in levels.items() if items})

    def top_level(self) -> int:
        return max(self.levels)


@dataclass(frozen=True)
class ConstructionStats:
    """Instrumentation of one construction run.

    ``iterations`` counts assignment events: levels that received at least
    one weight, including level 0.  The trace carries one entry per event
    (level, weights assigned, subtrees moved up by the preceding Kraft
    fix-up) plus a final entry for the terminal power-of-two adjustment.
    ``cache_hits`` counts internal splitting queries answered from the
    construction's memo, which lasts the whole run; a hit makes no
    comparison.
    """

    iterations: int
    weight_comparisons: int
    distinct_lengths: int
    trace: tuple[LevelTraceEntry, ...]
    cache_hits: int = 0


def kraft_sum(lengths: Sequence[int] | CodeLengthProfile) -> Fraction:
    """Exact dyadic value of sum(2^-l) over the profile; no floating point.

    The numerator and denominator have about max(lengths) bits, so cost
    and memory grow with the longest length, which this function does not
    bound.  `mrcode verify` and `unpack_container` bound the lengths with
    `check_length_range` before they take a Kraft sum.
    """
    if isinstance(lengths, CodeLengthProfile):
        lengths = lengths.lengths
    num, top = _kraft_scaled(lengths)
    return Fraction(num, 1 << top)


def _kraft_scaled(lengths: Iterable[int]) -> tuple[int, int]:
    """(num, top) with sum(2^-l) == num / 2^top, top the longest length
    (0 for no lengths), in integers only."""
    counts = Counter(lengths)
    if not counts:
        return 0, 0
    if min(counts) < 1:
        raise ValueError("codeword lengths must be >= 1")
    top = max(counts)
    return sum(c << (top - l) for l, c in counts.items()), top


def check_length_range(lengths: Sequence[int], n: int) -> None:
    """Raises `ValueError` unless every length lies in 1..max(1, n - 1),
    the range of an optimal code for n weights: a complete code on n >= 2
    symbols has no codeword longer than n - 1."""
    bound = max(1, n - 1)
    if min(lengths) < 1 or max(lengths) > bound:
        raise ValueError(f"lengths must lie in 1..{bound}")


def code_cost(weights: WeightList, lengths: CodeLengthProfile) -> int:
    """Exact weighted length sum(w_i * l_i), index-aligned."""
    if len(weights) != len(lengths):
        raise ValueError("weights and lengths must have equal size")
    ls = lengths.lengths
    return sum(it.value * ls[it.index] for it in weights.items)


def distinct_length_count(lengths: CodeLengthProfile) -> int:
    return len(set(lengths.lengths))


def monotone(weights: WeightList, lengths: CodeLengthProfile) -> bool:
    """True iff a strictly larger weight never gets a longer codeword."""
    if len(weights) != len(lengths):
        raise ValueError("weights and lengths must have equal size")
    by_value: dict[int, list[int]] = {}
    for it in weights.items:
        by_value.setdefault(it.value, []).append(lengths.lengths[it.index])
    prev_min: int | None = None
    for value in sorted(by_value):
        lens = by_value[value]
        if prev_min is not None and max(lens) > prev_min:
            return False
        prev_min = min(lens)
    return True


def assignment_from_lengths(weights: WeightList, lengths: CodeLengthProfile) -> LevelState:
    """Bottom-up level of each weight: longest codewords sit at level 0."""
    if len(weights) != len(lengths):
        raise ValueError("weights and lengths must have equal size")
    top = max(lengths.lengths)
    levels: dict[int, list[WeightItem]] = {}
    for it in weights.items:
        levels.setdefault(top - lengths.lengths[it.index], []).append(it)
    return LevelState.from_lists(levels)


def verify_exclusion(weights: WeightList, assignment: LevelState) -> tuple[bool, str | None]:
    """Check that node values never decrease when moving up a level.

    Internal node values are reconstructed level by level using sorted
    pairing (consecutive nodes in the strict order are siblings).  Returns
    (True, None) or (False, description of the first violation).  A level
    distribution that cannot form a full binary tree raises
    InvalidAssignmentError, which is distinct from a False verdict.

    O(n log n); a verifier only, never on the construction hot path.
    """
    assigned = sorted(it.index for items in assignment.levels.values() for it in items)
    if assigned != sorted(it.index for it in weights.items):
        raise InvalidAssignmentError("assignment does not cover the weights exactly")
    n = len(weights)
    if n == 1:
        return True, None

    top = assignment.top_level()
    # nodes are (value, min original index); leaves and internals compare alike
    internals: list[tuple[int, int]] = []
    max_below: tuple[int, int] | None = None  # (value, level) for messages
    level = 0
    while True:
        leaves = [(it.value, it.index) for it in assignment.levels.get(level, ())]
        nodes = sorted(internals + leaves)
        if nodes:
            if max_below is not None and nodes[0][0] < max_below[0]:
                return False, (f"level {level}: node value {nodes[0][0]} is smaller "
                               f"than value {max_below[0]} at level {max_below[1]}")
            if max_below is None or nodes[-1][0] > max_below[0]:
                max_below = (nodes[-1][0], level)
        if level >= top:
            if len(nodes) == 1:
                return True, None
            if len(nodes) & (len(nodes) - 1):
                raise InvalidAssignmentError(
                    f"level {level}: {len(nodes)} nodes above the top leaf level "
                    f"cannot pair into a full binary tree")
        if len(nodes) % 2:
            raise InvalidAssignmentError(
                f"level {level}: odd node count {len(nodes)} below the top level")
        internals = [(nodes[i][0] + nodes[i + 1][0], min(nodes[i][1], nodes[i + 1][1]))
                     for i in range(0, len(nodes), 2)]
        level += 1
