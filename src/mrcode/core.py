"""Shared domain types and validators for minimum-redundancy prefix codes.

Weights are positive integers tagged with their original input position.
Levels are numbered bottom-up: the deepest leaves sit at level 0 and the
codeword length of a weight at level ``eta`` is ``root_level - eta``.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

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


def _make_items(vals: Iterable[int], idx: Iterable[int]) -> tuple[WeightItem, ...]:
    # tuple.__new__ makes each WeightItem without a Python-level call
    return tuple(map(tuple.__new__, repeat(WeightItem), zip(vals, idx)))


def _as_int(x, what: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} {x!r} is not an integer") from None


def _check_items(items: Iterable[tuple]) -> set[int]:
    """Raises for the first faulty (value, index) pair in input order;
    returns the indices."""
    seen = set()
    for v, i in items:
        if not 1 <= (v := _as_int(v, "weight")) <= MAX_WEIGHT:
            raise ValueError(f"weight {v} out of range [1, 2^63-1]")
        if (i := _as_int(i, "weight index")) in seen:
            raise ValueError(f"duplicate weight index {i}")
        seen.add(i)
    return seen


def _passes(vals: tuple[int, ...], idx: tuple[int, ...] | None, sorted_flag: bool) -> bool:
    """True iff ints `vals` with indices `idx` (None: the positions) pass
    every check of a `WeightList`, by C-level iteration."""
    if not vals:
        return True
    if sorted_flag:  # ties go by index, which ascends with position
        keys = vals if idx is None else tuple(zip(vals, idx))
        if not all(map(operator.le, keys, islice(keys, 1, None))):
            return False
        lo, hi = vals[0], vals[-1]
    else:
        lo, hi = min(vals), max(vals)
    return (1 <= lo and hi <= MAX_WEIGHT
            and (idx is None or sorted(idx) == list(range(len(idx)))))


def _raise_fault(items: Iterable[tuple]) -> NoReturn:
    """Raises the error of (value, index) pairs that fail `_passes`."""
    seen = _check_items(items)
    if seen != set(range(len(seen))):
        raise ValueError("weight indices must cover 0..n-1 exactly once")
    raise ValueError("sorted_flag set but sequence is not non-decreasing in (value, index) order")


@dataclass(frozen=True)
class WeightList:
    """The input multiset of weights, optionally declared presorted.

    When ``sorted_flag`` is set the sequence must be non-decreasing by value
    with ties in ascending index order, so that list position agrees with
    the strict order.  Presorted lists admit selection by pure index
    arithmetic (zero counted comparisons).  ``positional`` is True when
    every weight's index is its position in ``items``; it is derived from
    the items and takes no part in equality, hashing or ``repr``.

    Both constructors pass every value and index through `operator.index`
    and keep the ints, so a float, str, `Decimal` or NaN raises
    `TypeError` and a ``bool`` is stored as an ``int``.  Values lie in
    1..2^63-1 and the indices cover 0..n-1 once each; `_check_items` names
    the first fault in input order.  Every list holds its values by
    position as a tuple of ints (``_vals``), which a presorted
    construction reads, and its own ``items`` of ints, made at once or,
    for a presorted list from `from_values`, on first read.  ``items``
    alone enters equality, hashing and ``repr``.
    """

    items: tuple[WeightItem, ...]
    sorted_flag: bool = False
    positional: bool = field(default=False, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # reached only for ``items`` of a presorted list from `from_values`
        if name != "items":
            raise AttributeError(name)
        items = _make_items(self._vals, count())
        object.__setattr__(self, "items", items)
        return items

    def __post_init__(self) -> None:
        items = self.items
        value, index = operator.itemgetter(0), operator.itemgetter(1)
        try:
            vals = tuple(map(operator.index, map(value, items)))
            idx = tuple(map(operator.index, map(index, items)))
        except TypeError:
            _raise_fault(items)
        positional = all(map(operator.eq, idx, count()))
        if not _passes(vals, None if positional else idx, self.sorted_flag):
            _raise_fault(items)
        object.__setattr__(self, "items", _make_items(vals, idx))
        object.__setattr__(self, "positional", positional)
        object.__setattr__(self, "_vals", vals)

    @classmethod
    def from_values(cls, values: Iterable[int], sorted_flag: bool = False) -> "WeightList":
        """Weights tagged with their positions.  The list keeps a copy of
        the values: changing `values` later does not change it."""
        if not isinstance(values, (list, tuple)):
            values = list(values)  # read again below if a value is bad
        try:
            vals = tuple(map(operator.index, values))
        except TypeError:
            _raise_fault(zip(values, count()))
        if not _passes(vals, None, sorted_flag):
            _raise_fault(zip(vals, count()))
        self = object.__new__(cls)
        object.__setattr__(self, "sorted_flag", sorted_flag)
        object.__setattr__(self, "positional", True)
        object.__setattr__(self, "_vals", vals)
        if not sorted_flag:
            object.__setattr__(self, "items", _make_items(vals, count()))
        return self

    def sorted_copy(self) -> "WeightList":
        """Same multiset, re-indexed in ascending value order, flagged sorted."""
        return WeightList.from_values(sorted(self._vals), sorted_flag=True)

    def __len__(self) -> int:
        return len(self._vals)

    def values(self) -> list[int]:
        return list(self._vals)


@dataclass(frozen=True)
class CodeLengthProfile:
    """Per-input-index codeword lengths; `kraft_sum` gives their Kraft sum.

    Every length must be an integer of at least 1.  A float, str,
    `Decimal`, `Fraction` or NaN raises `TypeError` naming the first such
    length, before the range is checked; a ``bool`` is stored as an
    ``int``.  The lengths are stored as a tuple, whatever sequence they
    came in, so every profile hashes.

    A profile whose lengths never increase also holds its (length, lo, hi)
    runs (``_runs``, see `_length_runs`; None for any other profile), which
    `kraft_sum` and `canonical_codes` read.  They follow from the lengths
    and take no part in equality, hashing or ``repr``.  The shortest
    length is then the last run's, with no pass over the n lengths.
    """

    lengths: tuple[int, ...]
    _runs: tuple[tuple[int, int, int], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ls = self.lengths
        if type(ls) is not tuple:
            ls = tuple(ls)
        if not ls:
            raise ValueError("empty length profile")
        try:
            # one C-level pass: any length that is not an int makes the sum
            # something else, except a bool, of which only True is >= 1
            exact = type(sum(ls)) is int
        except TypeError:
            exact = False
        if not exact:
            ls = tuple(_as_int(l, "codeword length") for l in ls)
        runs = _length_runs(ls)
        # the shortest length, from the last run if there are runs; only a
        # shortest length of 1 can be a True
        lo, start = runs[-1][:2] if runs else (min(ls), 0)
        if lo == 1 and bool in set(map(type, ls[start:])):
            ls = tuple(_as_int(l, "codeword length") for l in ls)
            runs = _length_runs(ls)
        if lo < 1:
            raise ValueError("codeword lengths must be >= 1")
        object.__setattr__(self, "lengths", ls)
        object.__setattr__(self, "_runs", None if runs is None else tuple(runs))

    @classmethod
    def _checked(cls, lengths: tuple[int, ...],
                 runs: tuple[tuple[int, int, int], ...]) -> "CodeLengthProfile":
        """The profile of `lengths`, given as their `runs`, which the
        caller has shown to be non-empty and at least 1, without a pass
        over the lengths."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "lengths", lengths)
        object.__setattr__(profile, "_runs", runs)
        return profile

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
        _check_items(chain.from_iterable(self.levels.values()))

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
    comparison.  ``cut_hits`` counts unsorted leaf selections answered
    from rank cuts that earlier selections left, with no comparison.
    """

    iterations: int
    weight_comparisons: int
    distinct_lengths: int
    trace: tuple[LevelTraceEntry, ...]
    cache_hits: int = 0
    cut_hits: int = 0


def kraft_sum(lengths: Sequence[int] | CodeLengthProfile) -> Fraction:
    """Exact dyadic value of sum(2^-l) over the profile; no floating point.

    A plain sequence is first made a `CodeLengthProfile`, so it obeys the
    profile's rules: empty lengths raise `ValueError`, a length that is
    not an integer `TypeError`, and a length below 1 `ValueError`.  The
    numerator and denominator have about max(lengths) bits, so cost and
    memory grow with the longest length, which this function does not
    bound.  `mrcode verify` and `unpack_container` bound the lengths with
    `check_length_range` before they take a Kraft sum.  The count of each
    length comes from the profile's runs, else from one `Counter`.
    """
    if not isinstance(lengths, CodeLengthProfile):
        lengths = CodeLengthProfile(lengths)
    num, top = _kraft_scaled(_length_counts(lengths.lengths, lengths._runs))
    return Fraction(num, 1 << top)


def _length_runs(ls: Sequence[int]) -> list[tuple[int, int, int]] | None:
    """The (length, lo, hi) runs of a profile whose lengths never increase:
    ``ls[lo:hi]`` all equal the length, and the runs cover the profile in
    order with strictly falling lengths.  None for any other profile, and
    for lengths that are not a sequence of numbers.

    Nine lengths at eighth steps give up most profiles that are plainly
    not monotone in O(1).  Each run end is then found by bisection, which
    leaves a shorter length (or the end) at ``hi``, so the lengths of the
    runs fall strictly, and each run is checked by one C-level count.  A
    profile of k distinct lengths costs O(k log n) Python steps.
    """
    try:
        n = len(ls)
        e = n >> 3
        if not n or not (ls[0] >= ls[e] >= ls[2 * e] >= ls[3 * e] >= ls[4 * e] >= ls[5 * e]
                         >= ls[6 * e] >= ls[7 * e] >= ls[-1]):
            return None
        runs = []
        lo = 0
        while lo < n:
            l = ls[lo]
            hi = bisect_right(ls, -l, lo, n, key=operator.neg)  # > lo, as ls[lo] == l
            if ls[lo:hi].count(l) != hi - lo:
                return None
            runs.append((l, lo, hi))
            lo = hi
        return runs
    except (TypeError, ArithmeticError):  # a Decimal NaN refuses to be ordered
        return None


def _length_counts(ls: Sequence[int],
                   runs: Sequence[tuple[int, int, int]] | None) -> Mapping[int, int]:
    """Each distinct length of `ls` with its count, from `runs`, the
    (length, lo, hi) runs of `ls` when its lengths never increase (see
    `_length_runs`), in O(k) steps, or, when they are None, from one
    `Counter` of the lengths."""
    return Counter(ls) if runs is None else {l: hi - lo for l, lo, hi in runs}


def _kraft_scaled(counts: Mapping[int, int]) -> tuple[int, int]:
    """(num, top) with sum(2^-l) == num / 2^top, top the longest length,
    in integers only, from the count of each distinct length (see
    `_length_counts`): O(k) for k distinct lengths.  The caller vouches
    that `counts` is non-empty and every length at least 1."""
    top = max(counts)
    return sum(c << (top - l) for l, c in counts.items()), top


def check_length_range(lengths: Iterable[int], n: int) -> None:
    """Raises `ValueError` unless every length lies in 1..max(1, n - 1),
    the range of an optimal code for n weights: a complete code on n >= 2
    symbols has no codeword longer than n - 1.  Takes the lengths or a
    mapping whose keys are the distinct lengths (see `_length_counts`)."""
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
