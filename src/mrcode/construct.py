"""Construction of minimum-redundancy codeword lengths.

One pass loop serves both modes, which differ only in the level each pass
assigns to: the basic mode steps one level up, and the detailed mode jumps
straight to the next level that can receive leaves.  Each pass assigns a
weight to a level only while its value is below the sum of the two
smallest-rank nodes there, after keeping the level populations consistent
with a full binary tree by moving the largest-rank subtrees up.

A construction's state is one `_Levels`: the split store, the pending pool
and the level runs at once, over the one list that `PendingPool` lays out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from .core import (CodeLengthProfile, ComparisonCounter, ConstructionStats,
                   LevelTraceEntry, WeightItem, WeightList)
from .split import (LeafSlice, Positions, Store, _fsa, _rank_split,
                    node_count as _node_count)


@dataclass(frozen=True)
class ConstructionMode:
    algorithm: Literal["basic", "detailed"] = "detailed"

    def __post_init__(self) -> None:
        if self.algorithm not in ("basic", "detailed"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


class PendingPool(Store):
    """The weights of a construction as one list with a cursor, and the
    split store over it.

    ``arr[:cur]`` holds the weights assigned to levels, one run per level
    in ascending level (`_Levels.runs`), and ``arr[cur:]`` the pending
    ones; each pass moves the cursor.  An unsorted pool (``vals`` and
    ``psum`` None) copies the input to a list, which selections reorder
    in place, and finds its two smallest by one counted scan, kept until
    `take_below` assigns a weight.  A presorted pool keeps the ascending
    input unwritten (a `Positions` view when every index is its
    position), with the ``vals`` and block totals ``psum`` of its
    `WeightList`: the minimum is positional, and `take_below` runs an
    exponential then a binary search over ``vals``, counting each probe.
    """

    __slots__ = ("cnt", "cur", "two")

    def __init__(self, weights: WeightList, counter: ComparisonCounter):
        if weights.sorted_flag:
            # a positional list makes its few items on read
            vals = weights._vals
            super().__init__(Positions(vals) if weights.positional else weights.items,
                             vals, weights._psum)
        else:
            super().__init__(list(weights.items), None)
        self.cnt = counter
        self.cur = 0
        self.two = None  # unsorted: the two smallest of arr[cur:], once scanned

    def __len__(self) -> int:
        return len(self.arr) - self.cur

    def min_item(self) -> WeightItem:
        return self.two_smallest()[0]

    def two_smallest(self) -> tuple[WeightItem, WeightItem | None]:
        if not len(self):
            raise ValueError("empty pool")
        arr, c = self.arr, self.cur
        if self.vals is not None:
            return arr[c], arr[c + 1] if len(self) > 1 else None
        if self.two is None:
            self.two = _two_smallest(arr[c:], self.cnt)
        return self.two

    def take_below(self, bound: int) -> int:
        """Assign every weight with value strictly below `bound`: move them
        to the front of the pool, keeping their order, and advance the
        cursor past them.  Returns how many there were."""
        cnt = self.cnt
        arr, vals, c, n = self.arr, self.vals, self.cur, len(self.arr)
        if vals is None:
            taken = []
            kept = []
            for x in arr[c:]:
                cnt.count += 1
                (taken if x[0] < bound else kept).append(x)
            if taken:
                arr[c:] = taken + kept
                self.cur = c + len(taken)
                self.two = None
            return len(taken)
        if c == n:
            return 0
        cnt.count += 1
        if not vals[c] < bound:
            return 0
        step = 1
        while c + step < n:
            cnt.count += 1
            if vals[c + step] < bound:
                step <<= 1
            else:
                break
        lo = c + (step >> 1) + 1
        hi = min(c + step, n)
        while lo < hi:
            mid = (lo + hi) // 2
            cnt.count += 1
            if vals[mid] < bound:
                lo = mid + 1
            else:
                hi = mid
        self.cur = lo
        return lo - c


class _Levels(PendingPool):
    """A construction's state: the `PendingPool`, whose docstring lays
    out the list, and ``runs``, the split engine's tuple of ``(level, lo,
    hi)`` for the assigned part, which `slice` hands out as it is.

    The runs ascend with the level and tile ``arr[:cur]``, so each is one
    distinct codeword length.  `assign` appends weights that rank above
    the level's leaves and `apply_move` hands a level, at its low end,
    weights that rank below its leaves, so every range keeps its weights
    (presorted runs stay sorted; unsorted selections reorder a run in
    place), and the query memo and the rank cuts stay valid for the whole
    construction; `construct_lengths` clears the memo on return.
    """

    __slots__ = ("runs",)

    def __init__(self, weights: WeightList, counter: ComparisonCounter):
        super().__init__(weights, counter)
        self.runs: tuple[tuple[int, int, int], ...] = ()

    def top(self) -> int:
        return self.runs[-1][0]

    def assign(self, level: int, bound: int) -> int:
        """Assign the pool's weights below `bound` to `level`, the top
        level or above it.  Returns how many there were."""
        c = self.cur
        taken = self.take_below(bound)
        if taken:
            runs = self.runs
            if runs and runs[-1][0] == level:
                runs, c = runs[:-1], runs[-1][1]
            self.runs = runs + ((level, c, self.cur),)
        return taken

    def slice(self) -> LeafSlice:
        return LeafSlice(self, self.runs, self.cur)

    def snapshot(self) -> dict[int, tuple[WeightItem, ...]]:
        arr = self.arr
        return {lv: tuple(sorted(arr[lo:hi])) for lv, lo, hi in self.runs}

    def apply_move(self, moved: LeafSlice) -> None:
        """Raise every weight of `moved` one level.

        The weights moved from level ``lv`` are its largest-rank leaves, so
        they end its run; they start the run of ``lv + 1``, and only the
        cut between the two runs moves.
        """
        runs = {lv: (lo, hi) for lv, lo, hi in self.runs}
        for lv, cut, end in reversed(moved.runs):
            lo, hi = runs.pop(lv)
            if end != hi:
                raise AssertionError(f"moved weights do not end the run of level {lv}")
            up = runs.pop(lv + 1, None)
            if lo < cut:
                runs[lv] = (lo, cut)
            runs[lv + 1] = (cut, up[1] if up else hi)
        self.runs = tuple((lv, lo, hi) for lv, (lo, hi) in sorted(runs.items()))


def _two_smallest(items: list, cnt: ComparisonCounter):
    """The two smallest items, by counted comparisons (None for a second
    when there is one item)."""
    if len(items) == 1:
        return items[0], None
    a, b = items[0], items[1]
    cnt.count += 1
    if b < a:
        a, b = b, a
    for x in items[2:]:
        cnt.count += 1
        if x < b:
            cnt.count += 1
            if x < a:
                a, b = x, a
            else:
                b = x
    return a, b


def _assign_level0(levels: _Levels) -> int:
    a, b = levels.two_smallest()
    return levels.assign(0, a[0] + b[0])


def _assign_to_level(level: int, levels: _Levels) -> int:
    """Four-candidate threshold: the two smallest nodes already at `level`
    and the two smallest pool weights; everything below the sum of the two
    smallest-rank candidates moves in."""
    cnt = levels.cnt
    first, rest = _rank_split(level, levels.slice(), 1, cnt)
    nodes = [(first.total_value(), first)]
    if rest.n:
        second, _ = _rank_split(level, rest, 1, cnt)
        nodes.append((second.total_value(), second))
    ws = [w for w in levels.two_smallest() if w is not None]
    values = [v for v, _ in nodes] + [w[0] for w in ws]
    # a key's index is read only when its value ties another's, so a
    # node's smallest index, a scan of its weights, is needed only then
    keys = [(v, nd.min_index() if values.count(v) > 1 else 0) for v, nd in nodes]
    keys += ws
    best, second_key = _two_smallest(keys, cnt)
    return levels.assign(level, best[0] + second_key[0])


def _compute_next_level(top: int, levels: _Levels) -> int:
    """Next level that can receive weights: count the longest prefix of
    smallest-rank nodes at `top` whose total value stays within the minimum
    remaining weight, then jump by the floor of its base-2 logarithm.  The
    prefix is found by halving at `_fsa`'s node, one counted comparison a
    step; on one presorted run of leaves that node is the lower median
    leaf, so the halving runs on positions, with totals from block sums."""
    cnt = levels.cnt
    remaining, window, absorbed = levels.min_item()[0], levels.slice(), 0
    while window.n:
        if levels.vals is not None and len(window.runs) == 1 and window.runs[0][0] == top:
            _, lo, hi = window.runs[0]
            start, bound = lo, levels.prefix(lo) + remaining
            while lo < hi:
                at = (lo + hi - 1) // 2  # the lower median leaf
                cnt.count += 1
                lo, hi = (at + 1, hi) if levels.prefix(at + 1) <= bound else (lo, at)
            absorbed += lo - start
            break
        alpha, chi, o1, o2 = _fsa(top, window, cnt)
        prefix_value = o1.total_value() + chi.total_value()
        cnt.count += 1
        if prefix_value <= remaining:
            remaining -= prefix_value
            absorbed += alpha
            window = o2
        else:
            window = o1
    if absorbed < 2:
        raise AssertionError("next-level search found fewer than two nodes")
    return top + (absorbed.bit_length() - 1)


def _maintain_kraft(top: int, next_level: int | None, levels: _Levels) -> int:
    """Move the subtrees of the largest-rank nodes at `top` one level up so
    the node count divides the span to `next_level` (or, with None at the
    end, reaches a power of two).  Returns the number of subtrees moved."""
    sl = levels.slice()
    m = _node_count(top, sl)
    if next_level is not None:
        nu = (-m) % (1 << (next_level - top))
    else:
        nu = (1 << (m - 1).bit_length()) - m
    if nu == 0:
        return 0
    _, moved = _rank_split(top, sl, m - nu, levels.cnt, m)
    levels.apply_move(moved)
    return nu


def _finish(levels: _Levels) -> tuple[int, int]:
    """Terminal adjustment; returns (root level, subtrees moved)."""
    nu = _maintain_kraft(levels.top(), None, levels)
    top = levels.top()
    m = _node_count(top, levels.slice())
    if m & (m - 1):
        raise AssertionError(f"top level holds {m} nodes, not a power of two")
    return top + m.bit_length() - 1, nu


def construct_lengths(weights: WeightList,
                      mode: ConstructionMode = ConstructionMode(),
                      iteration_hook: Callable[[dict], None] | None = None
                      ) -> tuple[CodeLengthProfile, ConstructionStats]:
    """Compute optimal codeword lengths for the weights, in input order.

    Returns the length profile plus instrumentation.  The optional hook
    receives a snapshot of the level assignment after every pass (used by
    invariant-checking tests).
    """
    n = len(weights)
    if n == 0:
        raise ValueError("no weights")
    counter = ComparisonCounter()
    if n == 1:
        stats = ConstructionStats(0, counter.count, 1, ())
        return CodeLengthProfile((1,)), stats

    levels = _Levels(weights, counter)
    trace = [LevelTraceEntry(0, _assign_level0(levels), 0)]
    if iteration_hook:
        iteration_hook(levels.snapshot())

    detailed = mode.algorithm == "detailed"
    level = pending_moves = passes = 0
    cap = 4 * n + 128
    while len(levels):
        passes += 1
        if passes > cap:
            raise AssertionError("construction did not terminate")
        if detailed:
            level = levels.top()
            nxt = _compute_next_level(level, levels)
        else:
            nxt = level + 1
        pending_moves += _maintain_kraft(level, nxt, levels)
        got = _assign_to_level(nxt, levels)
        if got:
            trace.append(LevelTraceEntry(nxt, got, pending_moves))
            pending_moves = 0
        level = nxt
        if iteration_hook:
            iteration_hook(levels.snapshot())

    root, final_moves = _finish(levels)
    levels.memo.clear()  # its slices point back at `levels`
    trace.append(LevelTraceEntry(levels.top(), 0, final_moves))
    iterations = len(trace) - 1
    if iteration_hook:
        iteration_hook(levels.snapshot())

    if type(levels.arr) is Positions:
        # the runs tile the input in position order, and position is index,
        # so they are the profile's runs, and its lengths; the top level's
        # length is the shortest of the k
        if root <= levels.top():
            raise AssertionError(f"root level {root} is not above the top level")
        profile = CodeLengthProfile._from_runs(
            tuple((root - lv, lo, hi) for lv, lo, hi in levels.runs))
    else:
        lengths = [0] * n
        arr = levels.arr
        for lv, lo, hi in levels.runs:
            code_len = root - lv
            for it in arr[lo:hi]:
                lengths[it[1]] = code_len
        profile = CodeLengthProfile(tuple(lengths))
    k = len(levels.runs)  # each run is one non-empty level: one distinct length
    if iterations > 2 * k:
        raise AssertionError(
            f"{iterations} assignment iterations exceed twice the {k} distinct lengths")
    stats = ConstructionStats(iterations, counter.count, k, tuple(trace), levels.hits,
                              levels.cut_hits)
    return profile, stats
