"""Construction of minimum-redundancy codeword lengths.

One pass loop serves both modes, which differ only in the level each pass
assigns to: the basic mode steps one level up, and the detailed mode jumps
straight to the next level that can receive leaves.  Each pass assigns a
weight to a level only while its value is below the sum of the two
smallest-rank nodes there, after keeping the level populations consistent
with a full binary tree by moving the largest-rank subtrees up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

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


class PendingPool:
    """The weights of a construction, as one list and a cursor.

    ``arr[:cur]`` holds the weights assigned to levels (their runs belong
    to `_Levels`), and ``arr[cur:]`` the weights not yet assigned.
    Unsorted pools (``vals`` None) copy the input to a list, which
    selections reorder in place, and find their two smallest by one
    counted scan, kept until `take_below` assigns a weight.  Presorted
    pools keep the ascending input, which nothing writes, with ``vals``
    its values by position: the minimum is positional and threshold
    extraction runs an exponential search followed by a binary search
    over ``vals``, counting each probe.
    """

    def __init__(self, items: Sequence[WeightItem], vals: Sequence[int] | None,
                 counter: ComparisonCounter):
        self.vals = vals
        self.cnt = counter
        self.arr: Sequence[WeightItem] = list(items) if vals is None else items
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


class _Levels(Store):
    """Leaf assignment as runs of the pool's list.

    Level ``lv`` holds ``arr[lo:hi]`` for ``runs[lv] = (lo, hi)``; the runs
    ascend with the level and tile ``arr[:pool.cur]``, so each run is one
    distinct codeword length.  In presorted mode the list never changes:
    the weights of each level are a run of the sorted input, and a range
    sums from the block totals that the input `WeightList` keeps.  In
    unsorted mode selections reorder a run in place, keeping every
    range's weights.  ``runs`` is a dict in ascending level, and `slice`
    hands it out as the split engine's tuple of ``(level, lo, hi)``.
    `add` appends weights that rank above the level's leaves and
    `apply_move` hands a level, at its low end, weights that rank below
    its leaves, so the query memo and the rank cuts stay valid for the
    whole construction; `construct_lengths` clears the memo on return.
    """

    __slots__ = ("runs",)

    def __init__(self, pool: PendingPool, psum: Sequence[int] | None):
        super().__init__(pool.arr, pool.vals, psum)
        self.runs: dict[int, tuple[int, int]] = {}

    def top(self) -> int:
        return next(reversed(self.runs))

    def add(self, level: int, count: int) -> None:
        """The `count` weights after the last run join `level`, which is
        the top level or above it."""
        if not count:
            return
        runs = self.runs
        end = runs[self.top()][1] if runs else 0
        lo = runs[level][0] if level in runs else end
        runs[level] = (lo, end + count)

    def slice(self) -> LeafSlice:
        runs = self.runs
        return LeafSlice(self, tuple((lv, lo, hi) for lv, (lo, hi) in runs.items()),
                         runs[self.top()][1])

    def snapshot(self) -> dict[int, tuple[WeightItem, ...]]:
        arr = self.arr
        return {lv: tuple(sorted(arr[lo:hi])) for lv, (lo, hi) in self.runs.items()}

    def apply_move(self, moved: LeafSlice) -> None:
        """Raise every weight of `moved` one level.

        The weights moved from level ``lv`` are its largest-rank leaves, so
        they end its run; they start the run of ``lv + 1``, and only the
        cut between the two runs moves.
        """
        runs = self.runs
        for lv, cut, end in reversed(moved.runs):
            lo, hi = runs.pop(lv)
            if end != hi:
                raise AssertionError(f"moved weights do not end the run of level {lv}")
            up = runs.pop(lv + 1, None)
            if lo < cut:
                runs[lv] = (lo, cut)
            runs[lv + 1] = (cut, up[1] if up else hi)
        self.runs = dict(sorted(runs.items()))


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


def _assign_level0(levels: _Levels, pool: PendingPool) -> int:
    a, b = pool.two_smallest()
    taken = pool.take_below(a[0] + b[0])
    levels.add(0, taken)
    return taken


def _assign_to_level(level: int, levels: _Levels, pool: PendingPool) -> int:
    """Four-candidate threshold: the two smallest nodes already at `level`
    and the two smallest pool weights; everything below the sum of the two
    smallest-rank candidates moves in."""
    cnt = pool.cnt
    first, rest = _rank_split(level, levels.slice(), 1, cnt)
    nodes = [(first.total_value(), first)]
    if rest.n:
        second, _ = _rank_split(level, rest, 1, cnt)
        nodes.append((second.total_value(), second))
    ws = [w for w in pool.two_smallest() if w is not None]
    values = [v for v, _ in nodes] + [w[0] for w in ws]
    # a key's index is read only when its value ties another's, so a
    # node's smallest index, a scan of its weights, is needed only then
    keys = [(v, nd.min_index() if values.count(v) > 1 else 0) for v, nd in nodes]
    keys += ws
    best, second_key = _two_smallest(keys, cnt)
    taken = pool.take_below(best[0] + second_key[0])
    levels.add(level, taken)
    return taken


def _compute_next_level(top: int, levels: _Levels, pool: PendingPool) -> int:
    """Next level that can receive weights: count the longest prefix of
    smallest-rank nodes at `top` whose total value stays within the minimum
    remaining weight, then jump by the floor of its base-2 logarithm.  The
    prefix is found by halving at `_fsa`'s node, one counted comparison a
    step; on one presorted run of leaves that node is the lower median
    leaf, so the halving runs on positions, with totals from block sums."""
    w = pool.min_item()
    cnt = pool.cnt
    window = levels.slice()
    remaining = w[0]
    absorbed = 0
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


def _maintain_kraft(top: int, next_level: int | None, levels: _Levels,
                    cnt: ComparisonCounter) -> int:
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
    _, moved = _rank_split(top, sl, m - nu, cnt, m)
    levels.apply_move(moved)
    return nu


def _finish(levels: _Levels, cnt: ComparisonCounter) -> tuple[int, int]:
    """Terminal adjustment; returns (root level, subtrees moved)."""
    nu = _maintain_kraft(levels.top(), None, levels, cnt)
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

    if not weights.sorted_flag:
        pool = PendingPool(weights.items, None, counter)
        levels = _Levels(pool, None)
    else:
        # a presorted construction reads values and the list's block
        # totals; a positional list makes its few items on read
        vals = weights._vals
        pool = PendingPool(Positions(vals) if weights.positional else weights.items,
                           vals, counter)
        levels = _Levels(pool, weights._psum)
    trace = [LevelTraceEntry(0, _assign_level0(levels, pool), 0)]
    if iteration_hook:
        iteration_hook(levels.snapshot())

    detailed = mode.algorithm == "detailed"
    level = pending_moves = passes = 0
    cap = 4 * n + 128
    while len(pool):
        passes += 1
        if passes > cap:
            raise AssertionError("construction did not terminate")
        if detailed:
            level = levels.top()
            nxt = _compute_next_level(level, levels, pool)
        else:
            nxt = level + 1
        pending_moves += _maintain_kraft(level, nxt, levels, counter)
        got = _assign_to_level(nxt, levels, pool)
        if got:
            trace.append(LevelTraceEntry(nxt, got, pending_moves))
            pending_moves = 0
        level = nxt
        if iteration_hook:
            iteration_hook(levels.snapshot())

    root, final_moves = _finish(levels, counter)
    levels.memo.clear()  # its slices point back at `levels`
    trace.append(LevelTraceEntry(levels.top(), 0, final_moves))
    iterations = len(trace) - 1
    if iteration_hook:
        iteration_hook(levels.snapshot())

    if type(pool.arr) is Positions:
        # the runs tile the input in position order, and position is index,
        # so they are the profile's runs, and its lengths; the top level's
        # length is the shortest of the k
        if root <= levels.top():
            raise AssertionError(f"root level {root} is not above the top level")
        profile = CodeLengthProfile._from_runs(
            tuple((root - lv, lo, hi) for lv, (lo, hi) in levels.runs.items()))
    else:
        lengths = [0] * n
        arr = pool.arr
        for lv, (lo, hi) in levels.runs.items():
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
