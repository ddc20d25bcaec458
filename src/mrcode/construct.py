"""Construction drivers for minimum-redundancy codeword lengths.

Two drivers share the same split engine: a basic walk that visits tree
levels one by one, and a detailed driver that jumps straight between the
levels that actually receive leaves.  Both assign a weight to a level only
while its value is below the sum of the two smallest-rank nodes there, and
both keep the level populations consistent with a full binary tree by
moving the largest-rank subtrees up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from .core import (CodeLengthProfile, ComparisonCounter, ConstructionStats,
                   LevelState, LevelTraceEntry, WeightItem, WeightList)
from .split import LeafSlice, _Env, _fsa, _rank_split, node_count as _node_count


@dataclass(frozen=True)
class ConstructionMode:
    algorithm: Literal["basic", "detailed"] = "detailed"

    def __post_init__(self) -> None:
        if self.algorithm not in ("basic", "detailed"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


class PendingPool:
    """Weights not yet assigned to a level.

    Unsorted pools scan linearly with counted comparisons.  Presorted pools
    keep a cursor into the ascending sequence: the minimum is positional and
    threshold extraction runs an exponential search followed by a binary
    search, counting each probe.
    """

    def __init__(self, items, presorted: bool = False,
                 counter: ComparisonCounter | None = None):
        self.presorted = presorted
        self.cnt = counter if counter is not None else ComparisonCounter()
        self.arr: list[WeightItem] = list(items)
        self.cur = 0

    def __len__(self) -> int:
        return len(self.arr) - self.cur

    def items(self) -> list[WeightItem]:
        return self.arr[self.cur:]

    def min_item(self) -> WeightItem:
        if not len(self):
            raise ValueError("empty pool")
        if self.presorted:
            return self.arr[self.cur]
        best = self.arr[0]
        cnt = self.cnt
        for x in self.arr[1:]:
            cnt.count += 1
            if x < best:
                best = x
        return best

    def two_smallest(self) -> tuple[WeightItem, WeightItem | None]:
        if not len(self):
            raise ValueError("empty pool")
        if self.presorted:
            second = self.arr[self.cur + 1] if len(self) > 1 else None
            return self.arr[self.cur], second
        return _two_smallest(self.arr, self.cnt)

    def take_below(self, bound: int) -> list[WeightItem]:
        """Remove and return every weight with value strictly below `bound`."""
        cnt = self.cnt
        if not self.presorted:
            taken = []
            kept = []
            for x in self.arr:
                cnt.count += 1
                (taken if x[0] < bound else kept).append(x)
            self.arr = kept
            return taken
        arr, c, n = self.arr, self.cur, len(self.arr)
        if c == n:
            return []
        cnt.count += 1
        if not arr[c][0] < bound:
            return []
        step = 1
        while c + step < n:
            cnt.count += 1
            if arr[c + step][0] < bound:
                step <<= 1
            else:
                break
        lo = c + (step >> 1) + 1
        hi = min(c + step, n)
        while lo < hi:
            mid = (lo + hi) // 2
            cnt.count += 1
            if arr[mid][0] < bound:
                lo = mid + 1
            else:
                hi = mid
        taken = arr[c:lo]
        self.cur = lo
        return taken


def _merge_moved(dst: list[WeightItem], moved: list[WeightItem],
                 cnt: ComparisonCounter) -> list[WeightItem]:
    """Merge raised weights (all <= dst's values) before an ascending list.

    Only a single boundary value can tie; its run is interleaved by original
    index.  Costs O(log) counted comparisons, not a full merge.
    """
    cnt.count += 1
    v = moved[-1][0]
    if v < dst[0][0]:
        return moved + dst
    lo, hi = 0, len(moved) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        cnt.count += 1
        if moved[mid][0] < v:
            lo = mid + 1
        else:
            hi = mid
    a = lo
    lo, hi = 0, len(dst)
    while lo < hi:
        mid = (lo + hi) // 2
        cnt.count += 1
        if dst[mid][0] <= v:
            lo = mid + 1
        else:
            hi = mid
    b = lo
    run = sorted(moved[a:] + dst[:b], key=lambda it: it[1])
    return moved[:a] + run + dst[b:]


class _Levels:
    """Mutable leaf assignment; presorted mode keeps levels ascending."""

    def __init__(self, presorted: bool):
        self.presorted = presorted
        self.items: dict[int, list[WeightItem]] = {}
        self._psums: dict[int, list[int] | None] = {}

    @classmethod
    def from_state(cls, state: LevelState, presorted: bool) -> "_Levels":
        lv = cls(presorted)
        for level, items in state.levels.items():
            arr = sorted(items) if presorted else list(items)
            lv.items[level] = arr
        return lv

    def top(self) -> int:
        return max(lv for lv, it in self.items.items() if it)

    def add(self, level: int, new_items: list[WeightItem]) -> None:
        if not new_items:
            return
        self.items.setdefault(level, []).extend(new_items)
        self._psums[level] = None

    def slice(self) -> LeafSlice:
        return LeafSlice.from_arrays(self.items, self.presorted, self._psums)

    def state(self) -> LevelState:
        return LevelState.from_lists({lv: arr for lv, arr in self.items.items() if arr})

    def snapshot(self) -> dict[int, tuple[WeightItem, ...]]:
        return {lv: tuple(arr) for lv, arr in self.items.items() if arr}

    def apply_move(self, moved: LeafSlice, cnt: ComparisonCounter) -> None:
        """Raise every weight of `moved` one level."""
        for lv in reversed(moved.levels()):
            mv = moved.level_items(lv)
            src = self.items[lv]
            if len(mv) == len(src):
                src = []
            else:
                gone = {it[1] for it in mv}
                src = [it for it in src if it[1] not in gone]
            if src:
                self.items[lv] = src
            else:
                self.items.pop(lv, None)
            self._psums[lv] = None
            dst = self.items.get(lv + 1)
            if not dst:
                self.items[lv + 1] = list(mv)
            elif self.presorted:
                self.items[lv + 1] = _merge_moved(dst, mv, cnt)
            else:
                dst.extend(mv)
            self._psums[lv + 1] = None


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


def _assign_level0(levels: _Levels, pool: PendingPool, env: _Env) -> int:
    a, b = pool.two_smallest()
    bound = a[0] + b[0]
    taken = pool.take_below(bound)
    levels.add(0, taken)
    return len(taken)


def _assign_to_level(level: int, levels: _Levels, pool: PendingPool, env: _Env) -> int:
    """Four-candidate threshold: the two smallest nodes already at `level`
    and the two smallest pool weights; everything below the sum of the two
    smallest-rank candidates moves in."""
    sl = levels.slice()
    total = _node_count(level, sl)
    first, rest = _rank_split(level, sl, 1, env)
    keys = [(first.total_value(), first.min_index())]
    if total >= 2:
        second, _ = _rank_split(level, rest, 1, env)
        keys.append((second.total_value(), second.min_index()))
    w1, w2 = pool.two_smallest()
    keys.append(w1)
    if w2 is not None:
        keys.append(w2)
    best, second_key = _two_smallest(keys, env.cnt)
    bound = best[0] + second_key[0]
    taken = pool.take_below(bound)
    levels.add(level, taken)
    return len(taken)


def _compute_next_level(top: int, levels: _Levels, pool: PendingPool, env: _Env) -> int:
    """Next level that can receive weights: count the longest prefix of
    smallest-rank nodes at `top` whose total value stays within the minimum
    remaining weight, then jump by the floor of its base-2 logarithm."""
    w = pool.min_item()
    window = levels.slice()
    remaining = w[0]
    absorbed = 0
    while window.n:
        alpha, chi, o1, o2 = _fsa(top, window, env)
        prefix_value = o1.total_value() + chi.total_value()
        env.cnt.count += 1
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
                    pool_nonempty: bool, env: _Env) -> int:
    """Move the subtrees of the largest-rank nodes at `top` one level up so
    the node count divides the span to the next level (or reaches a power
    of two at the end).  Returns the number of subtrees moved."""
    sl = levels.slice()
    m = _node_count(top, sl)
    if pool_nonempty:
        span = 1 << (next_level - top)
        nu = (-m) % span
    else:
        nu = (1 << (m - 1).bit_length()) - m
    if nu == 0:
        return 0
    _, moved = _rank_split(top, sl, m - nu, env)
    levels.apply_move(moved, env.cnt)
    return nu


def _finish(levels: _Levels, env: _Env) -> tuple[int, int]:
    """Terminal adjustment; returns (root level, subtrees moved)."""
    top = levels.top()
    nu = _maintain_kraft(top, None, levels, False, env)
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

    env = _Env(weights.sorted_flag, counter)
    levels = _Levels(weights.sorted_flag)
    pool = PendingPool(weights.items, weights.sorted_flag, counter)
    trace: list[LevelTraceEntry] = []

    assigned = _assign_level0(levels, pool, env)
    trace.append(LevelTraceEntry(0, assigned, 0))
    iterations = 1
    if iteration_hook:
        iteration_hook(levels.snapshot())

    pending_moves = 0
    passes = 0
    cap = 4 * n + 128
    if mode.algorithm == "detailed":
        while len(pool):
            passes += 1
            if passes > cap:
                raise AssertionError("construction did not terminate")
            top = levels.top()
            nxt = _compute_next_level(top, levels, pool, env)
            pending_moves += _maintain_kraft(top, nxt, levels, True, env)
            got = _assign_to_level(nxt, levels, pool, env)
            if got:
                iterations += 1
                trace.append(LevelTraceEntry(nxt, got, pending_moves))
                pending_moves = 0
            if iteration_hook:
                iteration_hook(levels.snapshot())
    else:
        eta = 0
        while len(pool):
            passes += 1
            if passes > cap:
                raise AssertionError("construction did not terminate")
            sl = levels.slice()
            m = _node_count(eta, sl)
            if m % 2:
                _, moved = _rank_split(eta, sl, m - 1, env)
                levels.apply_move(moved, counter)
                pending_moves += 1
            got = _assign_to_level(eta + 1, levels, pool, env)
            if got:
                iterations += 1
                trace.append(LevelTraceEntry(eta + 1, got, pending_moves))
                pending_moves = 0
            eta += 1
            if iteration_hook:
                iteration_hook(levels.snapshot())

    root, final_moves = _finish(levels, env)
    trace.append(LevelTraceEntry(levels.top(), 0, final_moves))
    if iteration_hook:
        iteration_hook(levels.snapshot())

    lengths = [0] * n
    for lv, arr in levels.items.items():
        code_len = root - lv
        for it in arr:
            lengths[it[1]] = code_len
    profile = CodeLengthProfile(tuple(lengths))
    k = len(set(profile.lengths))
    if iterations > 2 * k:
        raise AssertionError(
            f"{iterations} assignment iterations exceed twice the {k} distinct lengths")
    stats = ConstructionStats(iterations, counter.count, k, tuple(trace))
    return profile, stats


# ------------------------------------------------- step-level public surface

def assign_level0(weights: WeightList,
                  counter: ComparisonCounter | None = None
                  ) -> tuple[LevelState, PendingPool]:
    """Seed level 0: the two smallest weights plus everything below their sum."""
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    cnt = counter if counter is not None else ComparisonCounter()
    pool = PendingPool(weights.items, weights.sorted_flag, cnt)
    levels = _Levels(weights.sorted_flag)
    _assign_level0(levels, pool, _Env(weights.sorted_flag, cnt))
    return levels.state(), pool


def count_nodes(level: int, state: LevelState) -> int:
    """Nodes (leaves plus implied internals) at `level`, by arithmetic fold."""
    return _node_count(level, LeafSlice.from_state(state))


def compute_next_level(state: LevelState, pool: PendingPool) -> int:
    levels = _Levels.from_state(state, pool.presorted)
    return _compute_next_level(levels.top(), levels, pool,
                               _Env(pool.presorted, pool.cnt))


def maintain_kraft(state: LevelState, next_level: int | None,
                   pool: PendingPool) -> tuple[LevelState, int]:
    """Returns the adjusted state and the number of subtrees moved up."""
    levels = _Levels.from_state(state, pool.presorted)
    nu = _maintain_kraft(levels.top(), next_level, levels, len(pool) > 0,
                         _Env(pool.presorted, pool.cnt))
    return levels.state(), nu


def assign_weights_to_level(level: int, state: LevelState,
                            pool: PendingPool) -> tuple[LevelState, int]:
    levels = _Levels.from_state(state, pool.presorted)
    got = _assign_to_level(level, levels, pool, _Env(pool.presorted, pool.cnt))
    return levels.state(), got
