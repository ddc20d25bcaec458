"""Splitting engine: rank and median queries on implied tree levels.

Nodes at a context level are the leaves assigned to that level plus the
internal nodes implied by sorted pairing of everything below; this module
locates the weighted-by-multiplicity median node (the "splitting node"),
or the t-th smallest/largest node, while evaluating only the handful of
internal nodes the pruning actually touches.

A slice holds the weights of a run of consecutive-rank nodes, bucketed by
assigned level.  Each bucket is a list of contiguous segments (a rope), so
catenating partial results never copies weight data.  Presorted slices
answer leaf medians by index arithmetic; sums come from shared prefix-sum
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .core import ComparisonCounter, InvalidAssignmentError, LevelState, WeightItem
from .selection import select_rank


class LeafSlice:
    """Weights of consecutive-rank nodes, grouped by assigned level.

    ``segs`` maps each level that holds weights to a non-empty rope of
    segments ``(arr, lo, hi, psum)``: the run ``arr[lo:hi]``, with ``psum``
    the prefix sums of ``arr`` (presorted levels) or None.
    """

    __slots__ = ("segs", "n", "presorted")

    def __init__(self, segs: dict[int, list[tuple]], n: int, presorted: bool):
        self.segs = segs
        self.n = n
        self.presorted = presorted

    @classmethod
    def from_runs(cls, arr: list[WeightItem], runs: Mapping[int, tuple[int, int]],
                  psum: list[int] | None) -> "LeafSlice":
        """Slice of the runs ``arr[lo:hi]`` per level, which it shares rather
        than copies.  With `psum`, the prefix sums of `arr`, the slice is
        presorted and sums by subtraction."""
        segs: dict[int, list[tuple]] = {}
        n = 0
        for lv, (lo, hi) in runs.items():
            if lo < hi:
                segs[lv] = [(arr, lo, hi, psum)]
                n += hi - lo
        return cls(segs, n, psum is not None)

    @classmethod
    def from_levels(cls, levels: Mapping[int, Sequence[WeightItem]],
                    presorted: bool = False) -> "LeafSlice":
        arr: list[WeightItem] = []
        runs = {}
        for lv in sorted(levels):
            items = list(levels[lv])
            if presorted:
                for a, b in zip(items, items[1:]):
                    if b < a:
                        raise ValueError(f"level {lv} is not in ascending order")
            runs[lv] = (len(arr), len(arr) + len(items))
            arr += items
        psum = [0, *accumulate(it[0] for it in arr)] if presorted else None
        return cls.from_runs(arr, runs, psum)

    @classmethod
    def from_state(cls, state: LevelState, presorted: bool = False) -> "LeafSlice":
        return cls.from_levels(state.levels, presorted)

    def levels(self) -> list[int]:
        return sorted(self.segs)

    def level_items(self, level: int) -> list[WeightItem]:
        out: list[WeightItem] = []
        for arr, lo, hi, _ in self.segs.get(level, ()):
            out += arr[lo:hi]
        return out

    def all_items(self) -> list[WeightItem]:
        out: list[WeightItem] = []
        for lv in self.levels():
            out += self.level_items(lv)
        return out

    def level_count(self, level: int) -> int:
        n = 0
        for _, lo, hi, _ in self.segs.get(level, ()):
            n += hi - lo
        return n

    def total_value(self) -> int:
        total = 0
        for segs in self.segs.values():
            for arr, lo, hi, ps in segs:
                if ps is not None:
                    total += ps[hi] - ps[lo]
                else:
                    for it in arr[lo:hi]:
                        total += it[0]
        return total

    def min_index(self) -> int:
        return min(it[1] for segs in self.segs.values() for arr, lo, hi, _ in segs
                   for it in arr[lo:hi])

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a splitting query at some context level.

    ``pos`` is the 1-based rank of the splitting node among the nodes it
    was selected from; ``chi_weights`` are the weights contributing to it;
    ``lower``/``upper`` hold the weights of the smaller-/larger-rank nodes.
    """

    pos: int
    chi_weights: tuple[WeightItem, ...]
    lower: LeafSlice
    upper: LeafSlice


def _empty(presorted) -> LeafSlice:
    return LeafSlice({}, 0, presorted)


def _of(level, segs, n, presorted) -> LeafSlice:
    """Slice of `n` leaves at `level`; it keeps the list `segs`."""
    if n == 0:
        return LeafSlice({}, 0, presorted)
    return LeafSlice({level: segs}, n, presorted)


def _one(level, item, presorted) -> LeafSlice:
    return LeafSlice({level: [((item,), 0, 1, None)]}, 1, presorted)


def _cat(parts: Iterable[LeafSlice], presorted, level=None, leaf_segs=(), nleaf=0) -> LeafSlice:
    """Union of the parts, plus `nleaf` weights in `leaf_segs` at `level`,
    which no part holds.  Each level's segments keep the parts' order."""
    segs: dict[int, list[tuple]] = {}
    n = nleaf
    only = None
    for part in parts:
        if part.n == 0:
            continue
        only = None if n else part
        for lv, ss in part.segs.items():
            if lv in segs:
                segs[lv] += ss
            else:
                segs[lv] = list(ss)
        n += part.n
    if only is not None:
        return only  # slices are never mutated, so one part can be shared
    if nleaf:
        segs[level] = leaf_segs
    return LeafSlice(segs, n, presorted)


def _below(sl: LeafSlice, level: int) -> LeafSlice:
    segs = {}
    n = 0
    for lv, ss in sl.segs.items():
        if lv < level:
            segs[lv] = ss
            for _, lo, hi, _ in ss:
                n += hi - lo
        elif lv > level:
            raise InvalidAssignmentError(f"slice holds weights above level {level}")
    return LeafSlice(segs, n, sl.presorted)


def _leaf_select(segs: list[tuple], t: int, presorted, cnt):
    """t-th smallest leaf of the window; returns (item, lo, hi, nlo, nhi)."""
    total = 0
    for _, lo, hi, _ in segs:
        total += hi - lo
    if not 1 <= t <= total:
        raise ValueError(f"rank {t} out of range 1..{total}")
    if total == 1:
        arr, lo, _, _ = segs[0]
        return arr[lo], [], [], 0, 0
    if presorted:
        acc = 0
        for i, (arr, lo, hi, ps) in enumerate(segs):
            ln = hi - lo
            if acc + ln >= t:
                at = lo + t - acc - 1
                lows = segs[:i]
                if at > lo:
                    lows.append((arr, lo, at, ps))
                highs = [(arr, at + 1, hi, ps)] if at + 1 < hi else []
                highs += segs[i + 1:]
                return arr[at], lows, highs, t - 1, total - t
            acc += ln
        raise AssertionError("unreachable")
    if len(segs) == 1:
        arr, lo, hi, _ = segs[0]
        flat = arr[lo:hi]
    else:
        flat = []
        for arr, lo, hi, _ in segs:
            flat += arr[lo:hi]
    item, lows, highs = select_rank(flat, t, cnt)
    nlo = len(lows)
    nhi = total - 1 - nlo
    return (item, [(lows, 0, nlo, None)] if nlo else [],
            [(highs, 0, nhi, None)] if nhi else [], nlo, nhi)


def node_count(level: int, sl: LeafSlice) -> int:
    """Number of nodes at `level` implied by the slice, by pure arithmetic."""
    if sl.n == 0:
        return 0
    segs = sl.segs
    if len(segs) == 1:
        (prev,) = segs
        m = sl.n
    else:
        m = 0
        prev = None
        for lv in sorted(segs):
            if prev is not None:
                gap = lv - prev
                if m & ((1 << gap) - 1):
                    raise InvalidAssignmentError("slice does not fold into whole nodes")
                m >>= gap
            for _, lo, hi, _ in segs[lv]:
                m += hi - lo
            prev = lv
    if prev > level:
        raise InvalidAssignmentError(f"slice holds weights above level {level}")
    gap = level - prev
    if m & ((1 << gap) - 1):
        raise InvalidAssignmentError("slice does not fold into whole nodes")
    return m >> gap


def _locate(level: int, sl: LeafSlice, s1: int, nodes: int | None,
            cnt: ComparisonCounter):
    """Node at `level` preceded by smaller-rank nodes of total size `s1`.

    A node's size is its number of weights, so with s1 = n // 2 this finds
    the splitting node; then returns (pos, chi, lower, upper): its rank,
    its weights and those of the nodes before and after it.  With `nodes`,
    the number of nodes at `level`, given, every node has size 1 and the
    query is a rank split: it stops once the first `s1` nodes are known,
    and returns them as `lower`, the rest as `upper`, and None for chi.

    Each round compares the median leaf of the leaf window at `level` with
    the splitting node of the internal window (the two probes).  If the
    leaf is the larger probe, the nodes known to rank below it are tested
    against the lower budget `s1`: over it, the leaf goes up with the
    leaves above it; within it, the internal probe goes down with the
    internal nodes below it.  If the leaf is the smaller probe, the test
    mirrors this with the upper budget `s2`.  Once one window is empty
    the node lies in the other, which is halved until both budgets hold.
    """
    if sl.n == 0:
        raise ValueError("empty slice")
    rank = nodes is not None
    presorted = sl.presorted
    wsegs = sl.segs.get(level, ())
    if wsegs and len(sl.segs) == 1:
        # leaves only: the lower median, without narrowing to s1, or the
        # leaf of rank s1
        mid, lo, hi, nlo, nhi = _leaf_select(wsegs, s1 if rank else (sl.n + 1) // 2,
                                             presorted, cnt)
        if rank:
            lo.append(((mid,), 0, 1, None))
            return (nlo + 1, None, _of(level, lo, nlo + 1, presorted),
                    _of(level, hi, nhi, presorted))
        return (nlo + 1, _one(level, mid, presorted), _of(level, lo, nlo, presorted),
                _of(level, hi, nhi, presorted))
    wbelow = _below(sl, level)
    nleaf = sl.n - wbelow.n

    s2 = (nodes if rank else sl.n) - s1 - 1
    q = nodes - nleaf if rank else 0  # rank split: nodes in the internal window
    # weights found to rank below / above the node: internal-window parts,
    # and leaf segments at `level`, with their count; the upper side is
    # gathered in reverse rank order
    lower: list[LeafSlice] = []
    upper: list[LeafSlice] = []
    lo_leaves: list[tuple] = []
    hi_leaves: list[list[tuple]] = []
    nlower = nupper = 0
    pos = 1
    mid = chi = None  # the probes; None once their window has changed
    while True:
        if rank and (s1 == 0 or not wbelow.n or not nleaf):
            break  # a rank split ends without narrowing; see below
        if nleaf and mid is None:
            mid, lo, hi, nlo, nhi = _leaf_select(wsegs, (nleaf + 1) // 2, presorted, cnt)
        if wbelow.n and chi is None:
            p, chi, p1, p2 = _fsi(level, wbelow, cnt)
            chi_val = chi.total_value()
            c1, c, c2 = (p - 1, 1, q - p) if rank else (p1.n, chi.n, p2.n)
        if nleaf and wbelow.n:
            # one counted comparison; a value tie falls back to the
            # smallest original index
            cnt.count += 1
            if mid[0] != chi_val:
                above = mid[0] > chi_val
            else:
                above = mid[1] > chi.min_index()
            if above:
                leaf_moves = up = nlo + c1 + c > s1
            else:
                leaf_moves = nhi + c + c2 > s2
                up = not leaf_moves
        elif nleaf:
            # the splitting node is a leaf; narrow within the leaf window
            if nlo > s1 and nhi > s2:
                raise AssertionError("both flank budgets exceeded")
            if nlo <= s1 and nhi <= s2:
                break
            leaf_moves, up = True, nlo > s1
        else:
            # the splitting node is internal; narrow within the internal window
            if c1 > s1 and c2 > s2:
                raise AssertionError("both flank budgets exceeded")
            if c1 <= s1 and c2 <= s2:
                break
            leaf_moves, up = False, c1 > s1
        if leaf_moves and up:
            hi_leaves.append(hi)
            hi_leaves.append([((mid,), 0, 1, None)])
            nupper += nhi + 1
            s2 -= 1 + nhi
            wsegs, nleaf, mid = lo, nlo, None
        elif leaf_moves:
            lo_leaves += lo
            lo_leaves.append(((mid,), 0, 1, None))
            nlower += nlo + 1
            s1 -= nlo + 1
            pos += nlo + 1
            wsegs, nleaf, mid = hi, nhi, None
        elif up:
            upper.append(p2)
            upper.append(chi)
            s2 -= c + c2
            wbelow, q, chi = p1, c1, None
        else:
            lower.append(p1)
            lower.append(chi)
            s1 -= c1 + c
            pos += p
            wbelow, q, chi = p2, c2, None

    if not rank:
        if nleaf:
            lo_leaves += lo
            hi_leaves.append(hi)
            nlower += nlo
            nupper += nhi
            pos += nlo
            chi = _one(level, mid, presorted)
        else:
            lower.append(p1)
            upper.append(p2)
            pos += p - 1
    elif s1 == 0:
        upper.append(wbelow)
        hi_leaves.append(wsegs)
        nupper += nleaf
    elif not wbelow.n:
        # leaves only: select rank s1 directly, with no median first
        mid, lo, hi, nlo, nhi = _leaf_select(wsegs, s1, presorted, cnt)
        lo_leaves += lo
        lo_leaves.append(((mid,), 0, 1, None))
        hi_leaves.append(hi)
        nlower += nlo + 1
        nupper += nhi
    else:
        # internal nodes only: each is 2^gap nodes one leaf level down
        h = max(wbelow.segs)
        first, rest = _rank_split(h, wbelow, s1 << (level - h), cnt)
        lower.append(first)
        upper.append(rest)
    if nupper:
        hi_leaves = [seg for run in reversed(hi_leaves) for seg in run]
    return (pos, chi, _cat(lower, presorted, level, lo_leaves, nlower),
            _cat(reversed(upper), presorted, level, hi_leaves, nupper))


def _fsa(level: int, sl: LeafSlice, cnt: ComparisonCounter):
    """Splitting node among all nodes at `level`; (pos, chi, lower, upper)."""
    return _locate(level, sl, sl.n // 2, None, cnt)


def _fsi(level: int, sl: LeafSlice, cnt: ComparisonCounter):
    """Splitting node of the internal nodes at `level`, whose leaves are `sl`.

    Locates the splitting node one leaf level down, then widens it to the
    enclosing whole internal node: the largest `off` nodes below and the
    smallest `span - off - 1` nodes above join the chosen one.
    """
    if not sl.segs:
        raise ValueError("empty slice")
    h = max(sl.segs)
    if h >= level:
        raise InvalidAssignmentError(f"slice holds weights at or above level {level}")
    alpha, chi, o1, o2 = _fsa(h, sl, cnt)
    span = 1 << (level - h)
    off = (alpha - 1) & (span - 1)
    parts = [chi]
    if off:  # o1 holds the alpha - 1 nodes before the chosen one
        o1, below = _rank_split(h, o1, alpha - 1 - off, cnt)
        parts.insert(0, below)
    rest = span - off - 1
    if rest:
        above, o2 = _rank_split(h, o2, rest, cnt)
        parts.append(above)
    if len(parts) > 1:
        chi = _cat(parts, sl.presorted)
    return -(-alpha // span), chi, o1, o2


def _rank_split(level: int, sl: LeafSlice, t: int, cnt: ComparisonCounter):
    """Split the slice's nodes at `level` after the t-th smallest rank."""
    if t == 0:
        return _empty(sl.presorted), sl
    total = node_count(level, sl)
    if t == total:
        return sl, _empty(sl.presorted)
    if not 0 < t < total:
        raise ValueError(f"rank {t} out of range 1..{total}")
    _, _, first, rest = _locate(level, sl, t, total, cnt)
    return first, rest


# ---------------------------------------------------------------- public API

def add_weights(weights: Iterable[WeightItem] | LeafSlice) -> int:
    """Exact value of the node made of these weights (0 for none)."""
    if isinstance(weights, LeafSlice):
        return weights.total_value()
    return sum(it[0] for it in weights)


def cut(level: int, sl: LeafSlice) -> tuple[list[WeightItem], LeafSlice]:
    """Split a slice into (leaves at `level`, everything strictly below)."""
    below = _below(sl, level)  # raises if anything sits above `level`
    return sl.level_items(level), below


def find_splitting_all(level: int, sl: LeafSlice,
                       counter: ComparisonCounter | None = None) -> SplitResult:
    """Splitting node among all nodes (leaves and internals) at `level`."""
    pos, chi, lower, upper = _fsa(level, sl, counter or ComparisonCounter())
    return SplitResult(pos, tuple(sorted(chi.all_items(), key=lambda it: it[1])),
                       lower, upper)


def find_splitting_internal(level: int, sl: LeafSlice,
                            counter: ComparisonCounter | None = None) -> SplitResult:
    """Splitting node of the internal nodes at `level`; `sl` holds their leaves."""
    pos, chi, lower, upper = _fsi(level, sl, counter or ComparisonCounter())
    return SplitResult(pos, tuple(sorted(chi.all_items(), key=lambda it: it[1])),
                       lower, upper)


def find_t_smallest(t: int, level: int, sl: LeafSlice,
                    counter: ComparisonCounter | None = None) -> tuple[LeafSlice, LeafSlice]:
    """Weights of the t smallest-rank nodes at `level`, and the remainder."""
    total = node_count(level, sl)
    if not 1 <= t <= total:
        raise ValueError(f"t={t} out of range 1..{total}")
    return _rank_split(level, sl, t, counter or ComparisonCounter())


def find_t_largest(t: int, level: int, sl: LeafSlice,
                   counter: ComparisonCounter | None = None) -> tuple[LeafSlice, LeafSlice]:
    """The remainder, and the weights of the t largest-rank nodes at `level`."""
    total = node_count(level, sl)
    if not 1 <= t <= total:
        raise ValueError(f"t={t} out of range 1..{total}")
    return _rank_split(level, sl, total - t, counter or ComparisonCounter())
