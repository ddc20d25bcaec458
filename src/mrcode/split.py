"""Splitting engine: rank and median queries on implied tree levels.

Nodes at a context level are the leaves assigned to that level plus the
internal nodes implied by sorted pairing of everything below; this module
locates the weighted-by-multiplicity median node (the "splitting node"),
or splits off the t smallest nodes, while evaluating only the handful of
internal nodes the pruning actually touches.  The three queries are
`_fsa` (the splitting node among all nodes at a level), `_fsi` (among
the internal nodes) and `_rank_split` (the t smallest nodes and the
rest); the construction calls them directly.  The package exports
`LeafSlice` and `node_count` from here.

All weights of a construction live in one list, and each level holds one
run of it.  The leaves that a run of consecutive-rank nodes holds at one
level are leaves of consecutive rank, so a slice is one range per level,
held as a flat tuple of ``(level, lo, hi)`` in ascending level: its top
level is the last triple, and the tuple is hashable as it stands.  That
takes every range handed out to hold exactly the weights of its rank
range: presorted runs are sorted, and an unsorted selection partitions its
window in place without moving a weight across any earlier range boundary.
Internal splitting queries are memoized on the list's `Store` for the
whole construction, keyed by the context level and the slice's tuple of
ranges.  A construction changes its runs only at their ends and in rank
order: an assignment appends weights that rank above the level's leaves,
and a Kraft move hands the next level, at its low end, weights that rank
below its leaves.  So every boundary handed out stays a
rank boundary of its run, later selections keep it, and every range keeps
its weights; a range whose weights a move raises keys a new entry.

The same argument keeps the store's rank cuts: the positions where an
earlier unsorted selection left every weight of its run before the
position ranking below every weight after it.  A cut stays a rank
boundary of whichever run holds it, so a later selection need only
partition the piece between the cuts around the rank it asks for.  Every
selection still returns the same weight at the same position; only the
order inside pieces not yet split differs, and with it the count.

A slice of one run ``(h, lo, hi)`` is leaves only, and the general search
on it reduces to at most three leaf selections whose positions are known
in advance: once they leave each selected weight at its rank position,
each node at level h + gap is ``2^gap`` consecutive positions.  So `_fsi`
and `_rank_split` make those `_leaf_select` calls on an unsorted store, in
the order the search makes them, which select, cut and count as the
search's calls did, and return the ranges by position arithmetic.  A
presorted run is in rank order already, and they skip the calls.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .core import _BLOCK, ComparisonCounter, InvalidAssignmentError, WeightItem
from .selection import select_rank

_value = itemgetter(0)
_index = itemgetter(1)


class Positions:
    """Read-only sequence of ``WeightItem(vals[i], i)``: the items of a
    list whose every index is its position, made when read.  A presorted
    construction reads O(polylog n) of them, and slices only to hand
    leaves out."""

    __slots__ = ("vals",)

    def __init__(self, vals: Sequence[int]):
        self.vals = vals

    def __len__(self) -> int:
        return len(self.vals)

    def __getitem__(self, i):
        n = len(self.vals)
        if type(i) is slice:
            return list(map(tuple.__new__, repeat(WeightItem),
                            zip(self.vals[i], range(*i.indices(n)))))
        return tuple.__new__(WeightItem, (self.vals[i], range(n)[i]))


class Store:
    """The weights that every slice of one construction indexes.

    A presorted store's weights are in (value, index) order and never
    written: ``arr`` is the input's tuple of items, or a `Positions` view
    of its values when every index is its position, and ``vals`` holds
    the values by position as ints.  ``psum`` is the list's block totals,
    one running total every `_BLOCK` positions (``psum[b]`` is the total
    of ``vals[:b * _BLOCK]``), which the store takes from its
    `WeightList` and never builds: the list makes them on its first
    presorted construction and keeps them for the next.  A prefix total
    adds at most ``_BLOCK - 1`` values to one of them (`prefix`).  An
    unsorted store has ``vals`` and ``psum`` None, and ``vals is not
    None`` is the test for presorted.  ``memo`` maps the level of a `_fsi`
    query and its slice's tuple of ranges to the result, for as long as
    the store lives (the module docstring says why the ranges keep their
    weights).  Cached slices point back at the store, so its owner clears
    the memo when done with it.  ``hits`` counts the queries it answered.
    ``cuts`` is the sorted list of positions that unsorted selections
    found to be rank boundaries of their runs, which stay so for as long
    as the store lives (the module docstring again); presorted stores
    never read it.  ``cut_hits`` counts selections that cuts answered with
    no comparison.
    """

    __slots__ = ("arr", "vals", "psum", "memo", "hits", "cuts", "cut_hits")

    def __init__(self, arr: Sequence[WeightItem], vals: Sequence[int] | None,
                 psum: Sequence[int] | None = None):
        self.arr = arr
        self.vals = vals
        self.psum = psum
        self.memo: dict[tuple, tuple] = {}
        self.hits = 0
        self.cuts: list[int] = []
        self.cut_hits = 0

    def prefix(self, j: int) -> int:
        """Total value of ``arr[:j]`` in a presorted store."""
        b = j // _BLOCK
        return self.psum[b] + sum(self.vals[b * _BLOCK:j])


class LeafSlice:
    """Weights of consecutive-rank nodes: ``store.arr[lo:hi]`` for each
    ``(level, lo, hi)`` of ``runs``, a tuple of non-empty ranges, one per
    level, in ascending level."""

    __slots__ = ("store", "runs", "n")

    def __init__(self, store: Store, runs: tuple[tuple[int, int, int], ...], n: int):
        self.store = store
        self.runs = runs
        self.n = n

    def all_items(self) -> list[WeightItem]:
        arr = self.store.arr
        out: list[WeightItem] = []
        for _, lo, hi in self.runs:
            out += arr[lo:hi]
        return out

    def total_value(self) -> int:
        st = self.store
        arr, vals = st.arr, st.vals
        total = 0
        for _, lo, hi in self.runs:
            if vals is None:
                total += arr[lo][0] if hi - lo == 1 else sum(map(_value, arr[lo:hi]))
            elif hi - lo < _BLOCK:
                total += sum(vals[lo:hi])
            else:
                total += st.prefix(hi) - st.prefix(lo)
        return total

    def min_index(self) -> int:
        arr = self.store.arr
        if type(arr) is Positions:  # every index is its position
            return min(lo for _, lo, _ in self.runs)
        return min(min(map(_index, arr[lo:hi])) for _, lo, hi in self.runs)


def _range(store: Store, level: int, lo: int, hi: int) -> LeafSlice:
    return LeafSlice(store, ((level, lo, hi),) if lo < hi else (), hi - lo)


def _union(store: Store, parts: Iterable[LeafSlice], level=None, lo=0, hi=0) -> LeafSlice:
    """Union of slices of adjacent rank runs, plus the leaves ``arr[lo:hi]``
    at `level`, above every level the parts hold.  Ranges of adjacent rank
    runs at one level are adjacent, so sorted by level and then position,
    each level's ranges chain into one."""
    n = hi - lo
    only = None
    triples: list[tuple[int, int, int]] = []
    for part in parts:
        if part.n:
            only = None if n else part
            n += part.n
            triples += part.runs
    if only is not None:
        return only  # slices are never mutated, so one part can be shared
    runs = []
    for t in sorted(triples):
        if runs and runs[-1][0] == t[0]:
            runs[-1] = (t[0], runs[-1][1], t[2])
        else:
            runs.append(t)
    if lo < hi:
        runs.append((level, lo, hi))
    return LeafSlice(store, tuple(runs), n)


def _below(sl: LeafSlice, level: int) -> LeafSlice:
    runs = sl.runs
    if not runs or runs[-1][0] < level:
        return sl
    top, lo, hi = runs[-1]
    if top > level:
        raise InvalidAssignmentError(f"slice holds weights above level {level}")
    return LeafSlice(sl.store, runs[:-1], sl.n - (hi - lo))


def _leaf_select(store: Store, lo: int, hi: int, t: int, cnt) -> int:
    """The position of the t-th smallest weight of ``arr[lo:hi]``, which
    is left at ``lo + t - 1`` with the smaller ones before it and the
    larger after; a presorted store makes no item for it.

    An unsorted store selects only within the piece of the window between
    the nearest known cuts around that position, and rewrites the piece
    in the order `select_rank` returns, which keeps the weights before
    every earlier boundary inside the piece before it, so every range
    handed out keeps its weights.  It then records the cuts on both sides
    of the weight; a piece of one weight is answered with no comparison.
    The window is a rank range of its run, so the piece is too, and the
    weight and its position are those a selection over the whole window
    gives.
    """
    if not 1 <= t <= hi - lo:
        raise ValueError(f"rank {t} out of range 1..{hi - lo}")
    arr = store.arr
    p = lo + t - 1
    if store.vals is not None or hi - lo == 1:
        return p
    cuts = store.cuts
    # the nearest cuts at or below p and above it, clamped to the window;
    # cuts[i:j] are those in [a, b], to be replaced
    i = j = bisect_right(cuts, p)
    a, b = lo, hi
    if i and cuts[i - 1] >= lo:
        i -= 1
        a = cuts[i]
    if j < len(cuts) and cuts[j] <= hi:
        b = cuts[j]
        j += 1
    if b - a == 1:
        store.cut_hits += 1
        return p
    item, lows, highs = select_rank(arr[a:b], p - a + 1, cnt)
    arr[a:b] = [*lows, item, *highs]
    cuts[i:j] = sorted({a, p, p + 1, b})
    return p


def node_count(level: int, sl: LeafSlice) -> int:
    """Number of nodes at `level` implied by the slice, by pure arithmetic."""
    runs = sl.runs
    if not runs:
        return 0
    m = 0
    prev = runs[0][0]
    for lv, lo, hi in runs:
        gap = lv - prev
        if m & ((1 << gap) - 1):
            raise InvalidAssignmentError("slice does not fold into whole nodes")
        m = (m >> gap) + hi - lo
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
    st = sl.store
    top, lo0, hi0 = sl.runs[-1]
    if top != level:
        lo0 = hi0 = 0
    elif len(sl.runs) == 1:
        # leaves only: the lower median, without narrowing to s1, or the
        # leaf of rank s1
        t = s1 if rank else (sl.n + 1) // 2
        at = _leaf_select(st, lo0, hi0, t, cnt)
        if rank:
            return t, None, _range(st, level, lo0, at + 1), _range(st, level, at + 1, hi0)
        return (t, _range(st, level, at, at + 1), _range(st, level, lo0, at),
                _range(st, level, at + 1, hi0))
    wbelow = _below(sl, level)
    # the leaf window is arr[wlo:whi]; the leaves before it rank below the
    # node, those after it above
    wlo, whi = lo0, hi0

    s2 = (nodes if rank else sl.n) - s1 - 1
    q = nodes - (hi0 - lo0) if rank else 0  # rank split: nodes in the internal window
    # internal-window parts found to rank below / above the node
    lower: list[LeafSlice] = []
    upper: list[LeafSlice] = []
    pos = 1
    at = chi = None  # the probes; None once their window has changed
    while True:
        nleaf = whi - wlo
        if rank and (s1 == 0 or not wbelow.n or not nleaf):
            break  # a rank split ends without narrowing; see below
        if nleaf and at is None:
            at = _leaf_select(st, wlo, whi, (nleaf + 1) // 2, cnt)
            mid = st.arr[at][0] if st.vals is None else st.vals[at]
            nlo, nhi = at - wlo, whi - at - 1
        if wbelow.n and chi is None:
            p, chi, p1, p2 = _fsi(level, wbelow, cnt)
            chi_val = chi.total_value()
            c1, c, c2 = (p - 1, 1, q - p) if rank else (p1.n, chi.n, p2.n)
        if nleaf and wbelow.n:
            # one counted comparison; a value tie falls back to the
            # smallest original index
            cnt.count += 1
            if mid != chi_val:
                above = mid > chi_val
            else:
                # a positional store's index is the position
                above = (at if type(st.arr) is Positions else st.arr[at][1]) > chi.min_index()
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
            s2 -= 1 + nhi
            whi, at = at, None
        elif leaf_moves:
            s1 -= nlo + 1
            pos += nlo + 1
            wlo, at = at + 1, None
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

    # close the leaf window: the leaves in arr[lo0:wlo] rank below the node,
    # those in arr[whi:hi0] above it, and a leaf node is arr[wlo:whi]
    if not rank:
        if whi > wlo:
            pos += nlo
            chi = _range(st, level, at, at + 1)
            wlo, whi = at, at + 1
        else:
            lower.append(p1)
            upper.append(p2)
            pos += p - 1
    elif s1 == 0:
        upper.append(wbelow)
        whi = wlo
    elif not wbelow.n:
        # leaves only: select rank s1 directly, with no median first
        _leaf_select(st, wlo, whi, s1, cnt)
        wlo = whi = wlo + s1
    else:
        # internal nodes only: each is 2^gap nodes one leaf level down
        h = wbelow.runs[-1][0]
        gap = level - h
        first, rest = _rank_split(h, wbelow, s1 << gap, cnt, q << gap)
        lower.append(first)
        upper.append(rest)
    return pos, chi, _union(st, lower, level, lo0, wlo), _union(st, upper, level, whi, hi0)


def _fsa(level: int, sl: LeafSlice, cnt: ComparisonCounter):
    """Splitting node among all nodes at `level`; (pos, chi, lower, upper)."""
    return _locate(level, sl, sl.n // 2, None, cnt)


def _fsi(level: int, sl: LeafSlice, cnt: ComparisonCounter):
    """Splitting node of the internal nodes at `level`, whose leaves are `sl`.

    Locates the splitting node one leaf level down, then widens it to the
    enclosing whole internal node: the largest `off` nodes below and the
    smallest `span - off - 1` nodes above join the chosen one.

    This is the query the recursion ``_locate -> _fsi -> _fsa -> _locate``
    repeats, so its results are memoized for the store's lifetime, keyed
    by the context level and the slice's tuple of ranges.

    A slice of one run ``(h, lo, hi)`` of n leaves has the closed form:
    with alpha = (n + 1) // 2, the node of rank ceil(alpha / span) is
    ``[a, a + span)`` for ``a = lo + alpha - 1 - (alpha - 1) % span``.  The
    search selects rank alpha of the run, then rank ``a - lo`` below it and
    rank ``a + span - at - 1`` above it, where the widening cuts inside the
    run; the closed form makes the same selections.
    """
    runs = sl.runs
    if not runs:
        raise ValueError("empty slice")
    h = runs[-1][0]
    if h >= level:
        raise InvalidAssignmentError(f"slice holds weights at or above level {level}")
    st = sl.store
    key = (level, runs)
    out = st.memo.get(key)
    if out is not None:
        st.hits += 1
        return out
    span = 1 << (level - h)
    if len(runs) == 1:
        _, lo, hi = runs[0]
        alpha = (hi - lo + 1) // 2
        a = lo + alpha - 1 - ((alpha - 1) & (span - 1))
        if a + span <= hi:
            at = lo + alpha - 1
            if st.vals is None:  # a presorted run is in rank order already
                _leaf_select(st, lo, hi, alpha, cnt)
                if lo < a < at:
                    _leaf_select(st, lo, at, a - lo, cnt)
                if at + 1 < a + span < hi:
                    _leaf_select(st, at + 1, hi, a + span - at - 1, cnt)
            out = st.memo[key] = (-(-alpha // span), _range(st, h, a, a + span),
                                  _range(st, h, lo, a), _range(st, h, a + span, hi))
            return out
    alpha, chi, o1, o2 = _fsa(h, sl, cnt)
    off = (alpha - 1) & (span - 1)
    parts = [chi]
    if off:  # o1 holds the alpha - 1 nodes before the chosen one
        o1, below = _rank_split(h, o1, alpha - 1 - off, cnt, alpha - 1)
        parts.append(below)
    rest = span - off - 1
    if rest:
        above, o2 = _rank_split(h, o2, rest, cnt)
        parts.append(above)
    if len(parts) > 1:
        chi = _union(st, parts)
    out = st.memo[key] = (-(-alpha // span), chi, o1, o2)
    return out


def _rank_split(level: int, sl: LeafSlice, t: int, cnt: ComparisonCounter,
                nodes: int | None = None):
    """Split the slice's nodes at `level` after the t-th smallest rank;
    `nodes`, if the caller knows it, is the slice's node count there.  A
    slice of one run ``(h, lo, hi)`` is cut in closed form, at ``cut = lo +
    (t << (level - h))``, after the one selection the search makes, of rank
    ``cut - lo`` in the run."""
    if t == 0:
        return LeafSlice(sl.store, (), 0), sl
    total = node_count(level, sl) if nodes is None else nodes
    if t == total:
        return sl, LeafSlice(sl.store, (), 0)
    if not 0 < t < total:
        raise ValueError(f"rank {t} out of range 1..{total}")
    st = sl.store
    if len(sl.runs) == 1 and sl.runs[0][0] <= level:
        h, lo, hi = sl.runs[0]
        cut = lo + (t << (level - h))
        if cut <= hi:
            if st.vals is None:
                _leaf_select(st, lo, hi, cut - lo, cnt)
            return _range(st, h, lo, cut), _range(st, h, cut, hi)
    _, _, first, rest = _locate(level, sl, t, total, cnt)
    return first, rest
