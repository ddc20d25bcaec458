"""Spans around the layer entry points of mrcode, recorded from outside.

``Tracer`` replaces module and class attributes that the package looks up
at call time with wrappers, and puts the originals back when it is closed.
Each span records its name, start, end, parent span and the comparisons
counted on the ``ComparisonCounter`` the call received.  Spans of one
operation are kept in memory until the operation ends, then folded into
per-name totals: a span's self time is its duration minus the time its
child spans cover, and likewise for comparisons.
"""

from __future__ import annotations

import time

from mrcode import codec, construct, split
from mrcode.core import ComparisonCounter

PHASES = ("level0", "next_level", "kraft", "assign", "finish")
SPLIT_QUERIES = ("fsa", "fsi", "rank_split")

# (owner, attribute, span name).  An attribute a later version of the
# package no longer has is skipped and reported, so its metrics read 0.
TARGETS = (
    (construct, "_assign_level0", "construct.level0"),
    (construct, "_compute_next_level", "construct.next_level"),
    (construct, "_maintain_kraft", "construct.kraft"),
    (construct, "_assign_to_level", "construct.assign"),
    (construct, "_finish", "construct.finish"),
    (getattr(construct, "_Levels", None), "slice", "construct.levels_slice"),
    (getattr(construct, "_Levels", None), "apply_move", "construct.levels_apply_move"),
    (getattr(construct, "PendingPool", None), "min_item", "pool"),
    (getattr(construct, "PendingPool", None), "two_smallest", "pool"),
    (getattr(construct, "PendingPool", None), "take_below", "pool"),
    (construct, "_fsa", "split.fsa"),
    (split, "_fsa", "split.fsa"),
    (split, "_fsi", "split.fsi"),
    (construct, "_rank_split", "split.rank_split"),
    (split, "_rank_split", "split.rank_split"),
    (construct, "_node_count", "split.node_count"),
    (split, "node_count", "split.node_count"),
    (getattr(split, "LeafSlice", None), "min_index", "split.min_index"),
    (split, "select_rank", "selection.select_rank"),
    (codec, "canonical_codes", "codec.canonical_codes"),
    (codec, "encode", "codec.encode"),
    (codec, "pack_container", "codec.pack"),
    (codec, "unpack_container", "codec.unpack"),
    (codec, "decode", "codec.decode"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
_PHASE_SPANS = frozenset(f"construct.{p}" for p in PHASES)
_SPLIT_SPANS = frozenset(f"split.{q}" for q in SPLIT_QUERIES)


def _counter_of(args) -> ComparisonCounter | None:
    for a in args:
        if isinstance(a, ComparisonCounter):
            return a
        c = getattr(a, "cnt", None)
        if isinstance(c, ComparisonCounter):
            return c
    return None


class Tracer:
    """Install with ``with Tracer() as t:``; read totals with ``t.totals``.

    With ``capture_keys`` set, every ``_fsi`` call also records its
    (level, set of original indices) key, scoped to the innermost driver
    phase; that costs O(slice size) per call, so time from such a pass is
    not used.
    """

    def __init__(self, capture_keys: bool = False):
        self.capture_keys = capture_keys
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        # spans of the current operation: name, start, end, parent, comparisons
        self._name: list[str] = []
        self._t0: list[int] = []
        self._t1: list[int] = []
        self._parent: list[int] = []
        self._cmp: list[int] = []
        self._stack: list[tuple[int, ComparisonCounter | None]] = []
        self._split_depth = 0
        self._key_scopes: list[set] = []
        self.totals: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Zero the totals, keeping the dict the wrappers hold."""
        t = self.totals
        t.clear()
        for name in SPAN_NAMES:
            t[f"{name}.calls"] = 0
            t[f"{name}.self_ns"] = 0
            t[f"{name}.self_cmp"] = 0
        for p in PHASES:
            t[f"construct.{p}.phase_cmp"] = 0
        t["selection.select_rank.items"] = 0
        t["split.max_depth"] = 0
        t["split.fsi_keys"] = 0

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{name} ({attr})")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        names, t0s, t1s, parents, cmps = (self._name, self._t0, self._t1,
                                          self._parent, self._cmp)
        stack = self._stack
        clock = time.perf_counter_ns
        is_phase = name in _PHASE_SPANS
        is_split = name in _SPLIT_SPANS
        is_fsi = name == "split.fsi"
        is_select = name == "selection.select_rank"
        totals = self.totals
        tracer = self

        def wrapper(*args, **kwargs):
            cnt = _counter_of(args)
            if cnt is None and stack:
                cnt = stack[-1][1]
            if is_split:
                tracer._split_depth += 1
                if tracer._split_depth > totals["split.max_depth"]:
                    totals["split.max_depth"] = tracer._split_depth
            if is_phase and tracer.capture_keys:
                tracer._key_scopes.append(set())
            if is_fsi and tracer.capture_keys and tracer._key_scopes:
                sl = args[1]
                tracer._key_scopes[-1].add(
                    (args[0], frozenset(it[1] for it in sl.all_items())))
            if is_select:
                totals["selection.select_rank.items"] += len(args[0])
            i = len(names)
            names.append(name)
            parents.append(stack[-1][0] if stack else -1)
            t0s.append(0)
            t1s.append(0)
            cmps.append(cnt.count if cnt is not None else 0)
            stack.append((i, cnt))
            t0s[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
                cmps[i] = (cnt.count if cnt is not None else 0) - cmps[i]
                if is_split:
                    tracer._split_depth -= 1
                if is_phase and tracer.capture_keys:
                    totals["split.fsi_keys"] += len(tracer._key_scopes.pop())

        wrapper.__wrapped__ = fn
        return wrapper

    def end_op(self) -> None:
        """Fold the spans of the finished operation into the totals."""
        names, t0s, t1s, parents, cmps = (self._name, self._t0, self._t1,
                                          self._parent, self._cmp)
        n = len(names)
        child_ns = [0] * n
        child_cmp = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += t1s[i] - t0s[i]
                child_cmp[p] += cmps[i]
        phase_of = [""] * n
        t = self.totals
        for i in range(n):
            name = names[i]
            p = parents[i]
            phase_of[i] = name if name in _PHASE_SPANS else (phase_of[p] if p >= 0 else "")
            self_cmp = cmps[i] - child_cmp[i]
            t[f"{name}.calls"] += 1
            t[f"{name}.self_ns"] += t1s[i] - t0s[i] - child_ns[i]
            t[f"{name}.self_cmp"] += self_cmp
            if phase_of[i]:
                t[f"{phase_of[i]}.phase_cmp"] += self_cmp
        for lst in (names, t0s, t1s, parents, cmps):
            lst.clear()
