import copy
import gc
import hashlib
import pickle
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from mrcode import (CodeLengthProfile, ComparisonCounter, ConstructionMode,
                    WeightItem, WeightList, code_cost, construct_lengths,
                    distinct_length_count, huffman_lengths, kraft_sum,
                    monotone, node_count, verify_exclusion)
from mrcode import construct, core, generators, split
from mrcode.construct import PendingPool
from oracles import WORKED_COST, WORKED_LENGTH_COUNTS, WORKED_VALUES, slice_from_levels

DETAILED = ConstructionMode("detailed")
BASIC = ConstructionMode("basic")


def worked_weights():
    return WeightList.from_values(WORKED_VALUES)


def snapshot_runs(values):
    """(weights, snapshots, stats) for both drivers, on the input as given
    and on its sorted copy.  Snapshots are taken after level 0, after every
    pass and after the terminal adjustment."""
    w = WeightList.from_values(values)
    for weights in (w, w.sorted_copy()):
        for mode in (DETAILED, BASIC):
            snaps = []
            _, stats = construct_lengths(weights, mode, iteration_hook=snaps.append)
            yield weights, snaps, stats


def values_at(snap, level):
    return sorted(it.value for it in snap.get(level, ()))


def pool_values(weights, snap):
    """Values of the weights that the snapshot has not assigned yet."""
    assigned = {it.index for items in snap.values() for it in items}
    return sorted(it.value for it in weights.items if it.index not in assigned)


# ----------------------------------------------------------- level-0 seeding

def test_assign_level0_worked_example():
    for w, snaps, stats in snapshot_runs(WORKED_VALUES):
        assert stats.trace[0] == (0, 20, 0)
        assert values_at(snaps[0], 0) == [2] * 10 + [3] * 10
        assert len(pool_values(w, snaps[0])) == 10


def test_assign_level0_pair_only():
    for w, snaps, stats in snapshot_runs([5, 5]):
        assert stats.trace[0] == (0, 2, 0)
        assert len(snaps[0][0]) == 2 and pool_values(w, snaps[0]) == []


def test_assign_level0_strict_threshold():
    # bound is 3; the 3 stays behind
    for w, snaps, _ in snapshot_runs([1, 2, 3, 100]):
        assert values_at(snaps[0], 0) == [1, 2]
        assert pool_values(w, snaps[0]) == [3, 100]


# ------------------------------------------------------------- node counting

def worked_state_level1():
    w = worked_weights().items
    return {0: w[0:20], 1: w[20:25]}


def worked_state_level2():
    w = worked_weights().items
    return {
        0: list(w[0:10]) + list(w[10:18]),
        1: list(w[18:20]) + list(w[20:25]),
        2: list(w[25:30]),
    }


def test_count_nodes_worked_example():
    w = worked_weights().items
    assert node_count(0, slice_from_levels({0: w[0:20]})) == 20
    assert node_count(1, slice_from_levels(worked_state_level1())) == 15
    assert node_count(2, slice_from_levels(worked_state_level2())) == 13


# --------------------------------------------------------------- next level

def test_compute_next_level_worked_example():
    for _, _, stats in snapshot_runs(WORKED_VALUES):
        assert stats.trace[1].level == 1


def test_compute_next_level_skips_to_log_n():
    # the three-length family jumps from level 1 straight to level lg(n)
    from mrcode.generators import example41
    n = 16
    values = example41(n, seed=3)
    w = WeightList.from_values(values)
    _, stats = construct_lengths(w, DETAILED)
    assert [entry.level for entry in stats.trace[:-1]] == [0, 1, 4]


def test_equal_weights_never_reach_the_search():
    # a power-of-two block of equal weights terminates at level 0
    w = WeightList.from_values([3] * 8)
    profile, stats = construct_lengths(w, DETAILED)
    assert set(profile.lengths) == {3}
    assert stats.iterations == 1


# ------------------------------------------------------------- Kraft fix-ups

def test_maintain_kraft_worked_example_parity():
    # level 1 holds 15 nodes before the pass to level 2: one subtree, the
    # pair of 3s, moves up
    for _, snaps, stats in snapshot_runs(WORKED_VALUES):
        assert values_at(snaps[1], 1) == [5] * 5 and len(snaps[1][0]) == 20
        assert stats.trace[2].moved == 1
        assert values_at(snaps[2], 1) == [3, 3, 5, 5, 5, 5, 5]
        assert len(snaps[2][0]) == 18


def test_maintain_kraft_terminal_power_of_two():
    for _, snaps, stats in snapshot_runs(WORKED_VALUES):
        before = {lv: values_at(snaps[-2], lv) for lv in snaps[-2]}
        assert before == {lv: sorted(it.value for it in items)
                          for lv, items in worked_state_level2().items()}
        assert len(stats.trace) == 4 and stats.trace[-1] == (2, 0, 3)
        assert values_at(snaps[-1], 0) == [2] * 10
        assert values_at(snaps[-1], 1) == [3] * 10 + [5] * 3
        assert values_at(snaps[-1], 2) == [5, 5, 9, 9, 9, 9, 9]


def test_maintain_kraft_noop_when_count_divides():
    # four leaves at level 0 and one weight left: span 4 divides 4
    for _, snaps, stats in snapshot_runs([1, 1, 1, 1, 9]):
        assert len(snaps[0][0]) == 4
        assert stats.trace[1] == (2, 1, 0)
        assert all(snap[0] == snaps[0][0] for snap in snaps[:-1])


# ------------------------------------------------------- four-candidate rule

def test_assign_weights_worked_level1():
    for _, snaps, stats in snapshot_runs(WORKED_VALUES):
        assert stats.trace[1] == (1, 5, 0)
        assert values_at(snaps[1], 1) == [5] * 5


def test_assign_weights_worked_level2():
    for _, snaps, stats in snapshot_runs(WORKED_VALUES):
        assert (stats.trace[2].level, stats.trace[2].assigned) == (2, 5)
        assert values_at(snaps[2], 2) == [9] * 5


def test_assign_weights_pool_pair_rule():
    # both internal candidates exceed the pool pair, so the pair's own sum
    # admits at least the two pool weights
    for _, snaps, stats in snapshot_runs([40, 41, 1, 2, 100]):
        assert len(snaps[0][0]) == 2
        first = stats.trace[1]
        assert first.assigned >= 2
        # the snapshot of the pass that made this assignment
        snap = next(sn for sn in snaps if sum(map(len, sn.values())) > 2)
        assert set(values_at(snap, first.level)) >= {40, 41}


# -------------------------------------------------------------- full driver

def test_worked_example_detailed_exact():
    profile, stats = construct_lengths(worked_weights(), DETAILED)
    assert profile.lengths == tuple([6] * 10 + [5] * 10 + [5, 5, 5, 4, 4] + [4] * 5)
    assert stats.iterations == 3
    assert stats.distinct_lengths == 3
    assert [tuple(e) for e in stats.trace] == [(0, 20, 0), (1, 5, 0),
                                               (2, 5, 1), (2, 0, 3)]


def test_worked_example_basic_matches():
    profile, stats = construct_lengths(worked_weights(), BASIC)
    counts = {l: profile.lengths.count(l) for l in set(profile.lengths)}
    assert counts == WORKED_LENGTH_COUNTS
    assert code_cost(worked_weights(), profile) == WORKED_COST
    assert stats.iterations <= 2 * stats.distinct_lengths


def test_exponential_weights():
    w = WeightList.from_values([1, 2, 4, 8, 16])
    for mode in (DETAILED, BASIC):
        profile, _ = construct_lengths(w, mode)
        assert profile.lengths == (4, 4, 3, 2, 1)


def test_equal_weights_power_of_two():
    for p in (1, 2, 3, 5):
        w = WeightList.from_values([7] * (1 << p))
        profile, stats = construct_lengths(w, DETAILED)
        assert set(profile.lengths) == {p}
        assert stats.iterations == 1
        assert stats.distinct_lengths == 1


def test_single_weight_convention():
    from fractions import Fraction
    profile, stats = construct_lengths(WeightList.from_values([42]))
    assert profile.lengths == (1,)
    assert kraft_sum(profile) == Fraction(1, 2)
    assert stats.iterations == 0


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        construct_lengths(WeightList.from_values([]))


def test_comparison_counting_toggle():
    w = WeightList.from_values([3, 1, 2])
    _, stats = construct_lengths(w, DETAILED)
    assert stats.weight_comparisons > 0


@pytest.mark.parametrize("algo, presorted, expected", [
    ("detailed", False, 201), ("detailed", True, 68),
    ("basic", False, 212), ("basic", True, 55),
])
def test_worked_example_comparison_counts(algo, presorted, expected):
    # exact counts: a change that lowers them updates these pins and
    # records the old and new numbers in CHANGES.md
    w = worked_weights()
    if presorted:
        w = w.sorted_copy()
    _, stats = construct_lengths(w, ConstructionMode(algo))
    assert stats.weight_comparisons == expected


# presorted example41 at k = 3: generator n, weights N and the exact count
_EXAMPLE41_SORTED = [(256, 386, 86), (1024, 1538, 106), (4096, 6146, 125),
                     (16384, 24578, 146), (65536, 98306, 166)]


def _example41_sorted_count(n):
    w = WeightList.from_values(sorted(generators.example41(n, 0)), sorted_flag=True)
    _, stats = construct_lengths(w, DETAILED)
    return len(w), stats.weight_comparisons


@pytest.mark.parametrize("n, size, expected", [
    pytest.param(*cell, id=f"{cell[0]}-{cell[2]}") for cell in _EXAMPLE41_SORTED])
def test_example41_sorted_comparison_counts(n, size, expected):
    assert _example41_sorted_count(n) == (size, expected)


def test_example41_sorted_counts_grow_by_steps():
    # the paper's presorted bound at fixed k is polylogarithmic in N, and
    # so far below linear; each 4x step in N adds 19 to 21 comparisons
    # here, and may add at most 24
    counts = [_example41_sorted_count(n)[1] for n, _, _ in _EXAMPLE41_SORTED]
    assert all(0 < b - a <= 24 for a, b in zip(counts, counts[1:]))


def test_presorted_example41_answers_sorted_runs_by_position(monkeypatch):
    # on one sorted run of leaves the split queries and the next-level
    # descent are position arithmetic, and the general search is left to
    # the few slices that span levels; without the closed forms this input
    # runs `_locate` 116 times and the driver's `_fsa` 33 times
    w = WeightList.from_values(sorted(generators.example41(65536, 0)), sorted_flag=True)
    calls = {"locate": 0, "fsa": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(split, "_locate", counted("locate", split._locate))
    monkeypatch.setattr(construct, "_fsa", counted("fsa", construct._fsa))
    _, stats = construct_lengths(w, DETAILED)
    assert (stats.weight_comparisons, stats.cache_hits) == (166, 4)
    assert calls["locate"] <= 8 and calls["fsa"] <= 8


def _next_level_by_engine(top, levels, pool):
    """The next-level descent by the engine's `_fsa` on every window."""
    cnt = pool.cnt
    window, remaining, absorbed = levels.slice(), pool.min_item()[0], 0
    while window.n:
        alpha, chi, o1, o2 = split._fsa(top, window, cnt)
        prefix_value = o1.total_value() + chi.total_value()
        cnt.count += 1
        if prefix_value <= remaining:
            remaining -= prefix_value
            absorbed += alpha
            window = o2
        else:
            window = o1
    return top + (absorbed.bit_length() - 1)


def test_next_level_on_one_sorted_run_matches_the_engine():
    # with every assigned weight on one presorted level, the next-level
    # search halves positions instead of calling `_fsa`; it must give the
    # engine's level with the engine's count, across block boundaries and
    # with heavy ties
    rng = random.Random(2407)
    for _ in range(300):
        placed = rng.randint(2, 3 * split._BLOCK)
        vmax = rng.choice([1, 2, 3, 10**6])
        values = sorted(rng.randint(1, vmax) for _ in range(placed))
        # the smallest unplaced weight absorbs from two up to all of them
        values.append(rng.randint(max(values[0] + values[1], values[-1]), sum(values)))
        top = rng.randint(0, 3)
        results = []
        for next_level in (construct._compute_next_level, _next_level_by_engine):
            w = WeightList.from_values(values, sorted_flag=True)
            pool = PendingPool(split.Positions(w._vals), w._vals, ComparisonCounter())
            levels = construct._Levels(pool, core._block_totals(w._vals))
            levels.add(top, placed)
            pool.cur = placed
            results.append((next_level(top, levels, pool), pool.cnt.count))
        assert results[0] == results[1]


def test_sorted_two_element_comparison_budget():
    w = WeightList.from_values([3, 5], sorted_flag=True)
    _, stats = construct_lengths(w, DETAILED)
    assert stats.weight_comparisons <= 3


def test_unsorted_scan_comparisons_floor():
    n = 64
    w = WeightList.from_values([5] * n)
    _, stats = construct_lengths(w, DETAILED)
    assert stats.weight_comparisons >= n - 2


# ---------------------------------------------------------------- invariants

def _random_values(rng, n_max=40, v_max=50):
    return [rng.randint(1, v_max) for _ in range(rng.randint(2, n_max))]


def test_modes_agree_on_cost_and_kraft():
    rng = random.Random(61)
    for _ in range(400):
        values = _random_values(rng)
        w = WeightList.from_values(values)
        pd, _ = construct_lengths(w, DETAILED)
        pb, _ = construct_lengths(w, BASIC)
        assert kraft_sum(pd) == 1 and kraft_sum(pb) == 1
        assert code_cost(w, pd) == code_cost(w, pb)


def test_sorted_and_unsorted_agree_on_cost():
    rng = random.Random(62)
    for _ in range(300):
        values = _random_values(rng)
        w = WeightList.from_values(values)
        ws = w.sorted_copy()
        pu, _ = construct_lengths(w, DETAILED)
        ps, stats = construct_lengths(ws, DETAILED)
        assert code_cost(w, pu) == code_cost(ws, ps)
        assert stats.iterations <= 2 * stats.distinct_lengths


def test_presorted_lists_whose_indices_are_not_positions():
    # sorting the items keeps each weight's input index, so positions and
    # indices differ; the strict (value, index) order, and with it every
    # tie-break, is that of the unsorted input, so the lengths, the
    # iterations and the trace must be the unsorted construction's.  The
    # lists of 300 to 700 weights span several of the store's blocks, and
    # two-cluster's near-tied sums turn a wrong block sum into a wrong
    # answer.  The sorted copy, whose indices are positions, writes its
    # lengths run by run; its items shuffled, unsorted, must give the same
    # lengths, iterations and trace
    rng = random.Random(64)
    lists = [_random_values(rng, n_max=120, v_max=rng.choice([2, 3, 6])) for _ in range(150)]
    lists += [[rng.randint(1, v_max) for _ in range(n)] for n, v_max in ((300, 3), (700, 10**6))]
    lists.append(generators.generate("two-cluster", 512, 0))
    for values in lists:
        w = WeightList.from_values(values)
        p = WeightList(tuple(sorted(w.items)), sorted_flag=True)
        c = w.sorted_copy()
        shuffled = WeightList(tuple(rng.sample(c.items, len(c))))
        best = code_cost(w, huffman_lengths(w))
        for mode in (DETAILED, BASIC):
            pu, su = construct_lengths(w, mode)
            pp, sp = construct_lengths(p, mode)
            assert pp.lengths == pu.lengths
            assert (sp.iterations, sp.trace) == (su.iterations, su.trace)
            assert code_cost(p, pp) == best
            pc, sc = construct_lengths(c, mode)
            ps, ss = construct_lengths(shuffled, mode)
            assert pc.lengths == ps.lengths
            assert (sc.iterations, sc.trace) == (ss.iterations, ss.trace)


def _identity_lists():
    """The 100 random lists, with heavy ties, of the identity corpus."""
    rng = random.Random(67)
    for _ in range(100):
        yield _random_values(rng, n_max=80, v_max=rng.choice([2, 3, 6, 20]))


def _as_kind(values, kind):
    """The weights as given, as their sorted copy, or as a presorted list
    whose indices are not positions."""
    w = WeightList.from_values(values)
    if kind == "sorted":
        return w.sorted_copy()
    if kind == "nonpositional":
        return WeightList(tuple(sorted(w.items)), sorted_flag=True)
    return w


_IDENTITY_DIGEST = {
    "unsorted": "a8d74e097b00e96b73ea13ad22c99310f15b3be0f293278c1fa8cd305470a69b",
    "sorted": "04e1d1d851aff817101647c109bb443e9516071f4c0c98f836ff4e42fd5e1424",
    "nonpositional": "a8d74e097b00e96b73ea13ad22c99310f15b3be0f293278c1fa8cd305470a69b",
}

_IDENTITY_COMPARISONS = {
    ("detailed", "unsorted"): 38756, ("detailed", "sorted"): 6711,
    ("detailed", "nonpositional"): 7199,
    ("basic", "unsorted"): 38176, ("basic", "sorted"): 5280,
    ("basic", "nonpositional"): 5674,
}

# total (cache_hits, cut_hits) per (algo, kind): a memo key that answers
# other queries than before changes the hits
_IDENTITY_HITS = {
    ("detailed", "unsorted"): (1216, 2030), ("detailed", "sorted"): (1213, 0),
    ("detailed", "nonpositional"): (1216, 0),
    ("basic", "unsorted"): (779, 1263), ("basic", "sorted"): (761, 0),
    ("basic", "nonpositional"): (779, 0),
}


@pytest.mark.parametrize("algo, kind", sorted(_IDENTITY_COMPARISONS))
def test_identity_corpus(algo, kind, monkeypatch):
    # 100 random lists with heavy ties, each as given, as its sorted copy
    # and as a presorted list whose indices are not positions.  Profiles,
    # iterations and traces never change: the digest pins them.  It does
    # not depend on the driver, and the non-positional list builds what
    # the input builds.  The comparison totals are exact; a change that
    # lowers them updates these pins and records the old and new numbers
    # in CHANGES.md.  So are the memo and cut hits.  `_fsa` and `_fsi`
    # answer a slice of one run by `split._run_node`, so the general search
    # never sees a slice whose only run is at the query level
    real_locate = split._locate
    locate_calls = 0

    def watched_locate(level, sl, *args):
        nonlocal locate_calls
        locate_calls += 1
        assert not (len(sl.runs) == 1 and sl.runs[0][0] == level), (level, sl.runs)
        return real_locate(level, sl, *args)

    monkeypatch.setattr(split, "_locate", watched_locate)
    digest = hashlib.sha256()
    total = cache_hits = cut_hits = 0
    for values in _identity_lists():
        profile, stats = construct_lengths(_as_kind(values, kind), ConstructionMode(algo))
        digest.update(repr((profile.lengths, stats.iterations,
                            [tuple(e) for e in stats.trace])).encode())
        total += stats.weight_comparisons
        cache_hits += stats.cache_hits
        cut_hits += stats.cut_hits
        assert stats.distinct_lengths == distinct_length_count(profile)
    assert digest.hexdigest() == _IDENTITY_DIGEST[kind]
    assert total == _IDENTITY_COMPARISONS[algo, kind]
    assert (cache_hits, cut_hits) == _IDENTITY_HITS[algo, kind]
    assert locate_calls > 0


def _fibonacci_92():
    """The first 92 Fibonacci numbers (the last below 2^63), shuffled."""
    fib = [1, 1]
    while len(fib) < 92:
        fib.append(fib[-1] + fib[-2])
    random.Random(92).shuffle(fib)
    return fib


def _memo_corpus():
    yield from _identity_lists()
    for family, n in (("geometric", 1024), ("uniform", 1024), ("two-cluster", 256),
                      ("exponential", 62)):
        yield generators.generate(family, n, 0)
    yield _fibonacci_92()


def test_memo_never_answers_from_changed_ranges(monkeypatch):
    # the internal-split memo lives for the whole construction, across
    # assignments and Kraft moves; on every hit, the queried ranges and
    # every range of the cached result must hold, level by level, the
    # weights they held when the entry was stored
    real = split._fsi
    stored = {}  # id of a result tuple -> (the tuple, what it saw when stored)
    hits = 0

    def weights_by_level(sl):
        arr = sl.store.arr
        return {lv: frozenset(arr[lo:hi]) for lv, lo, hi in sl.runs}

    def checked_fsi(level, sl, cnt):
        nonlocal hits
        out = real(level, sl, cnt)
        seen = (level, [weights_by_level(x) for x in (sl, *out[1:])])
        if id(out) in stored:  # a tuple handed out before: a memo hit
            hits += 1
            assert seen == stored[id(out)][1], f"stale memo entry at level {level}"
        else:
            stored[id(out)] = out, seen
        return out

    monkeypatch.setattr(split, "_fsi", checked_fsi)
    for values in _memo_corpus():
        for kind in ("unsorted", "sorted", "nonpositional"):
            weights = _as_kind(values, kind)
            best = code_cost(weights, huffman_lengths(weights))
            for mode in (DETAILED, BASIC):
                stored.clear()  # one store per construction
                profile, _ = construct_lengths(weights, mode)
                assert code_cost(weights, profile) == best
    assert hits > 0


def test_runs_grow_at_their_ends_in_rank_order(monkeypatch):
    # why the memo stays valid: an assignment appends weights that rank
    # above the level's leaves, and a Kraft move hands the next level, at
    # its low end, weights that rank below its leaves; so every boundary
    # handed out stays a rank boundary of its run, which selections keep
    add, apply_move = construct._Levels.add, construct._Levels.apply_move
    joins = 0

    def checked_add(self, level, count):
        nonlocal joins
        if count and level in self.runs:
            lo, hi = self.runs[level]
            assert max(self.arr[lo:hi]) < min(self.arr[hi:hi + count])
            joins += 1
        add(self, level, count)

    def checked_move(self, moved):
        nonlocal joins
        for lv, cut, end in moved.runs:
            if lv + 1 in self.runs:
                lo, hi = self.runs[lv + 1]
                assert max(self.arr[cut:end]) < min(self.arr[lo:hi])
                joins += 1
        apply_move(self, moved)

    monkeypatch.setattr(construct._Levels, "add", checked_add)
    monkeypatch.setattr(construct._Levels, "apply_move", checked_move)
    for values in _memo_corpus():
        for kind in ("unsorted", "sorted", "nonpositional"):
            for mode in (DETAILED, BASIC):
                construct_lengths(_as_kind(values, kind), mode)
    assert joins > 0


def test_values_in_and_items_built_lists_construct_alike():
    # a presorted construction reads a from_values list's ints and makes
    # items only when it hands them out; the list built from the same
    # items must give the same lengths, counts, trace and hook snapshots
    # (compared in the detailed mode only: basic takes one snapshot per
    # level, each of all 98 306 weights)
    values = sorted(generators.example41(65536, 0))
    built = WeightList(tuple(WeightList.from_values(values).items), sorted_flag=True)
    for mode in (DETAILED, BASIC):
        snaps = []  # the items-built list's snapshots share its items
        hook = snaps.append if mode is DETAILED else None
        expected = construct_lengths(built, mode, iteration_hook=hook)
        seen = iter(snaps)

        def check(snap):
            assert snap == next(seen)

        got = construct_lengths(WeightList.from_values(values, sorted_flag=True), mode,
                                iteration_hook=hook and check)
        assert got == expected and next(seen, None) is None
        assert len(got[0]) == 98306 and (hook is None or len(snaps) > 2)


def test_no_store_outlives_its_construction():
    # cached slices point back at their store; the memo is cleared when a
    # construction returns, so no store waits for the cycle collector.
    # Each input is constructed twice: the block totals a presorted list
    # keeps from its first construction hold no store either
    inputs = [WeightList.from_values(sorted(generators.example41(65536, 0)), sorted_flag=True),
              WeightList.from_values(generators.generate("geometric", 256, 0))]
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, split.Store)}
    gc.disable()
    try:
        for w in inputs:
            for _ in range(2):
                _, stats = construct_lengths(w, DETAILED)
                assert stats.cache_hits > 0
        left = [o for o in gc.get_objects()
                if isinstance(o, split.Store) and id(o) not in before]
    finally:
        gc.enable()
    assert not left


def test_presorted_list_keeps_its_block_totals(monkeypatch):
    # a presorted list makes its block totals on its first construction
    # and reads them on every later one, which gives what a fresh list
    # gives; on example41-65536 and on a list of a whole number of blocks,
    # whose near-tied sums turn a wrong total into a wrong answer
    built = []
    real = core._block_totals
    monkeypatch.setattr(core, "_block_totals", lambda vals: built.append(len(vals)) or real(vals))
    for values in (sorted(generators.example41(65536, 0)),
                   sorted(generators.generate("two-cluster", 8 * split._BLOCK, 0))):
        for mode in (DETAILED, BASIC):
            expected = construct_lengths(WeightList.from_values(values, sorted_flag=True), mode)
            built.clear()
            w = WeightList.from_values(values, sorted_flag=True)
            for _ in range(3):
                assert construct_lengths(w, mode) == expected
            assert built == [len(values)]


def test_copied_lists_construct_alike():
    # a copy or a pickle of a presorted list, made before or after its
    # first construction, constructs alike and compares alike
    values = sorted(generators.example41(4096, 0))
    used = WeightList.from_values(values, sorted_flag=True)
    expected = construct_lengths(used, DETAILED)
    for w in (used, WeightList.from_values(values, sorted_flag=True)):
        for c in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert c == w and hash(c) == hash(w) and repr(c) == repr(w)
            assert construct_lengths(c, DETAILED) == expected
            assert c._psum == used._psum


def test_block_totals_stay_outside_equality():
    # the totals are made only for presorted constructions, equal for
    # both constructors, and change no list's equality, hash or repr
    values = sorted(generators.example41(1024, 0))
    kept = WeightList.from_values(values, sorted_flag=True)
    fresh = WeightList.from_values(values, sorted_flag=True)
    before = hash(kept), repr(kept)
    construct_lengths(kept, DETAILED)
    assert "_psum" in vars(kept) and "_psum" not in vars(fresh)
    assert kept == fresh and (hash(kept), repr(kept)) == before == (hash(fresh), repr(fresh))
    items_built = WeightList(tuple(fresh.items), sorted_flag=True)
    block = split._BLOCK
    assert items_built._psum == fresh._psum == kept._psum == \
        tuple(sum(values[:b * block]) for b in range(-(-len(values) // block) + 1))
    for w in (WeightList.from_values(values), WeightList(tuple(fresh.items))):
        for mode in (DETAILED, BASIC):
            construct_lengths(w, mode)
        assert "_psum" not in vars(w)


@pytest.mark.parametrize("label, algo, expected", [
    pytest.param("fibonacci-92", "detailed", 9583, id="fibonacci-92-detailed"),
    pytest.param("fibonacci-92", "basic", 9230, id="fibonacci-92-basic"),
    pytest.param("exponential-62", "detailed", 4080, id="exponential-62-detailed"),
    pytest.param("exponential-62", "basic", 3842, id="exponential-62-basic"),
])
def test_high_k_inputs(label, algo, expected):
    # one leaf per level: k is n - 1, every pass adds a level, and the
    # memo answers across passes.  The counts are exact; a change that
    # lowers them updates these pins and records the old and new numbers
    # in CHANGES.md
    values = _fibonacci_92() if label == "fibonacci-92" else generators.exponential(62)
    w = WeightList.from_values(values)
    profile, stats = construct_lengths(w, ConstructionMode(algo))
    assert code_cost(w, profile) == code_cost(w, huffman_lengths(w))
    assert stats.distinct_lengths == len(values) - 1
    assert stats.iterations <= 2 * stats.distinct_lengths
    assert stats.weight_comparisons == expected


@pytest.mark.parametrize("family, n, algo, expected", [
    pytest.param("two-cluster", 256, "detailed", 2251, id="two-cluster-256-detailed"),
    pytest.param("two-cluster", 256, "basic", 4168, id="two-cluster-256-basic"),
    pytest.param("geometric", 1024, "detailed", 34375, id="geometric-1024-detailed"),
    pytest.param("geometric", 1024, "basic", 39786, id="geometric-1024-basic"),
])
def test_unsorted_family_counts(family, n, algo, expected):
    # unsorted counts depend on the order selections leave inside a run's
    # pieces.  The counts are exact; a change that lowers them updates
    # these pins and records the old and new numbers in CHANGES.md
    w = WeightList.from_values(generators.generate(family, n, 0))
    _, stats = construct_lengths(w, ConstructionMode(algo))
    assert stats.weight_comparisons == expected


def _check_cuts(store):
    """Every rank cut inside a level run splits the run into a lower and
    an upper part in (value, index) order."""
    arr, cuts = store.arr, store.cuts
    assert cuts == sorted(set(cuts))
    for lo, hi in store.runs.values():
        inside = cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]
        if inside:
            run = arr[lo:hi]
            below = list(accumulate(run, max))  # below[i]: max of run[:i + 1]
            above = list(accumulate(reversed(run), min))[::-1]  # min of run[i:]
            for c in inside:
                assert below[c - lo - 1] < above[c - lo], f"cut {c} in run {lo}..{hi}"


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cuts_stay_rank_boundaries(data):
    # a cut found by one selection must stay a rank boundary of whichever
    # run holds it, across assignments and Kraft moves, under both drivers;
    # the lists have heavy ties, from both constructors, the second with
    # its indices shuffled
    v_max = data.draw(st.sampled_from([2, 3, 6, 20]))
    n = data.draw(st.integers(2, 200))
    values = data.draw(st.lists(st.integers(1, v_max), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    lists = (WeightList.from_values(values),
             WeightList(tuple(map(WeightItem, values, perm))))
    real = split._leaf_select

    def checked(store, lo, hi, t, cnt):
        item = real(store, lo, hi, t, cnt)
        _check_cuts(store)
        return item

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(split, "_leaf_select", checked)
        for w in lists:
            best = code_cost(w, huffman_lengths(w))
            for mode in (DETAILED, BASIC):
                profile, _ = construct_lengths(w, mode)
                assert code_cost(w, profile) == best


def test_repeat_construction_counts_alike():
    # cuts live on the construction's store, never on the WeightList, so
    # building the same list again gives the same profile and stats
    for values in (WORKED_VALUES, generators.generate("geometric", 256, 0),
                   generators.generate("two-cluster", 128, 1)):
        w = WeightList.from_values(values)
        shuffled = WeightList(tuple(random.Random(3).sample(w.items, len(w))))
        for weights in (w, shuffled):
            for mode in (DETAILED, BASIC):
                first = construct_lengths(weights, mode)
                assert first[1].cut_hits > 0
                assert construct_lengths(weights, mode) == first


def _assign_with_every_index(level, levels, pool):
    """Reference four-candidate assignment: every node key carries its
    smallest index, read by a scan whether or not a value ties."""
    cnt = pool.cnt
    first, rest = construct._rank_split(level, levels.slice(), 1, cnt)
    keys = [(first.total_value(), first.min_index())]
    if rest.n:
        second, _ = construct._rank_split(level, rest, 1, cnt)
        keys.append((second.total_value(), second.min_index()))
    keys += [w for w in pool.two_smallest() if w is not None]
    best, second_key = construct._two_smallest(keys, cnt)
    taken = pool.take_below(best[0] + second_key[0])
    levels.add(level, taken)
    return taken


def test_assignment_reads_indices_only_on_ties(monkeypatch):
    # a node's index only breaks value ties, and a tie decides which
    # comparisons the two-smallest scan makes; so looking indices up only
    # on ties must leave every output and every count as they were
    rng = random.Random(65)
    cases = []
    for _ in range(120):
        w = WeightList.from_values(_random_values(rng, n_max=80, v_max=rng.choice([3, 6, 20])))
        for weights in (w, w.sorted_copy(), WeightList(tuple(sorted(w.items)), sorted_flag=True)):
            for mode in (DETAILED, BASIC):
                cases.append((weights, mode))

    def outcomes():
        out = []
        for weights, mode in cases:
            profile, stats = construct_lengths(weights, mode)
            out.append((profile.lengths, stats.iterations, stats.weight_comparisons, stats.trace))
        return out

    got = outcomes()
    monkeypatch.setattr(construct, "_assign_to_level", _assign_with_every_index)
    assert got == outcomes()


def test_outputs_monotone_and_exclusion_verified():
    rng = random.Random(63)
    for _ in range(200):
        values = _random_values(rng)
        w = WeightList.from_values(values)
        profile, _ = construct_lengths(w, DETAILED)
        assert monotone(w, profile)
        ok, msg = verify_exclusion(w, profile)
        assert ok, msg
        # a presorted construction's run-backed lengths read as their tuple
        ws = WeightList.from_values(sorted(values), sorted_flag=True)
        runs, _ = construct_lengths(ws, DETAILED)
        assert type(runs.lengths) is core.RunLengths
        for check in (code_cost, monotone, verify_exclusion):
            assert check(ws, runs) == check(ws, CodeLengthProfile(tuple(runs.lengths)))
        assert verify_exclusion(ws, runs) == (True, None)
    # run-backed lengths 3 3 2 1 for 1 2 2 2: Kraft sum 1 and monotone, but
    # not optimal, and the pairs of level 0 outweigh a leaf of level 2
    ws = WeightList.from_values([1, 2, 2, 2], sorted_flag=True)
    runs = core.CodeLengthProfile._from_runs(((3, 0, 2), (2, 2, 3), (1, 3, 4)))
    for p in (runs, CodeLengthProfile(tuple(runs.lengths))):
        assert (code_cost(ws, p), monotone(ws, p)) == (15, True)
        assert verify_exclusion(ws, p) == (
            False, "level 2: node value 2 is smaller than value 3 at level 1")


def test_length_class_occupies_two_adjacent_levels():
    # while the construction runs, weights that end with the same length
    # never spread over more than two leaf-bearing levels, and those two are
    # adjacent in the list of populated levels
    rng = random.Random(64)
    for _ in range(120):
        values = _random_values(rng, n_max=32)
        w = WeightList.from_values(values)
        snapshots = []
        profile, _ = construct_lengths(w, DETAILED, iteration_hook=snapshots.append)
        final_len = {i: profile.lengths[i] for i in range(len(values))}
        for snap in snapshots:
            populated = sorted(snap)
            order = {lv: i for i, lv in enumerate(populated)}
            by_class: dict[int, set[int]] = {}
            for lv, items in snap.items():
                assert list(items) == sorted(items)  # hooks see (value, index) order
                for it in items:
                    by_class.setdefault(final_len[it.index], set()).add(lv)
            for levels in by_class.values():
                assert len(levels) <= 2
                if len(levels) == 2:
                    a, b = sorted(levels)
                    assert order[b] - order[a] == 1


def test_presorted_levels_are_runs_of_the_input():
    # exclusion and monotonicity make each level of a presorted construction
    # one run of consecutive input positions, and the runs ascend with the
    # level from position 0: the level state is a list of cut points
    rng = random.Random(66)
    for _ in range(150):
        values = sorted(_random_values(rng, n_max=60, v_max=rng.choice([3, 50, 10**6])))
        w = WeightList.from_values(values, sorted_flag=True)
        for mode in (DETAILED, BASIC):
            snapshots = []
            construct_lengths(w, mode, iteration_hook=snapshots.append)
            for snap in snapshots:
                nxt = 0
                for lv in sorted(snap):
                    positions = [it.index for it in snap[lv]]
                    assert sorted(positions) == list(range(nxt, nxt + len(positions)))
                    nxt += len(positions)


@pytest.mark.parametrize("values,expected", [
    # the remaining weight exactly equals the sum of the two smallest nodes,
    # so the level search must treat the tie as absorbable
    ([1, 1, 2, 100], (3, 3, 2, 1)),
    ([1, 1, 1, 1, 4], (3, 3, 3, 3, 1)),
    # a parity move raises a leaf that then undercuts the internal
    # candidates; the threshold has to see it or the result is suboptimal
    ([2, 2, 2, 2, 2, 7], (4, 4, 3, 3, 3, 1)),
    ([1, 1, 1, 1, 1, 3], (4, 4, 3, 3, 3, 1)),
])
def test_threshold_tie_regressions(values, expected):
    w = WeightList.from_values(values)
    best = code_cost(w, huffman_lengths(w))
    for mode in (DETAILED, BASIC):
        profile, stats = construct_lengths(w, mode)
        assert code_cost(w, profile) == best
        assert kraft_sum(profile) == 1
        assert stats.iterations <= 2 * stats.distinct_lengths
    detailed_profile, _ = construct_lengths(w, DETAILED)
    assert detailed_profile.lengths == expected


def test_iteration_bound_over_random_inputs():
    rng = random.Random(65)
    for _ in range(300):
        values = _random_values(rng)
        w = WeightList.from_values(values)
        for mode in (DETAILED, BASIC):
            _, stats = construct_lengths(w, mode)
            assert stats.iterations <= 2 * stats.distinct_lengths


@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=24))
@settings(max_examples=250, deadline=None)
def test_cost_matches_greedy_oracle(values):
    w = WeightList.from_values(values)
    profile, _ = construct_lengths(w, DETAILED)
    assert kraft_sum(profile) == 1
    assert code_cost(w, profile) == code_cost(w, huffman_lengths(w))


# -------------------------------------------------------------- pending pool

def test_pool_counted_scans():
    # one two-smallest scan serves min_item and two_smallest until
    # take_below assigns a weight
    cnt = ComparisonCounter()
    pool = PendingPool(WeightList.from_values([4, 1, 3, 2]).items, None, cnt)
    assert pool.min_item().value == 1
    assert cnt.count == 5
    a, b = pool.two_smallest()
    assert (a.value, b.value) == (1, 2)
    assert cnt.count == 5
    assert pool.take_below(3) == 2
    assert cnt.count == 9
    assert pool.min_item().value == 3 and cnt.count == 10
    assert sorted(it.value for it in pool.arr[:pool.cur]) == [1, 2]
    assert len(pool) == 2


def test_pool_sorted_cursor_is_cheap():
    cnt = ComparisonCounter()
    w = WeightList.from_values(list(range(1, 101)), sorted_flag=True)
    pool = PendingPool(w.items, [it.value for it in w.items], cnt)
    assert pool.min_item().value == 1
    assert cnt.count == 0
    assert pool.take_below(51) == 50 and len(pool) == 50
    # exponential plus binary search probes stay logarithmic
    assert cnt.count <= 16


def test_presorted_construction_holds_no_length_tuple():
    # presorted example41-65536 hands back its three runs, not a tuple of
    # its 98 306 lengths; the first construction made the block totals
    w = WeightList.from_values(sorted(generators.generate("example41", 65536)),
                               sorted_flag=True)
    first, _ = construct_lengths(w)
    tracemalloc.start()
    try:
        profile, stats = construct_lengths(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert profile == first and stats.weight_comparisons == 166
    assert profile.lengths.runs == ((18, 0, 65536), (17, 65536, 98304), (2, 98304, 98306))


def test_presorted_probes_make_no_items(monkeypatch):
    # the split engine reads a positional probe's value from the list's
    # values and its index from its position; only the pool's two smallest
    # are made as items
    real_get, real_two = split.Positions.__getitem__, PendingPool.two_smallest
    in_pool = []
    stray = []

    def get(self, i):
        if not in_pool:
            stray.append(i)
        return real_get(self, i)

    def two_smallest(self):
        in_pool.append(1)
        try:
            return real_two(self)
        finally:
            in_pool.pop()

    monkeypatch.setattr(split.Positions, "__getitem__", get)
    monkeypatch.setattr(PendingPool, "two_smallest", two_smallest)
    for values in (sorted(generators.generate("example41", 4096)), sorted(WORKED_VALUES),
                   sorted(generators.generate("geometric", 256, 0))):
        for mode in (DETAILED, BASIC):
            w = WeightList.from_values(values, sorted_flag=True)
            assert code_cost(w, construct_lengths(w, mode)[0]) == \
                code_cost(w, huffman_lengths(w))
    assert stray == []
