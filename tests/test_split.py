import random
from itertools import accumulate

import pytest

from mrcode import (ComparisonCounter, InvalidAssignmentError, LeafSlice,
                    WeightItem, WeightList, node_count)
from mrcode import split
from mrcode.core import MAX_WEIGHT, _block_totals
from mrcode.split import Store
from oracles import (WORKED_VALUES, materialize, random_level_state,
                     slice_from_levels, split_fixture_state, splitting_rank_all)


def slice_of(levels, presorted=False):
    src = {lv: sorted(items) if presorted else items for lv, items in levels.items()}
    return slice_from_levels(src, presorted=presorted)


def level_items(sl, level):
    """The slice's weights at `level`, in list order."""
    return next((sl.store.arr[lo:hi] for lv, lo, hi in sl.runs if lv == level), [])


def worked_mid_state():
    """Thirty-weight instance right before its top level is filled: ten 2s
    and eight 3s at level 0, two 3s and five 5s at level 1, five 9s at 2."""
    w = WeightList.from_values(WORKED_VALUES).items
    return {
        0: list(w[0:10]) + list(w[10:18]),
        1: list(w[18:20]) + list(w[20:25]),
        2: list(w[25:30]),
    }


def test_cut():
    state = worked_mid_state()
    sl = slice_of(state)
    leaves, below = level_items(sl, 2), split._below(sl, 2)
    assert sorted(it.value for it in leaves) == [9] * 5
    assert below.n == 25
    sl0 = slice_from_levels({0: state[0]})
    leaves0, below0 = level_items(sl0, 0), split._below(sl0, 0)
    assert len(leaves0) == 18 and below0.n == 0
    empty = slice_from_levels({})
    empty_leaves, empty_below = level_items(empty, 3), split._below(empty, 3)
    assert empty_leaves == [] and empty_below.n == 0


def test_cut_rejects_weights_above_level():
    with pytest.raises(InvalidAssignmentError):
        split._below(slice_of(worked_mid_state()), 1)


def test_node_count_folds():
    state = worked_mid_state()
    assert node_count(2, slice_of(state)) == 13
    assert node_count(0, slice_from_levels({0: state[0]})) == 18


def test_node_count_divisibility_error():
    items = [WeightItem(1, i) for i in range(3)]
    with pytest.raises(InvalidAssignmentError):
        node_count(1, slice_from_levels({0: items}))


def test_base_case_tie_break():
    items = [WeightItem(2, i) for i in range(3)]
    pos, chi, lower, upper = split._fsa(0, slice_from_levels({0: items}),
                                        ComparisonCounter())
    assert pos == 2
    assert chi.all_items() == [WeightItem(2, 1)]
    assert lower.all_items() == [WeightItem(2, 0)]
    assert upper.all_items() == [WeightItem(2, 2)]


def test_splitting_illustration_all_nodes():
    # the implied level-2 nodes carry multiplicities 4,4,4,4 | 3 | 4,4,4,2,4
    # plus six leaves; the splitting node of all nodes is the value-10 leaf
    # with 21 weights on each side
    state = split_fixture_state()
    for presorted in (False, True):
        pos, chi, lower, upper = split._fsa(2, slice_of(state, presorted),
                                            ComparisonCounter())
        assert [it.value for it in chi.all_items()] == [10]
        assert lower.n == 21
        assert upper.n == 21
        assert pos == 8


def test_splitting_illustration_internal_nodes():
    # among the internal nodes alone, the splitting node is the value-8 node
    # of multiplicity 3, with 16 weights below and 18 above
    state = split_fixture_state()
    below = {0: state[0], 1: state[1]}
    for presorted in (False, True):
        pos, chi, lower, upper = split._fsi(2, slice_of(below, presorted),
                                            ComparisonCounter())
        assert chi.total_value() == 8
        assert chi.n == 3
        assert lower.n == 16
        assert upper.n == 18
        assert pos == 5


def test_span_two_odd_rank_pairs_with_successor():
    # with a span of two and an odd splitting rank below, the enclosing
    # internal node pairs the lower splitting node with its successor
    items = [WeightItem(v, i) for i, v in enumerate([1, 2, 3, 4])]
    sl = slice_from_levels({0: items})
    pos, chi, _, upper = split._fsi(1, sl, ComparisonCounter())
    assert pos == 1
    assert sorted(it.value for it in chi.all_items()) == [1, 2]
    assert sorted(it.value for it in upper.all_items()) == [3, 4]


def test_parity_fix_targets_largest_pair():
    # mid-construction state with fifteen level-1 nodes: the largest-rank
    # node is an internal 6 built from the last two 3s
    w = WeightList.from_values(WORKED_VALUES).items
    state = {0: list(w[0:20]), 1: list(w[20:25])}
    sl = slice_of(state)
    rest, moved = split._rank_split(1, sl, node_count(1, sl) - 1, ComparisonCounter())
    assert sorted(it.value for it in moved.all_items()) == [3, 3]
    assert sorted(it.index for it in moved.all_items()) == [18, 19]
    assert rest.n == 23


def test_terminal_move_grabs_three_internal_nodes():
    # from the pre-terminal state the three largest level-2 nodes are the
    # internals 12, 12 and 10: eight 3s and two 5s
    state = worked_mid_state()
    sl = slice_of(state)
    rest, moved = split._rank_split(2, sl, node_count(2, sl) - 3, ComparisonCounter())
    values = sorted(it.value for it in moved.all_items())
    assert values == [3] * 8 + [5] * 2
    assert rest.n == 20


def test_t_edges():
    state = worked_mid_state()
    sl = slice_of(state)
    cnt = ComparisonCounter()
    everything, nothing = split._rank_split(2, sl, 13, cnt)
    assert everything.n == 30 and nothing.n == 0
    with pytest.raises(ValueError):
        split._rank_split(2, sl, 14, cnt)


def _check_state_against_oracle(state):
    top = max(state)
    top_nodes = materialize(state, top)
    contexts = [top]
    for extra in (1, 2):
        if len(top_nodes) % (1 << extra) == 0:
            contexts.append(top + extra)
    cnt = ComparisonCounter()
    for presorted in (False, True):
        sl = slice_of(state, presorted)
        for context in contexts:
            nodes = materialize(state, context)
            if context == top:
                pos = splitting_rank_all(state, context, nodes)
                p, chi, lower, upper = split._fsa(context, sl, cnt)
                assert p == pos
                assert sorted(chi.all_items(), key=lambda it: it.index) == \
                    sorted(nodes[pos - 1][2], key=lambda it: it.index)
                assert sorted(lower.all_items()) == \
                    sorted(it for nd in nodes[:pos - 1] for it in nd[2])
                assert sorted(upper.all_items()) == \
                    sorted(it for nd in nodes[pos:] for it in nd[2])
                # conservation
                assert lower.n + chi.n + upper.n == sl.n
            # every rank reaches each exit of the rank split at some t
            for t in range(1, len(nodes) + 1):
                first, rest = split._rank_split(context, sl, t, cnt)
                assert sorted(first.all_items()) == \
                    sorted(it for nd in nodes[:t] for it in nd[2])
                assert sorted(rest.all_items()) == \
                    sorted(it for nd in nodes[t:] for it in nd[2])
                rest2, largest = split._rank_split(context, sl, len(nodes) - t, cnt)
                assert sorted(largest.all_items()) == \
                    sorted(it for nd in nodes[len(nodes) - t:] for it in nd[2])
                assert rest2.n + largest.n == sl.n


def test_random_states_match_materialization():
    rng = random.Random(404)
    done = 0
    while done < 300:
        state = random_level_state(rng)
        if state is None:
            continue
        _check_state_against_oracle(state)
        done += 1


def test_internal_split_matches_block_of_lower_split():
    # the internal splitting node must be the whole node enclosing the
    # splitting node one leaf level down
    rng = random.Random(99)
    done = 0
    while done < 200:
        state = random_level_state(rng)
        if state is None:
            continue
        top = max(state)
        nodes = materialize(state, top)
        done += 1
        for extra in (1, 2):
            span = 1 << extra
            if len(nodes) % span:
                continue
            context = top + extra
            alpha = splitting_rank_all(state, top, nodes)
            block = -(-alpha // span)
            blocks = [nodes[i:i + span] for i in range(0, len(nodes), span)]
            for presorted in (False, True):
                pos, chi, lower, _ = split._fsi(context, slice_of(state, presorted),
                                                ComparisonCounter())
                assert pos == block
                assert sorted(chi.all_items()) == \
                    sorted(it for nd in blocks[block - 1] for it in nd[2])
                assert sorted(lower.all_items()) == \
                    sorted(it for b in blocks[:block - 1] for nd in b for it in nd[2])


def test_rank_consistency_of_flanks():
    # every node value on the lower side precedes the splitting node in the
    # strict order; symmetric on the upper side
    rng = random.Random(5)
    done = 0
    while done < 100:
        state = random_level_state(rng)
        if state is None:
            continue
        done += 1
        top = max(state)
        nodes = materialize(state, top)
        _, chi, lower, _ = split._fsa(top, slice_of(state), ComparisonCounter())
        chi_key = (chi.total_value(), min(it.index for it in chi.all_items()))
        lower_set = set(lower.all_items())
        for nd in nodes:
            nd_key = nd[:2]
            if set(nd[2]) <= lower_set:
                assert nd_key < chi_key
            elif lower_set and set(nd[2]) & lower_set:
                raise AssertionError("flank splits a node")


def test_work_bound_scales_with_depth_and_size():
    # counted comparisons stay within a fixed multiple of 4^depth * weights
    rng = random.Random(31)
    done = 0
    while done < 150:
        state = random_level_state(rng)
        if state is None:
            continue
        done += 1
        depth = len(state)
        cnt = ComparisonCounter()
        split._fsa(max(state), slice_of(state), cnt)
        total = sum(len(v) for v in state.values())
        assert cnt.count <= 32 * (4 ** depth) * total


def test_presorted_range_sums():
    # a presorted slice sums each of its ranges from the store's block
    # totals; sizes around the block length, and values up to MAX_WEIGHT,
    # so that sums pass 2^63
    rng = random.Random(64)
    block = split._BLOCK
    for size in (0, 1, 2, 63, 197, block - 1, block, block + 1, 3 * block + 1):
        arr = sorted(WeightItem(rng.choice([rng.randint(1, 10**6), rng.randint(1, MAX_WEIGHT),
                                            MAX_WEIGHT]), i)
                     for i in range(size))
        values = [it.value for it in arr]
        ref = [0, *accumulate(values)]
        store = Store(arr, values, _block_totals(values))
        assert [store.prefix(j) for j in range(size + 1)] == ref
        assert size < 63 or ref[-1] > 2**63
        for lo in range(size):
            for hi in range(lo + 1, size + 1):
                assert LeafSlice(store, ((0, lo, hi),), hi - lo).total_value() == \
                    sum(values[lo:hi])
        if size <= 1:
            continue  # a slice of two levels needs two weights
        for _ in range(200):
            # one range inside each level's run, the runs ascending by level
            cuts = sorted(rng.sample(range(1, size), rng.randint(1, min(3, size - 1))))
            runs = []
            for lv, (a, b) in enumerate(zip([0, *cuts], [*cuts, size])):
                lo = rng.randrange(a, b)
                runs.append((lv, lo, rng.randint(lo + 1, b)))
            sl = LeafSlice(store, tuple(runs), sum(hi - lo for _, lo, hi in runs))
            assert sl.total_value() == sum(ref[hi] - ref[lo] for _, lo, hi in runs)
            assert sl.total_value() == sum(it.value for it in sl.all_items())


def test_positional_min_index_equals_scan():
    # on a store whose every index is its position, a slice's smallest
    # index is the smallest low end of its ranges; it must equal the scan
    # of an items-built store, and so must every item read and range sum,
    # on presorted lists with heavy ties
    rng = random.Random(68)
    for size in (1, 2, 7, split._BLOCK + 3, 3 * split._BLOCK + 1):
        values = sorted(rng.randint(1, rng.choice([1, 2, 3, 10**6])) for _ in range(size))
        items = tuple(WeightItem(v, i) for i, v in enumerate(values))
        view = split.Positions(tuple(values))
        assert len(view) == size and list(view) == list(items)
        assert view[0:size] == list(items) and view[size - 1] == view[-1] == items[-1]
        psum = _block_totals(values)
        positional, scanned = Store(view, values, psum), Store(items, values, psum)
        for _ in range(300):
            k = 2 * rng.randint(1, min(3, (size + 1) // 2))  # range ends
            cuts = sorted(rng.sample(range(size + 1), k))
            runs = tuple((lv, lo, hi) for lv, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2])))
            n = sum(hi - lo for _, lo, hi in runs)
            a, b = LeafSlice(positional, runs, n), LeafSlice(scanned, runs, n)
            assert a.min_index() == b.min_index() == min(it.index for it in b.all_items())
            assert a.all_items() == b.all_items()
            assert a.total_value() == b.total_value()


def test_presorted_slices_validate_order():
    items = [WeightItem(2, 0), WeightItem(1, 1)]
    with pytest.raises(ValueError):
        slice_from_levels({0: items}, presorted=True)


def test_internal_split_needs_strictly_lower_weights():
    sl = slice_of(worked_mid_state())
    with pytest.raises(InvalidAssignmentError):
        split._fsi(2, sl, ComparisonCounter())  # holds leaves at level 2 itself


def _indices(sl):
    return frozenset(it.index for it in sl.all_items())


def _levels_of(sl):
    return {lv: sl.store.arr[lo:hi] for lv, lo, hi in sl.runs}


def _wide_state(rng):
    """Three levels with up to 160 leaves at level 0, so that selections
    there run partition rounds, not only the small-window sort."""
    half = rng.randint(17, 80)
    counts = {0: 2 * half, 1: 2 * rng.randint(0, 20) + half % 2, 2: rng.randint(1, 40)}
    total = sum(counts.values())
    vmax = rng.choice([3, 12, 10**6])
    order = list(range(total))
    rng.shuffle(order)
    state, pos = {}, 0
    for lv, c in counts.items():
        if c:
            state[lv] = [WeightItem(rng.randint(1, vmax), order[pos + i]) for i in range(c)]
        pos += c
    return state


def test_earlier_results_keep_their_weights():
    # unsorted selections reorder the slice's list in place; a sequence of
    # queries on one slice, and on the slices earlier queries returned, must
    # leave every result handed out so far holding the same weights
    rng = random.Random(808)
    done = 0
    while done < 200:
        state = random_level_state(rng) if done % 2 else _wide_state(rng)
        if state is None:
            continue
        done += 1
        top = max(state)
        sl = slice_of(state)
        seen = []
        pool = [sl]  # slices of whole nodes at `top` to query next
        cnt = ComparisonCounter()
        for _ in range(10):
            target = rng.choice(pool)
            total = node_count(top, target)
            kind = rng.randrange(4)
            if kind == 0:
                pos, _, lower, upper = split._fsa(top, target, cnt)
                nodes = materialize(_levels_of(target), top)
                assert pos == splitting_rank_all(_levels_of(target), top, nodes)
                out = [lower, upper]
            elif kind == 1 and total % 2 == 0:
                _, _, lower, upper = split._fsi(top + 1, target, cnt)
                out = [lower, upper]
            else:
                t = rng.randint(1, total)
                cut_at = t if kind == 2 else total - t
                out = list(split._rank_split(top, target, cut_at, cnt))
                nodes = materialize(_levels_of(target), top)
                assert _indices(out[0]) == {it.index for nd in nodes[:cut_at] for it in nd[2]}
            seen += [(x, _indices(x)) for x in out]
            pool += [x for x in out if x.n]
            for x, ids in seen:
                assert _indices(x) == ids


def test_selection_between_known_cuts_makes_no_comparison():
    # a selection leaves cuts on both sides of the weight it finds; a later
    # query of that position, from any window that is a rank range, makes
    # no comparison and leaves the list as it is
    rng = random.Random(909)
    items = [WeightItem(rng.randint(1, 3), i) for i in range(40)]
    rng.shuffle(items)
    ranked = sorted(items)
    store = Store(list(items), None)
    cnt = ComparisonCounter()

    def select(lo, hi, t):
        # the selected weight is left at, and answered by, its position
        p = split._leaf_select(store, lo, hi, t, cnt)
        assert p == lo + t - 1
        return store.arr[p]

    assert select(0, 40, 20) == ranked[19]
    assert select(20, 40, 5) == ranked[24]
    assert store.cuts == [0, 19, 20, 24, 25, 40]
    arr, count = list(store.arr), cnt.count
    for lo, hi, t in ((0, 40, 20), (0, 40, 25), (19, 25, 1), (20, 40, 5), (0, 20, 20)):
        assert select(lo, hi, t) == ranked[lo + t - 1]
    assert (cnt.count, store.arr, store.cut_hits) == (count, arr, 5)
    assert store.cuts == [0, 19, 20, 24, 25, 40]
    # a window of one weight is no selection; a piece between cuts is
    # selected alone
    assert select(24, 25, 1) == ranked[24]
    assert (cnt.count, store.cut_hits) == (count, 5)
    assert select(0, 40, 30) == ranked[29]
    assert store.arr[:25] == arr[:25] and cnt.count > count
    assert store.cuts == [0, 19, 20, 24, 25, 29, 30, 40]


def test_sorted_run_closed_forms_match_materialization():
    # on one presorted run every node above its level is a block of
    # consecutive leaves, so `_fsi` and `_rank_split` answer by position
    # arithmetic: each answer must be the materialized one, hold the same
    # ranges as the engine's answer over the same list held unsorted, and
    # count no comparison
    rng = random.Random(2406)
    for n in [*range(2, 41), *rng.sample(range(41, 301), 24), 256, 300]:
        vmax = rng.choice([1, 2, 3, 10**6])
        order = list(range(n))
        rng.shuffle(order)
        items = sorted(WeightItem(rng.randint(1, vmax), i) for i in order)
        # the run starts past weights of a lower level
        h, lo = rng.randint(0, 2), rng.randint(0, 5)
        arr = [WeightItem(0, n + i) for i in range(lo)] + items
        vals = [it.value for it in arr]
        runs = ((h, lo, lo + n),)
        sl = LeafSlice(Store(arr, vals, _block_totals(vals)), runs, n)
        engine = LeafSlice(Store(list(arr), None), runs, n)
        cnt, engine_cnt = ComparisonCounter(), ComparisonCounter()
        for level in range(h, h + n.bit_length()):
            span = 1 << (level - h)
            if n % span:
                continue
            nodes = materialize({h: items}, level)
            if level > h:
                alpha = (n + 1) // 2
                pos, chi, lower, upper = out = split._fsi(level, sl, cnt)
                assert pos == -(-alpha // span)
                assert sorted(chi.all_items()) == sorted(nodes[pos - 1][2])
                assert sorted(lower.all_items()) == \
                    sorted(it for nd in nodes[:pos - 1] for it in nd[2])
                assert sorted(upper.all_items()) == \
                    sorted(it for nd in nodes[pos:] for it in nd[2])
                got = split._fsi(level, engine, engine_cnt)
                assert got[0] == pos and [x.runs for x in got[1:]] == [x.runs for x in out[1:]]
                hits = sl.store.hits
                assert split._fsi(level, sl, cnt) is out and sl.store.hits == hits + 1
            for t in range(len(nodes) + 1):
                first, rest = split._rank_split(level, sl, t, cnt)
                assert sorted(first.all_items()) == \
                    sorted(it for nd in nodes[:t] for it in nd[2])
                assert sorted(rest.all_items()) == \
                    sorted(it for nd in nodes[t:] for it in nd[2])
                got = split._rank_split(level, engine, t, engine_cnt)
                assert [x.runs for x in got] == [first.runs, rest.runs]
        assert cnt.count == 0


def _split_by_search(level, sl, t, cnt):
    """The first t nodes of a one-run slice at its own level and the
    rest, by the general search."""
    empty = LeafSlice(sl.store, (), 0)
    if t == 0:
        return empty, sl
    if t == sl.n:
        return sl, empty
    return split._locate(level, sl, t, sl.n, cnt)[2:]


def _fsi_by_search(level, sl, cnt):
    """`_fsi` on a one-run slice by the general search: the splitting leaf
    one level down, widened to its whole node by two rank splits."""
    st, h = sl.store, sl.runs[0][0]
    span = 1 << (level - h)
    alpha, chi, o1, o2 = split._locate(h, sl, sl.n // 2, None, cnt)
    off = (alpha - 1) % span
    o1, below = _split_by_search(h, o1, alpha - 1 - off, cnt)
    above, o2 = _split_by_search(h, o2, span - off - 1, cnt)
    return -(-alpha // span), split._union(st, [below, chi, above]), o1, o2


def test_unsorted_run_closed_forms_match_the_search():
    # on one unsorted run, `_fsi` and `_rank_split` make the selections
    # the general search makes, in its order, and return its ranges: after
    # every query both stores hold the same order, cuts, cut hits and count
    rng = random.Random(2507)
    for n in [*range(2, 41), *rng.sample(range(41, 301), 24), 256, 300]:
        vmax = rng.choice([1, 2, 3, 10**6])
        items = [WeightItem(rng.randint(1, vmax), i) for i in range(n)]
        rng.shuffle(items)
        h, lo = rng.randint(0, 2), rng.randint(0, 5)
        arr = [WeightItem(0, n + i) for i in range(lo)] + items
        runs = ((h, lo, lo + n),)
        sl = LeafSlice(Store(arr, None), runs, n)
        ref = LeafSlice(Store(list(arr), None), runs, n)
        cnt, ref_cnt = ComparisonCounter(), ComparisonCounter()

        def same_state():
            a, b = sl.store, ref.store
            return (a.arr, a.cuts, a.cut_hits, cnt.count) == \
                (b.arr, b.cuts, b.cut_hits, ref_cnt.count)

        for level in range(h, h + n.bit_length()):
            span = 1 << (level - h)
            if n % span:
                continue
            if level > h:
                got = split._fsi(level, sl, cnt)
                want = _fsi_by_search(level, ref, ref_cnt)
                assert got[0] == want[0] and \
                    [x.runs for x in got[1:]] == [x.runs for x in want[1:]]
                assert same_state(), (n, level)
            for t in rng.sample(range(n // span + 1), min(4, n // span + 1)):
                got = split._rank_split(level, sl, t, cnt)
                want = _split_by_search(h, ref, t * span, ref_cnt)
                assert [x.runs for x in got] == [x.runs for x in want]
                assert same_state(), (n, level, t)
        assert cnt.count > 0 or n == 2
