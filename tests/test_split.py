import random
from itertools import accumulate

import pytest

from mrcode import (ComparisonCounter, InvalidAssignmentError, LeafSlice,
                    WeightItem, WeightList, add_weights, cut,
                    find_splitting_all, find_splitting_internal,
                    find_t_largest, find_t_smallest, node_count)
from mrcode import split
from mrcode.core import MAX_WEIGHT
from mrcode.split import Store
from oracles import (WORKED_VALUES, materialize, random_level_state,
                     split_fixture_state, splitting_rank_all)


def slice_of(levels, presorted=False):
    src = {lv: sorted(items) if presorted else items for lv, items in levels.items()}
    return LeafSlice.from_levels(src, presorted=presorted)


def worked_mid_state():
    """Thirty-weight instance right before its top level is filled: ten 2s
    and eight 3s at level 0, two 3s and five 5s at level 1, five 9s at 2."""
    w = WeightList.from_values(WORKED_VALUES).items
    return {
        0: list(w[0:10]) + list(w[10:18]),
        1: list(w[18:20]) + list(w[20:25]),
        2: list(w[25:30]),
    }


def test_add_weights():
    assert add_weights([WeightItem(3, 0), WeightItem(3, 1)]) == 6
    assert add_weights([]) == 0
    assert add_weights([WeightItem(2, 0), WeightItem(2, 1)]) == 4


def test_cut():
    state = worked_mid_state()
    leaves, below = cut(2, slice_of(state))
    assert sorted(it.value for it in leaves) == [9] * 5
    assert below.n == 25
    leaves0, below0 = cut(0, LeafSlice.from_levels({0: state[0]}))
    assert len(leaves0) == 18 and below0.n == 0
    empty_leaves, empty_below = cut(3, LeafSlice.from_levels({}))
    assert empty_leaves == [] and empty_below.n == 0


def test_cut_rejects_weights_above_level():
    with pytest.raises(InvalidAssignmentError):
        cut(1, slice_of(worked_mid_state()))


def test_node_count_folds():
    state = worked_mid_state()
    assert node_count(2, slice_of(state)) == 13
    assert node_count(0, LeafSlice.from_levels({0: state[0]})) == 18


def test_node_count_divisibility_error():
    items = [WeightItem(1, i) for i in range(3)]
    with pytest.raises(InvalidAssignmentError):
        node_count(1, LeafSlice.from_levels({0: items}))


def test_base_case_tie_break():
    items = [WeightItem(2, i) for i in range(3)]
    r = find_splitting_all(0, LeafSlice.from_levels({0: items}))
    assert r.pos == 2
    assert r.chi_weights == (WeightItem(2, 1),)
    assert r.lower.all_items() == [WeightItem(2, 0)]
    assert r.upper.all_items() == [WeightItem(2, 2)]


def test_splitting_illustration_all_nodes():
    # the implied level-2 nodes carry multiplicities 4,4,4,4 | 3 | 4,4,4,2,4
    # plus six leaves; the splitting node of all nodes is the value-10 leaf
    # with 21 weights on each side
    state = split_fixture_state()
    for presorted in (False, True):
        r = find_splitting_all(2, slice_of(state, presorted))
        assert [it.value for it in r.chi_weights] == [10]
        assert r.lower.n == 21
        assert r.upper.n == 21
        assert r.pos == 8


def test_splitting_illustration_internal_nodes():
    # among the internal nodes alone, the splitting node is the value-8 node
    # of multiplicity 3, with 16 weights below and 18 above
    state = split_fixture_state()
    below = {0: state[0], 1: state[1]}
    for presorted in (False, True):
        r = find_splitting_internal(2, slice_of(below, presorted))
        assert add_weights(r.chi_weights) == 8
        assert len(r.chi_weights) == 3
        assert r.lower.n == 16
        assert r.upper.n == 18
        assert r.pos == 5


def test_span_two_odd_rank_pairs_with_successor():
    # with a span of two and an odd splitting rank below, the enclosing
    # internal node pairs the lower splitting node with its successor
    items = [WeightItem(v, i) for i, v in enumerate([1, 2, 3, 4])]
    sl = LeafSlice.from_levels({0: items})
    r = find_splitting_internal(1, sl)
    assert r.pos == 1
    assert sorted(it.value for it in r.chi_weights) == [1, 2]
    assert sorted(it.value for it in r.upper.all_items()) == [3, 4]


def test_parity_fix_targets_largest_pair():
    # mid-construction state with fifteen level-1 nodes: the largest-rank
    # node is an internal 6 built from the last two 3s
    w = WeightList.from_values(WORKED_VALUES).items
    state = {0: list(w[0:20]), 1: list(w[20:25])}
    rest, moved = find_t_largest(1, 1, slice_of(state))
    assert sorted(it.value for it in moved.all_items()) == [3, 3]
    assert sorted(it.index for it in moved.all_items()) == [18, 19]
    assert rest.n == 23


def test_terminal_move_grabs_three_internal_nodes():
    # from the pre-terminal state the three largest level-2 nodes are the
    # internals 12, 12 and 10: eight 3s and two 5s
    state = worked_mid_state()
    rest, moved = find_t_largest(3, 2, slice_of(state))
    values = sorted(it.value for it in moved.all_items())
    assert values == [3] * 8 + [5] * 2
    assert rest.n == 20


def test_t_edges():
    state = worked_mid_state()
    sl = slice_of(state)
    everything, nothing = find_t_smallest(13, 2, sl)
    assert everything.n == 30 and nothing.n == 0
    with pytest.raises(ValueError):
        find_t_smallest(14, 2, sl)
    with pytest.raises(ValueError):
        find_t_smallest(0, 2, sl)


def _check_state_against_oracle(state):
    top = max(state)
    top_nodes = materialize(state, top)
    contexts = [top]
    for extra in (1, 2):
        if len(top_nodes) % (1 << extra) == 0:
            contexts.append(top + extra)
    for presorted in (False, True):
        sl = slice_of(state, presorted)
        for context in contexts:
            nodes = materialize(state, context)
            if context == top:
                pos = splitting_rank_all(state, context, nodes)
                r = find_splitting_all(context, sl)
                assert r.pos == pos
                assert list(r.chi_weights) == sorted(nodes[pos - 1][2],
                                                     key=lambda it: it.index)
                assert sorted(r.lower.all_items()) == \
                    sorted(it for nd in nodes[:pos - 1] for it in nd[2])
                assert sorted(r.upper.all_items()) == \
                    sorted(it for nd in nodes[pos:] for it in nd[2])
                # conservation
                assert r.lower.n + len(r.chi_weights) + r.upper.n == sl.n
            # every rank reaches each exit of the rank split at some t
            for t in range(1, len(nodes) + 1):
                first, rest = find_t_smallest(t, context, sl)
                assert sorted(first.all_items()) == \
                    sorted(it for nd in nodes[:t] for it in nd[2])
                assert sorted(rest.all_items()) == \
                    sorted(it for nd in nodes[t:] for it in nd[2])
                rest2, largest = find_t_largest(t, context, sl)
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
                r = find_splitting_internal(context, slice_of(state, presorted))
                assert r.pos == block
                assert sorted(r.chi_weights) == \
                    sorted(it for nd in blocks[block - 1] for it in nd[2])
                assert sorted(r.lower.all_items()) == \
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
        r = find_splitting_all(top, slice_of(state))
        chi_key = (add_weights(r.chi_weights), min(it.index for it in r.chi_weights))
        lower_set = set(r.lower.all_items())
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
        find_splitting_all(max(state), slice_of(state), counter=cnt)
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
        store = Store(arr, values)
        assert [store.prefix(j) for j in range(size + 1)] == ref
        assert size < 63 or ref[-1] > 2**63
        for lo in range(size):
            for hi in range(lo + 1, size + 1):
                assert LeafSlice(store, {0: (lo, hi)}, hi - lo).total_value() == \
                    sum(values[lo:hi])
        if size <= 1:
            continue  # a slice of two levels needs two weights
        for _ in range(200):
            # one range inside each level's run, the runs ascending by level
            cuts = sorted(rng.sample(range(1, size), rng.randint(1, min(3, size - 1))))
            runs = {}
            for lv, (a, b) in enumerate(zip([0, *cuts], [*cuts, size])):
                lo = rng.randrange(a, b)
                runs[lv] = (lo, rng.randint(lo + 1, b))
            sl = LeafSlice(store, runs, sum(hi - lo for lo, hi in runs.values()))
            assert sl.total_value() == sum(ref[hi] - ref[lo] for lo, hi in runs.values())
            assert sl.total_value() == add_weights(sl.all_items())


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
        positional, scanned = Store(view, values), Store(items, values)
        for _ in range(300):
            k = 2 * rng.randint(1, min(3, (size + 1) // 2))  # range ends
            cuts = sorted(rng.sample(range(size + 1), k))
            runs = dict(enumerate(zip(cuts[::2], cuts[1::2])))
            n = sum(hi - lo for lo, hi in runs.values())
            a, b = LeafSlice(positional, runs, n), LeafSlice(scanned, runs, n)
            assert a.min_index() == b.min_index() == min(it.index for it in b.all_items())
            assert a.all_items() == b.all_items()
            assert a.total_value() == b.total_value()


def test_presorted_slices_validate_order():
    items = [WeightItem(2, 0), WeightItem(1, 1)]
    with pytest.raises(ValueError):
        LeafSlice.from_levels({0: items}, presorted=True)


def test_internal_split_needs_strictly_lower_weights():
    sl = slice_of(worked_mid_state())
    with pytest.raises(InvalidAssignmentError):
        find_splitting_internal(2, sl)  # holds leaves at level 2 itself


def test_add_weights_accepts_slices():
    sl = LeafSlice.from_levels({0: [WeightItem(3, 0), WeightItem(4, 1)]})
    assert add_weights(sl) == 7


def _indices(sl):
    return frozenset(it.index for it in sl.all_items())


def _levels_of(sl):
    return {lv: sl.level_items(lv) for lv in sl.levels()}


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
        for _ in range(10):
            target = rng.choice(pool)
            total = node_count(top, target)
            kind = rng.randrange(4)
            if kind == 0:
                r = find_splitting_all(top, target)
                nodes = materialize(_levels_of(target), top)
                assert r.pos == splitting_rank_all(_levels_of(target), top, nodes)
                out = [r.lower, r.upper]
            elif kind == 1 and total % 2 == 0:
                r = find_splitting_internal(top + 1, target)
                out = [r.lower, r.upper]
            else:
                t = rng.randint(1, total)
                query = find_t_smallest if kind == 2 else find_t_largest
                out = list(query(t, top, target))
                nodes = materialize(_levels_of(target), top)
                cut_at = t if kind == 2 else total - t
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
    assert split._leaf_select(store, 0, 40, 20, cnt) == ranked[19]
    assert split._leaf_select(store, 20, 40, 5, cnt) == ranked[24]
    assert store.cuts == [0, 19, 20, 24, 25, 40]
    arr, count = list(store.arr), cnt.count
    for lo, hi, t in ((0, 40, 20), (0, 40, 25), (19, 25, 1), (20, 40, 5), (0, 20, 20)):
        assert split._leaf_select(store, lo, hi, t, cnt) == ranked[lo + t - 1]
    assert (cnt.count, store.arr, store.cut_hits) == (count, arr, 5)
    assert store.cuts == [0, 19, 20, 24, 25, 40]
    # a window of one weight is no selection; a piece between cuts is
    # selected alone
    assert split._leaf_select(store, 24, 25, 1, cnt) == ranked[24]
    assert (cnt.count, store.cut_hits) == (count, 5)
    assert split._leaf_select(store, 0, 40, 30, cnt) == ranked[29]
    assert store.arr[:25] == arr[:25] and cnt.count > count
    assert store.cuts == [0, 19, 20, 24, 25, 29, 30, 40]
