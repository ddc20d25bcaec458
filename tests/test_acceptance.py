"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.  The timing smoke test is non-gating: an out-of-range ratio
is reported as an expected failure rather than breaking the suite.
"""

import gc
import random
import statistics
import time

import pytest

from mrcode import (ConstructionMode, LeafSlice, WeightList,
                    assignment_from_lengths, canonical_codes,
                    code_cost, construct_lengths, decode, encode,
                    find_splitting_all, find_splitting_internal, find_t_largest,
                    find_t_smallest, huffman_lengths, kraft_sum, monotone,
                    verify_exclusion)
from mrcode import generators
from mrcode.core import MAX_WEIGHT
from oracles import (WORKED_COST, WORKED_LENGTH_COUNTS, WORKED_VALUES,
                     brute_force_optimal, materialize, random_level_state,
                     splitting_rank_all)

DETAILED = ConstructionMode("detailed")
BASIC = ConstructionMode("basic")


def _cluster_values(rng, n_max=1000):
    """Random instance: n up to n_max, weights up to 1e9, drawn around a
    few random magnitudes so the number of distinct lengths stays in the
    regime the output-sensitive driver targets."""
    n = rng.randint(2, n_max)
    d = rng.randint(1, 4)
    bases = [rng.randint(1, 10**9) for _ in range(d)]
    return [min(10**9, max(1, b + rng.randint(-b // 100 - 1, b // 100 + 1)))
            for b in (rng.choice(bases) for _ in range(n))]


@pytest.fixture(scope="session")
def small_corpus():
    """500 instances per n in 2..10, weights uniform in [1, 64]."""
    rng = random.Random(0xC2)
    records = []
    budgeted = 0.0
    for n in range(2, 11):
        for _ in range(500):
            values = [rng.randint(1, 64) for _ in range(n)]
            w = WeightList.from_values(values)
            t0 = time.perf_counter()
            profile, stats = construct_lengths(w, DETAILED)
            best_cost, _ = brute_force_optimal(w)
            budgeted += time.perf_counter() - t0
            ok, _ = verify_exclusion(w, assignment_from_lengths(w, profile))
            records.append((code_cost(w, profile) == best_cost,
                            kraft_sum(profile) == 1,
                            stats.iterations, stats.distinct_lengths, ok))
    return records, budgeted


@pytest.fixture(scope="session")
def large_corpus():
    """10^4 random instances, n up to 10^3, weights up to 10^9."""
    rng = random.Random(0xC3)
    records = []
    budgeted = 0.0
    for i in range(10_000):
        values = _cluster_values(rng)
        if i % 5 == 0:
            w = WeightList.from_values(values)
        else:
            w = WeightList.from_values(sorted(values), sorted_flag=True)
        t0 = time.perf_counter()
        profile, stats = construct_lengths(w, DETAILED)
        greedy = huffman_lengths(w)
        budgeted += time.perf_counter() - t0
        ok, _ = verify_exclusion(w, assignment_from_lengths(w, profile))
        records.append((code_cost(w, profile) == code_cost(w, greedy),
                        kraft_sum(profile) == 1,
                        stats.iterations, stats.distinct_lengths, ok))
    return records, budgeted


def test_worked_example_exact():
    w = WeightList.from_values(WORKED_VALUES)
    timings = {}
    for mode in (DETAILED, BASIC):
        profile, stats = construct_lengths(w, mode)
        counts = {l: profile.lengths.count(l) for l in set(profile.lengths)}
        assert counts == WORKED_LENGTH_COUNTS
        # every 2 maps to length 6, every 3 to 5, every 9 to 4; of the 5s,
        # exactly three take length 5 and two take 4
        assert all(profile.lengths[i] == 6 for i in range(0, 10))
        assert all(profile.lengths[i] == 5 for i in range(10, 20))
        assert all(profile.lengths[i] == 4 for i in range(25, 30))
        assert sorted(profile.lengths[i] for i in range(20, 25)) == [4, 4, 5, 5, 5]
        assert code_cost(w, profile) == WORKED_COST
        assert kraft_sum(profile) == 1
        assert stats.distinct_lengths == 3
        for _ in range(3):
            _timed_run(w, mode)  # warm-up
        gc.collect()
        gc.disable()
        try:
            best = min(_timed_run(w, mode) for _ in range(50))
        finally:
            gc.enable()
        timings[mode.algorithm] = best
        assert best < 1e6, f"{mode.algorithm} took {best} ns"
    print(f"\nPASS worked-example-exact: cost={WORKED_COST} kraft=1 k=3 "
          f"runtime detailed={timings['detailed']/1e3:.0f}us "
          f"basic={timings['basic']/1e3:.0f}us (budget 1ms)")


def _timed_run(w, mode):
    t0 = time.perf_counter_ns()
    construct_lengths(w, mode)
    return time.perf_counter_ns() - t0


def test_small_instances_match_exhaustive_search(small_corpus):
    records, budgeted = small_corpus
    assert len(records) == 4500
    assert all(cost_ok for cost_ok, *_ in records)
    assert budgeted < 30.0, f"took {budgeted:.1f}s"
    print(f"\nPASS small-instances-vs-exhaustive: 4500 instances exact, "
          f"{budgeted:.1f}s (budget 30s)")


def test_large_instances_match_greedy_oracle(large_corpus):
    records, budgeted = large_corpus
    assert len(records) == 10_000
    assert all(cost_ok and kraft_ok for cost_ok, kraft_ok, *_ in records)
    assert budgeted < 60.0, f"took {budgeted:.1f}s"
    print(f"\nPASS large-instances-vs-greedy: 10000 instances exact, "
          f"kraft=1 everywhere, {budgeted:.1f}s (budget 60s)")


def test_iteration_bound(small_corpus, large_corpus):
    checked = 0
    for records, _ in (small_corpus, large_corpus):
        for _, _, iterations, k, _ in records:
            assert iterations <= 2 * k
            checked += 1
    rng = random.Random(0xC4)
    for family in generators.FAMILIES:
        sizes = (4, 8, 16, 32) if family == "exponential" else (4, 8, 16, 32, 64)
        for n in sizes:
            values = generators.generate(family, n, seed=rng.randint(0, 9999))
            for w in (WeightList.from_values(values),
                      WeightList.from_values(sorted(values), sorted_flag=True)):
                for mode in (DETAILED, BASIC):
                    _, stats = construct_lengths(w, mode)
                    assert stats.iterations <= 2 * stats.distinct_lengths
                    checked += 1
    print(f"\nPASS iteration-bound: iterations <= 2k on {checked} runs, "
          f"zero exceptions")


def test_exclusion_verified_everywhere(small_corpus, large_corpus):
    checked = 0
    for records, _ in (small_corpus, large_corpus):
        for *_, exclusion_ok in records:
            assert exclusion_ok
            checked += 1
    w = WeightList.from_values(WORKED_VALUES)
    for mode in (DETAILED, BASIC):
        profile, _ = construct_lengths(w, mode)
        ok, msg = verify_exclusion(w, assignment_from_lengths(w, profile))
        assert ok, msg
        checked += 1
    print(f"\nPASS exclusion-verified: final assignments of {checked} runs "
          f"all pass the level-ordering check")


def test_sorted_comparisons_sublinear():
    counts = {}
    for p in (10, 12, 14, 16, 18, 20):
        n = 1 << p
        values = generators.example41(n, seed=1)
        w = WeightList.from_values(sorted(values), sorted_flag=True)
        _, stats = construct_lengths(w, DETAILED)
        assert stats.distinct_lengths == 3
        counts[p] = stats.weight_comparisons
    assert counts[20] < 2**14, counts
    ratio = counts[20] / counts[10]
    assert ratio < 64, counts
    print(f"\nPASS sorted-comparisons-sublinear: counts {counts}; "
          f"2^20 count {counts[20]} < 16384, growth x{ratio:.1f} < 64 "
          f"while n grew x1024")


def test_unsorted_time_scaling_smoke():
    # non-gating smoke check of linear scaling at fixed k
    medians = {}
    for p in (16, 17):
        values = generators.example41(1 << p, seed=1)
        w = WeightList.from_values(values)
        runs = []
        for _ in range(5):
            gc.disable()
            t0 = time.perf_counter()
            construct_lengths(w, DETAILED)
            runs.append(time.perf_counter() - t0)
            gc.enable()
        medians[p] = statistics.median(runs)
    ratio = medians[17] / medians[16]
    line = (f"unsorted-time-scaling: median {medians[16]:.2f}s -> "
            f"{medians[17]:.2f}s, ratio {ratio:.2f} (window 1.4..3.0)")
    if not 1.4 <= ratio <= 3.0:
        print(f"\nSOFT-FAIL {line}")
        pytest.xfail(f"non-gating: {line}")
    print(f"\nPASS {line}")


def test_split_engine_matches_materialization():
    rng = random.Random(0xC8)
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        state = random_level_state(rng)
        if state is None:
            continue
        done += 1
        top = max(state)
        top_nodes = materialize(state, top)
        presorted = bool(done % 2)
        src = {lv: sorted(v) if presorted else v for lv, v in state.items()}
        sl = LeafSlice.from_levels(src, presorted=presorted)

        nodes = materialize(state, top)
        pos = splitting_rank_all(state, top, nodes)
        r = find_splitting_all(top, sl)
        assert r.pos == pos
        assert sorted(r.chi_weights) == sorted(nodes[pos - 1][2])
        assert sorted(r.lower.all_items()) == sorted(
            it for nd in nodes[:pos - 1] for it in nd[2])

        t = rng.randint(1, len(nodes))
        first, _ = find_t_smallest(t, top, sl)
        assert sorted(first.all_items()) == sorted(
            it for nd in nodes[:t] for it in nd[2])
        _, largest = find_t_largest(t, top, sl)
        assert sorted(largest.all_items()) == sorted(
            it for nd in nodes[len(nodes) - t:] for it in nd[2])

        for extra in (1, 2):
            span = 1 << extra
            if len(top_nodes) % span:
                continue
            alpha = splitting_rank_all(state, top, top_nodes)
            block = -(-alpha // span)
            blocks = [top_nodes[i:i + span]
                      for i in range(0, len(top_nodes), span)]
            ri = find_splitting_internal(top + extra, sl)
            assert ri.pos == block
            assert sorted(ri.chi_weights) == sorted(
                it for nd in blocks[block - 1] for it in nd[2])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\nPASS split-engine-vs-materialization: 1000 random states, "
          f"{elapsed:.1f}s (budget 10s)")


def _high_k_corpus():
    """(label, values) for every family, Fibonacci weights, maximal values
    and heavy ties; the families include the high-k uniform, geometric and
    exponential inputs that the large corpus avoids."""
    rng = random.Random(0xCA)
    sizes = {"exponential": (8, 31, 62), "example41": (8, 64, 128)}
    for family in generators.FAMILIES:
        for n in sizes.get(family, (8, 60, 200)):
            for seed in (1, 2):
                yield f"{family}-{n}", generators.generate(family, n, seed)
    fib = [1, 1]
    while len(fib) < 92:
        fib.append(fib[-1] + fib[-2])  # fib[91] is the largest below 2^63
    for n in (3, 20, 50, 92):
        values = fib[:n]
        rng.shuffle(values)
        yield f"fibonacci-{n}", values
    yield "max-weight-equal", [MAX_WEIGHT] * 100
    yield "max-weight-mixed", [MAX_WEIGHT] * 40 + [1] * 7 + [MAX_WEIGHT - 1] * 5
    yield "max-weight-random", [rng.randint(MAX_WEIGHT // 4, MAX_WEIGHT) for _ in range(150)]
    for n in (2, 3, 5, 64, 300):
        yield f"ties-{n}", [rng.choice((1, 2)) for _ in range(n)]
    yield "ties-one-outlier", [7] * 127 + [1000]


def test_high_k_families_match_heap_oracle():
    # a differential run against the heap oracle, sorted and unsorted, under
    # both drivers; it must fit its time budget
    t0 = time.perf_counter()
    runs = 0
    for label, values in _high_k_corpus():
        w = WeightList.from_values(values)
        for weights in (w, w.sorted_copy()):
            best = code_cost(weights, huffman_lengths(weights))
            for mode in (DETAILED, BASIC):
                profile, stats = construct_lengths(weights, mode)
                where = f"{label} sorted={weights.sorted_flag} {mode.algorithm}"
                assert code_cost(weights, profile) == best, where
                assert kraft_sum(profile) == 1, where
                assert monotone(weights, profile), where
                assert stats.iterations <= 2 * stats.distinct_lengths, where
                runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nPASS high-k-vs-heap-oracle: {runs} constructions, "
          f"{elapsed:.1f}s (budget 60s)")


def test_codec_round_trip():
    rng = random.Random(0xC9)
    total_bits = 0
    for trial in range(100):
        n = rng.randint(2, 256)
        corpus = [rng.randrange(n) for _ in range(100_000)]
        freq = [1] * n  # every symbol present at least once
        for s in corpus:
            freq[s] += 1
        w = WeightList.from_values(freq)
        profile, _ = construct_lengths(w, DETAILED)
        table = canonical_codes(profile)
        payload, bits = encode(corpus, table)
        assert bits == sum(table.lengths[s] for s in corpus)
        assert decode(payload, bits, table) == corpus
        total_bits += bits
    print(f"\nPASS codec-round-trip: 100 corpora of 100000 tokens, "
          f"payload bit counts exact ({total_bits} bits total)")
