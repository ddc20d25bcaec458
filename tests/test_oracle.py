import random

import pytest
from hypothesis import given, settings, strategies as st

from mrcode import (ComparisonCounter, WeightList, code_cost, huffman_lengths,
                    huffman_sorted_lengths, kraft_sum, monotone)
from oracles import WORKED_COST, WORKED_VALUES, brute_force_optimal


def test_greedy_worked_example_cost():
    w = WeightList.from_values(WORKED_VALUES)
    assert code_cost(w, huffman_lengths(w)) == WORKED_COST


def test_greedy_trivial():
    assert huffman_lengths(WeightList.from_values([1, 1])).lengths == (1, 1)


def test_greedy_exponential_trace():
    w = WeightList.from_values([1, 2, 4, 8, 16])
    assert huffman_lengths(w).lengths == (4, 4, 3, 2, 1)


def test_greedy_outputs_valid():
    rng = random.Random(3)
    for _ in range(300):
        w = WeightList.from_values([rng.randint(1, 99)
                                    for _ in range(rng.randint(2, 40))])
        p = huffman_lengths(w)
        assert kraft_sum(p) == 1
        assert monotone(w, p)


def test_two_queue_requires_sorted():
    with pytest.raises(ValueError):
        huffman_sorted_lengths(WeightList.from_values([2, 1]))


def test_two_queue_worked_example():
    w = WeightList.from_values(sorted(WORKED_VALUES), sorted_flag=True)
    assert code_cost(w, huffman_sorted_lengths(w)) == WORKED_COST


def test_two_queue_equal_weights():
    w = WeightList.from_values([1, 1, 1, 1], sorted_flag=True)
    assert huffman_sorted_lengths(w).lengths == (2, 2, 2, 2)


def test_two_queue_matches_heap_and_stays_linear():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(2, 60)
        w = WeightList.from_values(sorted(rng.randint(1, 200) for _ in range(n)),
                                   sorted_flag=True)
        cnt = ComparisonCounter()
        p2 = huffman_sorted_lengths(w, cnt)
        assert code_cost(w, p2) == code_cost(w, huffman_lengths(w))
        assert kraft_sum(p2) == 1
        assert cnt.count <= 2 * n


def test_brute_force_trivial():
    cost, witness = brute_force_optimal(WeightList.from_values([1, 1]))
    assert cost == 2 and witness.lengths == (1, 1)


def test_brute_force_three_weights_single_shape():
    # the only complete profile for n=3 is {1, 2, 2}
    rng = random.Random(5)
    for _ in range(50):
        vals = [rng.randint(1, 50) for _ in range(3)]
        cost, witness = brute_force_optimal(WeightList.from_values(vals))
        assert sorted(witness.lengths) == [1, 2, 2]
        assert vals[witness.lengths.index(1)] == max(vals)


def test_brute_force_caps_n():
    with pytest.raises(ValueError):
        brute_force_optimal(WeightList.from_values([1] * 13))


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=10))
@settings(max_examples=300, deadline=None)
def test_oracles_agree_both_ways(values):
    w = WeightList.from_values(values)
    greedy = huffman_lengths(w)
    cost, witness = brute_force_optimal(w)
    assert cost == code_cost(w, greedy)
    assert code_cost(w, witness) == cost
    assert kraft_sum(witness) == 1
