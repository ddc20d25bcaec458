"""Reference constructors used for cross-checking and benchmarking.

Neither shares code with the split-engine construction: a heap-based
greedy merge, and the two-queue linear variant for presorted input.
"""

from __future__ import annotations

import heapq
from collections import deque

from .core import CodeLengthProfile, ComparisonCounter, WeightList


def huffman_lengths(weights: WeightList) -> CodeLengthProfile:
    """Greedy merge of the two smallest nodes, O(n log n).

    Ties break on (value, creation order): leaves are created in input
    order, merged nodes afterwards, so the output is deterministic.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("no weights")
    if n == 1:
        return CodeLengthProfile((1,))
    heap = [(it.value, it.index) for it in weights.items]
    heapq.heapify(heap)
    parent = [-1] * (2 * n - 1)
    next_id = n
    while len(heap) > 1:
        va, ia = heapq.heappop(heap)
        vb, ib = heapq.heappop(heap)
        parent[ia] = parent[ib] = next_id
        heapq.heappush(heap, (va + vb, next_id))
        next_id += 1
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return CodeLengthProfile(tuple(depth[:n]))


def huffman_sorted_lengths(weights: WeightList,
                           counter: ComparisonCounter | None = None
                           ) -> CodeLengthProfile:
    """Two-queue merge for presorted weights: O(n) time and comparisons.

    Leaves wait in one FIFO queue, merged nodes in another; both queues stay
    sorted, so each step only compares the queue heads.  Ties prefer the
    leaf queue (earlier creation).
    """
    if not weights.sorted_flag:
        raise ValueError("two-queue construction requires a presorted list")
    n = len(weights)
    if n == 0:
        raise ValueError("no weights")
    if n == 1:
        return CodeLengthProfile((1,))
    cnt = counter if counter is not None else ComparisonCounter()
    leaves = deque((it.value, it.index) for it in weights.items)
    merged: deque[tuple[int, int]] = deque()
    parent = [-1] * (2 * n - 1)
    next_id = n

    def pop_smallest():
        if not merged:
            return leaves.popleft()
        if not leaves:
            return merged.popleft()
        cnt.count += 1
        if merged[0][0] < leaves[0][0]:
            return merged.popleft()
        return leaves.popleft()

    for _ in range(n - 1):
        va, ia = pop_smallest()
        vb, ib = pop_smallest()
        parent[ia] = parent[ib] = next_id
        merged.append((va + vb, next_id))
        next_id += 1
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return CodeLengthProfile(tuple(depth[:n]))
