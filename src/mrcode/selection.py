"""Order-statistic primitives with instrumented comparison counts.

select_rank is deterministic worst-case-linear selection (median-of-medians
with 5-element groups, 6-comparison group medians).  Every value comparison
it performs is counted.  It serves unsorted runs only: the split engine
reads a presorted run's t-th smallest weight by position, without calling
it.  The engine hands it only the piece of a run between the rank cuts
that earlier selections left around the requested rank, and writes
``smaller + [item] + larger`` back over that piece.  The piece is a rank
range of its run, so the positions on both sides of the selected weight
become rank boundaries of the run too: the new cuts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .core import ComparisonCounter, WeightItem


def _median5(a, b, c, d, e, cnt: ComparisonCounter):
    """Median of five items in exactly 6 counted comparisons."""
    cnt.count += 6
    if b < a:
        a, b = b, a
    if d < c:
        c, d = d, c
    if c < a:
        a, b, c, d = c, d, a, b
    # a is the smallest of {a,b,c,d}; median = 2nd smallest of {b, e, c, d}
    if e < b:
        b, e = e, b
    # now b <= e and c <= d
    if b < c:
        return c if c < e else e
    return b if b < d else d


def _small_median(group: list, cnt: ComparisonCounter):
    """Median (lower) of up to 4 items by counted insertion sort."""
    return _select(group, (len(group) + 1) // 2, cnt)[0]


def _pivot(items: list, cnt: ComparisonCounter):
    medians = []
    n = len(items)
    for i in range(0, n - n % 5, 5):
        medians.append(_median5(items[i], items[i + 1], items[i + 2],
                                items[i + 3], items[i + 4], cnt))
    if n % 5:
        medians.append(_small_median(items[n - n % 5:], cnt))
    return _select(medians, (len(medians) + 1) // 2, cnt)[0]


def _select(items: list, t: int, cnt: ComparisonCounter):
    """t-th smallest (1-based) in the strict order, plus both remainders.

    Each remainder is a run of blocks of ascending rank, and a block keeps
    its items in input order or sorts them, so if the first j input items
    were the j smallest, the first j of ``lows + [item] + highs`` still are.
    """
    lows_acc: list = []
    high_blocks: list = []  # larger-rank blocks, the largest first
    work = items
    while True:
        n = len(work)
        if n == 1:
            if t != 1:
                raise ValueError(f"rank {t} out of range 1..1")
            item, highs = work[0], []
            break
        if n <= 32:
            # counted insertion sort; n(n-1)/2 comparisons stay below the
            # 24n selection budget for every n up to 49.  Inserting into k
            # sorted items at position i scans past the k - i larger ones,
            # plus the one that stops the scan if i > 0; the k sum to
            # n(n-1)/2, and bisection finds each i without a counted step.
            # Input already sorted, as the remainders of an earlier
            # selection are, costs one comparison per insertion.
            out = sorted(work)
            if out == work:
                c = n - 1
            else:
                out = [work[0]]
                c = n * (n - 1) // 2
                for x in work[1:]:
                    i = bisect_right(out, x)
                    out.insert(i, x)
                    c += (i > 0) - i
            cnt.count += c
            if work is items:
                return out[t - 1], out[:t - 1], out[t:]
            lows_acc.extend(out[:t - 1])
            item, highs = out[t - 1], out[t:]
            break
        pivot = _pivot(work, cnt)
        lows = []
        highs = []
        push_lo = lows.append
        push_hi = highs.append
        cnt.count += n - 1
        for x in work:
            if x is pivot:
                continue
            if x < pivot:
                push_lo(x)
            else:
                push_hi(x)
        k = len(lows) + 1
        if t == k:
            lows_acc.extend(lows)
            item = pivot
            break
        if t < k:
            high_blocks.append(highs)
            high_blocks.append((pivot,))
            work = lows
        else:
            lows_acc.extend(lows)
            lows_acc.append(pivot)
            work = highs
            t -= k
    for block in reversed(high_blocks):
        highs += block
    return item, lows_acc, highs


def select_rank(items: Sequence[WeightItem], t: int,
                counter: ComparisonCounter | None = None):
    """Return (t-th item in the strict order, smaller ranks, larger ranks).

    The two remainder lists partition the input minus the selected element.
    If the first j input items are its j smallest, so are the first j of
    ``smaller + [item] + larger``.
    """
    n = len(items)
    if not 1 <= t <= n:
        raise ValueError(f"rank {t} out of range 1..{n}")
    cnt = counter if counter is not None else ComparisonCounter()
    return _select(items, t, cnt)
