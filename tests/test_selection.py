import random

import pytest
from hypothesis import given, settings, strategies as st

from mrcode import ComparisonCounter, WeightItem, select_rank


def items_of(values):
    return [WeightItem(v, i) for i, v in enumerate(values)]


def test_singleton():
    assert select_rank(items_of([5]), 1) == (WeightItem(5, 0), [], [])


def test_forced_order():
    e, lo, hi = select_rank(items_of([3, 1, 2]), 2)
    assert e == WeightItem(2, 2)
    assert lo == [WeightItem(1, 1)]
    assert hi == [WeightItem(3, 0)]


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        select_rank(items_of([1, 2]), 3)
    with pytest.raises(ValueError):
        select_rank(items_of([1, 2]), 0)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=200),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_matches_sort_oracle(values, rnd):
    items = items_of(values)
    t = rnd.randint(1, len(items))
    cnt = ComparisonCounter()
    e, lo, hi = select_rank(items, t, cnt)
    ranked = sorted(items)
    assert e == ranked[t - 1]
    assert sorted(lo) == ranked[:t - 1]
    assert sorted(hi) == ranked[t:]
    # partition correctness under the strict order
    assert all(x < e for x in lo)
    assert all(e < x for x in hi)


def test_large_random_vs_sort_oracle():
    rng = random.Random(17)
    for _ in range(20):
        items = items_of([rng.randint(1, 100) for _ in range(1000)])
        t = rng.randint(1, 1000)
        e, lo, hi = select_rank(items, t)
        assert e == sorted(items)[t - 1]


def test_comparison_budget_linear():
    rng = random.Random(23)
    for n in (5, 33, 100, 400, 1500):
        for _ in range(5):
            items = items_of([rng.randint(1, 40) for _ in range(n)])
            cnt = ComparisonCounter()
            select_rank(items, rng.randint(1, n), cnt)
            assert cnt.count <= 24 * n, (n, cnt.count)


def _insertion_sort_comparisons(items):
    """Comparisons of a right-to-left insertion sort, made one at a time."""
    out, count = [], 0
    for x in items:
        i = len(out)
        while i > 0:
            count += 1
            if x < out[i - 1]:
                i -= 1
            else:
                break
        out.insert(i, x)
    return count


def test_small_selection_counts_insertion_sort():
    rng = random.Random(29)
    for n in range(1, 33):
        for values in ([rng.randint(1, 9) for _ in range(n)],
                       list(range(n)), list(range(n, 0, -1))):
            items = items_of(values)
            cnt = ComparisonCounter()
            e, lo, hi = select_rank(items, rng.randint(1, n), cnt)
            assert cnt.count == _insertion_sort_comparisons(items), values


def _cuts(items):
    """Every j for which the first j items are the j smallest."""
    suffix_min = items[-1:]
    for x in reversed(items[1:-1]):
        suffix_min.append(min(x, suffix_min[-1]))
    suffix_min.reverse()
    cuts, top = set(), items[0]
    for j in range(1, len(items)):
        top = max(top, items[j - 1])
        if top < suffix_min[j - 1]:
            cuts.add(j)
    return cuts


def test_remainders_keep_earlier_partitions():
    # if the first j items are the j smallest, the rewritten order
    # smaller + [item] + larger keeps them first, for every such j
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice([rng.randint(2, 40), rng.randint(41, 400)])
        items = items_of([rng.randint(1, rng.choice([3, 50, 10**6])) for _ in range(n)])
        rng.shuffle(items)
        # partition around a few random ranks first, as earlier selections would
        for _ in range(rng.randint(0, 3)):
            e, lo, hi = select_rank(items, rng.randint(1, n))
            items = lo + [e] + hi
        e, lo, hi = select_rank(items, rng.randint(1, n))
        assert _cuts(items) <= _cuts(lo + [e] + hi)


def _musser_killer(n):
    """Musser's median-of-3 killer sequence (1997) for even n, with n
    appended for odd n."""
    k = n // 2
    a = [0] * (2 * k)
    for i in range(1, k + 1):
        a[i - 1] = i if i % 2 else k + i - 1
        a[k + i - 1] = 2 * i
    return a + [n] * (n % 2)


_ADVERSARIAL = {
    "sorted": lambda n: list(range(n)),
    "reversed": lambda n: list(range(n, 0, -1)),
    "organ-pipe": lambda n: list(range(n // 2)) + list(range(n - n // 2, 0, -1)),
    "sawtooth": lambda n: [i % 17 for i in range(n)],
    "median-of-3-killer": _musser_killer,
    "values-1-to-3": lambda n: [random.Random(n).randint(1, 3) for _ in range(n)],
}


@pytest.mark.parametrize("n", [33, 64, 100, 257, 1000, 4096])
@pytest.mark.parametrize("shape", sorted(_ADVERSARIAL))
def test_adversarial_inputs(shape, n):
    # the oracle's answer, the first-j-smallest contract and the linear
    # budget, at ranks near both ends and in the middle
    items = items_of(_ADVERSARIAL[shape](n))
    ranked = sorted(items)
    before = _cuts(items)
    for t in sorted({1, 2, n // 4, n // 2, n - 1, n}):
        cnt = ComparisonCounter()
        e, lo, hi = select_rank(items, t, cnt)
        assert e == ranked[t - 1]
        assert sorted(lo) == ranked[:t - 1] and sorted(hi) == ranked[t:]
        assert before <= _cuts(lo + [e] + hi)
        assert cnt.count <= 24 * n, (shape, n, t, cnt.count)


class _Gas:
    """McIlroy's adversary ("A killer adversary for quicksort", 1999): an
    item's value stays unset ("gas"), above every set value, until two gas
    items meet; then one is frozen at the next smallest value, the one
    last compared with a set value if it is either, as a pivot is.  So
    each pivot the cheap rule picks is frozen low, whatever the items it
    samples."""

    __slots__ = ("value", "state")

    def __init__(self, state):
        self.value = None
        self.state = state

    def __lt__(self, other):
        st = self.state
        if self.value is None and other.value is None:
            frozen = self if st["candidate"] is self else other
            frozen.value = st["solid"]
            st["solid"] += 1
        if self.value is None:  # gas ranks above every solid value
            st["candidate"] = self
            return False
        if other.value is None:
            st["candidate"] = other
            return True
        return self.value < other.value


def _adversary_values(n, t):
    """Values on which selecting rank t runs as it did against `_Gas`."""
    state = {"solid": 0, "candidate": None}
    gas = [_Gas(state) for _ in range(n)]
    select_rank(gas, t)
    top = state["solid"]
    return [g.value if g.value is not None else top + i for i, g in enumerate(gas)]


def test_fallback_to_median_of_medians(monkeypatch):
    # against the adversary the first cheap pivot ranks near the bottom,
    # so the first partition keeps more than 7/8 of its input and the call
    # falls back to median-of-medians pivots, within the linear budget
    import mrcode.selection as selection
    calls = []
    pivot = selection._pivot

    def counted(items, cnt):
        calls.append(len(items))
        return pivot(items, cnt)

    monkeypatch.setattr(selection, "_pivot", counted)
    for n in (100, 257, 1000, 4096):
        for t in (n // 2, n):
            values = _adversary_values(n, t)
            items = items_of(values)
            del calls[:]
            cnt = ComparisonCounter()
            e, lo, hi = select_rank(items, t, cnt)
            assert e == sorted(items)[t - 1]
            assert calls, (n, t)
            assert cnt.count <= 24 * n, (n, t, cnt.count)
