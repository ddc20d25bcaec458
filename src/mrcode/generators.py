"""Deterministic weight-family generators used by the CLI and benchmarks."""

from __future__ import annotations

import random

from .core import WeightList
from .construct import ConstructionMode, construct_lengths

MAX_UNIFORM = 10**9


def equal(n: int, seed: int = 0) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    value = random.Random(seed).randint(1, MAX_UNIFORM)
    return [value] * n


def exponential(n: int, seed: int = 0) -> list[int]:
    """Powers of two: every merge is forced, so all lengths are distinct."""
    if not 1 <= n <= 62:
        raise ValueError("exponential family supports 1 <= n <= 62")
    return [1 << i for i in range(n)]


def uniform(n: int, seed: int = 0) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    return [rng.randint(1, MAX_UNIFORM) for _ in range(n)]


def geometric(n: int, seed: int = 0) -> list[int]:
    """Values clustered on a few powers of two; few distinct lengths."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        g = min(rng.getrandbits(32).bit_length() % 9, 8)
        base = 1 << (2 * g)
        out.append(base + rng.randint(0, base // 2))
    return out


def two_cluster(n: int, seed: int = 0) -> list[int]:
    """Half the weights near a small value, half near a much larger one."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    small = rng.randint(1, 1000)
    big = small * rng.randint(500, 2000)
    out = [small + rng.randint(0, small) for _ in range(n // 2)]
    out += [big + rng.randint(0, big // 100 + 1) for _ in range(n - n // 2)]
    rng.shuffle(out)
    return out


def example41(n: int, seed: int = 0) -> list[int]:
    """A three-length family: 3n/2 + 2 weights for n a power of two.

    n weights land at the deepest level, n/2 one level above, and two big
    weights at level lg(n); the small weights roll up into exactly two
    internal nodes there.  The generator self-checks by running the
    constructor and asserting the resulting shape.
    """
    if n < 4 or n & (n - 1):
        raise ValueError("example41 requires n a power of two, n >= 4")
    rng = random.Random(seed)
    base = 1 << 20
    deep = [base + rng.randint(0, base // 8) for _ in range(n)]
    # mid weights must clear the sum of the two smallest deep weights but
    # stay below the sum of the two smallest deep pairs
    mid = [3 * base + rng.randint(0, base // 8) for _ in range(n // 2)]
    total_small = sum(deep) + sum(mid)
    big = total_small * 3 // 5
    weights = deep + mid + [big, big + 1]
    rng.shuffle(weights)

    profile, _ = construct_lengths(WeightList.from_values(sorted(weights), sorted_flag=True),
                                   ConstructionMode("detailed"))
    lengths = sorted(set(profile.lengths), reverse=True)
    counts = {l: profile.lengths.count(l) for l in lengths}
    lg = n.bit_length() - 1
    expected = {lg + 2: n, lg + 1: n // 2, 2: 2}
    if counts != expected:
        raise AssertionError(f"self-check failed: got {counts}, wanted {expected}")
    return weights


_GENERATORS = {
    "example41": example41,
    "equal": equal,
    "exponential": exponential,
    "uniform": uniform,
    "geometric": geometric,
    "two-cluster": two_cluster,
}
FAMILIES = tuple(_GENERATORS)


def generate(family: str, n: int, seed: int = 0) -> list[int]:
    try:
        gen = _GENERATORS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}") from None
    return gen(n, seed)
