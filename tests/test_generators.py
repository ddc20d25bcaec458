import pytest

from mrcode import WeightList, construct_lengths, huffman_lengths, code_cost
from mrcode import generators


def test_families_are_deterministic():
    for family in generators.FAMILIES:
        n = 16
        a = generators.generate(family, n, seed=7)
        b = generators.generate(family, n, seed=7)
        c = generators.generate(family, n, seed=8)
        assert a == b
        if family != "exponential":
            assert a != c


def test_example41_shape():
    # n weights of length lg n + 2, n/2 of length lg n + 1 and two of
    # length 2, at optimal cost, presorted and (up to n = 1024) as
    # generated; the generator itself runs no construction
    for n in (4, 16, 1024, 65536):
        lg = n.bit_length() - 1
        for seed in (0, 1):
            values = generators.example41(n, seed)
            assert len(values) == 3 * n // 2 + 2
            inputs = [WeightList.from_values(sorted(values), sorted_flag=True)]
            if n <= 1024:
                inputs.append(WeightList.from_values(values))
            for w in inputs:
                profile, stats = construct_lengths(w)
                assert stats.distinct_lengths == 3
                lengths = tuple(profile.lengths)
                counts = {l: lengths.count(l) for l in set(lengths)}
                assert counts == {lg + 2: n, lg + 1: n // 2, 2: 2}, (n, seed)
                assert code_cost(w, profile) == code_cost(w, huffman_lengths(w))


def test_example41_rejects_bad_n():
    with pytest.raises(ValueError):
        generators.example41(12)
    with pytest.raises(ValueError):
        generators.example41(2)


def test_equal_family_lengths():
    w = WeightList.from_values(generators.generate("equal", 8, seed=2))
    profile, _ = construct_lengths(w)
    assert set(profile.lengths) == {3}


def test_exponential_family_lengths():
    values = generators.generate("exponential", 5)
    profile, _ = construct_lengths(WeightList.from_values(values))
    assert profile.lengths == (4, 4, 3, 2, 1)


def test_all_families_build_optimal_codes():
    for family in generators.FAMILIES:
        n = 16
        values = generators.generate(family, n, seed=5)
        w = WeightList.from_values(values)
        profile, stats = construct_lengths(w)
        assert code_cost(w, profile) == code_cost(w, huffman_lengths(w))
        assert stats.iterations <= 2 * stats.distinct_lengths


def test_unknown_family():
    with pytest.raises(ValueError):
        generators.generate("nope", 4)
