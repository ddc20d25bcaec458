import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import mrcode
from mrcode import (CodeLengthProfile, ConstructionMode, InvalidAssignmentError, LevelState,
                    WeightItem, WeightList, assignment_from_lengths,
                    code_cost, construct_lengths, distinct_length_count,
                    generators, kraft_sum, monotone, verify_exclusion)
from mrcode import core
from mrcode.core import MAX_WEIGHT
from oracles import WORKED_COST, WORKED_VALUES


def profile(*lengths):
    return CodeLengthProfile(tuple(lengths))


def test_kraft_two_leaves():
    assert kraft_sum(profile(1, 1)) == 1


def test_kraft_worked_example_counts():
    lengths = [6] * 10 + [5] * 13 + [4] * 7
    assert kraft_sum(lengths) == 1


def test_kraft_missing_leaf():
    assert kraft_sum(profile(1, 2, 3)) == Fraction(7, 8)


def test_kraft_exact_fraction_fields():
    k = kraft_sum(profile(1, 2, 3))
    assert (k.numerator, k.denominator) == (7, 8)


def test_kraft_plain_sequence_obeys_the_profile_rules():
    # a plain sequence is made a CodeLengthProfile first, so it fails as
    # the profile would
    with pytest.raises(ValueError, match="^empty length profile$"):
        kraft_sum([])
    with pytest.raises(TypeError, match="^codeword length 1.5 is not an integer$"):
        kraft_sum([1.5, 1])
    with pytest.raises(ValueError, match="^codeword lengths must be >= 1$"):
        kraft_sum([2, 0])


@given(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=40))
def test_kraft_matches_fraction_sum(lengths):
    assert kraft_sum(lengths) == sum(Fraction(1, 2**l) for l in lengths)


def test_code_cost_worked_example():
    w = WeightList.from_values(WORKED_VALUES)
    lengths = [6] * 10 + [5] * 10 + [5, 5, 5, 4, 4] + [4] * 5
    assert code_cost(w, profile(*lengths)) == WORKED_COST


def test_code_cost_trivial():
    w = WeightList.from_values([1, 1])
    assert code_cost(w, profile(1, 1)) == 2


def test_code_cost_exponential_weights():
    # ascending powers of two force a fully skewed tree
    w = WeightList.from_values([1, 2, 4, 8, 16])
    assert code_cost(w, profile(4, 4, 3, 2, 1)) == 56


def test_code_cost_size_mismatch():
    with pytest.raises(ValueError):
        code_cost(WeightList.from_values([1, 2]), profile(1))


def test_distinct_length_count():
    assert distinct_length_count(profile(1, 1)) == 1
    assert distinct_length_count(profile(*( [6] * 10 + [5] * 13 + [4] * 7 ))) == 3
    assert distinct_length_count(profile(4, 4, 3, 2, 1)) == 4


def test_length_profile_rejects_non_integers():
    # a length that is not an integer raises TypeError naming the first
    # such length, before the range is checked; NaN no longer slips past
    # the range check to fail inside kraft_sum or canonical_codes
    nan = float("nan")
    for lengths, bad in (((1.5, 2, 2), "1.5"), ((1.0, 2.0, 2.0), "1.0"),
                         ((1, nan), "nan"), ((nan, 1), "nan"),
                         ((1, Decimal(1)), "Decimal('1')"),
                         ((1, Fraction(1)), "Fraction(1, 1)"), ((1, "2"), "'2'"),
                         ((1, 1.0), "1.0"), ((0, 1.5, "x"), "1.5"), ((2, 2, 2.5, 2), "2.5")):
        with pytest.raises(TypeError, match=f"^codeword length {re.escape(bad)} is not an integer$"):
            CodeLengthProfile(lengths)
    # True is stored as an int, like any other __index__ length
    for lengths in ((True, 1), (1, True), (True, True), (IntLike(1), 1)):
        p = CodeLengthProfile(lengths)
        assert p.lengths == (1, 1) and all(type(l) is int for l in p.lengths)
        assert repr(p) == repr(profile(1, 1)) and p == profile(1, 1)
    assert CodeLengthProfile((2, IntLike(2), 1)).lengths == (2, 2, 1)
    with pytest.raises(ValueError, match=r"^codeword lengths must be >= 1$"):
        CodeLengthProfile((False, 1))
    with pytest.raises(ValueError, match=r"^codeword lengths must be >= 1$"):
        CodeLengthProfile((1, 0, 2))
    with pytest.raises(ValueError, match=r"^empty length profile$"):
        CodeLengthProfile(())


def test_length_profile_from_a_list_hashes():
    # the lengths are stored as a tuple whatever sequence they came in
    for lengths in ([1, 1], [2, 2, 1], range(1, 2), [True, 1]):
        p = CodeLengthProfile(lengths)
        assert type(p.lengths) is tuple and p == profile(*lengths)
        assert hash(p) == hash(profile(*lengths))
    with pytest.raises(ValueError, match=r"^empty length profile$"):
        CodeLengthProfile([])


def test_profile_runs_take_no_part_in_identity():
    # a presorted construction hands its runs to the profile; one built
    # from the same lengths finds them; both are the same profile
    values = sorted(generators.generate("example41", 65536))
    built, _ = construct_lengths(WeightList.from_values(values, sorted_flag=True))
    plain = CodeLengthProfile(built.lengths)
    assert built._runs == plain._runs == tuple(core._length_runs(built.lengths)) \
        == ((18, 0, 65536), (17, 65536, 98304), (2, 98304, 98306))
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
    assert repr(built).startswith("CodeLengthProfile(lengths=(18, 18") and "_runs" not in repr(built)
    for p in (built, plain):
        copy = pickle.loads(pickle.dumps(p))
        assert copy == built and hash(copy) == hash(built) and repr(copy) == repr(built)
        assert copy._runs == built._runs
        assert kraft_sum(copy) == 1 and len(copy) == 98306
    # a profile that is not monotone holds no runs, and compares by lengths
    assert CodeLengthProfile((1, 2, 2))._runs is None
    assert CodeLengthProfile((1, 2, 2)) == CodeLengthProfile([1, 2, 2])
    # the runs of presorted constructions equal the reader's, in both modes
    rng = random.Random(16)
    for _ in range(60):
        values = sorted(rng.randint(1, rng.choice([3, 50, 10**6]))
                        for _ in range(rng.randint(2, 80)))
        for algorithm in ("detailed", "basic"):
            got, _ = construct_lengths(WeightList.from_values(values, sorted_flag=True),
                                       ConstructionMode(algorithm))
            assert got._runs == tuple(core._length_runs(got.lengths)) \
                == CodeLengthProfile(got.lengths)._runs


def test_profile_with_runs_keeps_the_input_rules():
    # lengths that never increase take the run path, and keep every rule
    for lengths, bad in (((3.0, 3.0, 2.0, 1.0), "3.0"), ((3, 3, 2.0, 1), "2.0"),
                         ((3, 3, Decimal("NaN")), "Decimal('NaN')"),
                         ((Decimal("NaN"), 1), "Decimal('NaN')"), ((2, 2, Decimal(1)), "Decimal('1')")):
        with pytest.raises(TypeError, match=f"^codeword length {re.escape(bad)} is not an integer$"):
            CodeLengthProfile(lengths)
    # a True in the run of length 1 is stored as an int
    for lengths in ((2, 2, True, 1), (3, 3, 2, True), (True, True)):
        p = CodeLengthProfile(lengths)
        assert all(type(l) is int for l in p.lengths)
        assert p == CodeLengthProfile(tuple(map(int, lengths)))
        assert p._runs == tuple(core._length_runs(p.lengths))
        assert all(type(l) is int for l, _, _ in p._runs)
    for lengths in ((2, 2, False), (3, 0, 0), (2, 1, -1), (True, False)):
        with pytest.raises(ValueError, match=r"^codeword lengths must be >= 1$"):
            CodeLengthProfile(lengths)


def test_weight_list_validation():
    def rejects(message, make):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make()

    unsorted = "sorted_flag set but sequence is not non-decreasing in (value, index) order"
    rejects("weight 0 out of range [1, 2^63-1]", lambda: WeightList.from_values([0, 1]))
    rejects(f"weight {2**63} out of range [1, 2^63-1]",
            lambda: WeightList.from_values([1, 2**63]))
    rejects("duplicate weight index 0",
            lambda: WeightList((WeightItem(1, 0), WeightItem(1, 0))))
    rejects("weight indices must cover 0..n-1 exactly once",
            lambda: WeightList((WeightItem(1, 1),)))
    rejects("weight indices must cover 0..n-1 exactly once",
            lambda: WeightList((WeightItem(1, 0), WeightItem(2, 2))))
    rejects(unsorted, lambda: WeightList.from_values([3, 1, 2], sorted_flag=True))
    rejects(unsorted, lambda: WeightList((WeightItem(1, 1), WeightItem(1, 0)),
                                         sorted_flag=True))
    # two faults: the first in input order names the error
    rejects("duplicate weight index 0",
            lambda: WeightList((WeightItem(1, 0), WeightItem(1, 0), WeightItem(0, 1))))
    rejects("weight 0 out of range [1, 2^63-1]",
            lambda: WeightList((WeightItem(0, 1), WeightItem(1, 1))))
    # indices that permute the positions are valid, presorted or not
    assert WeightList((WeightItem(2, 1), WeightItem(1, 0))).values() == [2, 1]
    assert len(WeightList((WeightItem(1, 1), WeightItem(2, 0)), sorted_flag=True)) == 2


class IntLike:
    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_weight_list_rejects_non_integers():
    # a float, str or Decimal is rejected, not truncated: 2.7 would read
    # as 2, and 0.5 as the out-of-range weight 0
    for bad in (2.7, 0.5, "4", Decimal(3)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            WeightList.from_values([1, bad])
    with pytest.raises(TypeError, match=r"^weight 2\.5 is not an integer$"):
        WeightList.from_values(iter([1, 2.5, "x"]))
    with pytest.raises(TypeError, match=r"^weight nan is not an integer$"):
        WeightList((WeightItem(5, 0), WeightItem(float("nan"), 1)))
    assert WeightList.from_values([True, 2, IntLike(5)]).values() == [1, 2, 5]
    # the items constructor applies the same rule to each index
    for bad in (0.0, "0", 1.5):
        with pytest.raises(TypeError, match=f"^weight index {re.escape(repr(bad))} "
                                            "is not an integer$"):
            WeightList((WeightItem(1, bad),))
    with pytest.raises(TypeError, match=r"^weight 1\.5 is not an integer$"):
        LevelState({0: (WeightItem(1.5, 0),)})


_MIXED_VALUES = st.one_of(
    st.integers(min_value=1, max_value=9), st.just(MAX_WEIGHT),
    st.sampled_from([0, 2**63, 1.5, 2.0, float("nan"), Decimal("2.5"), Decimal(3),
                     Fraction(5, 2), Fraction(4, 1), "4", True, False]),
    st.integers(min_value=0, max_value=9).map(IntLike))


def _mixed_sort_key(v):
    """A total order on _MIXED_VALUES: NaN, which compares false with every
    number and makes Decimal's comparisons raise, sorts after the rest."""
    if isinstance(v, IntLike):
        return 0, v.v
    if isinstance(v, str):
        return 0, 0
    return (1, 0) if v != v else (0, v)


@given(st.lists(_MIXED_VALUES, max_size=8), st.booleans(), st.booleans())
@example([1.5], False, False)
@example([float("nan")], False, False)
@example([True, 2], False, True)
@example([0, 1.5], False, False)
@example([float("nan"), Decimal("2.5")], True, False)
def test_both_constructors_apply_one_rule(values, presort, sorted_flag):
    # from_values and the items constructor accept the same lists and
    # build the same list of ints from them, or reject them with the same
    # error, the first fault in input order
    if presort:  # sorted_flag lists that can pass
        values.sort(key=_mixed_sort_key)

    def build(make):
        try:
            return make(), None
        except (TypeError, ValueError) as e:
            return None, e

    w, err = build(lambda: WeightList.from_values(values, sorted_flag))
    items = tuple(WeightItem(v, i) for i, v in enumerate(values))
    ref, ref_err = build(lambda: WeightList(items, sorted_flag))
    assert (type(err), str(err)) == (type(ref_err), str(ref_err))
    if w is not None:
        assert w == ref and hash(w) == hash(ref) and repr(w) == repr(ref)
        for got in (w, ref):
            assert all(type(v) is int for v in got.values())
            assert all(type(v) is int and type(i) is int for v, i in got.items)


def test_weight_list_positional_flag():
    # True when every index is its position; derived, so it takes no part
    # in equality, hashing or repr
    assert WeightList.from_values([3, 1, 2]).positional
    assert WeightList.from_values([1, 2, 2], sorted_flag=True).positional
    assert WeightList.from_values([5, 1, 3]).sorted_copy().positional
    items = (WeightItem(1, 1), WeightItem(2, 0))
    for sorted_flag in (False, True):
        permuted = WeightList(items, sorted_flag)
        assert not permuted.positional
        assert "positional" not in repr(permuted)
    a = WeightList((WeightItem(2, 0), WeightItem(1, 1)))
    b = WeightList((WeightItem(2, 0), WeightItem(1, 1)))
    object.__setattr__(b, "positional", False)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "positional" not in repr(a)


def _bad_inputs():
    """(values, sorted_flag) pairs that the range or order check rejects,
    some with both faults."""
    return [([0, 1], False), ([1, 2**63], False), ([2, 0, 1], False),
            ([3, 1, 2], True), ([1, 2, 2, 1], True), ([3, 0, 2], True),
            ([2, 1, 2**63], True), ([0], True), ([2**63, 2**63 + 1], True),
            ([0, 1, 1], True), ([1, 2, 2**63], True)]


def test_values_in_list_matches_items_list():
    # a from_values list keeps its values as ints, and a presorted one
    # makes items on first use; it must equal, hash and print like the
    # list built from the same items, and reject what that list rejects,
    # with the same message
    rng = random.Random(69)
    cases = [([5], False), ([1, MAX_WEIGHT], True), ([2, 2, 1], False)]
    for n in (2, 30, 300):
        values = [rng.randint(1, rng.choice([2, 5, MAX_WEIGHT])) for _ in range(n)]
        cases += [(values, False), (sorted(values), True)]
    for values, sorted_flag in cases:
        w = WeightList.from_values(values, sorted_flag)
        assert ("items" in vars(w)) == (not sorted_flag)  # presorted: made when read
        assert len(w) == len(values) and w.values() == values and w.positional
        ref = WeightList(tuple(WeightItem(v, i) for i, v in enumerate(values)), sorted_flag)
        assert ref == w and w == ref and hash(w) == hash(ref) and repr(w) == repr(ref)
        assert w.items == ref.items and type(w.items[0]) is WeightItem
        assert w.sorted_copy() == ref.sorted_copy()
    for values, sorted_flag in _bad_inputs():
        items = tuple(WeightItem(v, i) for i, v in enumerate(values))
        with pytest.raises(ValueError) as from_items:
            WeightList(items, sorted_flag)
        with pytest.raises(ValueError) as from_values:
            WeightList.from_values(values, sorted_flag)
        assert type(from_values.value) is type(from_items.value)
        assert str(from_values.value) == str(from_items.value)


def test_from_values_copies_its_input():
    # changing the caller's list after from_values, before or after items
    # are first read, changes neither the items nor a construction
    values = sorted(generators.example41(256, 0))
    expected = construct_lengths(WeightList.from_values(values, True))
    for read_first in (False, True):
        src = list(values)
        w = WeightList.from_values(src, sorted_flag=True)
        if read_first:
            w.items
        src[0] = 10**6
        src.append(1)
        assert w.values() == values
        assert w.items == tuple(WeightItem(v, i) for i, v in enumerate(values))
        assert construct_lengths(w) == expected


def test_sorted_copy():
    w = WeightList.from_values([5, 1, 3]).sorted_copy()
    assert w.sorted_flag and w.values() == [1, 3, 5]


def test_monotone():
    w = WeightList.from_values([10, 1, 5])
    assert monotone(w, profile(1, 3, 2))
    assert not monotone(w, profile(3, 1, 2))
    # ties may take different lengths in either order
    w2 = WeightList.from_values([4, 4, 1, 1])
    assert monotone(w2, profile(2, 1, 3, 3))


def worked_assignment():
    w = WeightList.from_values(WORKED_VALUES)
    levels = {
        0: [it for it in w.items if it.value == 2],
        1: [it for it in w.items if it.value == 3] + [it for it in w.items
                                                      if it.value == 5][:3],
        2: [it for it in w.items if it.value == 5][3:] + [it for it in w.items
                                                          if it.value == 9],
    }
    return w, LevelState.from_lists(levels)


def test_exclusion_worked_example_final_assignment():
    w, state = worked_assignment()
    ok, msg = verify_exclusion(w, state)
    assert ok, msg


def test_exclusion_two_equal_weights():
    w = WeightList.from_values([7, 7])
    ok, _ = verify_exclusion(w, LevelState.from_lists({0: list(w.items)}))
    assert ok


def test_exclusion_detects_misplaced_weight():
    # swapping a 9 down to level 0 (and a 2 up, to keep the counts pairable)
    # puts a 9 below the value-4 internals that level 0 produces
    w, state = worked_assignment()
    levels = {lv: list(items) for lv, items in state.levels.items()}
    nine = levels[2].pop()
    two = levels[0].pop(0)
    assert (nine.value, two.value) == (9, 2)
    levels[0].append(nine)
    levels[2].append(two)
    ok, msg = verify_exclusion(w, LevelState.from_lists(levels))
    assert not ok
    assert "smaller" in msg


def test_exclusion_rejects_unpairable_counts():
    # moving a single weight down breaks the parity a full tree needs; that
    # is a structural error, not a False verdict
    w, state = worked_assignment()
    levels = {lv: list(items) for lv, items in state.levels.items()}
    levels[0] = levels[0] + [levels[2].pop()]
    with pytest.raises(InvalidAssignmentError):
        verify_exclusion(w, LevelState.from_lists(levels))


def test_exclusion_structural_error_is_not_false():
    w = WeightList.from_values([1, 2, 3])
    state = LevelState.from_lists({0: list(w.items)})  # 3 leaves cannot pair
    with pytest.raises(InvalidAssignmentError):
        verify_exclusion(w, state)


def test_exclusion_requires_full_cover():
    w = WeightList.from_values([1, 2])
    with pytest.raises(InvalidAssignmentError):
        verify_exclusion(w, LevelState.from_lists({0: [w.items[0]]}))


def test_assignment_from_lengths_round_trip():
    w, state = worked_assignment()
    lengths = [0] * len(w)
    for lv, items in state.levels.items():
        for it in items:
            lengths[it.index] = 6 - lv
    rebuilt = assignment_from_lengths(w, profile(*lengths))
    assert {lv: sorted(items) for lv, items in rebuilt.levels.items()} == \
           {lv: sorted(items) for lv, items in state.levels.items()}


def test_every_exported_name_resolves():
    assert len(set(mrcode.__all__)) == len(mrcode.__all__)
    missing = [name for name in mrcode.__all__ if not hasattr(mrcode, name)]
    assert missing == []
    # the exhaustive search serves only the tests and lives in their oracles
    assert "brute_force_optimal" not in mrcode.__all__
    assert not hasattr(mrcode, "brute_force_optimal")
