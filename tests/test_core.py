import copy
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mrcode
from mrcode import (CodeLengthProfile, ConstructionMode, InvalidAssignmentError,
                    WeightItem, WeightList, code_cost, construct_lengths,
                    distinct_length_count, generators, kraft_sum, monotone,
                    verify_exclusion)
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


def test_distinct_length_count_from_runs():
    # a profile that holds its runs counts them; any other counts a set
    w = WeightList.from_values(sorted(generators.example41(256, 0)), sorted_flag=True)
    run_backed, _ = construct_lengths(w)
    assert type(run_backed.lengths) is core.RunLengths
    rng = random.Random(428)
    monotone_tuple = profile(*sorted((rng.randint(1, 9) for _ in range(60)), reverse=True))
    shuffled = list(monotone_tuple.lengths)
    rng.shuffle(shuffled)
    rising = profile(*shuffled)
    assert run_backed._runs is not None and monotone_tuple._runs is not None
    assert rising._runs is None
    for p in (run_backed, monotone_tuple, rising):
        assert distinct_length_count(p) == len(set(tuple(p.lengths)))
    assert distinct_length_count(run_backed) == 3


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


@st.composite
def _length_runs(draw):
    """(length, lo, hi) runs of 1 to 5 strictly falling lengths, each over
    1 to 20 positions, as a presorted construction ends with them."""
    lengths = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=5)), reverse=True)
    runs, lo = [], 0
    for l in lengths:
        hi = lo + draw(st.integers(1, 20))
        runs.append((l, lo, hi))
        lo = hi
    return tuple(runs)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc), str(exc)


@given(_length_runs(), _length_runs(), st.data())
@settings(max_examples=300, deadline=None)
def test_run_lengths_behave_as_their_tuple(runs, other_runs, data):
    rl, other = core.RunLengths(runs), core.RunLengths(other_runs)
    t, ot = tuple(rl), tuple(other)
    assert t == tuple(l for l, lo, hi in runs for _ in range(lo, hi))
    n = len(t)
    # equality in both operand orders, against the tuple and run-backed
    # lengths; a list equals neither, as it equals no tuple
    for a, b in ((rl, t), (t, rl), (rl, core.RunLengths(runs)), (rl, rl)):
        assert a == b and not a != b
    for a, b in ((rl, ot), (ot, rl), (rl, other), (other, rl)):
        assert (a == b) == (t == ot) and (a != b) == (t != ot)
    for a, b in ((rl, list(t)), (list(t), rl)):
        assert not a == b and a != b
    assert (hash(rl), repr(rl), len(rl), list(rl)) == (hash(t), repr(t), n, list(t))
    # every index, in range or not, and what is no index at all
    for i in (*range(-n - 1, n + 1), True, False, 1.0, "0", None):
        assert _outcome(rl.__getitem__, i) == _outcome(t.__getitem__, i)
    sl = data.draw(st.slices(n + 2))
    assert type(rl[sl]) is tuple and rl[sl] == t[sl]
    for v in (*set(t), 0, 41, float(t[0]), "a"):
        assert (rl.count(v), v in rl) == (t.count(v), v in t)
        assert _outcome(rl.index, v) == _outcome(t.index, v)
        start, stop = (data.draw(st.integers(-n - 2, n + 2)) for _ in range(2))
        assert _outcome(rl.index, v, start, stop) == _outcome(t.index, v, start, stop)
    for dup in (copy.copy(rl), copy.deepcopy(rl)):
        assert dup == t and hash(dup) == hash(t)
    # pickled as the tuple, so a pickle reads back as one
    loaded = pickle.loads(pickle.dumps(rl))
    assert type(loaded) is tuple and loaded == t


def test_only_presorted_positional_constructions_hold_run_lengths():
    # a presorted construction on a positional list hands back its runs;
    # unsorted and non-positional lists, the oracles and profiles built
    # from lengths hold plain tuples, equal to them
    values = sorted(generators.generate("example41", 256))
    rev = values[::-1]
    built = construct_lengths(WeightList.from_values(values, sorted_flag=True))[0]
    assert type(built.lengths) is core.RunLengths and built.lengths.runs == built._runs
    same = (construct_lengths(WeightList.from_values(values))[0],
            mrcode.huffman_sorted_lengths(WeightList.from_values(values, sorted_flag=True)),
            CodeLengthProfile(built.lengths))
    reverse = (construct_lengths(WeightList.from_values(rev))[0],
               construct_lengths(WeightList(tuple(sorted(map(WeightItem, rev, range(len(rev))))),
                                            sorted_flag=True))[0])
    for p in same + reverse:
        assert type(p.lengths) is tuple
    for p in same:
        assert p == built and hash(p) == hash(built) and p.lengths == built.lengths
    for p in reverse:
        assert p.lengths[::-1] == built.lengths


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
    assert [it.value for it in WeightList((WeightItem(2, 1), WeightItem(1, 0))).items] == [2, 1]
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
    assert [it.value for it in WeightList.from_values([True, 2, IntLike(5)]).items] == [1, 2, 5]
    # the items constructor applies the same rule to each index
    for bad in (0.0, "0", 1.5):
        with pytest.raises(TypeError, match=f"^weight index {re.escape(repr(bad))} "
                                            "is not an integer$"):
            WeightList((WeightItem(1, bad),))
    with pytest.raises(TypeError, match=r"^weight 1\.5 is not an integer$"):
        WeightList((WeightItem(1.5, 0),))


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
            assert all(type(v) is int for v in got._vals)
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
        assert len(w) == len(values) and w.positional
        assert [it.value for it in w.items] == values
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
        assert [it.value for it in w.items] == values
        assert w.items == tuple(WeightItem(v, i) for i, v in enumerate(values))
        assert construct_lengths(w) == expected


def test_sorted_copy():
    w = WeightList.from_values([5, 1, 3]).sorted_copy()
    assert w.sorted_flag and [it.value for it in w.items] == [1, 3, 5]


def test_monotone():
    w = WeightList.from_values([10, 1, 5])
    assert monotone(w, profile(1, 3, 2))
    assert not monotone(w, profile(3, 1, 2))
    # ties may take different lengths in either order
    w2 = WeightList.from_values([4, 4, 1, 1])
    assert monotone(w2, profile(2, 1, 3, 3))


def worked_assignment():
    """The worked example and its final lengths, 6 - lv for a weight at
    level lv: the 2s at level 0, the 3s and the first three 5s at level 1,
    the other 5s and the 9s at level 2."""
    lengths = [{2: 6, 3: 5, 5: 4, 9: 4}[v] for v in WORKED_VALUES]
    for i in [i for i, v in enumerate(WORKED_VALUES) if v == 5][:3]:
        lengths[i] = 5
    return WeightList.from_values(WORKED_VALUES), lengths


def test_exclusion_worked_example_final_assignment():
    w, lengths = worked_assignment()
    ok, msg = verify_exclusion(w, profile(*lengths))
    assert ok, msg


def test_exclusion_two_equal_weights():
    w = WeightList.from_values([7, 7])
    ok, _ = verify_exclusion(w, profile(1, 1))
    assert ok


def test_exclusion_detects_misplaced_weight():
    # swapping a 9 down to level 0 (and a 2 up, to keep the counts pairable)
    # puts a 9 below the value-4 internals that level 0 produces
    w, lengths = worked_assignment()
    nine, two = len(WORKED_VALUES) - 1, 0  # the last 9 and the first 2
    assert (WORKED_VALUES[nine], WORKED_VALUES[two]) == (9, 2)
    lengths[nine], lengths[two] = lengths[two], lengths[nine]
    ok, msg = verify_exclusion(w, profile(*lengths))
    assert not ok
    assert "smaller" in msg


def test_exclusion_rejects_unpairable_counts():
    # moving a single weight down breaks the parity a full tree needs; that
    # is a structural error, not a False verdict
    w, lengths = worked_assignment()
    lengths[-1] = 6  # the last 9, from level 2 to level 0
    with pytest.raises(InvalidAssignmentError):
        verify_exclusion(w, profile(*lengths))


def test_exclusion_structural_error_is_not_false():
    w = WeightList.from_values([1, 2, 3])
    with pytest.raises(InvalidAssignmentError):  # 3 leaves cannot pair
        verify_exclusion(w, profile(2, 2, 2))


def test_exclusion_requires_full_cover():
    # one length per weight, as `code_cost` and `monotone` require
    w = WeightList.from_values([1, 2])
    for check in (verify_exclusion, code_cost, monotone):
        with pytest.raises(ValueError, match="^weights and lengths must have equal size$"):
            check(w, profile(1))


def test_every_exported_name_resolves():
    assert len(set(mrcode.__all__)) == len(mrcode.__all__)
    missing = [name for name in mrcode.__all__ if not hasattr(mrcode, name)]
    assert missing == []
    # the exhaustive search serves only the tests and lives in their oracles
    assert "brute_force_optimal" not in mrcode.__all__
    assert not hasattr(mrcode, "brute_force_optimal")
    # the splitting queries have one name each, in the split module
    for name in ("SplitResult", "find_splitting_all", "find_splitting_internal",
                 "find_t_smallest", "find_t_largest", "add_weights", "cut"):
        assert name not in mrcode.__all__
        assert not hasattr(mrcode, name)
        assert not hasattr(mrcode.split, name)
    # a slice is its tuple of (level, lo, hi); the tests lay out their
    # own slices with `oracles.slice_from_levels`
    for name in ("from_levels", "levels", "level_items"):
        assert not hasattr(mrcode.LeafSlice, name)
    # a profile is made from lengths or, by a presorted construction, from
    # its runs (`_from_runs`); there is no third way
    assert not hasattr(CodeLengthProfile, "_checked")
    # the exclusion checker takes the profile, and the tests read a list's
    # values from its items
    for name in ("LevelState", "assignment_from_lengths"):
        assert name not in mrcode.__all__
        assert not hasattr(mrcode, name)
        assert not hasattr(mrcode.core, name)
    assert not hasattr(WeightList, "values")


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
