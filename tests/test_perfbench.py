import importlib.util
import inspect
from pathlib import Path

from mrcode import (ConstructionMode, WeightList, codec, construct, construct_lengths,
                    generators, split)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    # a renamed entry point would leave its span unrecorded and its metrics
    # at 0, so each (owner, attribute) the tracer wraps must exist
    tracing = _tracing()
    for owner, attr, name in tracing.TARGETS:
        assert owner is not None, name
        assert getattr(owner, attr, None) is not None, f"{name} ({attr})"


def test_every_span_records_a_call():
    # README's 30 weights, unsorted and presorted, under both drivers, and
    # one codec round trip reach every layer the tracer wraps; a span with
    # no call would report its metrics as 0 without a "not traced" line
    tracing = _tracing()
    values = [2] * 10 + [3] * 10 + [5] * 5 + [9] * 5
    unsorted = WeightList.from_values(values[::-1])
    presorted = WeightList.from_values(values, sorted_flag=True)
    with tracing.Tracer() as tracer:
        for weights in (unsorted, presorted):
            for algo in ("detailed", "basic"):
                profile, _ = construct_lengths(weights, ConstructionMode(algo))
                tracer.end_op()
        table = codec.canonical_codes(profile)
        symbols = list(range(len(values))) * 3
        payload, bits = codec.encode(symbols, table)
        blob = codec.pack_container(profile.lengths, payload, bits)
        lengths, payload, bits = codec.unpack_container(blob)
        assert codec.decode(payload, bits, table) == symbols
        tracer.end_op()
    assert tracer.missing == []
    assert [name for name in tracing.SPAN_NAMES if not tracer.totals[f"{name}.calls"]] == []


def test_no_subclass_overrides_a_traced_method():
    # the tracer wraps a method on the class that TARGETS names; a subclass
    # that defines the same name would run its own code past the wrapper
    tracing = _tracing()
    for module in (construct, split):
        for cls in vars(module).values():
            if not inspect.isclass(cls):
                continue
            for owner, attr, name in tracing.TARGETS:
                if inspect.isclass(owner) and owner is not cls and issubclass(cls, owner):
                    assert attr not in vars(cls), f"{cls.__name__}.{attr} hides {name}"


def test_key_capture_reads_the_slices_it_needs():
    # the capture-keys pass reads each `_fsi` slice's weights through
    # `LeafSlice.all_items`, beyond the names in TARGETS; a construction of
    # each store kind must record keys under it
    tracing = _tracing()
    unsorted = WeightList.from_values([2] * 10 + [3] * 10 + [5] * 5 + [9] * 5)
    presorted = WeightList.from_values(sorted(generators.example41(256, 0)),
                                       sorted_flag=True)
    for weights in (unsorted, presorted):
        with tracing.Tracer(capture_keys=True) as tracer:
            construct_lengths(weights)
            tracer.end_op()
        assert tracer.missing == []
        assert tracer.totals["split.fsi_keys"] > 0
