import importlib.util
from pathlib import Path

from mrcode import WeightList, construct_lengths, generators

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
