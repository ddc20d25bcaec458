import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # a renamed entry point would leave its span unrecorded and its metrics
    # at 0, so each (owner, attribute) the tracer wraps must exist
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name in tracing.TARGETS:
        assert owner is not None, name
        assert getattr(owner, attr, None) is not None, f"{name} ({attr})"
