"""The benchmark's tracer still finds every program name it wraps.

``perfbench/run.py --trace 1`` swaps module attributes of the program for
timing wrappers, looked up by name. Renaming or deleting one of them breaks
the traced run, so this test builds the tracer (which looks every name up)
without installing it.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.layer_tracer()
    assert tracer._patches
    for module, attr, original, wrapper in tracer._patches:
        assert callable(original), f"{module.__name__}.{attr}"
        # looked up, not installed
        assert getattr(module, attr) is original
