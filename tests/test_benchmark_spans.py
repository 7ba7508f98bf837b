"""The benchmark's span tracer wraps functions by name.

``benchmarks/spans.py`` lists, per layer, the public functions it times.  A
listed name that no longer exists breaks a traced benchmark run, so every
name must stay a callable attribute of its ``trunkpack`` module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_traced_span_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"trunkpack.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
