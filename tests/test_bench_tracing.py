"""The traced benchmark run wraps the functions named in ``bench/tracing.py``;
each name must still exist, and each must be its own function, because the
tracer rebinds wrappers by object identity."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve_to_distinct_callables():
    tracing = _load_tracing()
    assert set(tracing.WRAPPED) == set(tracing.LAYERS)
    for layer, functions in tracing.WRAPPED.items():
        module = importlib.import_module(f"quandles.{layer}")
        objects = []
        for name, _ in functions:
            value = getattr(module, name, None)
            assert callable(value), f"{layer}.{name}"
            objects.append(value)
        assert len({id(v) for v in objects}) == len(objects), layer
