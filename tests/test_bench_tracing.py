"""The benchmark's tracer names only functions that exist in the library."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for span, (module, functions, _, _) in tracing.LAYERS.items():
        home = importlib.import_module(f"spanauto.{module}")
        for name in functions:
            assert callable(getattr(home, name, None)), f"{span}: spanauto.{module}.{name} is missing"
