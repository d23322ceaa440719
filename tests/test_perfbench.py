"""The benchmark's tracer (perfbench/tracing.py) wraps package functions named
by path, so renaming or deleting one of them must fail here rather than in a
traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, path, _ in tracing.FUNCTIONS:
        obj = importlib.import_module(f"hadwiger.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert tracing.FUNCTIONS and not missing
