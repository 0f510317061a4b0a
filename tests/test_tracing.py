"""The entry points that the bench's span tracer wraps must keep resolving."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leaves bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    shapes = importlib.import_module("distfield.shapes")
    for cls in tracing.SHAPE_TYPES:
        for meth in tracing.SHAPE_METHODS:
            assert callable(getattr(getattr(shapes, cls), meth, None)), f"{cls}.{meth}"
    for mod, funcs in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"distfield.{mod}")
        for name in funcs:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
    for mod in tracing.MODULES:
        importlib.import_module(mod)
