"""The benchmark's tracer wraps dynsc functions by name; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_layer_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}"
               for module, names, _ in spans.LAYERS.values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
