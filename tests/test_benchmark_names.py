"""The benchmark's tracer binds package functions by name, so a renamed or
removed function would silently vanish from its traced run. Every name it
traces must resolve. Only reads benchmarks/tracing.py."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing there
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    for module_name, attrs in tracing.TRACED.items():
        module = importlib.import_module(f"schwarzbundles.{module_name}")
        for attr in attrs:
            target = module
            for part in attr.split("."):
                target = getattr(target, part)
            assert callable(target), f"{module_name}.{attr}"
    spans = set(tracing.Tracer().names)
    assert {name for pair in tracing.NESTED for name in pair} <= spans
    assert set(tracing._BEFORE) | set(tracing._AFTER) <= spans
