"""The names other code looks up at run time must keep resolving.

``bench/tracing.py`` wraps the functions in its ``TARGETS`` by name and
reads the ``trials`` argument of the ``montecarlo`` ones, so a rename there
would break the traced benchmark rather than any import.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import ltibounds

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    # read-only: no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ltibounds_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in ltibounds.__all__ if not hasattr(ltibounds, name)] == []


def test_every_traced_target_exists(monkeypatch):
    targets = _load_tracing(monkeypatch).TARGETS
    assert ("montecarlo", "empirical_risk") in targets
    for module_name, name in targets:
        fn = getattr(importlib.import_module(f"ltibounds.{module_name}"), name)
        assert callable(fn), (module_name, name)
        if module_name == "montecarlo":
            assert "trials" in inspect.signature(fn).parameters, name
