"""The bench's traced runs wrap library names; each one must still exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}"
               for module, name, _layer, _count in tracing.WRAPS
               if not callable(getattr(module, name, None))]
    assert not missing
