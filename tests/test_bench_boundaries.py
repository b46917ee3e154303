"""The benchmark's span boundaries name functions that exist in uspkit."""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "uspbench" / "spans.py"


def test_span_boundaries_resolve():
    # uspbench/spans.py wraps each boundary by (module, attribute) from
    # outside; a renamed or deleted function would read null in every
    # per-layer metric built on it, so the rename fails here first
    spec = importlib.util.spec_from_file_location("uspbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for names, _amount in spans.BOUNDARIES.values() for target in names]
    assert len(targets) >= 20
    assert all(module.startswith("uspkit.") for module, _ in targets)
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
