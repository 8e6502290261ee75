"""The traced benchmark run wraps tdmcfg functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    for home, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"
    # a renamed holder must hold the very function wrapped under its home
    for holder, attr in spans.RENAMED:
        homes = [h for h, a, _, _ in spans.TARGETS if a == attr]
        held = getattr(importlib.import_module(holder), attr)
        assert any(getattr(importlib.import_module(h), attr) is held for h in homes)
