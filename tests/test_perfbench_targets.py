"""The traced benchmark wraps functions by name; a rename must not drop one silently."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{function}"
        for _, module, function in targets
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
