"""The benchmark's tracer wraps program functions by name; a rename must
fail here rather than leave a traced benchmark run silently reading 0."""

import importlib.util
from pathlib import Path

from robustlq import backward, model

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _load_spans()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans._SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing
    assert callable(getattr(backward, "integrate_backward", None))
    assert callable(getattr(model.MatrixPath, "at", None))
