"""The traced benchmark run wraps attributes of the package's modules
(``bench/spans.py``). Each one it wraps must exist, so that removing one
fails here rather than in a traced run."""
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_bench_span_hooks_install_and_restore():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rec = spans.SpanRecorder()
    try:
        spans.install(rec)
        patched = list(rec._patched)
    finally:
        rec.restore()
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
