"""The benchmark's layer trace wraps wbp functions by module attribute.

``benchmark/spans.py`` replaces each ``(module, attr)`` in ``TARGETS`` when
``--trace 1`` installs it, so a refactor that drops one of those names from
its module would crash the traced run at install time.
"""

import importlib.util
import os

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "spans.py"
)


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
