"""The benchmark's traced run rebinds program names listed in
perfbench/spans.py; each must still exist, or a refactor that drops one
breaks the traced run instead of a test."""

import importlib.util
from pathlib import Path

import fareymosaics

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_bindings_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    for mod_name, attr, _span in spans.BINDINGS:
        mod = getattr(fareymosaics, mod_name)
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
