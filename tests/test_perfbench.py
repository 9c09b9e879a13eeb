"""The benchmark's traced run rebinds program names listed in
perfbench/spans.py; each must still exist, or a refactor that drops one
breaks the traced run instead of a test."""

import importlib.util
import json
import subprocess
import sys
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


def _one_round(workload):
    root = SPANS.parent.parent
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0


def test_compare_workload_passes_its_own_checks():
    # one round of the benchmark's compare-d5 workload, whose checks are
    # independent of the program: histogram totals from a totient sieve,
    # the theoretical mass against unclipped tile areas, mirror symmetry
    # of the point queries
    _one_round("compare-d5")


def test_pairs_workload_passes_its_own_checks():
    # one round of pairs-queries: histogram totals against the benchmark's
    # own totient sieve, bin symmetry, empty support violations and the
    # mirror symmetry of the point queries
    _one_round("pairs-queries")
