"""The benchmark's tracer (bench/spans.py) looks up every function, method and
constructor it wraps by name, so deleting or renaming one of them breaks the
traced benchmark run.  This test builds the tracer against the package, so
such a deletion fails here as well as in the benchmark's own suite."""

import importlib.util
from pathlib import Path

import gauss_hodge.cli  # noqa: F401  imports every module the tracer patches
from gauss_hodge import bridge
from gauss_hodge.fields import ScalarField
from gauss_hodge.solver import solve_dbar_min_norm_full

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    norm_sq = ScalarField.__dict__["norm_sq"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ScalarField.__dict__["norm_sq"] is not norm_sq
        assert bridge.solve_dbar_min_norm_full is not solve_dbar_min_norm_full
        ScalarField.constant(1, 1, 2).norm_sq()
        assert tracer.take_totals()["calls"]["fields.norm_sq"] == 1
    finally:
        tracer.uninstall()
    assert ScalarField.__dict__["norm_sq"] is norm_sq
    assert bridge.solve_dbar_min_norm_full is solve_dbar_min_norm_full
