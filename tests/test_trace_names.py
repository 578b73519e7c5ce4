"""The benchmark tracer wraps package functions by name: every name it reads must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names(spans) -> set[str]:
    return {f"{layer}.{name}" for layer, names in spans.TRACED.items() for name in names}


def test_every_traced_name_is_a_function_of_its_module(spans):
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"carbonopt.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"carbonopt.{layer}.{name}"


def test_every_name_the_metrics_read_is_traced(spans):
    read = set(spans.NOTES) | {*spans.FITNESS, *spans.VARIATION, *spans.WRITES}
    assert read <= traced_names(spans), sorted(read - traced_names(spans))


def test_a_traced_simulation_counts_the_pinned_valuations(spans, tmp_path, capsys):
    # figures measured on uk_synthetic: NOTES reads the probed state from the
    # positional args of estimate_yearly_revenue, so they move when those do;
    # the calls are 72 invest + 18 carbon forecasts + 875 revenue estimates
    from carbonopt import cli

    tracer = spans.Tracer()
    with tracer.installed():
        argv = ["simulate", "--scenario", "uk_synthetic", "--policy", "flat:0"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["investment.valuation_reuse_ratio"] == 0.3016759776536313
    assert metrics["investment.calls"] == 965
