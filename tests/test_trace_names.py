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
    # the calls are 72 invest + 18 carbon forecasts + 119 revenue estimates, one per
    # investment state valued (a company that can afford no unit values none)
    from carbonopt import cli

    tracer = spans.Tracer()
    with tracer.installed():
        argv = ["simulate", "--scenario", "uk_synthetic", "--policy", "flat:0"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["investment.valuation_reuse_ratio"] == 0.33519553072625696
    assert metrics["investment.calls"] == 209


def test_a_traced_benchmark_counts_the_pinned_search(spans, tmp_path, capsys):
    # the golden zdt1 command: 1 initial scoring + 10 generations; nsga2 spans are
    # 1 evolve, 11 sorts, 21 crowding calls, 200 tournaments, 10 crossovers and 200
    # mutation draws; benchmarks spans are 216 zdt1 calls (4 of the 220 genomes copy one
    # already scored), zdt1_front and generational_distance
    from carbonopt import cli

    tracer = spans.Tracer()
    with tracer.installed():
        argv = ["benchmark", "--problem", "zdt1", "--pop", "20", "--gens", "10", "--seed", "3"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["nsga2.generations"] == 10
    assert metrics["nsga2.calls"] == 443
    assert metrics["benchmarks.calls"] == 218
    assert metrics["nsga2.distinct_genome_ratio"] == 1.0
