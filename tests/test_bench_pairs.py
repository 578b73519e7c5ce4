"""``scripts/bench_pairs.py``: its summary of canned runs, the files it writes, the pair order."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(evals_per_s, wall_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 9, "failed": failed, "metrics": {
        "evals_per_s": {"value": evals_per_s, "unit": "1/s"},
        "wall_s": {"value": wall_s, "unit": "s"},
    }}


CANNED = {
    "parent": {"simulate-sweep": [run(60.0, 0.20), run(64.0, 0.16), run(62.0, 0.18),
                                  run(70.0, 0.10)]},
    "change": {"simulate-sweep": [run(66.0, 0.15), run(63.0, 0.17), run(67.0, 0.14),
                                  run(71.0, 0.10, failed=2)]},
}


def test_the_summary_gives_medians_quartiles_and_pairs_won(bench_pairs):
    lines = bench_pairs.summarize(CANNED, {"evals_per_s": "higher", "wall_s": "lower"})
    assert lines == [
        "simulate-sweep: 4 pairs, 1 runs not correct or with failed operations",
        "  evals_per_s                      parent 63 [61.5, 65.5]  "
        "change 66.5 [65.25, 68]  +5.6%  won 3/4",
        "  wall_s                           parent 0.17 [0.145, 0.185]  "
        "change 0.145 [0.13, 0.155]  -14.7%  won 2/4",
    ]


def test_a_metric_of_unknown_direction_shows_no_wins(bench_pairs):
    (_, evals, _) = bench_pairs.summarize(CANNED, {"wall_s": "lower"})
    assert evals.endswith("won 0/4")


def test_pairs_alternate_and_each_side_is_written_as_bench_files(bench_pairs, tmp_path,
                                                                 monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "simulate-sweep"}],
        "end_to_end": [{"name": "evals_per_s", "better": "higher"},
                       {"name": "wall_s", "better": "lower"}],
    }))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, workload, seed, seconds, trace))
        return CANNED[side][workload][sum(c[0] == side for c in calls) - 1]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main([str(parent), str(change), "--label", "x", "--pairs", "4",
                             "--seed", "6", "--seconds", "2", "--out-dir", str(tmp_path)]) == 0
    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent"] * 2
    assert {tuple(rest) for _, *rest in calls} == {("simulate-sweep", 6, 2.0, 0)}
    for side in ("parent", "change"):
        written = (tmp_path / f"BENCH_x_{side}.json").read_text()
        assert written == json.dumps(CANNED[side])
    assert "won 3/4" in capsys.readouterr().out
