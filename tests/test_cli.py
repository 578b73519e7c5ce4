"""End-to-end command behaviour: outputs, exit codes, determinism, replay."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carbonopt
from carbonopt.cli import main
from carbonopt.scenario import bundled_scenario_path, save_scenario


@pytest.fixture()
def fossil_path(tmp_path, static_fossil_scenario) -> Path:
    path = tmp_path / "fossil.scenario"
    save_scenario(static_fossil_scenario, path)
    return path


def read_csv(path: Path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def output_files(out: Path):
    return sorted(p.name for p in out.iterdir())


class TestSimulate:
    def test_static_fossil_flat_zero_has_rci_one(self, fossil_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:0",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        objectives = json.loads((out / "objectives.json").read_text())
        assert objectives["objective_rci"] == 1.0
        assert output_files(out) == [
            "events.csv", "manifest.json", "objectives.json", "per_year.csv", "year_summary.csv",
        ]
        rows = read_csv(out / "per_year.csv")
        assert rows[-1]["record"] == "objectives"
        assert float(rows[-1]["objective_rci"]) == 1.0
        energy_rows = [r for r in rows if r["record"] == "energy"]
        assert {r["year"] for r in energy_rows} == {"2020", "2021"}

    def test_malformed_policy_exits_1_with_no_outputs(self, fossil_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(fossil_path), "--policy", "step:1,2",
            "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert "step" in capsys.readouterr().err

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{}")
        code = main(["simulate", "--scenario", str(bad), "--policy", "flat:0", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_an_unprintable_genco_id_reaches_stderr_escaped(self, tmp_path, capfd):
        # capfd reads the bytes written to the process's stderr
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        for item in (*raw["gencos"], *raw["initial_fleet"]):
            for key in ("id", "owner"):
                if item.get(key) == "alpha":
                    item[key] = "alpha\u0000"
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["simulate", "--scenario", str(bad), "--policy", "flat:0", "--out", str(tmp_path / "o")])
        err = capfd.readouterr().err
        assert code == 1
        assert "gencos['alpha\\x00'].id: must not contain U+0000" in err
        assert "\0" not in err

    def test_unknown_scenario_name_exits_1(self, tmp_path):
        code = main(["simulate", "--scenario", "atlantis", "--policy", "flat:0", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_repeat_run_is_bitwise_identical(self, fossil_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "simulate", "--scenario", str(fossil_path), "--policy", "linear:2,30",
                "--seed", "5", "--out", str(out),
            ]) == 0
        for name in ("per_year.csv", "year_summary.csv", "events.csv", "objectives.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_replay_reproduces_outputs(self, fossil_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:42",
            "--seed", "9", "--out", str(out_a),
        ]) == 0
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in ("per_year.csv", "year_summary.csv", "events.csv", "objectives.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_replay_refuses_changed_scenario_and_writes_nothing(self, fossil_path, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:42", "--out", str(out_a),
        ]) == 0
        raw = json.loads(fossil_path.read_text())
        raw["fuel_prices"]["gas"]["2020"] += 1.0
        fossil_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        assert "scenario_sha256" in capsys.readouterr().err
        assert not out_b.exists()

    def test_replay_refuses_other_version(self, fossil_path, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:42", "--out", str(out_a),
        ]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["version"] = "0.0.0-other"
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        assert "version" in capsys.readouterr().err
        assert not out_b.exists()

    @pytest.mark.parametrize(
        "message, edit",
        [
            ("cannot read manifest", None),  # the manifest file is gone
            ("must be a JSON object", lambda m: []),
            ("has no 'args'", lambda m: {k: v for k, v in m.items() if k != "args"}),
            ("args have no 'policy'",
             lambda m: {**m, "args": {k: v for k, v in m["args"].items() if k != "policy"}}),
            # the run record cli._inputs owns refuses a missing entry as differing
            ("code_sha256 None differs", lambda m: {k: v for k, v in m.items() if k != "code_sha256"}),
            # argparse gives a required flag the default None, yet None never parses to str
            ("manifest args.policy must be str", lambda m: {**m, "args": {**m["args"], "policy": None}}),
            ("manifest args.scenario must be str",
             lambda m: {**m, "args": {**m["args"], "scenario": None}}),
            ("unknown command 'replay'", lambda m: {**m, "command": "replay"}),
            ("unknown command ['simulate']", lambda m: {**m, "command": ["simulate"]}),
            # the scenario file is edited as well: a hash that was not recorded matches none
            ("scenario_sha256", lambda m: {**m, "scenario_sha256": None}),
            ("scenario_sha256", lambda m: {k: v for k, v in m.items() if k != "scenario_sha256"}),
        ],
        ids=["missing-file", "json-list", "no-args", "no-policy", "no-code-sha256", "null-policy",
             "null-scenario", "replay-command", "list-command", "null-scenario-sha256",
             "no-scenario-sha256"],
    )
    def test_replay_refuses_unreadable_manifest_with_exit_1(self, fossil_path, tmp_path, capsys,
                                                            message, edit):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:42", "--out", str(out_a),
        ]) == 0
        manifest = out_a / "manifest.json"
        if edit is None:
            manifest.unlink()
        else:
            manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        if message == "scenario_sha256":
            raw = json.loads(fossil_path.read_text())
            raw["base_carbon_intensity"] *= 2
            fossil_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        err = capsys.readouterr().err
        assert message in err and "runtime error" not in err
        assert not out_b.exists()

    def test_scenario_file_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin1.scenario"
        bad.write_bytes(b'{"x": "\xff"}')
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(bad), "--policy", "flat:0", "--out", str(out)])
        assert code == 1
        assert f"cannot read scenario file {bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("technologies[gas].variable_om", lambda d: d["technologies"][0].update(variable_om=math.nan)),
            ("representative_days[always].segments[0].demand_mw",
             lambda d: d["representative_days"][0]["segments"][0].update(demand_mw=math.inf)),
            ("technologies[gas].variable_om", lambda d: d["technologies"][0].update(variable_om=-1e6)),
            # values of the wrong JSON type
            ("technologies[gas].capacity_mw", lambda d: d["technologies"][0].update(capacity_mw=None)),
            ("gencos[g1].budget", lambda d: d["gencos"][0].update(budget=[0.0])),
            ("representative_days[always].segments[0].demand_mw",
             lambda d: d["representative_days"][0]["segments"][0].update(demand_mw={"mw": 80.0})),
            ("technologies[0]", lambda d: d["technologies"].__setitem__(0, "gas")),
            ("gencos", lambda d: d.update(gencos=5)),
            ("technologies[gas].is_intermittent",
             lambda d: d["technologies"][0].update(is_intermittent="false")),
            # a misspelt optional key would otherwise leave its field at the default
            ("demand_grwoth: unknown key", lambda d: d.update(demand_grwoth=1.5)),
            ("representative_days[always].segments[0].demand_mww: unknown key",
             lambda d: d["representative_days"][0]["segments"][0].update(demand_mww=1.0)),
        ],
        ids=["nan-variable-om", "inf-demand", "negative-variable-om", "null-capacity", "list-budget",
             "object-demand", "non-object-technology", "number-gencos", "string-is-intermittent",
             "unknown-key", "unknown-segment-key"],
    )
    def test_malformed_numbers_exit_1_naming_the_field(self, fossil_path, tmp_path, capsys, field, edit):
        raw = json.loads(fossil_path.read_text())
        edit(raw)
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(raw))  # json writes NaN and Infinity literals
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(bad), "--policy", "flat:0", "--out", str(out)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()


    def test_gapped_fuel_series_exits_1_before_running(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        raw["fuel_prices"]["gas"]["2040"] = 30.0
        bad = tmp_path / "gapped.scenario"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(bad), "--policy", "flat:0", "--out", str(out)])
        assert code == 1
        assert "fuel_prices[gas]: missing price for year 2036" in capsys.readouterr().err
        assert not out.exists()
        code = main([
            "optimize", "--scenario", str(bad), "--kind", "linear",
            "--pop", "4", "--gens", "0", "--jobs", "1", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "fuel_prices[gas]: missing price for year 2036" in err and "genome" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["simulate", "--scenario", "uk_synthetic", "--policy", "flat:0", "--seed", "x"], 1),
            (["simulate", "--policy", "flat:0"], 1),
            (["transmogrify"], 1),
            (["--help"], 0),
            (["simulate", "--help"], 0),
            (["--version"], 0),
        ],
        ids=["seed-not-int", "no-scenario", "unknown-command", "help", "command-help", "version"],
    )
    def test_usage_errors_exit_1_and_help_exits_0(self, tmp_path, argv, code, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(tmp_path / "out")] if code else argv)
        assert exit_.value.code == code
        assert not (tmp_path / "out").exists()
        if code:
            assert "usage:" in capsys.readouterr().err


class TestOptimize:
    def test_linear_run_writes_front_in_bounds(self, fossil_path, tmp_path):
        out = tmp_path / "out"
        code = main([
            "optimize", "--scenario", str(fossil_path), "--kind", "linear",
            "--pop", "4", "--gens", "1", "--seed", "7", "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        pareto = json.loads((out / "pareto.json").read_text())
        assert pareto
        for entry in pareto:
            gradient, intercept = entry["genome"]
            assert -14.0 <= gradient <= 14.0
            assert 0.0 <= intercept <= 250.0
            assert entry["rank"] == 1
        rows = read_csv(out / "generations.csv")
        assert {r["generation"] for r in rows} == {"0", "1"}
        assert len([r for r in rows if r["generation"] == "1"]) == 4

    def test_free_kind_has_one_gene_per_year(self, fossil_path, tmp_path):
        out = tmp_path / "out"
        code = main([
            "optimize", "--scenario", str(fossil_path), "--kind", "free",
            "--pop", "4", "--gens", "0", "--seed", "1", "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "generations.csv")
        gene_columns = [c for c in rows[0] if c.startswith("gene_")]
        assert len(gene_columns) == 2  # the fossil fixture runs a 2-year horizon
        pareto = json.loads((out / "pareto.json").read_text())
        assert all(len(e["genome"]) == 2 for e in pareto)

    def test_unknown_kind_exits_1(self, fossil_path, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "optimize", "--scenario", str(fossil_path), "--kind", "spline",
            "--pop", "4", "--gens", "0", "--out", str(out),
        ])
        assert code == 1
        assert "'spline'" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_do_not_change_results(self, fossil_path, tmp_path):
        # the free search shares investment states between genomes serially, and
        # between the genomes of one chunk in a pool
        cases = {
            "linear": [str(fossil_path), "--kind", "linear", "--pop", "4", "--gens", "1", "--seed", "3"],
            "free": ["uk_synthetic", "--kind", "free", "--pop", "8", "--gens", "2", "--seed", "0"],
        }
        for label, argv in cases.items():
            out_serial, out_parallel = tmp_path / label / "s", tmp_path / label / "p"
            for out, jobs in ((out_serial, "1"), (out_parallel, "2")):
                assert main(["optimize", "--scenario", *argv, "--jobs", jobs, "--out", str(out)]) == 0
            for name in ("generations.csv", "pareto.json"):
                assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes(), label


    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1_naming_the_flag(self, fossil_path, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        code = main([
            "optimize", "--scenario", str(fossil_path), "--kind", "linear",
            "--pop", "4", "--gens", "1", "--jobs", jobs, "--out", str(out),
        ])
        assert code == 1
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [("100000", 8, 4), ("3", 8, 3), ("100000", 2, 2), ("2", None, 1)],
        ids=["population", "jobs", "cpus", "unknown-cpus"],
    )
    def test_pool_workers_are_capped_by_cpus_and_population(
        self, fossil_path, tmp_path, monkeypatch, jobs, cpus, workers
    ):
        import carbonopt.cli as cli

        started = []

        class Recorder:  # records the pool size and maps serially; starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # the CLI imports the pool only for a parallel run, so the double replaces it at its source
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main([
            "optimize", "--scenario", str(fossil_path), "--kind", "linear",
            "--pop", "4", "--gens", "1", "--seed", "3", "--jobs", jobs, "--out", str(tmp_path / "o"),
        ]) == 0
        assert started == [workers]

    def test_broken_pool_exits_2(self, fossil_path, tmp_path, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        class Pool:  # a pool whose worker dies after the first result; starts no process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                yield (1.0, 1.0)
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        code = main([
            "optimize", "--scenario", str(fossil_path), "--kind", "linear",
            "--pop", "4", "--gens", "1", "--seed", "3", "--jobs", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "genome" not in err


class TestBenchmark:
    def test_schaffer_passes_gate(self, capsys):
        code = main([
            "benchmark", "--problem", "schaffer", "--pop", "20", "--gens", "15",
            "--seed", "1", "--fail-above", "0.05",
        ])
        assert code == 0
        assert "generational distance" in capsys.readouterr().out

    def test_unconverged_run_fails_gate(self, capsys):
        code = main([
            "benchmark", "--problem", "zdt1", "--pop", "16", "--gens", "0",
            "--seed", "1", "--fail-above", "0.05",
        ])
        assert code == 3

    def test_unknown_problem_exits_1(self, capsys):
        assert main(["benchmark", "--problem", "rosenbrock"]) == 1

    def test_out_dir_writes_archive_and_manifest(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert output_files(out) == ["generations.csv", "manifest.json", "pareto.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "benchmark"
        assert manifest["scenario_sha256"] is None

    @pytest.mark.parametrize(
        "key, value", [("pop", "4"), ("eta_c", "x"), ("seed", True), ("problem", None)]
    )
    def test_replay_refuses_recorded_args_of_the_wrong_type(self, tmp_path, capsys, key, value):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
            "--seed", "2", "--out", str(out_a),
        ]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["args"][key] = value
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        err = capsys.readouterr().err
        assert f"manifest args.{key} must be" in err and "runtime error" not in err
        assert not out_b.exists()

    def test_replay_refuses_a_key_repeated_in_the_manifest(self, tmp_path, capsys):
        # ``json`` keeps the last value of a repeated key, so gens 50 would vanish unseen
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
            "--seed", "2", "--out", str(out_a),
        ]) == 0
        manifest = out_a / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text.replace('"gens": 2', '"gens": 50, "gens": 2', 1))
        capsys.readouterr()
        assert main(["replay", str(manifest), "--out", str(out_b)]) == 1
        err = capsys.readouterr().err
        assert f"manifest {manifest}: key 'gens' is repeated in one object" in err
        assert "runtime error" not in err
        assert not out_b.exists()

    def test_replay_accepts_an_int_for_a_float_and_null_for_a_null_default(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
            "--seed", "2", "--out", str(out_a),
        ]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["args"]["fail_above"] is None
        manifest["args"]["eta_c"] = 15
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        assert (out_a / "generations.csv").read_bytes() == (out_b / "generations.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, key, message",
        [("--eta-c", "eta_c", "eta_crossover must be finite"),
         ("--fail-above", "fail_above", "--fail-above must be finite")],
        ids=["eta-c", "fail-above"],
    )
    def test_non_finite_ga_input_exits_1_by_name_also_on_replay(self, tmp_path, capsys, flag, key,
                                                                message):
        argv = ["benchmark", "--problem", "zdt1", "--pop", "4", "--gens", "0", "--seed", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, flag, "nan", "--out", str(out_a)]) == 1
        err = capsys.readouterr().err
        assert message in err and "genome" not in err
        assert not out_a.exists()
        assert main([*argv, "--out", str(out_a)]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["args"][key] = math.inf
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        assert message in capsys.readouterr().err
        assert not out_b.exists()

    def test_benchmark_without_out_renders_no_generations_csv(self, tmp_path, monkeypatch):
        import carbonopt.cli as cli

        def unrendered(archive, objective_names):
            raise AssertionError("generations.csv rendered with nothing to write")
            yield

        monkeypatch.setattr(cli, "generations_csv_chunks", unrendered)
        monkeypatch.chdir(tmp_path)
        assert main(["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2"]) == 0
        assert output_files(tmp_path) == []

    def test_benchmark_replay_reproduces(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([
            "benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
            "--seed", "2", "--out", str(out_a),
        ]) == 0
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        assert (out_a / "generations.csv").read_bytes() == (out_b / "generations.csv").read_bytes()


class TestSeed:
    @pytest.mark.parametrize("command", ["simulate", "optimize", "benchmark"])
    def test_negative_seed_exits_1_naming_it_also_on_replay(self, command, static_fossil_scenario,
                                                            tmp_path, capsys):
        noisy = tmp_path / "noisy.scenario"  # a noisy scenario draws from the seed
        save_scenario(dataclasses.replace(static_fossil_scenario, demand_noise_std=0.05), noisy)
        argv = {
            "simulate": ["--scenario", str(noisy), "--policy", "flat:1"],
            "optimize": ["--scenario", str(noisy), "--kind", "linear", "--pop", "4",
                         "--gens", "1", "--jobs", "1"],
            "benchmark": ["--problem", "schaffer", "--pop", "4", "--gens", "1"],
        }[command]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, *argv, "--seed", "-3", "--out", str(out_a)]) == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out_a.exists()
        assert main([command, *argv, "--seed", "0", "--out", str(out_a)]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["args"]["seed"] = -3
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out_b.exists()


class TestOutDirDefault:
    def test_env_var_overrides_default_out_dir(self, fossil_path, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("CARBONOPT_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--scenario", str(fossil_path), "--policy", "flat:0"])
        assert code == 0
        assert (target / "objectives.json").exists()


class TestManifest:
    def test_manifest_records_resolved_config(self, fossil_path, tmp_path):
        out = tmp_path / "out"
        main([
            "simulate", "--scenario", str(fossil_path), "--policy", "flat:1",
            "--seed", "2", "--out", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["args"]["policy"] == "flat:1"
        assert manifest["args"]["seed"] == 2
        assert len(manifest["scenario_sha256"]) == 64
        assert manifest["outputs"] == ["events.csv", "objectives.json", "per_year.csv", "year_summary.csv"]

    @pytest.mark.parametrize("command", ["simulate", "optimize", "benchmark"])
    def test_manifest_args_keys_and_values_are_pinned(self, command, fossil_path, tmp_path):
        # replay feeds these dicts back to the commands, so older manifests
        # only replay while the keys and their meaning stay as they are
        out = str(tmp_path / "out")
        ga = {"crossover_prob": 0.9, "mutation_prob": 0.05, "eta_c": 15.0, "mutation_kind": "per-gene"}
        argv, expected = {
            "simulate": (
                ["--scenario", str(fossil_path), "--policy", "flat:1"],
                {"scenario": str(fossil_path), "policy": "flat:1", "seed": 0, "out": out},
            ),
            "optimize": (
                ["--scenario", str(fossil_path), "--kind", "linear", "--pop", "4", "--gens", "1",
                 "--jobs", "1"],
                {"scenario": str(fossil_path), "kind": "linear", "pop": 4, "gens": 1, "seed": 0,
                 **ga, "jobs": 1, "out": out},
            ),
            "benchmark": (
                ["--problem", "schaffer", "--pop", "4", "--gens", "1", "--seed", "3"],
                {"problem": "schaffer", "pop": 4, "gens": 1, "seed": 3, **ga, "fail_above": None,
                 "out": out},
            ),
        }[command]
        assert main([command, *argv, "--out", out + "/"]) == 0  # recorded without the slash
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        args = manifest["args"]
        assert list(args) == list(expected)
        assert args == expected
        # 15 == 15.0, so the values alone would let an int-typed float flag pass
        assert [type(v) for v in args.values()] == [type(v) for v in expected.values()]
        assert manifest["host"] == {"python": platform.python_version(), "numpy": np.__version__}

    @pytest.mark.parametrize("command", ["simulate", "optimize", "benchmark"])
    def test_identical_runs_and_a_replay_write_the_same_manifest(self, command, fossil_path, tmp_path):
        def text(out: Path, drop_out: bool = False) -> str:
            # only the timings vary between identical runs; the text keeps the key order
            manifest = json.loads((out / "manifest.json").read_text())
            assert list(manifest) == [
                "command", "args", "version", "scenario_sha256", "code_sha256", "outputs", "host",
                "timings",
            ]
            del manifest["timings"]
            if drop_out:
                del manifest["args"]["out"]
            return json.dumps(manifest, indent=2)

        argv = {
            "simulate": ["--scenario", str(fossil_path), "--policy", "flat:1", "--seed", "2"],
            "optimize": ["--scenario", str(fossil_path), "--kind", "linear", "--pop", "4",
                         "--gens", "1", "--jobs", "1"],
            "benchmark": ["--problem", "schaffer", "--pop", "8", "--gens", "2", "--seed", "2"],
        }[command]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, *argv, "--out", str(out_a)]) == 0
        first = text(out_a)
        assert main([command, *argv, "--out", str(out_a)]) == 0
        assert text(out_a) == first
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        assert text(out_b, drop_out=True) == text(out_a, drop_out=True)

    def test_a_manifest_from_another_host_replays(self, tmp_path):
        # hosts differ, so the recorded host is never compared
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
                     "--seed", "2", "--out", str(out_a)]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["host"]["numpy"] = "0.0.0"
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in ("generations.csv", "pareto.json"):
            assert (out_b / name).read_bytes() == (out_a / name).read_bytes()

    def test_a_manifest_without_a_top_level_seed_replays(self, tmp_path):
        # the run's seed is args.seed, the value a replay runs with
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
                     "--seed", "2", "--out", str(out_a)]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest.pop("seed", None)
        (out_a / "manifest.json").write_text(json.dumps(manifest))
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in ("generations.csv", "pareto.json"):
            assert (out_b / name).read_bytes() == (out_a / name).read_bytes()

    def test_a_failed_manifest_write_leaves_no_earlier_manifest(self, tmp_path, monkeypatch,
                                                                 capsys):
        import carbonopt.cli as cli

        out, fresh = tmp_path / "a", tmp_path / "fresh"
        argv = ["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2"]
        assert main([*argv, "--seed", "2", "--out", str(out)]) == 0
        assert main([*argv, "--seed", "3", "--out", str(fresh)]) == 0

        def refuse(out_dir, manifest):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_manifest", refuse)
        capsys.readouterr()
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        # the seed-2 manifest would claim seed 3's results: it is removed, not kept
        assert output_files(out) == ["generations.csv", "pareto.json"]
        for name in ("generations.csv", "pareto.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_a_replay_records_the_directory_it_wrote(self, fossil_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(fossil_path), "--policy", "flat:1",
                     "--out", str(out_a)]) == 0
        assert main(["replay", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        assert json.loads((out_b / "manifest.json").read_text())["args"]["out"] == str(out_b)
        shutil.rmtree(out_a)
        # the replayed run's own manifest replays into its own directory, never into a
        assert main(["replay", str(out_b / "manifest.json")]) == 0
        assert not out_a.exists()
        assert json.loads((out_b / "manifest.json").read_text())["args"]["out"] == str(out_b)

    @pytest.mark.parametrize("scenario", ["my.scenario", "uk_synthetic"])
    def test_a_run_replays_from_another_directory(self, scenario, fossil_path, tmp_path,
                                                  monkeypatch):
        # a scenario file is recorded by its absolute path, a bundled one by its name
        x, y = tmp_path / "x", tmp_path / "y"
        x.mkdir()
        y.mkdir()
        shutil.copy(fossil_path, x / "my.scenario")
        monkeypatch.chdir(x)
        assert main(["simulate", "--scenario", scenario, "--policy", "flat:1",
                     "--out", "../run"]) == 0
        monkeypatch.chdir(y)
        assert main(["replay", "../run/manifest.json", "--out", "../again"]) == 0
        run, again = tmp_path / "run", tmp_path / "again"
        args = json.loads((run / "manifest.json").read_text())["args"]
        recorded = str(x / "my.scenario") if scenario == "my.scenario" else scenario
        assert (args["scenario"], args["out"]) == (recorded, str(run))
        assert json.loads((again / "manifest.json").read_text())["args"]["out"] == str(again)
        for name in ("events.csv", "objectives.json", "per_year.csv", "year_summary.csv"):
            assert (again / name).read_bytes() == (run / name).read_bytes()

    def test_replay_refuses_a_manifest_written_by_other_code(self, tmp_path):
        out = tmp_path / "out"
        assert main(["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "2",
                     "--seed", "2", "--out", str(out)]) == 0

        def replay_with_copy(name: str, edit) -> subprocess.CompletedProcess:
            # a copy of the package elsewhere, run by a fresh interpreter
            root = tmp_path / name
            copy = root / "carbonopt"
            shutil.copytree(Path(carbonopt.__file__).parent, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            edit(copy)
            return subprocess.run(
                [sys.executable, "-c",
                 "import sys; from carbonopt.cli import main; sys.exit(main(sys.argv[1:]))",
                 "replay", str(out / "manifest.json"), "--out", str(root / "out")],
                cwd=root, env={**os.environ, "PYTHONPATH": str(root)},
                capture_output=True, text=True, timeout=120,
            )

        def edit_constant(copy: Path) -> None:
            path = copy / "investment.py"
            text = path.read_text()
            assert "REVENUE_PROBE_YEARS = 10\n" in text
            path.write_text(text.replace("REVENUE_PROBE_YEARS = 10\n", "REVENUE_PROBE_YEARS = 9\n"))

        edited = replay_with_copy("edited", edit_constant)
        recorded = json.loads((out / "manifest.json").read_text())["code_sha256"]
        assert edited.returncode == 1, edited.stderr
        assert "code_sha256" in edited.stderr and recorded in edited.stderr
        assert "rerun" in edited.stderr
        assert not (tmp_path / "edited" / "out").exists()

        same = replay_with_copy("same", lambda copy: None)
        assert same.returncode == 0, same.stderr
        for name in ("generations.csv", "pareto.json"):
            assert (tmp_path / "same" / "out" / name).read_bytes() == (out / name).read_bytes()


class TestStartup:
    POOL_MODULES = ("concurrent.futures", "multiprocessing", "logging")

    def test_serial_commands_never_load_the_process_pool(self, tmp_path):
        # a fresh interpreter, so that no other test has loaded the modules already
        code = (
            "import sys\n"
            "import carbonopt.cli as cli\n"
            "from carbonopt.scenario import bundled_scenario_path, load_scenario\n"
            "load_scenario(bundled_scenario_path('uk_synthetic'))\n"
            "assert cli.main(['simulate', '--scenario', 'uk_synthetic', '--policy', 'flat:10',\n"
            "                 '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['optimize', '--scenario', 'uk_synthetic', '--kind', 'linear',\n"
            "                 '--pop', '4', '--gens', '0', '--jobs', '1', '--out', sys.argv[2]]) == 0\n"
            f"print([m for m in {self.POOL_MODULES!r} if m in sys.modules])\n"
        )
        src = Path(carbonopt.__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "sim"), str(tmp_path / "opt")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "opt" / "pareto.json").is_file()


class TestStdoutReaderGone:
    """A run whose stdout reader has gone (``carbonopt optimize ... | head -3``) still
    writes its files and manifest and exits with its own code."""

    RUNS = {
        "simulate": ["simulate", "--policy", "flat:0", "--seed", "1"],
        "optimize": ["optimize", "--kind", "linear", "--pop", "4", "--gens", "1", "--seed", "0",
                     "--jobs", "1"],
    }

    class GoneStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @staticmethod
    def results(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}

    @pytest.mark.parametrize("command", RUNS)
    def test_results_are_written_when_stdout_is_gone(self, fossil_path, tmp_path, monkeypatch,
                                                     command):
        argv = [*self.RUNS[command], "--scenario", str(fossil_path), "--out"]
        assert main([*argv, str(tmp_path / "printed")]) == 0
        monkeypatch.setattr(sys, "stdout", self.GoneStdout())
        assert main([*argv, str(tmp_path / "gone")]) == 0
        monkeypatch.undo()
        gone = tmp_path / "gone"
        assert self.results(gone) == self.results(tmp_path / "printed")
        manifest = json.loads((gone / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(self.results(gone))

    def test_a_closed_pipe_exits_0_with_nothing_on_stderr(self, fossil_path, tmp_path):
        # a fresh interpreter whose stdout is a pipe with no reader, so the summary's
        # write fails: no traceback, and no error from the interpreter's exit flush
        read, write = os.pipe()
        os.close(read)
        src = Path(carbonopt.__file__).parent.parent
        try:
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from carbonopt.cli import main; sys.exit(main(sys.argv[1:]))",
                 *self.RUNS["simulate"], "--scenario", str(fossil_path),
                 "--out", str(tmp_path / "out")],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out" / "manifest.json").is_file()
