"""Command-line interface.

Commands:

* ``simulate``: run one tax trajectory through the market model.
* ``optimize``: search tax trajectories with the genetic optimizer.
* ``benchmark``: score the optimizer on an analytic test problem.
* ``replay``: re-run the command recorded in a manifest.

Each command computes and returns its result files; ``_run`` writes them
with a ``manifest.json`` that records the fully resolved configuration,
the output directory and checksums of the scenario and of the package
code. Replaying a manifest reproduces the result files byte for byte
(the manifest's own timing block is the only thing that varies), and is
refused when the code or the scenario has changed. Exit codes: 0
success, 1 invalid input, 2 runtime failure, 3 benchmark quality gate
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .benchmarks import BENCHMARKS, generational_distance
from .errors import CarbonOptError
from .exports import (
    code_sha256,
    file_sha256,
    load_manifest,
    render_events_csv,
    render_generations_csv,
    render_objectives_json,
    render_pareto_json,
    render_per_year_csv,
    render_year_summary_csv,
    write_manifest,
    write_output_set,
)
from .nsga2 import GAConfig, evolve
from .policy import bounds as policy_bounds, parse_policy_spec
from .scenario import bundled_scenario_path, load_scenario
from .simulation import evaluate_objectives, run_simulation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3

OBJECTIVE_NAMES = ["objective_price", "objective_rci"]
OUT_DIR_ENV = "CARBONOPT_OUT"


def _resolve_scenario(spec: str) -> Path:
    path = Path(spec)
    if path.is_file():
        return path
    bundled = bundled_scenario_path(spec)
    if bundled is not None:
        return bundled
    raise CarbonOptError(f"scenario {spec!r} is neither a file nor a bundled scenario name")


def _ga_config(args: dict) -> GAConfig:
    """The optimizer settings recorded in an ``optimize`` or ``benchmark`` run's args."""
    return GAConfig(
        population_size=args["pop"],
        generations=args["gens"],
        crossover_probability=args["crossover_prob"],
        mutation_probability=args["mutation_prob"],
        eta_crossover=args["eta_c"],
        mutation_kind=args["mutation_kind"],
        seed=args["seed"],
    )


def run_simulate(args: dict) -> tuple[int, dict[str, str]]:
    scenario = load_scenario(_resolve_scenario(args["scenario"]))
    policy = parse_policy_spec(args["policy"], scenario.horizon_years)
    result = run_simulation(scenario, policy, args["seed"])
    print(
        f"objective_price={result.objective_price!r} "
        f"objective_rci={result.objective_rci!r}"
    )
    return EXIT_OK, {
        "per_year.csv": render_per_year_csv(result, scenario.start_year),
        "year_summary.csv": render_year_summary_csv(result, scenario.start_year),
        "events.csv": render_events_csv(result.events),
        "objectives.json": render_objectives_json(result),
    }


def run_optimize(args: dict) -> tuple[int, dict[str, str]]:
    jobs = args["jobs"]
    if jobs < 1:
        raise CarbonOptError(f"--jobs must be >= 1, got {jobs}")
    scenario = load_scenario(_resolve_scenario(args["scenario"]))
    kind = args["kind"]
    box = policy_bounds(kind, n_years=scenario.horizon_years)  # refuses an unknown kind
    cfg = _ga_config(args)
    fitness = functools.partial(
        evaluate_objectives, scenario, policy_kind=kind, seed=args["seed"]
    )

    # a pool starts all its workers at once: never more than the CPUs or the genomes
    workers = min(jobs, os.cpu_count() or 1, cfg.population_size)
    with ProcessPoolExecutor(workers) if jobs > 1 else contextlib.nullcontext() as pool:
        archive = evolve(fitness, cfg, box, map_fn=None if pool is None else (
            lambda fn, items: pool.map(fn, items, chunksize=max(1, len(items) // (workers * 4)))
        ))

    front = archive.final_front
    rows = sorted(zip(front.objectives.tolist(), front.genomes.tolist()), key=lambda r: r[0][0])
    print(f"final front ({len(rows)} solutions):")
    print(f"{'objective_price':>16} {'objective_rci':>14}  genome")
    for (price, rci), genome in rows:
        genes = ", ".join(f"{v:.2f}" for v in genome)
        print(f"{price:>16.4f} {rci:>14.4f}  [{genes}]")
    return EXIT_OK, {
        "generations.csv": render_generations_csv(archive, OBJECTIVE_NAMES),
        "pareto.json": render_pareto_json(archive, OBJECTIVE_NAMES),
    }


def run_benchmark(args: dict) -> tuple[int, dict[str, str]]:
    problem, fail_above = args["problem"], args["fail_above"]
    if fail_above is not None and not math.isfinite(fail_above):
        raise CarbonOptError(f"--fail-above must be finite, got {fail_above!r}")
    if problem not in BENCHMARKS:
        raise CarbonOptError(
            f"unknown problem {problem!r}; expected one of {sorted(BENCHMARKS)}"
        )
    fitness, bounds_fn, front_fn = BENCHMARKS[problem]
    archive = evolve(fitness, _ga_config(args), bounds_fn())
    gd = generational_distance(archive.final_front.objectives, front_fn())
    print(f"{problem}: generational distance to analytic front = {gd!r}")
    code = EXIT_OK
    if fail_above is not None and gd > fail_above:
        print(f"generational distance {gd!r} above threshold {fail_above!r}", file=sys.stderr)
        code = EXIT_GATE
    if args["out"] is None:  # nothing will be written
        return code, {}
    return code, {
        "generations.csv": render_generations_csv(archive, ["f1", "f2"]),
        "pareto.json": render_pareto_json(archive, ["f1", "f2"]),
    }


def _inputs(args: dict) -> dict:
    """What a run's results depend on besides its args: the package version, the scenario
    file's hash (``None`` for a command without a scenario) and the package code's hash."""
    return {
        "version": __version__,
        "scenario_sha256": file_sha256(_resolve_scenario(args["scenario"]))
        if "scenario" in args else None,
        "code_sha256": code_sha256(),
    }


def run_replay(manifest_path: str, out_override: str | None) -> int:
    """Re-run a manifest's command; refuse args its parser would not give, and a run whose
    version, scenario file or code differs from the one recorded.

    The run writes to ``out_override``, else to the recorded directory, and records
    the directory it wrote, so that replaying its own manifest writes there again.
    """
    manifest = load_manifest(Path(manifest_path))
    command, recorded = manifest["command"], manifest["args"]
    parser = build_parser()[1].get(command) if isinstance(command, str) else None
    if parser is None or command == "replay":
        raise CarbonOptError(f"manifest has unknown command {command!r}")
    args = {}
    for flag in parser._actions:
        if flag.default == argparse.SUPPRESS:  # --help records nothing
            continue
        if flag.dest not in recorded:
            raise CarbonOptError(f"manifest args have no {flag.dest!r}; rerun the command instead")
        # the type the flag parses to (an int passes for a float); None only where the
        # flag is optional and defaults to None
        value, kind = recorded[flag.dest], flag.type or str
        accepted = (int, float) if kind is float else kind
        optional_none = value is None and flag.default is None and not flag.required
        if not optional_none and (isinstance(value, bool) or not isinstance(value, accepted)):
            raise CarbonOptError(
                f"manifest args.{flag.dest} must be {kind.__name__}, got {value!r}; "
                "rerun the command instead"
            )
        args[flag.dest] = value
    for key, value in _inputs(args).items():
        if manifest.get(key) != value:
            raise CarbonOptError(
                f"manifest {key} {manifest.get(key)!r} differs from this run's {value!r}: "
                "the run would not be the same; rerun the command instead"
            )
    args["out"] = out_override or args["out"]
    return _run(command, args)


def _run(command: str, args: dict) -> int:
    """Run a command and write its files with the manifest that replays them: ``simulate``
    and ``optimize`` to ``args["out"]``, else ``$CARBONOPT_OUT``, else ``carbonopt-out``;
    ``benchmark`` only when ``args["out"]`` names a directory."""
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    # a file is recorded by its absolute path and a bundled scenario by its name, so a
    # replay finds either from any directory, the bundled one in its own package
    if "scenario" in args and Path(args["scenario"]).is_file():
        args["scenario"] = os.path.abspath(args["scenario"])
    if args["out"] is None and command != "benchmark":
        args["out"] = os.environ.get(OUT_DIR_ENV, "carbonopt-out")
    if args["out"] is not None:
        args["out"] = os.path.abspath(args["out"])
    # taken before the run reads the scenario, and only for a run that records them
    inputs = {} if args["out"] is None else _inputs(args)
    runners = {"simulate": run_simulate, "optimize": run_optimize, "benchmark": run_benchmark}
    code, files = runners[command](args)
    if args["out"] is not None:
        out_dir = Path(args["out"])
        outputs = write_output_set(out_dir, files)
        write_manifest(out_dir, {
            "command": command,
            "args": args,
            "seed": args["seed"],
            **inputs,
            "outputs": outputs,
            "timings": {
                "started_utc": started.isoformat(timespec="seconds"),
                "elapsed_seconds": round(time.perf_counter() - t0, 3),
            },
        })
        print(f"wrote {', '.join(outputs)} to {out_dir}")
    return code


def _add_ga_flags(parser: argparse.ArgumentParser, pop_default: int, gens_default: int):
    parser.add_argument("--pop", type=int, default=pop_default, help="population size")
    parser.add_argument("--gens", type=int, default=gens_default, help="generations to run")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--crossover-prob", type=float, default=0.9, dest="crossover_prob"
    )
    parser.add_argument("--mutation-prob", type=float, default=0.05, dest="mutation_prob")
    parser.add_argument("--eta-c", type=float, default=15.0, dest="eta_c")
    parser.add_argument(
        "--mutation-kind", choices=["per-gene", "per-child"], default="per-gene"
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_INVALID``, as every other invalid input does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by command name."""
    parser = _Parser(
        prog="carbonopt",
        description="Carbon-tax trajectory search over a merit-order electricity market",
    )
    parser.add_argument("--version", action="version", version=f"carbonopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one tax trajectory through the market model")
    sim.add_argument("--scenario", required=True, help="scenario file or bundled name")
    sim.add_argument(
        "--policy", required=True, help="flat:C | linear:A1,A2 | free:V1,...,Vn"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help=f"output directory (${OUT_DIR_ENV})")

    opt = sub.add_parser("optimize", help="search tax trajectories with the optimizer")
    opt.add_argument("--scenario", required=True, help="scenario file or bundled name")
    opt.add_argument("--kind", required=True, help="policy encoding: free | linear")
    _add_ga_flags(opt, pop_default=100, gens_default=20)
    opt.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel fitness evaluation workers (at most the CPUs and the population size)",
    )
    opt.add_argument("--out", default=None)

    bench = sub.add_parser("benchmark", help="score the optimizer on an analytic problem")
    bench.add_argument("--problem", required=True, help="schaffer | zdt1")
    _add_ga_flags(bench, pop_default=100, gens_default=100)
    bench.add_argument(
        "--fail-above",
        type=float,
        default=None,
        dest="fail_above",
        help="exit nonzero when generational distance exceeds this",
    )
    bench.add_argument("--out", default=None, help="also write the evolution archive here")

    rep = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    rep.add_argument("manifest", help="path to a manifest.json")
    rep.add_argument("--out", default=None, help="override the recorded output directory")

    return parser, sub.choices


def main(argv=None) -> int:
    args = vars(build_parser()[0].parse_args(argv))
    command = args.pop("command")
    try:
        if command == "replay":
            return run_replay(args["manifest"], args["out"])
        return _run(command, args)
    except (CarbonOptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
