"""Command-line interface.

Commands:

* ``simulate``: run one tax trajectory through the market model.
* ``optimize``: search tax trajectories with the genetic optimizer.
* ``benchmark``: score the optimizer on an analytic test problem.
* ``replay``: re-run the command recorded in a manifest.

Every command that writes files also writes a ``manifest.json`` capturing
the fully resolved configuration; replaying a manifest reproduces the
result files byte for byte (the manifest's own timing block is the only
thing that varies). Exit codes: 0 success, 1 invalid input, 2 runtime
failure, 3 benchmark quality gate failed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .benchmarks import BENCHMARKS, generational_distance
from .errors import CarbonOptError
from .exports import (
    RunManifest,
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
from .policy import POLICY_KINDS, bounds as policy_bounds, parse_policy_spec
from .scenario import bundled_scenario_path, load_scenario
from .simulation import evaluate_objectives, run_simulation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3

OBJECTIVE_NAMES = ["objective_price", "objective_rci"]
OUT_DIR_ENV = "CARBONOPT_OUT"


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, "carbonopt-out")


def _resolve_scenario(spec: str) -> Path:
    path = Path(spec)
    if path.is_file():
        return path
    bundled = bundled_scenario_path(spec)
    if bundled is not None:
        return bundled
    raise CarbonOptError(f"scenario {spec!r} is neither a file nor a bundled scenario name")


def _timings(started: datetime.datetime, t0: float) -> dict:
    return {
        "started_utc": started.isoformat(timespec="seconds"),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }


def _write_run(
    out_dir: Path,
    command: str,
    args: dict,
    files: dict[str, str],
    scenario_path: Path | None,
    started: datetime.datetime,
    t0: float,
) -> list[str]:
    """Write the result files, then the manifest that replays them; return the file names."""
    outputs = write_output_set(out_dir, files)
    write_manifest(
        out_dir,
        RunManifest(
            command=command,
            args=args if scenario_path is None else {**args, "scenario": str(scenario_path)},
            seed=args["seed"],
            version=__version__,
            scenario_sha256=None if scenario_path is None else file_sha256(scenario_path),
            outputs=outputs,
            timings=_timings(started, t0),
        ),
    )
    return outputs


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


def run_simulate(args: dict, out_dir: Path) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    scenario_path = _resolve_scenario(args["scenario"])
    scenario = load_scenario(scenario_path)
    policy = parse_policy_spec(args["policy"], scenario.horizon_years)
    result = run_simulation(scenario, policy, args["seed"])

    files = {
        "per_year.csv": render_per_year_csv(result, scenario.start_year),
        "year_summary.csv": render_year_summary_csv(result, scenario.start_year),
        "events.csv": render_events_csv(result.events),
        "objectives.json": render_objectives_json(result),
    }
    outputs = _write_run(out_dir, "simulate", args, files, scenario_path, started, t0)
    print(
        f"objective_price={result.objective_price!r} "
        f"objective_rci={result.objective_rci!r}"
    )
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return EXIT_OK


def _parallel_map(jobs: int):
    executor = ProcessPoolExecutor(max_workers=jobs)

    def mapper(fn, items):
        chunk = max(1, len(items) // (jobs * 4))
        return executor.map(fn, items, chunksize=chunk)

    return executor, mapper


def run_optimize(args: dict, out_dir: Path) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    scenario_path = _resolve_scenario(args["scenario"])
    scenario = load_scenario(scenario_path)
    kind = args["kind"]
    if kind not in POLICY_KINDS:
        raise CarbonOptError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
    cfg = _ga_config(args)
    fitness = functools.partial(
        evaluate_objectives, scenario, policy_kind=kind, seed=args["seed"]
    )
    box = policy_bounds(kind, n_years=scenario.horizon_years)

    jobs = args["jobs"]
    if jobs > 1:
        executor, mapper = _parallel_map(jobs)
        try:
            archive = evolve(fitness, cfg, box, map_fn=mapper)
        finally:
            executor.shutdown()
    else:
        archive = evolve(fitness, cfg, box)

    files = {
        "generations.csv": render_generations_csv(archive, OBJECTIVE_NAMES),
        "pareto.json": render_pareto_json(archive, OBJECTIVE_NAMES),
    }
    outputs = _write_run(out_dir, "optimize", args, files, scenario_path, started, t0)

    front = archive.final_front
    rows = sorted(zip(front.objectives.tolist(), front.genomes.tolist()), key=lambda r: r[0][0])
    print(f"final front ({len(rows)} solutions):")
    print(f"{'objective_price':>16} {'objective_rci':>14}  genome")
    for (price, rci), genome in rows:
        genes = ", ".join(f"{v:.2f}" for v in genome)
        print(f"{price:>16.4f} {rci:>14.4f}  [{genes}]")
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return EXIT_OK


def run_benchmark(args: dict, out_dir: Path | None) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    problem, fail_above = args["problem"], args["fail_above"]
    if problem not in BENCHMARKS:
        raise CarbonOptError(
            f"unknown problem {problem!r}; expected one of {sorted(BENCHMARKS)}"
        )
    fitness, bounds_fn, front_fn = BENCHMARKS[problem]
    archive = evolve(fitness, _ga_config(args), bounds_fn())
    gd = generational_distance(archive.final_front.objectives, front_fn())
    print(f"{problem}: generational distance to analytic front = {gd!r}")

    if out_dir is not None:
        files = {
            "generations.csv": render_generations_csv(archive, ["f1", "f2"]),
            "pareto.json": render_pareto_json(archive, ["f1", "f2"]),
        }
        outputs = _write_run(out_dir, "benchmark", args, files, None, started, t0)
        print(f"wrote {', '.join(outputs)} to {out_dir}")

    if fail_above is not None and gd > fail_above:
        print(f"generational distance {gd!r} above threshold {fail_above!r}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


class _RecordedArgs(dict):
    """A manifest's args: a key the command reads but the manifest lacks is refused by name."""

    def __missing__(self, key):
        raise CarbonOptError(f"manifest args have no {key!r}; rerun the command instead")

    def check_types(self, command: str) -> None:
        """Refuse a recorded arg that is not of the type its flag parses to (an int passes
        for a float); ``None`` passes where the flag's default is ``None``."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for flag in getattr(sub.choices.get(command), "_actions", ()):
            if flag.dest not in self or (self[flag.dest] is None and flag.default is None):
                continue
            value, kind = self[flag.dest], flag.type or str
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise CarbonOptError(
                    f"manifest args.{flag.dest} must be {kind.__name__}, got {value!r}; "
                    "rerun the command instead"
                )


def run_replay(manifest_path: str, out_override: str | None) -> int:
    """Re-run a manifest's command; refuse when the code or the scenario file has changed."""
    manifest = load_manifest(Path(manifest_path))
    args = _RecordedArgs(manifest.args)
    if manifest.version != __version__:
        raise CarbonOptError(
            f"manifest version {manifest.version!r} differs from this carbonopt "
            f"{__version__!r}; rerun the command instead"
        )
    args.check_types(manifest.command)
    if manifest.scenario_sha256 is not None:
        scenario_path = _resolve_scenario(args["scenario"])
        if file_sha256(scenario_path) != manifest.scenario_sha256:
            raise CarbonOptError(
                f"manifest scenario_sha256 does not match {scenario_path}: the scenario "
                "changed since the run; rerun the command instead"
            )
    out_dir = Path(out_override) if out_override else Path(args.get("out", _default_out_dir()))
    return _run(manifest.command, args, out_dir)


def _run(command: str, args: dict, out_dir: Path | None) -> int:
    if command == "simulate":
        return run_simulate(args, out_dir)
    if command == "optimize":
        return run_optimize(args, out_dir)
    if command == "benchmark":
        return run_benchmark(args, out_dir)
    raise CarbonOptError(f"manifest has unknown command {command!r}")


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


def build_parser() -> argparse.ArgumentParser:
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
        help="parallel fitness evaluation workers",
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

    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "replay":
            return run_replay(args["manifest"], args["out"])
        # simulate and optimize always write; benchmark only when given a directory
        if args["out"] is None and command != "benchmark":
            args["out"] = _default_out_dir()
        out = Path(args["out"]) if args["out"] is not None else None
        args["out"] = str(out) if out is not None else None
        return _run(command, args, out)
    except (CarbonOptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
