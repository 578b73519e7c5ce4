"""Command-line interface.

Commands:

* ``simulate``: run one tax trajectory through the market model.
* ``optimize``: search tax trajectories with the genetic optimizer.
* ``benchmark``: score the optimizer on an analytic test problem.
* ``replay``: re-run the command recorded in a manifest.

Each command computes and returns its result files, each as its text or
as the chunks that render it (``generations.csv`` is rendered one
generation at a time, as it is written); ``_run`` writes them
with a ``manifest.json`` that records the fully resolved configuration,
the output directory and checksums of the scenario and of the package
code. Replaying a manifest reproduces the result files byte for byte
(the manifest's own timing block is the only thing that varies, and its
host block names the Python and numpy versions that ran it), and is
refused when the code or the scenario has changed. Exit codes: 0
success, 1 invalid input, 2 runtime failure, 3 benchmark quality gate
failed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import os
import platform
import sys
import time
import typing
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import BENCHMARKS, generational_distance
from .errors import CarbonOptError
from .exports import (
    MANIFEST_NAME,
    code_sha256,
    file_sha256,
    generations_csv_chunks,
    load_manifest,
    render_events_csv,
    render_objectives_json,
    render_pareto_json,
    render_per_year_csv,
    render_year_summary_csv,
    write_manifest,
    write_output_set,
)
from .investment import Valuations
from .nsga2 import MUTATION_KINDS, FrontArchive, GAConfig, evolve
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


# each GA flag's dest -> its ``GAConfig`` field and its help, in the order a manifest
# records them
_GA_FLAGS = {
    "pop": ("population_size", "population size"),
    "gens": ("generations", "generations to run"),
    "seed": ("seed", "random seed"),
    "crossover_prob": ("crossover_probability", "chance that a parent pair is crossed over"),
    "mutation_prob": ("mutation_probability", "chance of a reset, per gene or per child"),
    "eta_c": ("eta_crossover", "SBX distribution index"),
    "mutation_kind": ("mutation_kind", "what a mutation draw resets"),
}


def _ga_config(args: dict) -> GAConfig:
    """The optimizer settings recorded in an ``optimize`` or ``benchmark`` run's args."""
    return GAConfig(**{field: args[dest] for dest, (field, _) in _GA_FLAGS.items()})


def _search_files(archive: FrontArchive, objective_names: list[str]) -> dict:
    """A search's result files; ``generations.csv`` is rendered only as it is written."""
    return {
        "generations.csv": generations_csv_chunks(archive, objective_names),
        "pareto.json": render_pareto_json(archive, objective_names),
    }


def run_simulate(args: dict) -> tuple[int, dict[str, str], list[str]]:
    scenario = load_scenario(_resolve_scenario(args["scenario"]))
    policy = parse_policy_spec(args["policy"], scenario.horizon_years)
    result = run_simulation(scenario, policy, args["seed"])
    summary = [f"objective_price={result.objective_price!r} objective_rci={result.objective_rci!r}"]
    return EXIT_OK, {
        "per_year.csv": render_per_year_csv(result, scenario.start_year),
        "year_summary.csv": render_year_summary_csv(result, scenario.start_year),
        "events.csv": render_events_csv(result.events),
        "objectives.json": render_objectives_json(result),
    }, summary


def run_optimize(args: dict) -> tuple[int, dict[str, str | Iterator[str]], list[str]]:
    jobs = args["jobs"]
    if jobs < 1:
        raise CarbonOptError(f"--jobs must be >= 1, got {jobs}")
    scenario = load_scenario(_resolve_scenario(args["scenario"]))
    kind = args["kind"]
    box = policy_bounds(kind, n_years=scenario.horizon_years)  # refuses an unknown kind
    cfg = _ga_config(args)
    # one memo of investment states for the search; a pool's workers each keep one of it
    fitness = functools.partial(
        evaluate_objectives, scenario, policy_kind=kind, seed=args["seed"], memo=Valuations()
    )

    if jobs == 1:
        archive = evolve(fitness, cfg, box)
    else:
        # only a parallel run loads the pool and its machinery (multiprocessing, logging, ...)
        from concurrent.futures import ProcessPoolExecutor

        # a pool starts all its workers at once: never more than the CPUs or the genomes
        workers = min(jobs, os.cpu_count() or 1, cfg.population_size)
        with ProcessPoolExecutor(workers) as pool:
            archive = evolve(fitness, cfg, box, map_fn=lambda fn, items: pool.map(
                fn, items, chunksize=max(1, len(items) // (workers * 4))
            ))

    front = archive.final_front
    rows = sorted(zip(front.objectives.tolist(), front.genomes.tolist()), key=lambda r: r[0][0])
    summary = [f"final front ({len(rows)} solutions):",
               f"{'objective_price':>16} {'objective_rci':>14}  genome"]
    for (price, rci), genome in rows:
        genes = ", ".join(f"{v:.2f}" for v in genome)
        summary.append(f"{price:>16.4f} {rci:>14.4f}  [{genes}]")
    return EXIT_OK, _search_files(archive, OBJECTIVE_NAMES), summary


def run_benchmark(args: dict) -> tuple[int, dict[str, str | Iterator[str]], list[str]]:
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
    code = EXIT_OK
    if fail_above is not None and gd > fail_above:
        print(f"generational distance {gd!r} above threshold {fail_above!r}", file=sys.stderr)
        code = EXIT_GATE
    summary = [f"{problem}: generational distance to analytic front = {gd!r}"]
    return code, _search_files(archive, ["f1", "f2"]), summary


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
    if out_override is not None:
        _check_out(out_override)
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
    if out_override is not None:
        args["out"] = out_override
    return _run(command, args)


def _check_out(out: str) -> None:
    """Refuse an output directory no run could write into: empty, a file, or under a file."""
    if not out:
        raise CarbonOptError("--out must name a directory, got ''")
    path = Path(os.path.abspath(out))
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise CarbonOptError(f"--out {out!r} is not a directory: {str(part)!r} is a file")
            return


def _run(command: str, args: dict) -> int:
    """Run a command and write its files with the manifest that replays them: ``simulate``
    and ``optimize`` to ``args["out"]``, else ``$CARBONOPT_OUT``, else ``carbonopt-out``;
    ``benchmark`` only when ``args["out"]`` names a directory. An output directory that
    is empty, a file or under a file is refused before the run starts. The run's summary
    is printed last, once its files are written (see ``_print``)."""
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    # a file is recorded by its absolute path and a bundled scenario by its name, so a
    # replay finds either from any directory, the bundled one in its own package
    if "scenario" in args and Path(args["scenario"]).is_file():
        args["scenario"] = os.path.abspath(args["scenario"])
    if args["out"] is None and command != "benchmark":
        args["out"] = os.environ.get(OUT_DIR_ENV, "carbonopt-out")
    if args["out"] is not None:
        _check_out(args["out"])
        args["out"] = os.path.abspath(args["out"])
    # taken before the run reads the scenario, and only for a run that records them
    inputs = {} if args["out"] is None else _inputs(args)
    runners = {"simulate": run_simulate, "optimize": run_optimize, "benchmark": run_benchmark}
    code, files, summary = runners[command](args)
    if args["out"] is not None:
        out_dir = Path(args["out"])
        outputs = write_output_set(out_dir, files)
        try:
            write_manifest(out_dir, {
                "command": command,
                "args": args,
                **inputs,
                "outputs": outputs,
                # what ran it, for the reader: replay compares none of it, as hosts differ
                "host": {"python": platform.python_version(), "numpy": np.__version__},
                "timings": {
                    "started_utc": started.isoformat(timespec="seconds"),
                    "elapsed_seconds": round(time.perf_counter() - t0, 3),
                },
            })
        except BaseException:
            # the results are this run's now: an earlier run's manifest would claim them
            (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
            raise
        summary.append(f"wrote {', '.join(outputs)} to {out_dir}")
    _print(summary)
    return code


def _print(lines: list[str]) -> None:
    """Print ``lines`` to stdout, and nothing if its reader has gone.

    A run whose reader goes away (``carbonopt optimize ... | head -3``) keeps
    its files, written before, and its exit code. The failed write leaves
    nothing buffered, and nothing is printed after it.
    """
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        pass


def _add_ga_flags(parser: argparse.ArgumentParser, **overrides) -> None:
    """A flag for each GA setting, defaulting to ``GAConfig(**overrides)``'s value and of
    the field's declared type (a default's own type would make ``eta_crossover=15`` an int)."""
    defaults, types = GAConfig(**overrides), typing.get_type_hints(GAConfig)
    for dest, (field, text) in _GA_FLAGS.items():
        parser.add_argument(
            f"--{dest.replace('_', '-')}", dest=dest, type=types[field],
            default=getattr(defaults, field), help=text,
            choices=MUTATION_KINDS if field == "mutation_kind" else None,
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
    _add_ga_flags(opt)
    opt.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel fitness evaluation workers (at most the CPUs and the population size)",
    )
    opt.add_argument("--out", default=None)

    bench = sub.add_parser("benchmark", help="score the optimizer on an analytic problem")
    bench.add_argument("--problem", required=True, help="schaffer | zdt1")
    _add_ga_flags(bench, generations=100)
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
