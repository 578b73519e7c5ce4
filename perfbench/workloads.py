"""The benchmark's workloads: their inputs, their measured rounds and their output checks.

A workload runs whole rounds of the same ``carbonopt`` commands, called
in process through ``carbonopt.cli.main`` with their console output
captured. ``round`` times the measured commands of one round; the
``instrument`` it is given (the model clock of an untraced round, or the
span tracer of a traced one) is installed around those commands only.
Round 0's result files are checked by ``check``; every later round must
reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import checks
from hostspeed import HOST

# Fixed hypervolume reference points, worse than every outcome seen on these inputs.
PRICE_RCI_REFERENCE = (50.0, 3.0)  # (average price £/MWh, relative carbon intensity)
ZDT1_REFERENCE = (1.1, 1.1)
ZDT1_GD_GATE = 0.05  # the acceptance gate's threshold on generational distance
# The program scores GD against 1024 samples of the front; a point can sit up
# to half the widest sample gap (about 0.016) further from a sample than from the curve.
ZDT1_SAMPLING_SLACK = 0.02
LINEAR_BOUNDS = ((-14.0, 14.0), (0.0, 250.0))
MANIFEST = "manifest.json"


def cli_call(argv: list[str]) -> tuple[int, str, float]:
    """Run one ``carbonopt`` command in process; returns (exit code, console output, seconds).

    The seconds leave out host-speed samples taken during the command.
    """
    from carbonopt import cli

    out = io.StringIO()
    # Free the previous command's objects first: they would pad this one's
    # peak memory and be collected on its clock.
    gc.collect()
    HOST.sample()
    start, spent = time.perf_counter(), HOST.spent
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start - (HOST.spent - spent)


class ModelClock:
    """Times the model call of each command (``run_simulation`` or ``evolve``) as the CLI makes it.

    Only the CLI's own reference is replaced, so nested calls are not
    counted twice; one pair of clock reads per command. ``evolve`` gets a
    fitness function that takes a host-speed sample when one is due, so
    that long searches are sampled too; the samples' time is left out.
    """

    def __init__(self):
        self.seconds = 0.0

    @contextlib.contextmanager
    def installed(self):
        from carbonopt import cli

        originals = {name: getattr(cli, name) for name in ("run_simulation", "evolve")}

        def sampling(fitness):
            def call(genome):
                objectives = fitness(genome)
                HOST.sample_due()
                return objectives

            return call

        def timed(fn, wrap_fitness):
            def call(*args, **kwargs):
                if wrap_fitness:
                    args = (sampling(args[0]),) + args[1:]
                start, spent = time.perf_counter(), HOST.spent
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds += time.perf_counter() - start - (HOST.spent - spent)

            return call

        try:
            for name, fn in originals.items():
                setattr(cli, name, timed(fn, name == "evolve"))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)


def bundled_scenario() -> dict:
    return json.loads(Path("src/carbonopt/data/uk_synthetic.scenario").read_text(encoding="utf-8"))


def write_json(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def same_results(first: Path, again: Path) -> bool:
    """True when every result file of ``first`` (the manifest aside) is identical in ``again``."""
    names = sorted(p.name for p in first.iterdir() if p.name != MANIFEST)
    _, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
    return not mismatch and not errors


class Workload:
    """Shared bookkeeping: operation counts, round directories and the determinism check."""

    name = ""
    evals_per_round = 0

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that did not succeed
        self.problems: list[str] = []  # outputs that differ between rounds

    def out_dir(self, index: int, label: str) -> Path:
        return self.work_dir / f"round{index}" / label

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one is reported, and its outputs are never checked."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def settle(self, index: int, labels) -> None:
        """Compare a later round's result files with round 0's, then drop them."""
        if index == 0:
            return
        for label in labels:
            if not same_results(self.out_dir(0, label), self.out_dir(index, label)):
                self.problems.append(f"round {index} {label}: results differ from round 0")
        shutil.rmtree(self.work_dir / f"round{index}")


class SimulateSweep(Workload):
    """``simulate`` with full exports over a fixed set of tax policies, plus two guard operations.

    The seed draws the demand noise of the one noisy run. The policies
    are fixed: one simulation costs 1.1-2.7 s depending on the policy,
    so seed-drawn paths would make the sweep's time and hypervolume
    depend on the seed. Noise leaves investment, and so the cost,
    unchanged: the NPV probes do not see realized demand.
    """

    name = "simulate-sweep"

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        stepped = ",".join(str(30 * (k // 3)) for k in range(18))  # 0 rising by 30 every 3 years
        self.scenario = bundled_scenario()
        noisy = dict(self.scenario, demand_noise_std=0.02)
        noisy_path = write_json(work_dir / "inputs" / "noisy.scenario", noisy)
        # label -> (scenario argument, policy, scenario dict, noise free)
        self.runs = {
            "flat-0": ("uk_synthetic", "flat:0", self.scenario, True),
            "flat-250": ("uk_synthetic", "flat:250", self.scenario, True),
            "linear-8-100": ("uk_synthetic", "linear:8,100", self.scenario, True),
            "linear-m14-250": ("uk_synthetic", "linear:-14,250", self.scenario, True),
            "rising": ("uk_synthetic", "linear:6,40", self.scenario, True),
            "stepped": ("uk_synthetic", f"free:{stepped}", self.scenario, True),
            "noisy": (str(noisy_path), "linear:8,100", noisy, False),
        }
        self.evals_per_round = len(self.runs)
        # Guard inputs do not depend on the seed. They are cut to two years, so
        # a variant the program wrongly accepts costs little to simulate.
        short = dict(self.scenario, horizon_years=2)
        self.guard_dir = work_dir / "guards"
        self.malformed = []
        for label, edit in (
            ("nan-variable-om", lambda d: d["technologies"][0].update(variable_om=math.nan)),
            ("inf-demand", lambda d: d["representative_days"][0]["segments"][0].update(demand_mw=math.inf)),
            ("negative-variable-om", lambda d: d["technologies"][1].update(variable_om=-1e6)),
        ):
            bad = json.loads(json.dumps(short))
            edit(bad)
            self.malformed.append(write_json(self.guard_dir / f"{label}.scenario", bad))
        self.short = short
        self.objectives: dict[str, tuple[float, float]] = {}

    def round(self, index: int, instrument) -> float:
        wall = 0.0
        with instrument():
            for label, (scenario, policy, _, _) in self.runs.items():
                out = self.out_dir(index, label)
                argv = ["simulate", "--scenario", scenario, "--policy", policy,
                        "--seed", str(self.seed), "--out", str(out)]
                code, text, seconds = cli_call(argv)
                wall += seconds
                self.op(code == 0, f"simulate {label} exited {code}: {text.strip()[-300:]}")
        self.guard_malformed()
        self.guard_replay()
        self.settle(index, self.runs)
        return wall

    def guard_malformed(self) -> None:
        """Malformed scenarios (NaN or infinite numbers, negative O&M) must be refused with exit 1."""
        codes = [
            cli_call(["simulate", "--scenario", str(path), "--policy", "flat:0",
                      "--out", str(self.guard_dir / "out" / path.stem)])[0]
            for path in self.malformed
        ]
        self.op(all(c == 1 for c in codes), f"guard: malformed scenarios exited {codes}, expected 1")

    def guard_replay(self) -> None:
        """Replaying a manifest whose scenario file has since changed must be refused with exit 1."""
        path = write_json(self.guard_dir / "replay.scenario", self.short)
        out = self.guard_dir / "replay-first"
        first = cli_call(["simulate", "--scenario", str(path), "--policy", "flat:50", "--out", str(out)])[0]
        changed = json.loads(json.dumps(self.short))
        changed["fuel_prices"]["gas"][str(self.short["start_year"])] += 1.0
        write_json(path, changed)
        code = cli_call(["replay", str(out / MANIFEST), "--out", str(self.guard_dir / "replay-again")])[0]
        self.op(first == 0 and code == 1, f"guard: replay after scenario change exited {code}, expected 1")

    def check(self) -> list[str]:
        problems = []
        intensity = {}
        for label, (_, _, scenario, noise_free) in self.runs.items():
            out_dir = self.out_dir(0, label)
            if not (out_dir / "objectives.json").is_file():
                problems.append(f"{label}: no outputs")
                continue
            out = checks.read_simulate_outputs(out_dir)
            problems += [f"{label}: {p}" for p in checks.check_simulate_outputs(out, scenario, noise_free)]
            self.objectives[label] = (
                out["objectives"]["objective_price"],
                out["objectives"]["objective_rci"],
            )
            intensity[label] = out["years"][max(out["years"])]["carbon_intensity"]
        if {"flat-0", "flat-250"} <= intensity.keys() and intensity["flat-250"] > intensity["flat-0"]:
            problems.append("flat 250 ends with a higher carbon intensity than flat 0")
        return problems

    def hypervolume(self) -> float:
        """Over the noise-free runs, so that it depends on the policy set alone."""
        points = [self.objectives[label] for label, run in self.runs.items() if run[3] and label in self.objectives]
        return checks.hypervolume_2d(points, PRICE_RCI_REFERENCE)


def read_front(out_dir: Path, names: tuple[str, str]) -> list[tuple[list[float], tuple[float, float]]]:
    entries = json.loads((out_dir / "pareto.json").read_text(encoding="utf-8"))
    return [(e["genome"], tuple(e["objectives"][n] for n in names)) for e in entries]


class OptimizeLinear(Workload):
    """A small serial linear-policy search on ``uk_synthetic``.

    Its inputs are fixed, whatever the seed: over GA seeds 1-8 the same
    16-genome search took 19-36 s and ended on fronts whose hypervolume
    differs up to 2.6-fold, so a seed-driven search could not be compared
    between runs. GA seed 3 scores only 9 distinct genomes of its 16, so
    fitness memoization has work to save here.
    """

    name = "optimize-linear"
    POP, GENS, GA_SEED = 4, 3, 3
    evals_per_round = POP * (GENS + 1)

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        self.front: list = []

    def round(self, index: int, instrument) -> float:
        out = self.out_dir(index, "optimize")
        argv = ["optimize", "--scenario", "uk_synthetic", "--kind", "linear",
                "--pop", str(self.POP), "--gens", str(self.GENS), "--seed", str(self.GA_SEED),
                "--jobs", "1", "--out", str(out)]
        with instrument():
            code, text, seconds = cli_call(argv)
        self.op(code == 0, f"optimize exited {code}: {text.strip()[-300:]}")
        self.settle(index, ["optimize"])
        return seconds

    def check(self) -> list[str]:
        out_dir = self.out_dir(0, "optimize")
        if not (out_dir / "pareto.json").is_file():
            return ["optimize: no pareto.json"]
        self.front = read_front(out_dir, ("objective_price", "objective_rci"))
        points = [obj for _, obj in self.front]
        problems = [f"pareto point {i} dominates point {j}" for i, j in checks.dominated_pairs(points)]
        for genome, objectives in self.front:
            if len(genome) != 2 or not all(lo <= g <= hi for g, (lo, hi) in zip(genome, LINEAR_BOUNDS)):
                problems.append(f"pareto genome {genome} outside the linear bounds")
                continue
            # json floats round-trip exactly, so this replays the very genome
            out = self.work_dir / "resimulate" / f"{genome[0]!r}_{genome[1]!r}"
            policy = f"linear:{genome[0]!r},{genome[1]!r}"
            code, text, _ = cli_call(["simulate", "--scenario", "uk_synthetic", "--policy", policy,
                                      "--seed", str(self.GA_SEED), "--out", str(out)])
            if code != 0:
                problems.append(f"re-simulating {policy} exited {code}: {text.strip()[-300:]}")
                continue
            again = json.loads((out / "objectives.json").read_text(encoding="utf-8"))
            if (again["objective_price"], again["objective_rci"]) != objectives:
                problems.append(f"re-simulating {policy} gives {again}, pareto.json has {objectives}")
        return problems

    def hypervolume(self) -> float:
        return checks.hypervolume_2d([obj for _, obj in self.front], PRICE_RCI_REFERENCE)


class GaZdt1(Workload):
    """``carbonopt benchmark --problem zdt1`` with ``--out``: the GA and its exports, no market model.

    A round runs the benchmark once for each of ``RUNS`` GA seeds drawn
    from the seed, at the acceptance gate's 100 x 100. Fewer generations
    do not hold the gate's GD < 0.05 on every GA seed: at 50, GA seed
    11670334077 ends at 0.0503. At 100 the worst GD over 20 GA seeds was
    0.0095, and the front's hypervolume differs by 3% (quartile spread),
    so it is averaged over the round's runs.
    """

    name = "ga-zdt1"
    POP, GENS, RUNS = 100, 100, 3
    evals_per_round = POP * (GENS + 1) * RUNS

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        self.ga_seeds = [seed * self.RUNS + k for k in range(self.RUNS)]
        self.reported_gd: dict[int, float] = {}
        self.fronts: dict[int, list] = {}

    def round(self, index: int, instrument) -> float:
        """Returns the mean time of the round's ``benchmark`` commands."""
        times = []
        with instrument():
            for ga_seed in self.ga_seeds:
                argv = ["benchmark", "--problem", "zdt1", "--pop", str(self.POP), "--gens", str(self.GENS),
                        "--seed", str(ga_seed), "--out", str(self.out_dir(index, f"zdt1-{ga_seed}"))]
                code, text, seconds = cli_call(argv)
                times.append(seconds)
                self.op(code == 0, f"benchmark --seed {ga_seed} exited {code}: {text.strip()[-300:]}")
                if index == 0 and code == 0:
                    self.reported_gd[ga_seed] = float(text.split("analytic front = ", 1)[1].split()[0])
        self.settle(index, [f"zdt1-{ga_seed}" for ga_seed in self.ga_seeds])
        return statistics.fmean(times)

    def check(self) -> list[str]:
        problems = []
        for ga_seed in self.ga_seeds:
            out_dir = self.out_dir(0, f"zdt1-{ga_seed}")
            if not (out_dir / "pareto.json").is_file():
                problems.append(f"zdt1 GA seed {ga_seed}: no pareto.json")
                continue
            front = read_front(out_dir, ("f1", "f2"))
            points = self.fronts[ga_seed] = [obj for _, obj in front]
            where = f"zdt1 GA seed {ga_seed}"
            problems += [f"{where}: point {i} dominates point {j}" for i, j in checks.dominated_pairs(points)]
            for genome, objectives in front:
                if not all(0.0 <= g <= 1.0 for g in genome):
                    problems.append(f"{where}: genome outside [0, 1]")
                expected = checks.zdt1_objectives(genome)
                if not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15) for a, b in zip(objectives, expected)):
                    problems.append(f"{where}: objectives {objectives} != recomputed {expected}")
            gd, reported = checks.generational_distance_zdt1(points), self.reported_gd.get(ga_seed, math.nan)
            if not gd < ZDT1_GD_GATE:
                problems.append(f"{where}: generational distance {gd!r} not below {ZDT1_GD_GATE}")
            if not gd - 1e-12 <= reported <= gd + ZDT1_SAMPLING_SLACK:
                problems.append(f"{where}: reported GD {reported!r} disagrees with recomputed {gd!r}")
        return problems

    def hypervolume(self) -> float:
        volumes = [checks.hypervolume_2d(points, ZDT1_REFERENCE) for points in self.fronts.values()]
        return math.fsum(volumes) / len(volumes)


WORKLOADS = {w.name: w for w in (SimulateSweep, OptimizeLinear, GaZdt1)}
