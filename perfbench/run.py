"""Run one benchmark workload against the ``carbonopt`` sources of this checkout.

    python3 perfbench/run.py --workload simulate-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root. It repeats whole rounds of the
workload's commands until ``--seconds`` have passed, checks the result
files, and prints each metric with its unit and better direction; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``, measured untraced. With
``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer ones, taken from the traced rounds' spans, plus the tracing
overhead. Scratch files go to ``.perfbench_out/`` and are removed at the
end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HOST, NOMINAL_NUMPY_IMPORT_S, numpy_import
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, ModelClock

# Set-up samples taken before and after the rounds: the host's speed drifts
# over seconds, so samples spread over the run give a steadier median.
SETUP_BEFORE, SETUP_AFTER = 5, 5
MAX_REPORTED = 20  # failed checks printed; the rest are counted
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import carbonopt.cli
from carbonopt.scenario import bundled_scenario_path, load_scenario
load_scenario(bundled_scenario_path("uk_synthetic"))
print(time.perf_counter() - start)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_samples(repeats: int) -> list[float]:
    """Fresh interpreters timing: import the package and its CLI, load and validate the scenario.

    Each time is taken to the nominal host speed by numpy's import in a
    fresh interpreter, timed just before it (see hostspeed.py).
    """
    times = []
    for _ in range(repeats):
        reference = numpy_import()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) * NOMINAL_NUMPY_IMPORT_S / reference)
    return times


def run_rounds(workload, seconds: float, tracer) -> tuple[list[float], list[float], list[float], float]:
    """Repeat whole rounds until ``seconds`` have passed.

    Untraced: every round runs under the model clock. Traced: untraced
    and traced rounds alternate, starting untraced, ending on a traced
    one. Returns (untraced round times, model seconds per untraced round,
    traced round times, peak memory through round 0). Memory is taken
    after one pass over the workload's commands: later rounds add only
    the allocator's fragmentation from repeating them in one process, and
    how many rounds fit depends on the host's speed.
    """
    untraced, model, traced = [], [], []
    first_peak = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is not None and index % 2 == 1:
            traced.append(workload.round(index, tracer.installed))
        else:
            clock = ModelClock()
            untraced.append(workload.round(index, clock.installed))
            model.append(clock.seconds)
        if index == 0:
            first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
        if time.perf_counter() - start >= seconds and (tracer is None or index % 2 == 0):
            return untraced, model, traced, first_peak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "carbonopt" / "__init__.py").is_file():
        fail("run from the repository root: src/carbonopt is not here")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(root / "src"))
    import carbonopt

    if Path(carbonopt.__file__).resolve().parent != (root / "src" / "carbonopt").resolve():
        fail(f"imported carbonopt from {carbonopt.__file__}, not from this checkout")

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    scratch = root / ".perfbench_out"
    work_dir = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup = setup_samples(SETUP_BEFORE) if not args.trace else []
        workload = WORKLOADS[args.workload](work_dir, args.seed)
        tracer = Tracer() if args.trace else None
        untraced, model, traced, first_peak = run_rounds(workload, args.seconds, tracer)
        problems = workload.check() + workload.problems
        if not args.trace:
            setup += setup_samples(SETUP_AFTER)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer, len(traced))
        # Each traced round against the untraced round just before it, which
        # most likely ran at the same host speed.
        pairs = list(zip(untraced, traced))
        metrics["trace.overhead_s"] = statistics.median(slow - plain for plain, slow in pairs)
        metrics["trace.overhead_ratio"] = statistics.median((slow - plain) / plain for plain, slow in pairs)
        metrics["trace.spans"] = len(tracer.spans) / len(traced)
        if args.workload == "simulate-sweep":
            count = {k: round(metrics[k] * len(traced)) for k in
                     ("investment.probe_clears", "dispatch.spot_year_clears", "dispatch.year_clears")}
            if count["investment.probe_clears"] + count["dispatch.spot_year_clears"] != count["dispatch.year_clears"]:
                problems.append("probe clears + spot clears != year clears")
        tracer.write_csv(scratch / f"spans-{args.workload}-seed{args.seed}.csv")
        wanted = spec["per_layer"]
    else:
        # Times at the nominal host speed (see hostspeed.py). Round times are
        # averaged, as the host-speed samples they are scaled by are, so that
        # both weigh the host's slow and fast stretches alike.
        scale = HOST.scale()
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(untraced) * scale,
            "evals_per_s": workload.evals_per_round * len(model) / (math.fsum(model) * scale),
            "front_hypervolume": workload.hypervolume(),
            "peak_rss_mb": first_peak,
        }
        wanted = spec["end_to_end"]

    for message in dict.fromkeys(workload.failures):
        print(f"failed: {message}", file=sys.stderr)
    for message in problems[:MAX_REPORTED]:
        print(f"check: {message}", file=sys.stderr)
    if len(problems) > MAX_REPORTED:
        print(f"check: ... and {len(problems) - MAX_REPORTED} more", file=sys.stderr)
    rounds = len(untraced) + len(traced)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {workload.attempted} operations, "
          f"{workload.failed} failed, checks {'passed' if not problems else 'FAILED'}")
    result = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        print(f"  {m['name']:<36} {value:>16.6f} {m['unit']:<8} ({m['better']} is better)")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": result,
    }))


if __name__ == "__main__":
    main()
