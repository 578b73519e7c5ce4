"""Run ``perfbench/run.py`` on two checkouts in alternating pairs and compare their metrics.

Each pair runs the benchmark once on the parent checkout and once on the
change, in turn (the parent first in even pairs, the change first in odd
ones), with the same workload, seed and seconds, in a fresh interpreter
with ``PYTHONDONTWRITEBYTECODE=1``. For each workload and metric it prints
each side's median and quartiles and the pairs the change won, and writes
each side's results as ``BENCH_<label>_parent.json`` and
``BENCH_<label>_change.json``: per workload, the list of the JSON objects
``run.py`` printed, one per run, in pair order.

    python scripts/bench_pairs.py PARENT CHANGE --label NAME --pairs 10 --seed 6 --seconds 20

Both checkouts should be clean copies (``git archive``), so that neither
runs stale bytecode or scratch files. Which way is better comes from the
change's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: the JSON object its last line holds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {done.returncode}: "
                           f"{done.stderr[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, dict[str, list[dict]]], better: dict[str, str]) -> list[str]:
    """One line per workload and metric: each side's median and quartiles, and pairs won.

    ``runs`` maps each side to its results by workload, the runs in pair
    order; ``better`` maps a metric to ``"higher"`` or ``"lower"``. The
    change wins a pair when its value is strictly better than the
    parent's; a metric of unknown direction shows no wins.
    """
    lines = []
    for workload, parent_runs in runs["parent"].items():
        change_runs = runs["change"][workload]
        failed = sum(not run["correct"] or run["failed"] > 0 for run in parent_runs + change_runs)
        lines.append(f"{workload}: {len(parent_runs)} pairs, {failed} runs not correct "
                     "or with failed operations")
        for metric in parent_runs[0]["metrics"]:
            values = [[run["metrics"][metric]["value"] for run in side_runs]
                      for side_runs in (parent_runs, change_runs)]
            (p1, pm, p3), (c1, cm, c3) = (quartiles(side) for side in values)
            sign = {"higher": 1, "lower": -1}.get(better.get(metric, ""), 0)
            won = sum(sign * (c - p) > 0 for p, c in zip(*values))
            change = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            lines.append(
                f"  {metric:<32} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {change}  won {won}/{len(values[0])}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the files: BENCH_<label>_*.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="default: every workload listed")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    runs: dict[str, dict[str, list[dict]]] = {side: {w: [] for w in workloads} for side in SIDES}
    for workload in workloads:
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                runs[side][workload].append(run_once(checkouts[side], workload, args.seed,
                                                     args.seconds, args.trace))
            print(f"{workload}: pair {pair + 1} of {args.pairs} done", file=sys.stderr)
    for side in SIDES:
        path = args.out_dir / f"BENCH_{args.label}_{side}.json"
        path.write_text(json.dumps(runs[side]), encoding="utf-8")
    print("\n".join(summarize(runs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
