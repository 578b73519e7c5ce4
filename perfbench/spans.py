"""Span tracing of the package's layers, installed from outside the package.

``Tracer.installed()`` replaces each traced public function with a
wrapper wherever a ``carbonopt`` module holds a reference to it (module
globals, and tuples inside module-level dicts such as the benchmark
problem table), and restores the originals on exit. Each call becomes a
span: its name, start, end and the index of its parent span. Spans stay
in memory; ``write_csv`` writes them out once the run is over and
``layer_metrics`` derives each layer's counts and self times from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time

import numpy as np

LAYERS = (
    "scenario",
    "policy",
    "dispatch",
    "investment",
    "simulation",
    "nsga2",
    "benchmarks",
    "exports",
    "cli",
)

# Public functions wrapped per layer. Per-element helpers (merit_order_key,
# dominates, srmc, build_bids) are left out: a span per call would cost more
# than the work it measures; their time counts as their caller's self time.
TRACED = {
    "scenario": ("load_scenario", "scenario_from_dict", "validate_scenario"),
    "policy": ("parse_policy_spec", "decode", "check_bounds", "bounds"),
    "dispatch": ("run_year", "clear_segment"),
    "investment": ("invest", "estimate_yearly_revenue", "fit_carbon_forecast", "npv"),
    "simulation": ("run_simulation", "evaluate_objectives"),
    "nsga2": (
        "evolve",
        "fast_non_dominated_sort",
        "crowding_distance",
        "binary_tournament",
        "sbx_crossover",
        "mutate",
    ),
    "benchmarks": ("zdt1", "zdt1_front", "generational_distance"),
    "exports": (
        "render_per_year_csv",
        "render_year_summary_csv",
        "render_events_csv",
        "render_objectives_json",
        "render_generations_csv",
        "render_pareto_json",
        "write_output_set",
        "write_manifest",
        "file_sha256",
        "load_manifest",
    ),
    "cli": ("main", "run_simulate", "run_optimize", "run_benchmark", "run_replay"),
}

FITNESS = ("simulation.evaluate_objectives", "benchmarks.zdt1")
VARIATION = ("nsga2.binary_tournament", "nsga2.sbx_crossover", "nsga2.mutate")
WRITES = ("exports.write_output_set", "exports.write_manifest")
RENDERS = tuple(f"exports.{f}" for f in TRACED["exports"] if f.startswith("render_"))


def _genome_key(genome) -> bytes:
    return np.asarray(genome, dtype=float).tobytes()


# What a span records beyond its times, keyed by span name: a function of
# (positional args, result). Kept to the few facts the layer metrics need.
NOTES = {
    "investment.invest": lambda a, r: len(r),  # purchases made
    "investment.estimate_yearly_revenue": lambda a, r: (a[1], len(a[3])),  # probed state
    "nsga2.evolve": lambda a, r: len(r.snapshots) - 1,  # generations run
    "simulation.evaluate_objectives": lambda a, r: _genome_key(a[1]),
    "benchmarks.zdt1": lambda a, r: _genome_key(a[0]),
    **{name: (lambda a, r: len(r.encode("utf-8"))) for name in RENDERS},  # bytes rendered
}


def patch_everywhere(original, replacement) -> list:
    """Point every ``carbonopt`` module reference at ``original`` to ``replacement``.

    Returns undo records for ``restore``.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "carbonopt" or name.startswith("carbonopt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple) and any(e is original for e in entry):
                        value[key] = tuple(replacement if e is original else e for e in entry)
                        undo.append((value, key, entry))
    return undo


def restore(undo: list) -> None:
    for holder, key, value in reversed(undo):
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)


class Tracer:
    """In-memory span recorder: ``spans[i] = (name, start, end, parent)``; parent -1 is a root."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                notes[index] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"carbonopt.{layer}")
                for fname in names:
                    original = getattr(module, fname)
                    undo += patch_everywhere(original, self.wrap(f"{layer}.{fname}", original))
            yield self
        finally:
            restore(undo)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer counts and times from the spans of ``rounds`` identical traced rounds.

    Every figure is per round. A layer's self time is the duration of its
    spans minus the part covered by their direct children.
    """
    spans, notes = tracer.spans, tracer.notes
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.partition(".")[0]
        calls[layer] += 1
        self_s[layer] += (end - start) - child_time[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)

    def n(name):
        return count.get(name, 0)

    def t(*names):
        return math.fsum(total.get(x, 0.0) for x in names)

    # Year clears split by caller: the spot market (simulation) or an NPV probe (investment).
    spot = probe = 0
    probe_s = 0.0
    for name, start, end, parent in spans:
        if name == "dispatch.run_year" and parent >= 0:
            caller = spans[parent][0]
            if caller == "investment.estimate_yearly_revenue":
                probe += 1
                probe_s += end - start
            elif caller == "simulation.run_simulation":
                spot += 1

    # Investment states: each invest call looks up one state per purchase plus
    # the final one; a state is probed when its revenue estimates were computed.
    looked_up = sum(notes[i] + 1 for i, s in enumerate(spans) if s[0] == "investment.invest")
    probed = len(
        {
            (s[3], notes[i])
            for i, s in enumerate(spans)
            if s[0] == "investment.estimate_yearly_revenue"
        }
    )

    # Fitness calls made by each evolve, with their genomes for the distinct ratio.
    genomes: dict[int, list] = {}
    fitness_in_evolve = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name in FITNESS and parent >= 0 and spans[parent][0] == "nsga2.evolve":
            genomes.setdefault(parent, []).append(notes[i])
            fitness_in_evolve += end - start
    scored = sum(len(g) for g in genomes.values())
    distinct = sum(len(set(g)) for g in genomes.values())

    out = {
        "scenario.load_s": t("scenario.load_scenario"),
        "dispatch.year_clears": n("dispatch.run_year"),
        "dispatch.spot_year_clears": spot,
        "dispatch.year_clear_s": t("dispatch.run_year"),
        "dispatch.segment_clears": n("dispatch.clear_segment"),
        "dispatch.segment_clear_s": t("dispatch.clear_segment"),
        "investment.invest_calls": n("investment.invest"),
        "investment.invest_s": t("investment.invest"),
        "investment.probe_clears": probe,
        "investment.probe_clear_s": probe_s,
        "simulation.run_calls": n("simulation.run_simulation"),
        "simulation.run_s": t("simulation.run_simulation"),
        "simulation.evaluate_calls": n("simulation.evaluate_objectives"),
        "simulation.evaluate_s": t("simulation.evaluate_objectives"),
        "nsga2.generations": sum(notes[i] for i, s in enumerate(spans) if s[0] == "nsga2.evolve"),
        "nsga2.sort_s": t("nsga2.fast_non_dominated_sort"),
        "nsga2.crowding_s": t("nsga2.crowding_distance"),
        "nsga2.variation_s": t(*VARIATION),
        "nsga2.overhead_s": t("nsga2.evolve") - fitness_in_evolve,
        "benchmarks.gd_s": t("benchmarks.generational_distance"),
        "exports.render_s": t(*RENDERS),
        "exports.write_s": t(*WRITES),
        "exports.bytes": sum(notes[i] for i, s in enumerate(spans) if s[0] in RENDERS),
    }
    out = {k: v / rounds for k, v in out.items()}
    # Ratios are taken over all rounds; both are 0 when nothing was looked up or scored.
    out["investment.valuation_reuse_ratio"] = 1.0 - probed / looked_up if looked_up else 0.0
    out["nsga2.distinct_genome_ratio"] = distinct / scored if scored else 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / rounds
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    return out
