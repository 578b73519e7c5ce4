"""Acceptance gate: one test per shipped criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances and runtime budgets are pinned here; the heavy cases
(optimizer self-validation, fixture monotonicity, the qualitative
optimization run) dominate the suite's runtime.
"""

from __future__ import annotations

import csv
import json
import time
from statistics import median

import numpy as np
import pytest

from carbonopt.benchmarks import BENCHMARKS, generational_distance
from carbonopt.cli import main
from carbonopt.dispatch import Fleet, clear_segment, merit_order_key
from carbonopt.investment import fit_carbon_forecast, npv
from carbonopt import nsga2
from carbonopt.nsga2 import GAConfig, evolve, fast_non_dominated_sort
from carbonopt.policy import FREE, CarbonPolicy
from carbonopt.scenario import DaySegment, RepresentativeDay, Scenario
from carbonopt.simulation import run_simulation

from conftest import market_year
from test_dispatch import brute_force_min_cost, mk_bid


def report(number: int, name: str, detail: str, elapsed: float, budget: float | None):
    line = f"ACCEPTANCE {number} {name}: PASS ({detail}; {elapsed:.1f}s"
    if budget is not None:
        line += f" of {budget:.0f}s budget"
    print(line + ")")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def numpy_front_oracle(objectives: np.ndarray) -> list[list[int]]:
    """Brute-force front peeling from the full pairwise domination matrix."""
    n = objectives.shape[0]
    no_worse = np.all(objectives[:, None, :] <= objectives[None, :, :], axis=2)
    better = np.any(objectives[:, None, :] < objectives[None, :, :], axis=2)
    dom = no_worse & better  # dom[i, j]: i dominates j
    alive = np.ones(n, dtype=bool)
    fronts = []
    while alive.any():
        idx = np.where(alive)[0]
        dominated_within = dom[np.ix_(idx, idx)].any(axis=0)
        current = idx[~dominated_within]
        fronts.append(sorted(current.tolist()))
        alive[current] = False
    return fronts


def test_criterion_1_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(20250811)
    t0 = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        m = int(rng.choice([2, 3, 4]))
        objectives = rng.random((n, m))
        if trial % 3 == 0:
            objectives = np.round(objectives, 1)  # force ties and duplicates
        fronts = fast_non_dominated_sort(objectives)
        got = [sorted(front.tolist()) for front in fronts]
        assert got == numpy_front_oracle(objectives)
        _, ranks, _ = nsga2._select(objectives, n)  # the ranks evolve records
        for rank, front in enumerate(fronts, start=1):
            assert all(ranks[front] == rank)
    elapsed = time.perf_counter() - t0
    report(1, "non-dominated sort oracle equivalence", "1000 populations, exact", elapsed, 30.0)


def test_criterion_2_optimizer_self_validation():
    t0 = time.perf_counter()
    details = []
    for problem, pop, gens in (("schaffer", 50, 50), ("zdt1", 100, 100)):
        fitness, bounds_fn, front_fn = BENCHMARKS[problem]
        reference = front_fn()
        worst = 0.0
        for seed in range(1, 6):
            cfg = GAConfig(population_size=pop, generations=gens, seed=seed)
            archive = evolve(fitness, cfg, bounds_fn())
            gd = generational_distance(archive.final_front.objectives, reference)
            assert gd < 0.05, f"{problem} seed {seed}: GD {gd}"
            worst = max(worst, gd)
        details.append(f"{problem} worst GD {worst:.4f}")
    elapsed = time.perf_counter() - t0
    report(2, "optimizer self-validation", "; ".join(details), elapsed, 120.0)


def one_hour_market(demand: float, bids, voll: float):
    """``bids`` cleared by the shipped kernel as the one-hour segment of a market-year.

    Each bid's plant is one unit of its own technology, sized at the bid's
    MW (see ``mk_bid``), so ``energy_by_technology`` holds each plant's MW.
    """
    fleet = [bid.plant for bid in bids]
    hour = RepresentativeDay(name="hour", weight_days=1.0, segments=(DaySegment(1.0, demand),))
    s = Scenario(
        start_year=2020,
        technologies=tuple(plant.technology for plant in fleet),
        initial_fleet=tuple(fleet),
        gencos=(),
        representative_days=(hour,),
        fuel_prices={},
        base_carbon_intensity=1.0,
        loss_of_load_price=voll,
    )
    return market_year(Fleet(s, fleet), 2020, 0.0).clear()


def test_criterion_3_dispatch_properties():
    rng = np.random.default_rng(7)
    voll = 6000.0
    t0 = time.perf_counter()
    oracle_cases = 0
    # indexing with rng.integers draws what rng.choice draws from the same stream, faster
    availables = [0.0, 10.0, 50.0, 200.0, 1000.0]
    emissions = [0.0, 0.2, 0.9]
    for trial in range(10_000):
        n = int(rng.integers(1, 7)) if trial % 3 == 0 else int(rng.integers(1, 65))
        quantize = trial % 2 == 0
        bids = []
        for k in range(n):
            available = availables[rng.integers(len(availables))]
            cost = float(rng.integers(0, 12) * 5) if quantize else float(rng.uniform(-50, 300))
            emission = emissions[rng.integers(len(emissions))]
            bids.append(mk_bid(f"p{k}", available, cost, emission))
        demand = float(rng.uniform(0.5, 1e5))
        year = one_hour_market(demand, bids, voll)
        plant_of = {bid.plant.technology.name: bid.plant.id for bid in bids}
        # in the kernel's dispatch order
        dispatched_mw = {plant_of[name]: mw for name, mw in year.energy_by_technology.items()}

        served = sum(dispatched_mw.values())
        assert abs(served + year.unserved_mwh - demand) <= 1e-9

        blocked = False
        for bid in sorted(bids, key=merit_order_key):
            mw = dispatched_mw.get(bid.plant.id, 0.0)
            assert mw <= bid.available_mw + 1e-9
            if bid.available_mw > 0.0:
                if mw == 0.0:
                    blocked = True
                else:
                    assert not blocked, "merit order violated"

        if n <= 6:
            oracle_cases += 1
            greedy_cost = sum(
                mw * next(b.srmc for b in bids if b.plant.id == pid)
                for pid, mw in dispatched_mw.items()
            )
            assert greedy_cost == pytest.approx(brute_force_min_cost(demand, bids), abs=1e-6)

        clearing = clear_segment(demand, bids, voll)
        assert list(dispatched_mw.items()) == [(p.id, mw) for p, mw in clearing.dispatched]
        assert year.unserved_mwh == clearing.unserved_mw
        # the yearly price is the segment's, weighted by its one hour of demand
        assert year.average_price == clearing.clearing_price * demand / demand
    elapsed = time.perf_counter() - t0
    report(
        3,
        "dispatch conservation/merit-order/brute-force on MarketYear, == clear_segment",
        f"10000 segments, {oracle_cases} exhaustive-checked",
        elapsed,
        30.0,
    )


def test_criterion_4_npv_geometric_series():
    t0 = time.perf_counter()
    checked = 0
    for rate in (0.0, 0.05, 0.1, 0.2):
        for periods in range(0, 41):
            for flow in (1.0, 100.0, 2.5e6):
                value = npv([flow] * (periods + 1), rate)
                if rate == 0.0:
                    closed = flow * (periods + 1)
                else:
                    q = 1.0 / (1.0 + rate)
                    closed = flow * (1.0 - q ** (periods + 1)) / (1.0 - q)
                assert abs(value - closed) <= 1e-9 * abs(closed)
                checked += 1
    report(4, "NPV geometric-series identity", f"{checked} cases, rel 1e-9", time.perf_counter() - t0, None)


def test_criterion_5_carbon_forecast_ols_exact():
    # the closed forms are evaluated in exact rational arithmetic so the
    # 1e-12 tolerance measures the implementation, not the oracle's own
    # floating-point rounding
    from fractions import Fraction

    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    fit = fit_carbon_forecast([(0, 10.0), (1, 20.0), (2, 30.0)])
    assert abs(fit.slope - 10.0) <= 1e-12 and abs(fit.intercept - 10.0) <= 1e-12

    def exact_line(xs, ys):
        fx = [Fraction(x) for x in xs]
        fy = [Fraction(y) for y in ys]
        n = Fraction(len(xs))
        sx, sy = sum(fx), sum(fy)
        sxx = sum(x * x for x in fx)
        sxy = sum(x * y for x, y in zip(fx, fy))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        return float(slope), float((sy - slope * sx) / n)

    for size in (2, 3):
        for _ in range(200):
            xs = sorted(rng.choice(30, size=size, replace=False).tolist())
            ys = [float(v) for v in rng.uniform(0, 250, size=size)]
            fit = fit_carbon_forecast([(int(x), y) for x, y in zip(xs, ys)])
            slope, intercept = exact_line(xs, ys)
            assert abs(fit.slope - slope) <= 1e-12
            assert abs(fit.intercept - intercept) <= 1e-12
    report(5, "carbon-forecast OLS closed forms", "400 random + canonical, exact-rational oracle", time.perf_counter() - t0, None)


def test_criterion_6_carbon_tax_lowers_final_intensity(uk_scenario):
    t0 = time.perf_counter()
    horizon = uk_scenario.horizon_years

    def mean_rci(tax: float) -> float:
        policy = CarbonPolicy(FREE, (tax,) * horizon)
        values = [
            run_simulation(uk_scenario, policy, seed=seed).objective_rci
            for seed in range(1, 21)
        ]
        return sum(values) / len(values)

    taxed = mean_rci(200.0)
    untaxed = mean_rci(0.0)
    assert taxed < untaxed, f"mean RCI taxed {taxed} vs untaxed {untaxed}"
    elapsed = time.perf_counter() - t0
    report(
        6,
        "carbon tax monotonicity on fixture",
        f"mean RCI {taxed:.4f} (tax 200) < {untaxed:.4f} (tax 0), 20 seeds",
        elapsed,
        120.0,
    )


def test_criterion_7_qualitative_policy_search(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "optimize"
    code = main([
        "optimize", "--scenario", "uk_synthetic", "--kind", "linear",
        "--pop", "30", "--gens", "5", "--jobs", "2", "--out", str(out),
    ])
    assert code == 0

    with open(out / "generations.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    prices_by_gen: dict[int, list[float]] = {}
    for row in rows:
        prices_by_gen.setdefault(int(row["generation"]), []).append(
            float(row["objective_price"])
        )
    first = median(prices_by_gen[0])
    last = median(prices_by_gen[5])
    assert last < first, f"median final-generation price {last} not below {first}"

    pareto = json.loads((out / "pareto.json").read_text())
    min_rci = min(entry["objectives"]["objective_rci"] for entry in pareto)
    assert min_rci <= 0.05, f"no near-zero-intensity point on the front (min {min_rci})"
    elapsed = time.perf_counter() - t0
    report(
        7,
        "qualitative optimization on fixture",
        f"median price {first:.2f} -> {last:.2f}, min front RCI {min_rci:.4f}",
        elapsed,
        600.0,
    )


def test_criterion_8_bitwise_determinism(tmp_path, uk_scenario, static_fossil_scenario):
    from carbonopt.scenario import save_scenario

    t0 = time.perf_counter()
    fossil = tmp_path / "fossil.scenario"
    save_scenario(static_fossil_scenario, fossil)

    def run_and_fingerprint(args, out):
        assert main(args + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return {name: (out / name).read_bytes() for name in manifest["outputs"]}

    # simulate: rerun and manifest replay
    sim_args = ["simulate", "--scenario", str(fossil), "--policy", "linear:3,40", "--seed", "11"]
    a = run_and_fingerprint(sim_args, tmp_path / "sim-a")
    b = run_and_fingerprint(sim_args, tmp_path / "sim-b")
    assert a == b
    assert main(["replay", str(tmp_path / "sim-a" / "manifest.json"), "--out", str(tmp_path / "sim-c")]) == 0
    c = {name: (tmp_path / "sim-c" / name).read_bytes() for name in a}
    assert a == c

    # optimize on the bundled scenario: serial vs parallel evaluation
    opt_args = [
        "optimize", "--scenario", "uk_synthetic", "--kind", "linear",
        "--pop", "4", "--gens", "1", "--seed", "17",
    ]
    serial = run_and_fingerprint(opt_args + ["--jobs", "1"], tmp_path / "opt-serial")
    parallel = run_and_fingerprint(opt_args + ["--jobs", "2"], tmp_path / "opt-parallel")
    assert serial == parallel
    assert main(["replay", str(tmp_path / "opt-parallel" / "manifest.json"), "--out", str(tmp_path / "opt-replay")]) == 0
    replayed = {name: (tmp_path / "opt-replay" / name).read_bytes() for name in serial}
    assert serial == replayed

    # benchmark archive export
    bench_args = ["benchmark", "--problem", "schaffer", "--pop", "8", "--gens", "3", "--seed", "5"]
    x = run_and_fingerprint(bench_args, tmp_path / "bench-a")
    y = run_and_fingerprint(bench_args, tmp_path / "bench-b")
    assert x == y
    report(
        8,
        "bitwise determinism incl. parallel jobs and replay",
        "simulate/optimize/benchmark",
        time.perf_counter() - t0,
        None,
    )
