"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from the ``carbonopt`` package and
imports nothing from it: dominance, 2-D hypervolume, generational
distance to the analytic ZDT1 front, the ZDT1 objectives themselves, and
the demand and emission arithmetic of a scenario, worked from the raw
scenario JSON. Each function returns plain numbers or a list of problem
strings (empty when the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance for sums the program accumulates in another order.
SUM_RTOL = 1e-9


def dominates(a, b) -> bool:
    """True iff ``a`` is no worse than ``b`` in every objective and better in one (minimizing)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def dominated_pairs(points) -> list[tuple[int, int]]:
    """Every (i, j) with point i dominating point j; empty for a mutually non-dominated set."""
    return [
        (i, j)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i != j and dominates(a, b)
    ]


def hypervolume_2d(points, reference) -> float:
    """Area dominated by ``points`` and bounded by ``reference`` (both objectives minimized).

    Zitzler & Thiele's measure in two dimensions: sort by the first
    objective and add one rectangle per point that lowers the second.
    Points that do not strictly dominate the reference contribute nothing.
    """
    r1, r2 = reference
    inside = sorted((p1, p2) for p1, p2 in points if p1 < r1 and p2 < r2)
    area = 0.0
    ceiling = r2
    for p1, p2 in inside:
        if p2 < ceiling:
            area += (r1 - p1) * (ceiling - p2)
            ceiling = p2
    return area


def zdt1_objectives(genome) -> tuple[float, float]:
    """ZDT1 from its definition: f1 = x1, g = 1 + 9 * mean(x2..xn), f2 = g * (1 - sqrt(f1 / g))."""
    x = [float(v) for v in genome]
    f1 = x[0]
    g = 1.0 + 9.0 * math.fsum(x[1:]) / (len(x) - 1)
    return f1, g * (1.0 - math.sqrt(f1 / g))


def distance_to_zdt1_front(point) -> float:
    """Euclidean distance from ``point`` to the continuous curve f2 = 1 - sqrt(f1), f1 in [0, 1].

    With t = sqrt(f1) the curve is (t^2, 1 - t); the squared distance is
    a quartic in t whose stationary points solve 2t^3 + (1 - 2a)t - (1 - b) = 0.
    """
    a, b = float(point[0]), float(point[1])
    candidates = [0.0, 1.0]
    for root in np.roots([2.0, 0.0, 1.0 - 2.0 * a, -(1.0 - b)]):
        if abs(root.imag) < 1e-12 and 0.0 <= root.real <= 1.0:
            candidates.append(float(root.real))
    return min(math.hypot(t * t - a, 1.0 - t - b) for t in candidates)


def generational_distance_zdt1(points) -> float:
    """sqrt(sum of squared distances to the true ZDT1 front) / number of points."""
    distances = [distance_to_zdt1_front(p) for p in points]
    return math.sqrt(math.fsum(d * d for d in distances)) / len(distances)


def yearly_demand_mwh(scenario: dict, year: int) -> float:
    """Segment demand summed over the year: demand x growth^(year - start) x hours x day weight."""
    growth = scenario.get("demand_growth", 1.0) ** (year - scenario["start_year"])
    return math.fsum(
        seg["demand_mw"] * growth * seg["duration_hours"] * day["weight_days"]
        for day in scenario["representative_days"]
        for seg in day["segments"]
    )


def emissions_t(energy_by_technology: dict[str, float], scenario: dict) -> float:
    """Sum of energy x emission factor over technologies, factors taken from the scenario."""
    factor = {t["name"]: t["emission_factor"] for t in scenario["technologies"]}
    return math.fsum(e * factor[tech] for tech, e in energy_by_technology.items())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SUM_RTOL, abs_tol=1e-6)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_simulate_outputs(out_dir: Path) -> dict:
    """Parse the result files of one ``simulate`` run into plain numbers."""
    energy: dict[int, dict[str, float]] = {}
    for row in _read_csv(out_dir / "per_year.csv"):
        if row["record"] == "energy":
            energy.setdefault(int(row["year"]), {})[row["technology"]] = float(row["energy_mwh"])
    years = {int(r["year"]): {k: float(v) for k, v in r.items()} for r in _read_csv(out_dir / "year_summary.csv")}
    events = _read_csv(out_dir / "events.csv")
    objectives = json.loads((out_dir / "objectives.json").read_text(encoding="utf-8"))
    return {"energy": energy, "years": years, "events": events, "objectives": objectives}


def check_simulate_outputs(out: dict, scenario: dict, noise_free: bool) -> list[str]:
    """Balance, emission, objective and budget checks on one parsed ``simulate`` output set.

    The demand balance only holds without demand noise, so it is checked
    only when ``noise_free``.
    """
    problems = []
    years = out["years"]
    for year, row in sorted(years.items()):
        by_tech = out["energy"].get(year, {})
        if not _close(math.fsum(by_tech.values()), row["served_mwh"]):
            problems.append(f"{year}: technology energies do not sum to served_mwh")
        if not _close(emissions_t(by_tech, scenario), row["emissions_t"]):
            problems.append(f"{year}: emissions_t is not sum of energy x emission factor")
        if noise_free:
            demand = yearly_demand_mwh(scenario, year)
            if not _close(row["served_mwh"] + row["unserved_mwh"], demand):
                problems.append(
                    f"{year}: served + unserved = {row['served_mwh'] + row['unserved_mwh']!r}, "
                    f"demand = {demand!r}"
                )
    final = years[max(years)]
    rci = out["objectives"]["objective_rci"]
    expected_rci = final["carbon_intensity"] / scenario["base_carbon_intensity"]
    if rci != expected_rci:
        problems.append(f"objective_rci {rci!r} != final intensity / base = {expected_rci!r}")
    if out["objectives"]["objective_price"] != final["average_price"]:
        problems.append("objective_price is not the final-year average price")

    budget = {g["id"]: g["budget"] for g in scenario["gencos"]}
    spent: dict[str, float] = {}
    for event in out["events"]:
        if event["kind"] != "invest":
            continue
        if not float(event["npv"]) > 0.0:
            problems.append(f"invest row with NPV {event['npv']} <= 0: {event['plant_id']}")
        spent[event["genco"]] = spent.get(event["genco"], 0.0) + float(event["capital_cost"])
    for genco, capital in spent.items():
        if capital > budget[genco] * (1.0 + SUM_RTOL):
            problems.append(f"{genco} invested {capital!r} above its budget {budget[genco]!r}")
    return problems
