"""Yearly simulation loop: retirements, investment, dispatch under a tax policy.

One run walks the horizon year by year: expired plants drop out, each
company invests off its view of the carbon price history, due plants come
online, and the spot market clears the year. The two quantities the
optimizer minimizes come from the final simulated year: the average
electricity price and the carbon intensity relative to the scenario's
base-year value.

Runs are deterministic for a fixed (scenario, policy, seed); the seed
only matters when the scenario enables the optional demand-noise hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispatch import Fleet, YearResult, run_year
from .errors import ConfigurationError
from .investment import Event, YearProbes, fit_carbon_forecast, invest
from .policy import CarbonPolicy, check_bounds, decode
from .scenario import PowerPlant, Scenario


@dataclass(frozen=True)
class SimulationResult:
    per_year: tuple[YearResult, ...]
    carbon_prices: tuple[float, ...]  # realized tax per year
    objective_price: float  # final-year average electricity price, £/MWh
    objective_rci: float  # final-year carbon intensity over the base intensity
    events: tuple[Event, ...]


def _relative_carbon_intensity(final: YearResult, s: Scenario) -> float:
    if final.emissions_t == 0.0:
        return 0.0
    if s.base_carbon_intensity <= 0.0:
        raise ConfigurationError(
            "base_carbon_intensity is 0 but final-year emissions are positive"
        )
    return final.carbon_intensity / s.base_carbon_intensity


def _plant_event(year: int, kind: str, plant: PowerPlant) -> Event:
    return Event(
        year=year,
        kind=kind,
        genco=plant.owner,
        technology=plant.technology.name,
        plant_id=plant.id,
        unit_count=plant.unit_count,
    )


def run_simulation(s: Scenario, policy: CarbonPolicy, seed: int) -> SimulationResult:
    """Simulate the full horizon under one carbon tax trajectory.

    The scenario is expected to be valid (see ``validate_scenario``);
    policy parameters are re-checked against their bounds here. Budgets
    and the fleet are run-local: the scenario is never changed. The fleet
    is a ``Fleet``, whose columns every market-year of the run reads.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    check_bounds(policy, s.horizon_years)
    fleet = Fleet(s.initial_fleet)
    budgets = {g.id: g.budget for g in s.gencos}
    events: list[Event] = []
    history: list[tuple[int, float]] = []
    per_year: list[YearResult] = []
    rng = np.random.default_rng(seed) if s.demand_noise_std > 0 else None

    for year_index in range(1, s.horizon_years + 1):
        year = s.start_year + year_index - 1

        for i in np.flatnonzero(fleet.retirement == year):
            events.append(_plant_event(year, "retire", fleet[i]))

        tax = policy.price_at(year_index)
        history.append((year, tax))

        probes = YearProbes(year, fit_carbon_forecast(history))
        for genco in sorted(budgets):
            events += invest(genco, budgets, s, fleet, probes)

        for i in np.flatnonzero(fleet.commission == year):
            events.append(_plant_event(year, "commission", fleet[i]))

        noise = 1.0
        if rng is not None:
            noise = max(0.0, 1.0 + rng.normal(0.0, s.demand_noise_std))
        per_year.append(run_year(fleet, year, tax, s, demand_scale=noise))

    final = per_year[-1]
    return SimulationResult(
        per_year=tuple(per_year),
        carbon_prices=tuple(tax for _, tax in history),
        objective_price=final.average_price,
        objective_rci=_relative_carbon_intensity(final, s),
        events=tuple(events),
    )


def evaluate_objectives(
    s: Scenario, genome, policy_kind: str, seed: int
) -> tuple[float, float]:
    """Fitness function for the optimizer: genome -> (price, relative carbon intensity)."""
    policy = decode(genome, policy_kind, n_years=s.horizon_years)
    result = run_simulation(s, policy, seed)
    objectives = (result.objective_price, result.objective_rci)
    if not all(math.isfinite(v) for v in objectives):
        raise ConfigurationError(f"non-finite objectives {objectives} for genome {genome}")
    return objectives
