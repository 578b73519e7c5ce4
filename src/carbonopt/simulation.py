"""Yearly simulation loop: retirements, investment, dispatch under a tax policy.

A run has two steps. The investment pass walks the horizon year by year:
expired plants drop out, each company invests off its view of the carbon
price history, due plants come online, and the year's demand-noise factor
is drawn. Then the spot market clears each year from the run's final
fleet. That is exact: a plant bought in a year commissions in it or
later, so it is inactive in every earlier year, and a market-year sorts
the plants it keeps as the fleet at the time would have had them. The two
quantities the optimizer minimizes come from the final simulated year:
the average electricity price and the carbon intensity relative to the
scenario's base-year value. So a fitness evaluation clears only the
final year.

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


def _objectives(final: YearResult, s: Scenario) -> tuple[float, float]:
    """The final year's average price and carbon intensity relative to the base intensity."""
    if final.emissions_t == 0.0:
        return final.average_price, 0.0
    if s.base_carbon_intensity <= 0.0:
        raise ConfigurationError(
            "base_carbon_intensity is 0 but final-year emissions are positive"
        )
    return final.average_price, final.carbon_intensity / s.base_carbon_intensity


def _plant_event(year: int, kind: str, plant: PowerPlant) -> Event:
    return Event(
        year=year,
        kind=kind,
        genco=plant.owner,
        technology=plant.technology.name,
        plant_id=plant.id,
        unit_count=plant.unit_count,
    )


def _invest_over_horizon(
    s: Scenario, policy: CarbonPolicy, seed: int
) -> tuple[Fleet, list[Event], list[float], list[float]]:
    """The investment pass: the final fleet, the events, and each year's tax and demand factor.

    Budgets and the fleet are run-local: the scenario is never changed.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    check_bounds(policy, s.horizon_years)
    fleet = Fleet(s, s.initial_fleet)
    budgets = {g.id: g.budget for g in s.gencos}
    events: list[Event] = []
    history: list[tuple[int, float]] = []
    noise: list[float] = []
    rng = np.random.default_rng(seed) if s.demand_noise_std > 0 else None

    for year_index in range(1, s.horizon_years + 1):
        year = s.start_year + year_index - 1

        events += [_plant_event(year, "retire", plant)
                   for plant, end in zip(fleet.plants, fleet.retirement) if end == year]

        history.append((year, policy.price_at(year_index)))

        probes = YearProbes(year, fit_carbon_forecast(history), fleet)
        for genco in sorted(budgets):
            events += invest(genco, budgets, probes)

        events += [_plant_event(year, "commission", plant)
                   for plant, start in zip(fleet.plants, fleet.commission) if start == year]

        noise.append(1.0 if rng is None else max(0.0, 1.0 + rng.normal(0.0, s.demand_noise_std)))

    return fleet, events, [tax for _, tax in history], noise


def run_simulation(s: Scenario, policy: CarbonPolicy, seed: int) -> SimulationResult:
    """Simulate the full horizon under one carbon tax trajectory.

    The scenario is expected to be valid (see ``validate_scenario``);
    policy parameters are re-checked against their bounds here. Every
    year's spot market is cleared after the investment pass, from the
    run's final ``Fleet``.
    """
    fleet, events, taxes, noise = _invest_over_horizon(s, policy, seed)
    per_year = tuple(
        run_year(fleet, s.start_year + i, tax, demand_scale=scale)
        for i, (tax, scale) in enumerate(zip(taxes, noise))
    )
    price, rci = _objectives(per_year[-1], s)
    return SimulationResult(
        per_year=per_year,
        carbon_prices=tuple(taxes),
        objective_price=price,
        objective_rci=rci,
        events=tuple(events),
    )


def evaluate_objectives(
    s: Scenario, genome, policy_kind: str, seed: int
) -> tuple[float, float]:
    """Fitness function for the optimizer: genome -> (price, relative carbon intensity).

    The objectives of ``run_simulation``, from the investment pass and a
    clear of the final spot market-year alone.
    """
    policy = decode(genome, policy_kind, n_years=s.horizon_years)
    fleet, _, taxes, noise = _invest_over_horizon(s, policy, seed)
    final_year = s.start_year + len(taxes) - 1
    objectives = _objectives(run_year(fleet, final_year, taxes[-1], demand_scale=noise[-1]), s)
    if not all(math.isfinite(v) for v in objectives):
        raise ConfigurationError(f"non-finite objectives {objectives} for genome {genome}")
    return objectives
