"""Yearly simulation loop: retirements, investment, dispatch under a tax policy.

A run has two steps. The investment pass walks the horizon year by year:
each company invests off its view of the carbon price history, and the
year's demand-noise factor is drawn. Then the spot market clears each
year from the run's final fleet. That is exact: a plant bought in a year
commissions in it or later, so it is inactive in every earlier year, and
a market-year sorts the plants it keeps as the fleet at the time would
have had them. A purchase is a row of the fleet and a record of what
``invest`` bought, not an object. The event log is built from the final
fleet's rows and those records, by ``run_simulation`` alone: each year's
retirements, then its purchases, then its commissionings.

The two quantities the optimizer minimizes come from the final simulated
year: the average electricity price and the carbon intensity relative to
the scenario's base-year value. So a fitness evaluation clears only the
final year and builds no event log, no plant and no event. When every catalog technology takes
a year or more to build, it also skips the final year's investment
round: a unit bought then commissions after the horizon, so it changes
neither objective. Within the pass, a company that can afford no unit
values nothing, and a year's probe market is built only when some
company values a state (see ``investment``); what is skipped is never
read, so the results are the same.

Runs are deterministic for a fixed (scenario, policy, seed); the seed
only matters when the scenario enables the optional demand-noise hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispatch import Fleet, YearResult, run_year
from .errors import ConfigurationError
from .investment import Valuations, YearProbes, fit_carbon_forecast, invest
from .policy import CarbonPolicy, check_bounds, decode
from .scenario import Scenario


@dataclass(frozen=True)
class Event:
    """One entry of the per-year event log (investments, commissionings, retirements)."""

    year: int
    kind: str  # "invest" | "commission" | "retire"
    genco: str
    technology: str
    plant_id: str
    unit_count: int
    capital_cost: float | None = None
    npv: float | None = None


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


# One year's purchases: per company, in company order, what ``invest`` returned.
Purchases = list[tuple[str, list[tuple[int, str, float]]]]


def _invest_over_horizon(
    s: Scenario, policy: CarbonPolicy, seed: int, rounds: int, memo: Valuations | None = None
) -> tuple[Fleet, list[Purchases], list[float], list[float]]:
    """The investment pass: the final fleet, and each year's purchases, tax and demand factor.

    Companies invest in the first ``rounds`` years of the horizon only; a
    year past them has no purchases. Budgets and the fleet are run-local:
    the scenario is never changed. Each year's probes look investment
    states up in ``memo`` first, if given (see ``investment.Valuations``).
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    fleet = Fleet(s, s.initial_fleet)
    budgets = {g.id: g.budget for g in s.gencos}
    bought: list[Purchases] = []
    history: list[tuple[int, float]] = []
    noise: list[float] = []
    rng = np.random.default_rng(seed) if s.demand_noise_std > 0 else None
    lineage = None  # the first year's probes take the initial fleet as the memo's history 0

    for year_index in range(1, s.horizon_years + 1):
        year = s.start_year + year_index - 1
        history.append((year, policy.price_at(year_index)))
        purchases: Purchases = []
        if year_index <= rounds:
            probes = YearProbes(year, fit_carbon_forecast(history), fleet, memo, lineage)
            purchases = [(genco, invest(genco, budgets, probes)) for genco in sorted(budgets)]
            lineage = probes.lineage
        bought.append(purchases)
        noise.append(1.0 if rng is None else max(0.0, 1.0 + rng.normal(0.0, s.demand_noise_std)))

    return fleet, bought, [tax for _, tax in history], noise


def _event_log(fleet: Fleet, bought: list[Purchases]) -> tuple[Event, ...]:
    """Each year's retirements, then its purchases, then its commissionings, from the final fleet.

    ``bought`` holds each year's purchases. A plant bought in a year
    commissions in it or later and retires at least a year after that, so
    the final fleet's plants that retire in a year were in the fleet before
    its round, and those that commission in it were bought by its end.
    Within a year, plants keep fleet order, the order they joined in. The
    events are built here from the fleet's rows and the purchase records;
    a fitness evaluation builds none.
    """
    catalog = fleet.catalog
    retiring: dict[int, list[int]] = {}
    commissioning: dict[int, list[int]] = {}
    for row, (start, end) in enumerate(zip(fleet.commission, fleet.retirement)):
        retiring.setdefault(end, []).append(row)
        commissioning.setdefault(start, []).append(row)

    def plant_events(year: int, kind: str, rows) -> list[Event]:
        return [Event(year, kind, fleet.owner[row], catalog[fleet.tech[row]].name, fleet.ids[row],
                      fleet.units[row]) for row in rows]

    events: list[Event] = []
    for year, purchases in enumerate(bought, fleet.scenario.start_year):
        events += plant_events(year, "retire", retiring.get(year, ()))
        events += [
            Event(year, "invest", genco, catalog[k].name, plant_id, 1,
                  catalog[k].capital_cost * catalog[k].capacity_mw, value)
            for genco, records in purchases for k, plant_id, value in records
        ]
        events += plant_events(year, "commission", commissioning.get(year, ()))
    return tuple(events)


def run_simulation(s: Scenario, policy: CarbonPolicy, seed: int) -> SimulationResult:
    """Simulate the full horizon under one carbon tax trajectory.

    The scenario is expected to be valid (see ``validate_scenario``);
    the policy's genes are re-checked against their box here. Every year's
    spot market is cleared after the investment pass, from the run's
    final ``Fleet``.
    """
    check_bounds(policy, s.horizon_years)
    fleet, bought, taxes, noise = _invest_over_horizon(s, policy, seed, s.horizon_years)
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
        events=_event_log(fleet, bought),
    )


def evaluate_objectives(
    s: Scenario, genome, policy_kind: str, seed: int, memo: Valuations | None = None
) -> tuple[float, float]:
    """Fitness function for the optimizer: genome -> (price, relative carbon intensity).

    The objectives of ``run_simulation``, from the investment pass and a
    clear of the final spot market-year alone. When every catalog
    technology takes a year or more to build, nothing bought in the final
    year runs in it, so the pass skips that year's investment round. A
    search passes every genome the same ``memo`` (see
    ``investment.Valuations``), which changes no result.
    """
    policy = decode(genome, policy_kind, n_years=s.horizon_years)
    final_round = any(tech.construction_lag_years < 1 for tech in s.technologies)
    fleet, _, taxes, noise = _invest_over_horizon(s, policy, seed, s.horizon_years - 1 + final_round,
                                                  memo)
    objectives = _objectives(run_year(fleet, s.final_year, taxes[-1], demand_scale=noise[-1]), s)
    if not all(math.isfinite(v) for v in objectives):
        raise ConfigurationError(f"non-finite objectives {objectives} for genome {genome}")
    return objectives
