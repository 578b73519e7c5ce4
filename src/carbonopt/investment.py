"""Yearly generation-company investment decisions.

Each company values every catalog technology by net present value: the
unit's capital cost up front, then a constant yearly net cash flow for
its lifetime. That cash flow is estimated by clearing a merit-order
market ten years ahead with the candidate unit added to the fleet, at a
carbon price projected by a linear regression over the realized tax
history. Positive-NPV options are bought greedily, best first, while the
budget lasts.

All candidates of one investment state (decision year, fleet) share that
future market: ``invest`` clears the base fleet's market-year once as a
``ProbeMarket`` and prices each catalog candidate against it, instead of
clearing the whole market again per candidate. The figures equal those
of clearing ``fleet + [candidate]`` from scratch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispatch import ProbeMarket, srmc
from .scenario import GenCo, PowerPlant, Scenario, Technology

# How far ahead the revenue-probe market is simulated.
REVENUE_PROBE_YEARS = 10

_PROBE_PLANT_ID = "__candidate__"


@dataclass(frozen=True)
class CarbonForecast:
    """Least-squares line through the observed (year, carbon price) history."""

    slope: float  # £/tCO2 per year
    intercept: float  # £/tCO2

    def predict(self, year: int) -> float:
        return self.slope * year + self.intercept


@dataclass(frozen=True)
class InvestmentDecision:
    genco: str
    technology: str
    unit_count: int
    npv: float
    capital_cost: float
    commission_year: int
    plant_id: str


def fit_carbon_forecast(history: list[tuple[int, float]]) -> CarbonForecast:
    """Ordinary least squares on the price history; single observations give a flat line."""
    if not history:
        raise ValueError("carbon price history is empty")
    n = len(history)
    x_mean = sum(year for year, _ in history) / n
    y_mean = sum(price for _, price in history) / n
    sxx = sum((year - x_mean) ** 2 for year, _ in history)
    if sxx == 0.0:
        return CarbonForecast(slope=0.0, intercept=y_mean)
    sxy = sum((year - x_mean) * (price - y_mean) for year, price in history)
    slope = sxy / sxx
    return CarbonForecast(slope=slope, intercept=y_mean - slope * x_mean)


def forecast_carbon_price(history: list[tuple[int, float]], target_year: int) -> float:
    """OLS projection of the carbon price at ``target_year``."""
    return fit_carbon_forecast(history).predict(target_year)


def npv(cash_flows, discount_rate: float) -> float:
    """Discounted sum of cash flows R_0..R_N at rate i: sum of R_t / (1+i)^t."""
    if discount_rate <= -1:
        raise ValueError(f"discount rate must be > -1, got {discount_rate}")
    base = 1.0 + discount_rate
    return sum(r / base**t for t, r in enumerate(cash_flows))


def probe_market(
    fleet: list[PowerPlant],
    decision_year: int,
    s: Scenario,
    carbon_forecast: CarbonForecast,
) -> ProbeMarket:
    """The future market every candidate of one investment state is priced against."""
    future_year = decision_year + REVENUE_PROBE_YEARS
    return ProbeMarket(fleet, future_year, carbon_forecast.predict(future_year), s)


def estimate_yearly_revenue(
    candidate: Technology,
    decision_year: int,
    s: Scenario,
    fleet: list[PowerPlant],
    carbon_forecast: CarbonForecast,
    market: ProbeMarket | None = None,
) -> float:
    """Net yearly cash flow of one candidate unit in a simulated future market.

    The market for ``decision_year`` + 10 is cleared with the candidate
    unit added to the fleet that will still be active then, at the
    forecast carbon price. The unit's revenue at clearing prices minus
    its running costs (fuel, variable O&M, carbon, fixed O&M) stands in
    for every operating year of its life. ``market`` is that future
    market for this very (decision year, fleet, forecast); without it
    one is built here.
    """
    if market is None:
        market = probe_market(fleet, decision_year, s, carbon_forecast)
    future_year = market.order.year
    carbon_price = market.order.carbon_price
    probe = PowerPlant(
        id=_PROBE_PLANT_ID,
        technology=candidate,
        owner="probe",
        commission_year=future_year,
        unit_count=1,
    )
    energy, revenue = market.probe(probe)
    fuel_price = (
        s.fuel_price(candidate.fuel_kind, future_year) if candidate.fuel_kind else 0.0
    )
    running_cost = energy * srmc(candidate, fuel_price, carbon_price)
    return revenue - running_cost - candidate.fixed_om * candidate.capacity_mw


def _unit_npv(
    tech: Technology,
    decision_year: int,
    s: Scenario,
    fleet: list[PowerPlant],
    forecast: CarbonForecast,
    market: ProbeMarket,
) -> float:
    capital = tech.capital_cost * tech.capacity_mw
    yearly = estimate_yearly_revenue(tech, decision_year, s, fleet, forecast, market)
    return npv([-capital] + [yearly] * tech.lifetime_years, s.discount_rate)


def invest(
    genco: GenCo,
    decision_year: int,
    s: Scenario,
    fleet: list[PowerPlant],
    carbon_history: list[tuple[int, float]],
    npv_cache: dict | None = None,
) -> list[InvestmentDecision]:
    """Buy the highest-NPV affordable unit, re-evaluate, and repeat until nothing attracts.

    Executed purchases debit ``genco.budget`` and append the new plant to
    ``fleet`` (commissioning after the technology's construction lag), so
    later decisions see the updated market. ``npv_cache`` memoizes unit
    valuations per (year, fleet-size) state; the fleet only ever grows,
    so that pair identifies a state within one simulation run. Each state
    that is valued clears its future market once, shared by all candidates.

    Returns the executed decisions; an empty list means nothing was both
    positive-NPV and affordable.
    """
    forecast = fit_carbon_forecast(carbon_history)
    decisions: list[InvestmentDecision] = []
    while True:
        state = (decision_year, len(fleet))
        if npv_cache is not None and state in npv_cache:
            valuations = npv_cache[state]
        else:
            market = probe_market(fleet, decision_year, s, forecast)
            valuations = {
                tech.name: _unit_npv(tech, decision_year, s, fleet, forecast, market)
                for tech in s.technologies
            }
            if npv_cache is not None:
                npv_cache[state] = valuations
        best: Technology | None = None
        best_value = 0.0
        for tech in s.technologies:
            capital = tech.capital_cost * tech.capacity_mw
            if capital > genco.budget:
                continue
            value = valuations[tech.name]
            if value > 0.0 and value > best_value:
                best = tech
                best_value = value
        if best is None:
            return decisions
        capital = best.capital_cost * best.capacity_mw
        plant = PowerPlant(
            id=f"{genco.id}:{best.name}:{decision_year}:{len(decisions) + 1}",
            technology=best,
            owner=genco.id,
            commission_year=decision_year + best.construction_lag_years,
            unit_count=1,
        )
        genco.budget -= capital
        fleet.append(plant)
        decisions.append(
            InvestmentDecision(
                genco=genco.id,
                technology=best.name,
                unit_count=1,
                npv=best_value,
                capital_cost=capital,
                commission_year=plant.commission_year,
                plant_id=plant.id,
            )
        )
