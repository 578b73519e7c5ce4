"""Yearly generation-company investment decisions.

Each company values every catalog technology by net present value: the
unit's capital cost up front, then a constant yearly net cash flow for
its lifetime. That cash flow is estimated by clearing a merit-order
market ten years ahead with the candidate unit added to the fleet, at a
carbon price projected by a linear regression over the realized tax
history. Positive-NPV options are bought greedily, best first, while the
budget lasts.

An investment state (decision year, fleet) is valued one way only, in
one call: ``YearProbes``, built over the run's ``Fleet`` (see
``dispatch.Fleet``) for a decision year, holds the year's future market,
a ``MarketYear`` that reads its scenario from the fleet. Its ``value``
asks ``estimate_yearly_revenue`` once for the yearly flows of the whole
catalog, then works out the catalog's NPVs in one numpy pass, bit for
bit as ``npv`` adds them. The market prices the scenario's catalog once
(SRMC and merit rank), by catalog index, and its ``probe`` values one
more unit of every catalog technology in one numpy pass without clearing
the market. ``invest`` picks the best affordable unit by catalog index
and extends the fleet with it; the year's market places the plants added
since it was built with ``MarketYear.add``. The figures equal those of
clearing ``fleet + [candidate]`` from scratch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .dispatch import Fleet, MarketYear
from .scenario import PowerPlant, Scenario, Technology

# How far ahead the revenue-probe market is simulated.
REVENUE_PROBE_YEARS = 10


@dataclass(frozen=True)
class CarbonForecast:
    """Least-squares line through the observed (year, carbon price) history."""

    slope: float  # £/tCO2 per year
    intercept: float  # £/tCO2

    def predict(self, year: int) -> float:
        return self.slope * year + self.intercept


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


def fit_carbon_forecast(history: list[tuple[int, float]]) -> CarbonForecast:
    """Ordinary least squares on the price history; single observations give a flat line."""
    if not history:
        raise ValueError("carbon price history is empty")
    n = len(history)
    x_mean = reduce(add, (year for year, _ in history), 0) / n
    y_mean = reduce(add, (price for _, price in history), 0.0) / n
    sxx = reduce(add, ((year - x_mean) ** 2 for year, _ in history), 0.0)
    if sxx == 0.0:
        return CarbonForecast(slope=0.0, intercept=y_mean)
    sxy = reduce(add, ((year - x_mean) * (price - y_mean) for year, price in history), 0.0)
    slope = sxy / sxx
    return CarbonForecast(slope=slope, intercept=y_mean - slope * x_mean)


@lru_cache
def _discount_factors(base: float, n: int) -> tuple[float, ...]:
    return tuple(base**t for t in range(n))


def npv(cash_flows: list[float], discount_rate: float) -> float:
    """Discounted sum of cash flows R_0..R_N at rate i: sum of R_t / (1+i)^t.

    (1+i)^t is worked out once per rate and length, not once per call. The
    terms are added strictly left to right from 0.0: the builtin ``sum``
    compensates float rounding since Python 3.12, so its bits would depend
    on the interpreter.
    """
    if discount_rate <= -1:
        raise ValueError(f"discount rate must be > -1, got {discount_rate}")
    total = 0.0
    for flow, factor in zip(cash_flows, _discount_factors(1.0 + discount_rate, len(cash_flows))):
        total += flow / factor
    return total


@lru_cache
def _npv_terms(technologies: tuple[Technology, ...], discount_rate: float):
    """What ``YearProbes`` needs besides the yearly flows to add up each ``npv``.

    (technology x year) arrays over the longest lifetime: whether a year is
    an operating year, and the flow of every other year (the capital cost
    in year 0, 0.0 past the lifetime); each year's discount factor; and the
    capital cost of one unit of each technology, in catalog order.
    """
    years = np.arange(1 + max(tech.lifetime_years for tech in technologies))
    lifetimes = np.array([[tech.lifetime_years] for tech in technologies])
    operating = (years >= 1) & (years <= lifetimes)
    capital = tuple(tech.capital_cost * tech.capacity_mw for tech in technologies)
    fixed = np.zeros(operating.shape)
    fixed[:, 0] = np.negative(capital)
    return operating, fixed, np.array(_discount_factors(1.0 + discount_rate, len(years))), capital


def estimate_yearly_revenue(
    market: MarketYear,
    decision_year: int,
    s: Scenario,
    fleet: Fleet,
) -> np.ndarray:
    """Net yearly cash flow of one more unit of each catalog technology, in catalog order.

    ``market`` is the future market of the investment state (``decision_year``,
    ``fleet``), as ``YearProbes`` builds it: the market of ``decision_year`` + 10 at
    the forecast carbon price. A unit's revenue there at clearing prices minus its
    running costs (its SRMC there, ``MarketYear.srmc``, and fixed O&M) stands in for
    every operating year of its life. ``YearProbes`` passes ``fleet.scenario`` as ``s``;
    ``perfbench/spans.py`` counts probed states from the positional ``decision_year``
    and ``fleet``, which are not read here.
    """
    energy, revenue = market.probe()
    fixed = np.array([tech.fixed_om * tech.capacity_mw for tech in market.fleet.catalog])
    return revenue - energy * market.srmc - fixed


class YearProbes:
    """The NPV probes of one decision year over a fleet, shared by every company's ``invest``.

    Within a decision year the fleet only grows: each purchase appends
    one plant. So one future market covers the whole year: the market of
    ``decision_year`` + 10 at the forecast carbon price, built with the
    probes and grown by ``MarketYear.add`` with the plants bought since for
    each later state. Only the fleet's last length can be looked up again,
    so only the last state valued is kept: its fleet length and its NPVs.

    The catalog's NPVs are worked out together, equal to ``npv`` bit for
    bit: one ``np.add.accumulate`` adds each row of a (technology x year)
    matrix of discounted flows strictly left to right. A row is padded
    past its lifetime with 0.0, which changes no sum but a -0.0, and
    ``+ 0.0`` turns a -0.0 into the 0.0 that ``npv`` starts from.
    """

    def __init__(self, decision_year: int, forecast: CarbonForecast, fleet: Fleet):
        s, future_year = fleet.scenario, decision_year + REVENUE_PROBE_YEARS
        self.decision_year = decision_year
        self.market = MarketYear(fleet, future_year, forecast.predict(future_year))
        self.operating, self.fixed, self.factors, self.capital = _npv_terms(
            s.technologies, s.discount_rate)
        self.valued: tuple[int, list[float]] = (-1, [])  # fleet length, NPVs

    def value(self) -> list[float]:
        """NPV of one more unit of each catalog technology added to the fleet, in catalog order."""
        market, fleet = self.market, self.market.fleet
        if self.valued[0] != len(fleet):
            market.add()
            yearly = estimate_yearly_revenue(market, self.decision_year, fleet.scenario, fleet)
            flows = np.where(self.operating, np.divide.outer(yearly, self.factors), self.fixed)
            self.valued = len(fleet), (np.add.accumulate(flows, axis=1)[:, -1] + 0.0).tolist()
        return self.valued[1]


def invest(genco: str, budgets: dict[str, float], probes: YearProbes) -> list[Event]:
    """Buy the highest-NPV affordable unit, re-evaluate, and repeat until nothing attracts.

    ``genco`` is the buying company's id. The decision year, the carbon
    forecast and the run's fleet are those of ``probes``, the year's probes
    shared by every company that invests in that year. Among equal NPVs the
    first technology of the catalog is bought. Executed purchases debit
    ``budgets[genco]`` and append the new plant to the fleet (commissioning
    after the technology's construction lag), so later decisions see the
    updated market.

    Returns the ``"invest"`` events of the executed purchases; an empty
    list means nothing was both positive-NPV and affordable.
    """
    fleet, year, capital = probes.market.fleet, probes.decision_year, probes.capital
    events: list[Event] = []
    while True:
        best, best_value, budget = None, 0.0, budgets[genco]
        for k, value in enumerate(probes.value()):
            if value > best_value and capital[k] <= budget:
                best, best_value = k, value
        if best is None:
            return events
        tech = fleet.catalog[best]
        plant = PowerPlant(
            id=f"{genco}:{tech.name}:{year}:{len(events) + 1}",
            technology=tech,
            owner=genco,
            commission_year=year + tech.construction_lag_years,
            unit_count=1,
        )
        budgets[genco] -= capital[best]
        fleet.extend((plant,))
        events.append(Event(year, "invest", genco, tech.name, plant.id, 1, capital[best], best_value))
