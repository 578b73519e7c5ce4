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
a ``MarketYear`` that reads its scenario from the fleet, built by the
first valuation, so a year in which no company can buy builds none. Its
``value`` asks ``estimate_yearly_revenue`` once for the yearly flows of
the whole catalog, then works out the catalog's NPVs in one numpy pass,
bit for bit as ``npv`` adds them. The market prices the scenario's
catalog once, by catalog index, and its ``probe`` values one more unit
of every catalog technology in one numpy pass without clearing the
market. ``invest`` picks the best affordable unit by catalog index
and appends it to the fleet as a row (``Fleet.buy``), recording the
purchase as a plain (catalog index, plant id, NPV) tuple: no plant or
event object is built, and only ``simulation.run_simulation`` turns the
records into events. The year's market places the plants added since it
was built with ``MarketYear.add``. The figures equal those of
clearing ``fleet + [candidate]`` from scratch bit for bit. A company
whose budget is below the catalog's cheapest unit values nothing: it
could buy nothing whatever the NPVs, so they would never be read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .dispatch import Fleet, MarketYear
from .scenario import Scenario, Technology

# How far ahead the revenue-probe market is simulated.
REVENUE_PROBE_YEARS = 10


@dataclass(frozen=True)
class CarbonForecast:
    """Least-squares line through the observed (year, carbon price) history."""

    slope: float  # £/tCO2 per year
    intercept: float  # £/tCO2

    def predict(self, year: int) -> float:
        return self.slope * year + self.intercept


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


def npv(cash_flows: list[float], discount_rate: float) -> float:
    """Discounted sum of cash flows R_0..R_N at rate i: sum of R_t / (1+i)^t.

    The terms are added strictly left to right from 0.0: the builtin ``sum``
    compensates float rounding since Python 3.12, so its bits would depend
    on the interpreter.
    """
    if discount_rate <= -1:
        raise ValueError(f"discount rate must be > -1, got {discount_rate}")
    total = 0.0
    for t, flow in enumerate(cash_flows):
        total += flow / (1.0 + discount_rate) ** t
    return total


@lru_cache
def _npv_terms(technologies: tuple[Technology, ...], discount_rate: float):
    """What ``YearProbes`` needs besides the yearly flows to add up each ``npv``.

    (technology x year) arrays over the longest lifetime: whether a year is
    not an operating year, and the flow of each such year (the capital cost
    in year 0, 0.0 past the lifetime); each year's discount factor; and the
    capital cost of one unit of each technology, in catalog order.
    """
    years = np.arange(1 + max(tech.lifetime_years for tech in technologies))
    lifetimes = np.array([[tech.lifetime_years] for tech in technologies])
    idle = (years < 1) | (years > lifetimes)
    capital = tuple(tech.capital_cost * tech.capacity_mw for tech in technologies)
    fixed = np.zeros(idle.shape)
    fixed[:, 0] = np.negative(capital)
    factors = np.array([(1.0 + discount_rate) ** t for t in range(len(years))])
    return idle, fixed, factors, capital


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
    running costs (its SRMC there, ``MarketYear.srmc``, and its fixed O&M,
    ``Fleet.fixed_om``) stands in for every operating year of its life.
    ``YearProbes`` passes ``fleet.scenario`` as ``s``;
    ``perfbench/spans.py`` counts probed states from the positional ``decision_year``
    and ``fleet``, which are not read here.
    """
    energy, revenue = market.probe()
    return revenue - energy * market.srmc - market.fleet.fixed_om


class YearProbes:
    """The NPV probes of one decision year over a fleet, shared by every company's ``invest``.

    Within a decision year the fleet only grows: each purchase appends
    one plant. So one future market covers the whole year: the market of
    ``decision_year`` + 10 at the forecast carbon price, ``market``, built
    by the first ``value`` (None until then) and grown by ``MarketYear.add``
    with the plants bought since for each later state. Built late, it holds
    what a build at the start of the year grown by ``add`` would. Only the
    fleet's last length can be looked up again, so only the last state
    valued is kept: its fleet length and its NPVs.

    The catalog's NPVs are worked out together, equal to ``npv`` bit for
    bit: one ``np.add.accumulate`` adds each row of a (technology x year)
    matrix of discounted flows strictly left to right. A row is padded
    past its lifetime with 0.0, which changes no sum but a -0.0, and
    ``+ 0.0`` turns a -0.0 into the 0.0 that ``npv`` starts from.
    """

    def __init__(self, decision_year: int, forecast: CarbonForecast, fleet: Fleet):
        s = fleet.scenario
        self.decision_year, self.forecast, self.fleet = decision_year, forecast, fleet
        self.market: MarketYear | None = None  # built by the first ``value``
        self.idle, self.fixed, self.factors, self.capital = _npv_terms(
            s.technologies, s.discount_rate)
        self.cheapest = min(self.capital)
        self.valued: tuple[int, list[float]] = (-1, [])  # fleet length, NPVs

    def value(self) -> list[float]:
        """NPV of one more unit of each catalog technology added to the fleet, in catalog order."""
        fleet = self.fleet
        if self.valued[0] != len(fleet):
            if self.market is None:
                future_year = self.decision_year + REVENUE_PROBE_YEARS
                self.market = MarketYear(fleet, future_year, self.forecast.predict(future_year))
            self.market.add()
            yearly = estimate_yearly_revenue(self.market, self.decision_year, fleet.scenario, fleet)
            flows = np.divide.outer(yearly, self.factors)
            np.copyto(flows, self.fixed, where=self.idle)
            np.add.accumulate(flows, axis=1, out=flows)
            self.valued = len(fleet), (flows[:, -1] + 0.0).tolist()
        return self.valued[1]


def invest(
    genco: str, budgets: dict[str, float], probes: YearProbes
) -> list[tuple[int, str, float]]:
    """Buy the highest-NPV affordable unit, re-evaluate, and repeat until nothing attracts.

    ``genco`` is the buying company's id. The decision year, the carbon
    forecast and the run's fleet (``probes.fleet``) are those of ``probes``,
    the year's probes shared by every company that invests in that year.
    While the budget is below ``probes.cheapest``, the capital cost of the
    catalog's cheapest unit, nothing is affordable, so no state is valued.
    Among equal NPVs the first technology of the catalog is bought.
    Executed purchases debit ``budgets[genco]`` and append the new unit to
    the fleet as a row (``Fleet.buy``; it commissions after the
    technology's construction lag), so later decisions see the updated
    market.

    Returns one ``(catalog index, plant id, NPV)`` per executed purchase,
    in order; an empty list means nothing was both positive-NPV and
    affordable. ``simulation.run_simulation`` turns them into events.
    """
    fleet, year, capital = probes.fleet, probes.decision_year, probes.capital
    bought: list[tuple[int, str, float]] = []
    while budgets[genco] >= probes.cheapest:
        best, best_value, budget = None, 0.0, budgets[genco]
        for k, value in enumerate(probes.value()):
            if value > best_value and capital[k] <= budget:
                best, best_value = k, value
        if best is None:
            break
        plant_id = f"{genco}:{fleet.catalog[best].name}:{year}:{len(bought) + 1}"
        budgets[genco] -= capital[best]
        fleet.buy(genco, best, plant_id, year)
        bought.append((best, plant_id, best_value))
    return bought
