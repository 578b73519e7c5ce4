"""Yearly generation-company investment decisions.

Each company values every catalog technology by net present value: the
unit's capital cost up front, then a constant yearly net cash flow for
its lifetime. That cash flow is estimated by clearing a merit-order
market ten years ahead with the candidate unit added to the fleet, at a
carbon price projected by a linear regression over the realized tax
history. Positive-NPV options are bought greedily, best first, while the
budget lasts.

An investment state (decision year, fleet) is valued one way only:
``YearProbes.value`` holds the year's future market, a ``MarketYear``,
and asks ``estimate_yearly_revenue`` for each catalog technology, which
reads that market's ``probe``, then works out the catalog's NPVs in one
numpy pass, bit for bit as ``npv`` adds them. The first ``probe`` of a
state prices one more unit of every catalog technology in one numpy pass
without clearing the market. A run keeps its fleet as a ``Fleet``, append-only
columns that ``invest`` appends each purchase to; the year's market is
built from them by one sort and reads the rows appended since with
``MarketYear.add``, which places each purchase by ``np.searchsorted``.
The figures equal those of clearing ``fleet + [candidate]`` from scratch
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """What ``YearProbes.value`` needs besides the yearly flows to add up each ``npv``.

    (technology x year) arrays over the longest lifetime: whether a year is
    an operating year, and the flow of every other year (the capital cost
    in year 0, 0.0 past the lifetime); and each year's discount factor.
    """
    years = np.arange(1 + max(tech.lifetime_years for tech in technologies))
    lifetimes = np.array([[tech.lifetime_years] for tech in technologies])
    operating = (years >= 1) & (years <= lifetimes)
    fixed = np.zeros(operating.shape)
    fixed[:, 0] = [-tech.capital_cost * tech.capacity_mw for tech in technologies]
    return operating, fixed, np.array(_discount_factors(1.0 + discount_rate, len(years)))


def estimate_yearly_revenue(
    candidate: Technology,
    decision_year: int,
    s: Scenario,
    fleet: Fleet | list[PowerPlant],
    market: MarketYear,
) -> float:
    """Net yearly cash flow of one candidate unit in a simulated future market.

    ``market`` is the market of ``decision_year`` + 10 holding ``fleet``
    at the forecast carbon price, as ``YearProbes`` builds it. The unit's
    revenue there at clearing prices minus its running costs (its SRMC
    in that market, ``MarketYear.offer``, and fixed O&M) stands in for
    every operating year of its life. ``perfbench/spans.py`` counts
    probed states from the positional ``decision_year`` and ``fleet``.
    """
    energy, revenue = market.probe(candidate)
    running_cost = energy * market.offer(candidate)[0]
    return revenue - running_cost - candidate.fixed_om * candidate.capacity_mw


@dataclass
class YearProbes:
    """The NPV probes of one decision year, shared by every company's ``invest``.

    Within a decision year the fleet only grows: each purchase appends
    one plant. So one future market covers the whole year: it is built
    for the first state valued and grown by ``MarketYear.add`` with the
    plants bought since for each later one. Unit valuations are kept per
    fleet length; the market holds the last length's plants.

    The catalog's NPVs are worked out together, equal to ``npv`` bit for
    bit: one ``np.add.accumulate`` adds each row of a (technology x year)
    matrix of discounted flows strictly left to right. A row is padded
    past its lifetime with 0.0, which changes no sum but a -0.0, and
    ``+ 0.0`` turns a -0.0 into the 0.0 that ``npv`` starts from.
    """

    decision_year: int
    forecast: CarbonForecast
    market: MarketYear | None = field(default=None, init=False)
    npv_terms: tuple[np.ndarray, ...] = field(default=(), init=False)  # ``_npv_terms``
    valuations: dict[int, dict[str, float]] = field(default_factory=dict, init=False)

    def value(self, fleet: Fleet | list[PowerPlant], s: Scenario) -> dict[str, float]:
        """NPV per catalog technology of one more unit added to ``fleet``."""
        valuations = self.valuations.get(len(fleet))
        if valuations is None:
            if self.market is None:
                future_year = self.decision_year + REVENUE_PROBE_YEARS
                self.market = MarketYear(fleet, future_year, self.forecast.predict(future_year), s)
                self.npv_terms = _npv_terms(s.technologies, s.discount_rate)
            else:  # lengths are valued in increasing order: the market holds the last
                # the plants its fleet lacks: none when it reads ``fleet`` itself
                self.market.add(fleet[len(self.market.fleet):])
            yearly = [
                estimate_yearly_revenue(tech, self.decision_year, s, fleet, self.market)
                for tech in s.technologies
            ]
            operating, fixed, factors = self.npv_terms
            flows = np.where(operating, np.divide.outer(yearly, factors), fixed)
            npvs = (np.add.accumulate(flows, axis=1)[:, -1] + 0.0).tolist()
            valuations = self.valuations[len(fleet)] = {
                tech.name: value for tech, value in zip(s.technologies, npvs)
            }
        return valuations


def invest(
    genco: str,
    budgets: dict[str, float],
    s: Scenario,
    fleet: Fleet | list[PowerPlant],
    probes: YearProbes,
) -> list[Event]:
    """Buy the highest-NPV affordable unit, re-evaluate, and repeat until nothing attracts.

    ``genco`` is the buying company's id. The decision year and the carbon
    forecast are those of ``probes``, the year's probes shared by every
    company that invests in that year. Executed purchases debit
    ``budgets[genco]`` and append the new plant to ``fleet``
    (commissioning after the technology's construction lag), so later
    decisions see the updated market.

    Returns the ``"invest"`` events of the executed purchases; an empty
    list means nothing was both positive-NPV and affordable.
    """
    decision_year = probes.decision_year
    events: list[Event] = []
    while True:
        valuations = probes.value(fleet, s)
        best: Technology | None = None
        best_value = 0.0
        for tech in s.technologies:
            capital = tech.capital_cost * tech.capacity_mw
            if capital > budgets[genco]:
                continue
            value = valuations[tech.name]
            if value > 0.0 and value > best_value:
                best = tech
                best_value = value
        if best is None:
            return events
        capital = best.capital_cost * best.capacity_mw
        plant = PowerPlant(
            id=f"{genco}:{best.name}:{decision_year}:{len(events) + 1}",
            technology=best,
            owner=genco,
            commission_year=decision_year + best.construction_lag_years,
            unit_count=1,
        )
        budgets[genco] -= capital
        fleet.append(plant)
        events.append(
            Event(decision_year, "invest", genco, best.name, plant.id, 1, capital, best_value)
        )
