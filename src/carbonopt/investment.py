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
a ``MarketYear`` that reads its scenario from the fleet, built when a
state first needs it, so a year in which no company can buy builds none.
Its ``value`` asks ``estimate_yearly_revenue`` once for the yearly flows
of the whole catalog, handing it the probes themselves, then works out
the catalog's NPVs in one numpy pass, bit for bit as ``npv`` adds them.
When built, the probes price the scenario's catalog once
(``dispatch.price_catalog``): each technology's merit rank, the dense
rank of its (SRMC, emission factor) pair, and its price. They hand both
to the market, which keys its offers by (rank, id), the form the
oracle's ``merit_order_key`` (SRMC, emission factor, id) takes there,
and whose ``probe`` values one more unit of every catalog technology in
one numpy pass without clearing the market: the price-free
``MarketYear.units``, priced by ``dispatch.price_units``.

A search shares one ``Valuations`` memo across its genomes. It keeps
each state's units, keyed by the decision year, the history of
purchases (each named by its catalog index and plant id) and the same
merit ranks. So a state that another genome valued already is only
priced, at this genome's own SRMCs, through the same ``price_units``: no
market is built or grown, and the figures are the same bits. A memo
history starts at the scenario's initial fleet, so a memo should be
shared only among fleets grown from that fleet by ``Fleet.buy``, as
those of ``_invest_over_horizon`` are. The memo empties itself once it
holds ``MEMO_STATES`` states. Pickled to a pool's worker, it loads as
that worker's one memo of the search, kept from chunk to chunk.
``run_simulation`` uses none.

``invest`` picks the best affordable unit by catalog index and appends
it to the fleet as a row (``Fleet.buy``), recording the purchase as a
plain (catalog index, plant id, NPV) tuple: no plant or event object is
built, and only ``simulation.run_simulation`` turns the records into
events. The year's market places the plants added since it was built
with ``MarketYear.add``. The figures equal those of clearing
``fleet + [candidate]`` from scratch bit for bit. A company
whose budget is below the catalog's cheapest unit values nothing: it
could buy nothing whatever the NPVs, so they would never be read.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .dispatch import Fleet, MarketYear, price_catalog, price_units
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
    market,
    decision_year: int,
    s: Scenario,
    fleet: Fleet,
) -> np.ndarray:
    """Net yearly cash flow of one more unit of each catalog technology, in catalog order.

    ``market`` is the future market of the investment state (``decision_year``,
    ``fleet``): the market of ``decision_year`` + 10 at the forecast carbon price, a
    ``MarketYear`` or the state's ``YearProbes``, which probes it as one. A unit's
    revenue there at clearing prices minus its running costs (its SRMC there, in
    ``prices`` before the loss-of-load price, and its fixed O&M, ``Fleet.fixed_om``)
    stands in for every operating year of its life. ``YearProbes`` calls it once per
    state valued, passing itself and ``fleet.scenario`` as ``s``; ``perfbench/spans.py``
    counts probed states from the positional ``decision_year`` and ``fleet``, which
    are not read here.
    """
    energy, revenue = market.probe()
    return revenue - energy * market.prices[:-1] - market.fleet.fixed_om


# How many investment states a ``Valuations`` memo holds before it empties itself.
MEMO_STATES = 8192


class Valuations:
    """The price-free ``MarketYear.units`` of investment states, shared by one search's genomes.

    Genomes of one search start from the same fleet, the scenario's
    initial one, and often value the same state: the same decision year,
    the same purchases so far and the same merit ranks of the catalog at
    the forecast carbon price (``dispatch.price_catalog``). The units of a
    state depend on the carbon price only through those ranks, which key
    the market's offers as (rank, id), the form the oracle's
    ``merit_order_key`` (SRMC, emission factor, id) takes in a
    ``dispatch.MarketYear``. So a state valued again is only priced
    (``dispatch.price_units``) at the genome's own SRMCs: no market is
    built or grown, and the figures are those of a fresh probe bit for
    bit.

    A state's key is (decision year, history, ranks):
    - the history names the purchases so far. The scenario's initial
      fleet's is 0, so a memo should be shared only among fleets grown
      from it by ``Fleet.buy``, as those of
      ``simulation._invest_over_horizon`` are;
      ``history`` interns a fleet's after one more purchase, by its parent
      history, the catalog index of the technology bought and the plant
      id, ``"<company>:<technology>:<year>:<n>"``. A company id and a
      technology name may hold ``:``, so the id alone can name two
      purchases; with the catalog index, its last two fields give the
      year and the count, and the row is pinned down. Each new history
      takes the next number of a counter that never repeats, so no number
      ever names two histories;
    - the ranks are each technology's merit rank, the dense rank of its
      (SRMC, emission factor) pair, so equal pairs share a rank.

    A state's units are its energy and, in the smallest unsigned dtype
    that holds ``len(catalog)``, its price indices.

    The memo empties itself, histories and states alike, before it would
    hold more than ``MEMO_STATES`` states; a genome in flight then only
    misses, since its history's number is never given out again. A memo
    belongs to one scenario and one search, named by its ``token``, the
    creating process's id and a count. Pickled, it crosses to another
    process empty: it loads as the memo that process holds for the token,
    made empty by the first load, so each pool worker keeps one memo for
    the search across the chunks of genomes it scores. A process holds one
    search's memo: a load of another token replaces it.
    """

    def __init__(self):
        self.histories: dict[tuple[int, int, str], int] = {}  # (parent, index, id) -> history
        self.states: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # key -> units
        self.last_history = 0
        self.hits = self.misses = 0
        self.token = os.getpid(), next(_tokens)

    def __reduce__(self):
        return _held_memo, (self.token,)

    def history(self, parent: int, k: int, plant_id: str) -> int:
        """The history of ``parent`` after it buys ``plant_id``, of catalog technology ``k``."""
        key = parent, k, plant_id
        history = self.histories.get(key)
        if history is None:
            self.last_history = history = self.histories[key] = self.last_history + 1
        return history

    def units(self, key: tuple, market) -> tuple[np.ndarray, np.ndarray]:
        """The units of state ``key``; on a miss, ``market().units()``, kept (see above)."""
        units = self.states.get(key)
        if units is not None:
            self.hits += 1
            return units
        self.misses += 1
        if len(self.states) >= MEMO_STATES:
            self.histories.clear()
            self.states.clear()
        energy, index = market().units()
        # a row per catalog technology: the smallest unsigned dtype that holds
        # len(energy) holds every index, loss of load's len(catalog) too
        units = self.states[key] = energy, index.astype(np.min_scalar_type(len(energy)))
        return units


_tokens = itertools.count()  # numbers the memos this process makes


@lru_cache(maxsize=1)  # one search's memo at a time: a new token evicts the last
def _held_memo(token: tuple[int, int]) -> Valuations:
    """The memo this process holds for the search of ``token``, made empty by the first load."""
    return Valuations()


class YearProbes:
    """The NPV probes of one decision year over a fleet, shared by every company's ``invest``.

    Within a decision year the fleet only grows: each purchase appends
    one plant. So one future market covers the whole year: the market of
    ``decision_year`` + 10 at the forecast carbon price, ``market``, built
    by the first state that needs it (None until then) and grown by
    ``MarketYear.add`` with the plants bought since for each later state.
    Built late, it holds what a build at the start of the year grown by
    ``add`` would. When built, the probes price the catalog there once
    (``dispatch.price_catalog``): ``ranks``, each technology's merit rank,
    the dense rank of its (SRMC, emission factor) pair, and ``prices``.
    The market is handed both, and keys its offers by (rank, id), the
    form the oracle's (SRMC, emission factor, id) takes there. Only the
    fleet's last length can be looked up again, so only the last state
    valued is kept: its fleet length and its NPVs.

    With a ``memo`` (a search's ``Valuations``), the same ranks key the
    state there, and ``probe`` looks the state up first and builds or
    grows the market only on a miss. ``lineage`` is (fleet rows,
    history): the rows a history of the memo accounts for, and that
    history. The default is the scenario's initial fleet, as history 0,
    so the plants the fleet holds past it are interned as purchases: the
    memo should be shared only among fleets grown from the initial fleet
    by ``Fleet.buy``. The next year's probes start from this one's
    ``lineage``.

    The catalog's NPVs are worked out together, equal to ``npv`` bit for
    bit: one ``np.add.accumulate`` adds each row of a (technology x year)
    matrix of discounted flows strictly left to right. A row is padded
    past its lifetime with 0.0, which changes no sum but a -0.0, and
    ``+ 0.0`` turns a -0.0 into the 0.0 that ``npv`` starts from.
    """

    def __init__(self, decision_year: int, forecast: CarbonForecast, fleet: Fleet,
                 memo: Valuations | None = None, lineage: tuple[int, int] | None = None):
        s = fleet.scenario
        self.decision_year, self.fleet, self.memo = decision_year, fleet, memo
        self.lineage = (len(s.initial_fleet), 0) if lineage is None else lineage
        self.future_year = decision_year + REVENUE_PROBE_YEARS
        # the catalog priced in the future year at the forecast: its merit ranks and prices
        self.ranks, self.prices = price_catalog(fleet, self.future_year,
                                                forecast.predict(self.future_year))
        self.market: MarketYear | None = None  # built by the first state that needs it
        self.idle, self.fixed, self.factors, self.capital = _npv_terms(
            s.technologies, s.discount_rate)
        self.cheapest = min(self.capital)
        self.valued: tuple[int, list[float]] = (-1, [])  # fleet length, NPVs

    def value(self) -> list[float]:
        """NPV of one more unit of each catalog technology added to the fleet, in catalog order."""
        fleet = self.fleet
        if self.valued[0] != len(fleet):
            yearly = estimate_yearly_revenue(self, self.decision_year, fleet.scenario, fleet)
            flows = np.divide.outer(yearly, self.factors)
            np.copyto(flows, self.fixed, where=self.idle)
            np.add.accumulate(flows, axis=1, out=flows)
            self.valued = len(fleet), (flows[:, -1] + 0.0).tolist()
        return self.valued[1]

    def probe(self) -> tuple[np.ndarray, np.ndarray]:
        """``MarketYear.probe`` of the state's future market, through the memo if there is one."""
        if self.memo is None:
            return self._market().probe()
        rows, history = self.lineage
        for k, plant_id in zip(self.fleet.tech[rows:], self.fleet.ids[rows:]):
            history = self.memo.history(history, k, plant_id)
        self.lineage = len(self.fleet), history
        units = self.memo.units((self.decision_year, history, self.ranks), self._market)
        return price_units(*units, self.prices)

    def _market(self) -> MarketYear:
        """The future market, built by the first call and grown to the fleet."""
        if self.market is None:
            self.market = MarketYear(self.fleet, self.future_year, self.ranks, self.prices)
        self.market.add()
        return self.market


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
