"""Merit-order spot market clearing.

Every segment of every representative day is cleared independently:
plants bid their short-run marginal cost, bids are filled cheapest-first
and the last unit used sets a uniform clearing price. Demand is perfectly
price inelastic; when available capacity falls short, the gap is priced
at the scenario's loss-of-load price.

One kernel, ``MarketYear``, clears every production market: the spot
market of each simulated year (``run_year``) and the investment probes'
future markets. It reads everything from a ``Fleet``: a run's plants in
the order they joined, one list per column (a unit a company buys is
appended as a row, with no object of its own), the tables no market-year
changes, and the scenario the fleet was built from, whose fuel prices,
demand growth and loss-of-load price a market-year reads. SRMC depends
on the year and the carbon price, not on the segment, so a build prices
each catalog technology once. Every offer has one merit key, the tuple
``merit_order_key`` sorts bids by: (SRMC, emission factor, id). A build
sorts the active rows by it, the row breaking ties, and keeps the keys,
sorted, as a Python list. So one ``bisect_right`` places a plant bought
later (``MarketYear.add``, with ``list.insert``) and a probed unit, keyed
by ``CANDIDATE_ID``, where a stable sort of ``fleet + [unit]`` would. A
gather of the columns by technology index turns the merit order into an
(offer x segment) availability matrix.

The demand each segment has left before each offer is
``np.subtract.accumulate`` over demand and offers. That accumulate
subtracts strictly in order, the same operations in the same order as
the greedy fill's ``remaining -= take``, so it is bit-exact. ``demand -
np.cumsum(...)`` is not: it adds the offers up first and subtracts once,
``d - (a + b)`` rather than ``(d - a) - b``, which rounds differently.
Totals are likewise added strictly in order (``_total``), segment by
segment and in merit order within a segment, the order a
segment-by-segment fill produces them in; ``np.sum`` would add pairwise
and round differently. ``MarketYear.probe`` values one more unit of every
catalog technology in one call: each unit finds the demand left before it
in the market's own accumulate, and one accumulate down an (offer x
technology x segment) grid of the offers after each unit finds the offer
that sets the price where the unit runs short.

A probe has two steps. ``MarketYear.units`` is free of prices: per
(technology, segment), the unit's MWh and the catalog index of the offer
that sets its price (``len(catalog)`` for loss of load). Offers are kept
by catalog index, not by cost, and the SRMCs enter only through the merit
order, so markets whose catalogs rank their (SRMC, emission factor) pairs
alike give the same units. ``price_units`` then turns them into energy and
revenue totals at a price vector (each SRMC, then the loss-of-load
price). ``investment.Valuations`` keeps the units of the investment
states a search values, and prices a state valued again without a market.

``Bid`` and ``clear_segment`` clear one segment the plain way, bid by bid;
the tests hold the kernel to them with ``==``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .scenario import PowerPlant, Scenario, Technology


@dataclass(frozen=True, slots=True)
class Bid:
    plant: PowerPlant
    available_mw: float
    srmc: float


@dataclass(frozen=True, slots=True)
class SegmentClearing:
    dispatched: tuple[tuple[PowerPlant, float], ...]  # merit order, positive MW only
    clearing_price: float
    unserved_mw: float


@dataclass
class YearResult:
    """Aggregated dispatch outcome for one simulated year."""

    energy_by_technology: dict[str, float]  # MWh
    emissions_t: float
    average_price: float  # £/MWh, demand-weighted over all segments
    unserved_mwh: float
    carbon_intensity: float  # tCO2 per served MWh; 0 when nothing is served


def srmc(tech: Technology, fuel_price: float, carbon_price: float) -> float:
    """Short-run marginal cost in £/MWh: fuel/efficiency + variable O&M + carbon cost.

    The fuel term vanishes for fuel-free technologies. A negative carbon
    price is allowed and lowers the cost (a per-tCO2 subsidy).
    """
    fuel_term = fuel_price / tech.efficiency if tech.fuel_kind else 0.0
    return fuel_term + tech.variable_om + tech.emission_factor * carbon_price


def price_catalog(fleet: Fleet, year: int, carbon_price: float):
    """``fleet``'s catalog priced in ``year`` at ``carbon_price``, as a ``MarketYear`` reads it.

    Returns, per catalog technology, its (SRMC, emission factor), the head
    of the merit key of each of its offers; and the price vector
    ``price_units`` reads: each technology's SRMC, then the loss-of-load
    price.
    """
    s = fleet.scenario
    pairs = [(srmc(tech, _fuel_price(tech, year, s), carbon_price), tech.emission_factor)
             for tech in fleet.catalog]
    return pairs, np.array([cost for cost, _ in pairs] + [s.loss_of_load_price])


def _fuel_price(tech: Technology, year: int, s: Scenario) -> float:
    """The price of ``tech``'s fuel in ``year``, 0 when fuel-free; fails if the series is absent."""
    if not tech.fuel_kind:
        return 0.0
    try:
        return s.fuel_price(tech.fuel_kind, year)
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from exc


# The plant id a probed unit sorts by among offers of equal SRMC and emission factor.
CANDIDATE_ID = "__candidate__"


def merit_order_key(bid: Bid):
    """Ascending SRMC; ties broken by lower emission factor, then plant id."""
    return (bid.srmc, bid.plant.technology.emission_factor, bid.plant.id)


def clear_segment(
    demand_mw: float, bids: list[Bid], loss_of_load_price: float
) -> SegmentClearing:
    """Fill demand greedily from the cheapest bids; the marginal unit sets the price.

    If demand exceeds total availability the shortfall is reported as
    unserved and the segment clears at the loss-of-load price.
    """
    remaining = demand_mw
    dispatched: list[tuple[PowerPlant, float]] = []
    marginal_srmc = 0.0
    for bid in sorted(bids, key=merit_order_key):
        if remaining <= 0.0:
            break
        if bid.available_mw <= 0.0:
            continue
        take = bid.available_mw if bid.available_mw < remaining else remaining
        remaining -= take
        dispatched.append((bid.plant, take))
        marginal_srmc = bid.srmc
    return SegmentClearing(
        dispatched=tuple(dispatched),
        clearing_price=loss_of_load_price if remaining > 0.0 else marginal_srmc,
        unserved_mw=remaining if remaining > 0.0 else 0.0,
    )


def run_year(
    fleet: Fleet, year: int, carbon_price: float, demand_scale: float = 1.0
) -> YearResult:
    """Clear every segment of every representative day and aggregate to yearly totals.

    The scenario is the fleet's (``fleet.scenario``). Segment demand is its
    demand scaled by cumulative growth to ``year`` (times an optional extra
    factor, used by the demand-noise hook). Energies are weighted by segment
    duration and day weight so they sum to a full year.
    """
    return MarketYear(fleet, year, carbon_price, demand_scale).clear()


class Fleet:
    """A run's plants in the order they joined, and the market tables no market-year changes.

    A fleet carries the scenario ``s`` it was built from as ``scenario``,
    and every market-year of it reads its prices there. Built, it reads
    the tables every market-year of the run shares: per segment of ``s``'s
    representative days, in day order, ``demand_mw`` and ``hours``
    (duration x day weight); per technology of ``catalog``, the scenario's
    technologies, ``factors`` (its weather profile's capacity factor per
    segment, 1.0 when firm), ``unit_mw`` (one unit's MW per segment),
    ``ef``, its emission factor, ``fixed_om``, one unit's fixed O&M
    cost per year, and ``own``, its catalog index, as a column.

    The fleet only grows, one row per plant at the end, and a
    ``MarketYear`` reads the rows that were there when it last looked.
    Each column is a list: ``tech``, the index of its technology in
    ``catalog``; ``mw``, its ``capacity_mw * unit_count``; ``commission``
    and ``retirement``, the years it starts and stops running; ``ids``;
    ``owner``, its company's id; and ``units``, its unit count.

    ``extend`` appends plants as they are, each mapped to the catalog
    index of its technology's name: it checks nothing. Plants come from a
    scenario that passed ``validate_scenario`` (``load_scenario`` runs
    it), which refuses a plant whose technology is not the catalog's entry
    of its name and an id holding U+0000; a scenario built in Python must
    pass it first. ``buy`` appends a purchase, one unit of a catalog
    technology, as a row and nothing else.
    """

    def __init__(self, s: Scenario, plants=()):
        self.scenario = s
        self.catalog = catalog = s.technologies
        self.index = {tech.name: i for i, tech in enumerate(catalog)}  # name -> catalog index
        segments = [(segment, day.weight_days) for day in s.representative_days for segment in day.segments]
        self.demand_mw = np.array([segment.demand_mw for segment, _ in segments])
        self.hours = np.array([segment.duration_hours * weight for segment, weight in segments])
        profiles = [tech.weather_profile if tech.is_intermittent else None for tech in catalog]
        self.factors = np.reshape(
            [[1.0 if profile is None else segment.capacity_factor(profile) for segment, _ in segments]
             for profile in profiles],
            (len(catalog), len(segments)),
        )
        self.unit_mw = self.factors * np.reshape([tech.capacity_mw for tech in catalog], (-1, 1))
        self.ef = np.array([tech.emission_factor for tech in catalog])
        self.fixed_om = np.array([tech.fixed_om * tech.capacity_mw for tech in catalog])
        self.own = np.arange(len(catalog))[:, None]
        self.tech: list[int] = []
        self.mw: list[float] = []
        self.commission: list[int] = []
        self.retirement: list[int] = []
        self.ids: list[str] = []
        self.owner: list[str] = []
        self.units: list[int] = []
        self.extend(plants)

    def __len__(self) -> int:
        return len(self.ids)

    def extend(self, plants) -> None:
        plants = list(plants)
        self.tech += [self.index[plant.technology.name] for plant in plants]
        self.mw += [plant.technology.capacity_mw * plant.unit_count for plant in plants]
        self.commission += [plant.commission_year for plant in plants]
        self.retirement += [plant.retirement_year for plant in plants]
        self.ids += [plant.id for plant in plants]
        self.owner += [plant.owner for plant in plants]
        self.units += [plant.unit_count for plant in plants]

    def buy(self, owner: str, k: int, plant_id: str, year: int) -> None:
        """Append one unit of catalog technology ``k`` bought by ``owner`` in ``year``.

        It commissions after the technology's construction lag; its row is
        the one ``extend`` stores for the equal ``PowerPlant``.
        """
        tech = self.catalog[k]
        commission = year + tech.construction_lag_years
        self.tech.append(k)
        self.mw.append(tech.capacity_mw)
        self.commission.append(commission)
        self.retirement.append(commission + tech.lifetime_years)
        self.ids.append(plant_id)
        self.owner.append(owner)
        self.units.append(1)


class MarketYear:
    """A fleet's market-year: cleared as a whole, or pricing one added unit per technology.

    It keeps the merit keys of its offers in merit order and an
    (offer x segment) availability matrix, closed by a loss-of-load offer
    of unlimited MW at the loss-of-load price. The demand each segment has
    left before each offer, ``np.subtract.accumulate`` over its demand and
    offers, equals the greedy fill's running ``remaining`` (see
    ``clear_segment``) bit for bit up to the marginal offer (an offer that
    is not marginal gives all its MW, and subtracting 0 MW changes
    nothing). It never rises, and past the marginal offer it is <= 0, so
    an offer is dispatched exactly where the demand left before it and its
    own MW are both > 0, and the marginal offer is the one after which it
    is first <= 0.

    A market takes its days and catalog from ``fleet``, whose tables
    (segment demand and hours; per technology availability factors, one
    unit's MW and emission factor) it reads, and fuel prices, demand
    growth and the loss-of-load price from ``fleet.scenario``, the
    scenario the fleet was built from, so no market pairs a fleet with
    another scenario's prices. A build prices every technology of the
    catalog once (``price_catalog``; or takes ``priced``, the catalog
    priced so by its caller already): ``prices``, by catalog index, with
    the loss-of-load price last, and ``srmc``, all but that last. Each
    offer keeps its catalog index, not its cost. It then sorts the rows of
    ``fleet`` active in the market-year by their merit keys, the tuples
    (SRMC, emission factor, id) of ``merit_order_key``, the row breaking
    ties, and keeps the keys in that sorted list: bisecting it finds where
    a plant bought later or a probed unit goes. ``fleet`` is read, not
    copied: ``add`` places the rows it gained since.
    """

    def __init__(self, fleet: Fleet, year: int, carbon_price: float, demand_scale: float = 1.0,
                 priced: tuple[list[tuple[float, float]], np.ndarray] | None = None):
        self.fleet, s = fleet, fleet.scenario
        self.year = year
        self._demand = fleet.demand_mw * (s.demand_scale(year) * demand_scale)

        # The catalog, priced (unless ``priced`` holds it priced already): per technology
        # its (SRMC, emission factor), the head of the merit key of each of its offers, and
        # the price vector, each SRMC and then the loss-of-load price.
        self._pair, self.prices = priced or price_catalog(fleet, year, carbon_price)
        self.srmc = self.prices[:-1]

        # The build: the plants active in the market-year in merit order, by one stable
        # sort (the row breaks ties). Per offer its merit key, as a list, and its
        # catalog index (loss of load's, len(catalog), last), and the demand,
        # then each offer's MW.
        self._seen = len(fleet)  # the fleet rows looked at
        keys = [(*self._pair[k], plant_id) for k, plant_id in zip(fleet.tech, fleet.ids)]
        active = [row for row, (start, end) in enumerate(zip(fleet.commission, fleet.retirement))
                  if start <= year < end]
        order = sorted(active, key=keys.__getitem__)
        self._keys: list[tuple] = [keys[row] for row in order]
        rows = np.array(order, np.intp)
        tech = np.array(fleet.tech, np.intp)[rows]
        self._index = np.concatenate((tech, [len(fleet.catalog)]))
        mw = np.array(fleet.mw)[rows, None]
        self._stack = np.concatenate((self._demand[None], fleet.factors[tech] * mw,
                                      np.full((1, len(self._demand)), np.inf)))
        self._avail = self._stack[1:]

    def add(self) -> None:
        """Place each plant the fleet gained since the last look.

        Each one active in the market-year goes in after every offer of a
        merit key <= its own (one ``bisect_right``), where a stable sort of
        the fleet by merit key puts it. The key goes into the key list;
        only the catalog-index vector and the availability stack are
        spliced.
        """
        fleet = self.fleet
        for row in range(self._seen, len(fleet)):
            if not fleet.commission[row] <= self.year < fleet.retirement[row]:
                continue
            tech = fleet.tech[row]
            key = (*self._pair[tech], fleet.ids[row])
            at = bisect_right(self._keys, key)
            self._keys.insert(at, key)
            self._index = _spliced(self._index, at, [tech])
            self._stack = _spliced(self._stack, at + 1, (fleet.factors[tech] * fleet.mw[row])[None])
        self._avail = self._stack[1:]
        self._seen = len(fleet)

    def clear(self) -> YearResult:
        """The market-year cleared with the plants it holds, aggregated to yearly totals.

        Totals are added up segment by segment, each segment in merit order
        (the order ``clear_segment`` dispatches in), so they equal a
        segment-by-segment aggregation bit for bit (the 0 MWh of offers not
        dispatched add nothing) and ``energy_by_technology`` keeps its
        first-dispatch key order.
        """
        fleet, n = self.fleet, len(self._keys)
        left = np.subtract.accumulate(self._stack)
        # The loss-of-load offer, last, is dispatched exactly where the segment runs
        # short, so the marginal offer sets the price; -1 where there is no demand.
        last = (left <= 0.0).argmax(axis=0) - 1
        price = np.where(last >= 0, self.prices[self._index[last]], 0.0)
        unserved = np.where(left[n] > 0.0, left[n], 0.0)
        left, avail = left[:n].T, self._avail[:n].T  # segment-major, as the totals add up
        dispatched = (left > 0.0) & (avail > 0.0)
        energy = np.where(dispatched, np.where(avail < left, avail, left) * fleet.hours[:, None], 0.0)

        # ``np.add.at`` adds each technology's MWh in the order given, segment-major
        tech = self._index[:n]
        by_tech = np.zeros(len(fleet.catalog))
        np.add.at(by_tech, tech[None].repeat(len(energy), axis=0).ravel(), energy.ravel())
        by_tech = by_tech.tolist()
        # the offers ever dispatched, by where (segment-major) they first are
        first, ever = dispatched.argmax(axis=0), np.flatnonzero(dispatched.any(axis=0))
        order = ever[np.argsort(first[ever] * n + ever)]
        names = [tech.name for tech in fleet.catalog]
        energy_by_tech = {  # in first-dispatch order
            names[k]: by_tech[k] for k in dict.fromkeys(tech[order].tolist())
        }
        emissions = _total((energy * fleet.ef[tech]).ravel())
        served_mwh = _total(energy.ravel())

        seg_demand_mwh = self._demand * fleet.hours
        demand_mwh = _total(seg_demand_mwh)
        return YearResult(
            energy_by_technology=energy_by_tech,
            emissions_t=emissions,
            average_price=_total(price * seg_demand_mwh) / demand_mwh if demand_mwh > 0 else 0.0,
            unserved_mwh=_total(unserved * fleet.hours),
            carbon_intensity=emissions / served_mwh if served_mwh > 0 else 0.0,
        )

    def probe(self) -> tuple[np.ndarray, np.ndarray]:
        """Energy (MWh) and revenue (£) of one more unit of each catalog technology.

        Both arrays are in catalog order, the order of ``srmc``. Entry ``k``
        equals, with ``==``, the totals of a unit of catalog technology
        ``k`` with id ``CANDIDATE_ID`` over a segment-by-segment
        ``clear_segment`` of ``fleet + [unit]`` (0.0 when it is never
        dispatched). One call values the whole catalog, in two steps: the
        price-free ``units`` and ``price_units`` at the market's
        ``prices``. A caller that has a state's ``units`` already (see
        ``investment.Valuations``) prices them with ``price_units`` alone.
        """
        return price_units(*self.units(), self.prices)

    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (catalog technology, segment), one more unit's MWh and the offer setting its price.

        The offer is given by its catalog index: the unit's own where it is
        not short (its SRMC sets the price), ``len(catalog)`` where loss of
        load does. Both (technology x segment) arrays are free of prices:
        the bisections, the availability stack, the demand and the
        accumulates read the merit order and MW, not the SRMCs. So two
        markets of the same fleet rows and year whose catalogs rank their
        (SRMC, emission factor) pairs alike give equal arrays, bit for bit.

        A stable sort of ``fleet + [unit]`` puts a unit after every offer of
        a key <= its own, (SRMC, emission factor, ``CANDIDATE_ID``): one
        bisection of the key list. So the demand left before it is the
        market's own accumulate there. Where the unit is short (gives all
        it has), the fill goes on past it: one
        ``np.subtract.accumulate`` down an (offer x unit x segment) grid,
        from the demand left after each unit, finds the first offer after
        which nothing is left, which sets the price. Elsewhere the unit
        sets it. The unit is dispatched where the demand left and its MW
        are both > 0; elsewhere it takes 0 MWh, which adds nothing to the
        totals.
        """
        available = self.fleet.unit_mw
        places = [bisect_right(self._keys, (*pair, CANDIDATE_ID)) for pair in self._pair]
        at = np.array(places)
        remaining = np.subtract.accumulate(self._stack)[at]  # demand left before each unit
        # A unit's grid column: the demand left after it, then the offers after it up to
        # loss of load, which ``take`` repeats past the end (its -inf stays <= 0).
        steps = at + np.arange(-1, len(self._avail) - min(places))[:, None]
        grid = self._avail.take(steps, axis=0, mode="clip")
        np.subtract(remaining, available, out=grid[0])
        np.subtract.accumulate(grid, out=grid)
        # the offer after which nothing is left (row j of the grid follows offer
        # at - 1 + j); where the unit is not short, unread
        marginal = self._index.take((grid <= 0.0).argmax(axis=0) + steps[0][:, None], mode="clip")
        energy = np.multiply(np.maximum(np.minimum(available, remaining), 0.0), self.fleet.hours)
        return energy, np.where(available < remaining, marginal, self.fleet.own)


def price_units(energy: np.ndarray, index: np.ndarray, prices: np.ndarray):
    """The totals of ``MarketYear.units``: energy (MWh) and revenue (£) per catalog technology.

    ``prices`` holds each catalog technology's SRMC and then the
    loss-of-load price, so ``prices[index]`` is the price each unit earns
    per segment. Each total is added up strictly in order, segment by
    segment, as ``_total`` does; ``+ 0.0`` turns a -0.0 into 0.0.
    """
    totals = np.empty((2, *energy.shape))
    totals[0] = energy
    np.multiply(energy, prices.take(index), out=totals[1])
    energy, revenue = np.add.accumulate(totals, axis=-1, out=totals)[..., -1] + 0.0
    return energy, revenue


def _spliced(a: np.ndarray, at: int, rows) -> np.ndarray:
    """``a`` with ``rows`` put in before its row ``at``."""
    return np.concatenate((a[:at], rows, a[at:]))


def _total(x: np.ndarray):
    """``x`` added up strictly in order along its last axis, as Python floats.

    ``+ 0.0``: a Python sum starts from 0.0, so it never ends at -0.0.
    """
    return (np.add.accumulate(x, axis=-1)[..., -1] + 0.0).tolist() if x.size else 0.0
