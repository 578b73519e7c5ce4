"""Merit-order spot market clearing.

Every segment of every representative day is cleared independently:
plants bid their short-run marginal cost, bids are filled cheapest-first
and the last unit used sets a uniform clearing price. Demand is perfectly
price inelastic; when available capacity falls short, the gap is priced
at the scenario's loss-of-load price.

One kernel, ``MarketYear``, clears every production market: the spot
market of each simulated year (``run_year``) and the investment probes'
future markets. SRMC depends on the year and the carbon price, not on
the segment, so ``MarketYear.offer`` prices a technology once per
market-year, and a market-year sorts its plants once and keeps them as a
(segment x offer) availability matrix in merit order, plus the demand
each segment has left before each offer, ``np.subtract.accumulate`` over
demand and offers. That accumulate subtracts strictly left to right, the
same operations in the same order as the greedy fill's
``remaining -= take``, so it is bit-exact. ``demand - np.cumsum(...)``
is not: it adds the offers up first and subtracts once, ``d - (a + b)``
rather than ``(d - a) - b``, which rounds differently. Yearly totals are
likewise added up in Python floats, segment by segment and in merit
order within a segment, which is the order a segment-by-segment fill
produces them in; ``np.sum`` would add pairwise and round differently.
``MarketYear.probe`` prices one more unit of a technology: the unit is
bisected into the order and only the offers after it are accumulated
again. Plants bought later are inserted with ``MarketYear.add``.

``Bid``, ``build_bids`` and ``clear_segment`` clear one segment the
plain way, bid by bid; the tests hold the kernel to them with ``==``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .scenario import DaySegment, PowerPlant, Scenario, Technology


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


def srmc_by_technology(
    technologies, year: int, carbon_price: float, s: Scenario
) -> dict[str, float]:
    """SRMC per technology name for one year; fails if a fuel series is absent."""
    out: dict[str, float] = {}
    for tech in technologies:
        fuel_price = 0.0
        if tech.fuel_kind:
            try:
                fuel_price = s.fuel_price(tech.fuel_kind, year)
            except KeyError as exc:
                raise ConfigurationError(str(exc)) from exc
        out[tech.name] = srmc(tech, fuel_price, carbon_price)
    return out


def available_mw(plant: PowerPlant, segment: DaySegment) -> float:
    """Full capacity, derated by the segment's weather for intermittents."""
    tech = plant.technology
    available = tech.capacity_mw * plant.unit_count
    if tech.is_intermittent:
        available *= segment.capacity_factor(tech.weather_profile)
    return available


def build_bids(
    fleet: list[PowerPlant],
    year: int,
    segment: DaySegment,
    carbon_price: float,
    s: Scenario,
) -> list[Bid]:
    """One bid per plant at its available MW in ``segment``.

    Callers are expected to pass a fleet already filtered to plants active
    in ``year``.
    """
    srmc_by_tech = srmc_by_technology({p.technology for p in fleet}, year, carbon_price, s)
    return [
        Bid(
            plant=plant,
            available_mw=available_mw(plant, segment),
            srmc=srmc_by_tech[plant.technology.name],
        )
        for plant in fleet
    ]


# The plant id a probed unit sorts by among offers of equal SRMC and emission factor.
CANDIDATE_ID = "__candidate__"


def merit_key(plant: PowerPlant, cost: float):
    """Ascending SRMC; ties broken by lower emission factor, then plant id."""
    return (cost, plant.technology.emission_factor, plant.id)


def merit_order_key(bid: Bid):
    """The merit key of one bid."""
    return merit_key(bid.plant, bid.srmc)


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
    fleet: list[PowerPlant],
    year: int,
    carbon_price: float,
    s: Scenario,
    demand_scale: float = 1.0,
) -> YearResult:
    """Clear every segment of every representative day and aggregate to yearly totals.

    Segment demand is the scenario demand scaled by cumulative growth to
    ``year`` (times an optional extra factor, used by the demand-noise
    hook). Energies are weighted by segment duration and day weight so
    they sum to a full year.
    """
    return MarketYear(fleet, year, carbon_price, s, demand_scale).clear()


class MarketYear:
    """A fleet's market-year: cleared as a whole, or pricing any one added unit.

    It keeps a (segment x offer) availability matrix in merit order,
    closed by a loss-of-load offer of unlimited MW at the loss-of-load
    price, and ``left``: the demand each segment has left before each
    offer. ``left`` is ``np.subtract.accumulate`` over the segment's
    demand and its offers, which subtracts strictly left to right, so it
    equals the greedy fill's running ``remaining`` (see ``clear_segment``)
    bit for bit up to the marginal offer (an offer that is not marginal
    gives all its MW, and subtracting 0 MW changes nothing). Past the
    marginal offer ``left`` is <= 0, so an offer is dispatched exactly
    where the demand left before it and its own MW are both > 0.
    """

    def __init__(
        self,
        fleet: list[PowerPlant],
        year: int,
        carbon_price: float,
        s: Scenario,
        demand_scale: float = 1.0,
    ):
        self.year = year
        self.carbon_price = carbon_price
        self._s = s
        scale = s.demand_scale(year) * demand_scale
        days = [(day, segment) for day in s.representative_days for segment in day.segments]
        self._segments = [segment for _, segment in days]
        self._demand = np.array([[segment.demand_mw * scale] for _, segment in days])
        self._hours = np.array([segment.duration_hours * day.weight_days for day, segment in days])
        self._offers: dict[str, tuple[float, np.ndarray]] = {}
        self._plants: list[PowerPlant] = []  # the plant offers, in merit order
        self._keys: list[tuple] = []  # their ascending merit keys
        self._cost = np.array([s.loss_of_load_price])  # SRMC per offer, loss of load last
        self._avail = np.full((len(days), 1), np.inf)
        self.add(fleet)

    def offer(self, tech: Technology) -> tuple[float, np.ndarray]:
        """SRMC and per-segment availability factors of one unit of ``tech`` in the market-year.

        Worked out once per technology name (names are unique in a scenario); the
        factors are the weather profile's for an intermittent technology, else 1.
        """
        offer = self._offers.get(tech.name)
        if offer is None:
            cost = srmc_by_technology([tech], self.year, self.carbon_price, self._s)[tech.name]
            factors = np.array([
                seg.capacity_factor(tech.weather_profile) if tech.is_intermittent else 1.0
                for seg in self._segments
            ])
            offer = self._offers[tech.name] = (cost, factors)
        return offer

    def add(self, plants: list[PowerPlant]) -> None:
        """Add the plants active in the market-year, as if appended to the fleet.

        Equal keys keep their order, so the offers end up in the order a
        stable sort of ``fleet + plants`` by merit key gives.
        """
        active = [p for p in plants if p.active_in(self.year)]
        if active:
            offers = [self.offer(p.technology) for p in active]
            keys = self._keys + [merit_key(p, cost) for p, (cost, _) in zip(active, offers)]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            n = len(self._keys)
            capacity = np.array([p.technology.capacity_mw * p.unit_count for p in active])
            added = np.column_stack([factors for _, factors in offers]) * capacity
            plants = self._plants + active
            self._plants = [plants[i] for i in order]
            self._keys = [keys[i] for i in order]
            # [:, n:] is the loss-of-load offer, which stays last
            cost = np.append(self._cost[:n], [k[0] for k in keys[n:]])[order]
            avail = np.hstack((self._avail[:, :n], added))[:, order]
            self._cost = np.append(cost, self._cost[n:])
            self._avail = np.hstack((avail, self._avail[:, n:]))
        self._left = np.subtract.accumulate(np.hstack((self._demand, self._avail)), axis=1)

    def clear(self) -> YearResult:
        """The market-year cleared with the plants it holds, aggregated to yearly totals.

        Totals are added up in Python floats segment by segment, each
        segment in merit order (the order ``clear_segment`` dispatches
        in), so they equal a segment-by-segment aggregation bit for bit
        and ``energy_by_technology`` keeps its first-dispatch key order.
        """
        n = len(self._plants)
        # The loss-of-load offer, last, is dispatched exactly where the segment runs
        # short, so the last offer dispatched in a segment sets its price.
        dispatched = (self._left[:, :-1] > 0.0) & (self._avail > 0.0)
        last = np.max(np.where(dispatched, np.arange(n + 1), -1), axis=1)
        price = np.where(last >= 0, self._cost[last], 0.0)  # 0 where there is no demand
        unserved = np.where(dispatched[:, n], self._left[:, n], 0.0)
        left, avail = self._left[:, :n], self._avail[:, :n]
        take = np.where(avail < left, avail, left)

        energy_by_tech: dict[str, float] = {}
        emissions = served_mwh = 0.0
        # row-major: segment by segment, each in merit order
        rows, cols = np.nonzero(dispatched[:, :n])
        for k, energy in zip(cols.tolist(), (take[rows, cols] * self._hours[rows]).tolist()):
            tech = self._plants[k].technology
            energy_by_tech[tech.name] = energy_by_tech.get(tech.name, 0.0) + energy
            emissions += energy * tech.emission_factor
            served_mwh += energy

        unserved_mwh = price_weighted = demand_mwh = 0.0
        seg_demand_mwh = self._demand[:, 0] * self._hours
        for seg_unserved, seg_weighted, seg_mwh in zip(
            (unserved * self._hours).tolist(),
            (price * seg_demand_mwh).tolist(),
            seg_demand_mwh.tolist(),
        ):
            unserved_mwh += seg_unserved
            price_weighted += seg_weighted
            demand_mwh += seg_mwh

        return YearResult(
            energy_by_technology=energy_by_tech,
            emissions_t=emissions,
            average_price=price_weighted / demand_mwh if demand_mwh > 0 else 0.0,
            unserved_mwh=unserved_mwh,
            carbon_intensity=emissions / served_mwh if served_mwh > 0 else 0.0,
        )

    def probe(self, tech: Technology) -> tuple[float, float]:
        """Energy (MWh) and revenue (£) of one more unit of ``tech`` in the market-year.

        Equal, with ``==``, to the totals of a unit with id ``CANDIDATE_ID``
        over a segment-by-segment ``clear_segment`` of ``fleet + [unit]``
        (0.0 when it is never dispatched). Only the offers after the unit
        are accumulated again.
        """
        cost, factors = self.offer(tech)
        # a stable sort of fleet + [unit] puts the unit after every equal key
        at = bisect_right(self._keys, (cost, tech.emission_factor, CANDIDATE_ID))
        remaining = self._left[:, at]
        available = tech.capacity_mw * factors
        dispatched = (remaining > 0.0) & (available > 0.0)
        if not dispatched.any():
            return 0.0, 0.0  # the fill ends before the unit, or passes it by, everywhere
        short = available < remaining  # the unit gives all it has; an offer after it sets the price
        take = np.where(short, available, remaining)
        tail = self._avail[:, at:]
        left = np.subtract.accumulate(np.hstack(((remaining - take)[:, None], tail)), axis=1)
        # Where the unit is short, the first offer after it that meets what is left is
        # marginal (what is left before it is > 0, so it has MW to give); the
        # loss-of-load offer always qualifies.
        marginal = np.argmax(tail >= left[:, :-1], axis=1)
        price = np.where(short, self._cost[at:][marginal], cost)
        energy = revenue = 0.0
        for seg_energy, seg_price in zip(
            (take * self._hours)[dispatched].tolist(), price[dispatched].tolist()
        ):
            energy += seg_energy
            revenue += seg_energy * seg_price
        return energy, revenue
