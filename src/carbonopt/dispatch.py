"""Merit-order spot market clearing.

Every segment of every representative day is cleared independently:
plants bid their short-run marginal cost, bids are filled cheapest-first
and the last unit used sets a uniform clearing price. Demand is perfectly
price inelastic; when available capacity falls short, the gap is priced
at the scenario's loss-of-load price.

SRMC depends on the year and the carbon price, not on the segment, so a
market-year sorts its active plants once (``merit_order``) and walks that
order through every segment with ``_fill``, the one greedy fill loop
(``clear_segment`` runs it too).

``ProbeMarket`` serves the investment probes with a numpy kernel. It keeps
a fleet's market-year as a (segment x offer) availability matrix in merit
order and the demand each segment has left before each offer,
``np.subtract.accumulate`` over demand and offers. That accumulate
subtracts strictly left to right, the same operations in the same order
as ``_fill``'s ``remaining -= take``, so it is bit-exact.
``demand - np.cumsum(...)`` is not: it adds the offers up first and
subtracts once, ``d - (a + b)`` rather than ``(d - a) - b``, which rounds
differently (``np.sum`` even adds pairwise). A candidate unit is
bisected into the order; only the offers after it are accumulated again
to find the marginal offer. Plants bought later are inserted with
``ProbeMarket.add``. Both give what a fresh ``run_year`` over the fleet
plus the unit gives, bit for bit.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field

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
    energy_by_plant: dict[str, float] = field(default_factory=dict)
    revenue_by_plant: dict[str, float] = field(default_factory=dict)  # £ at clearing prices


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


def merit_key(plant: PowerPlant, cost: float):
    """Ascending SRMC; ties broken by lower emission factor, then plant id."""
    return (cost, plant.technology.emission_factor, plant.id)


def merit_order_key(bid: Bid):
    """The merit key of one bid."""
    return merit_key(bid.plant, bid.srmc)


def _fill(demand_mw: float, offers) -> tuple[float, list[tuple[int, float]], float]:
    """Greedy merit-order fill: the one loop every clearing path runs.

    ``offers`` yields (available MW, SRMC) pairs cheapest first. Returns
    the demand left over (<= 0 once met), the (offer position, MW taken)
    of every dispatched offer, and the SRMC of the last one (0 if none).
    """
    remaining = demand_mw
    taken: list[tuple[int, float]] = []
    marginal_srmc = 0.0
    for position, (available, cost) in enumerate(offers):
        if remaining <= 0.0:
            break
        if available <= 0.0:
            continue
        take = available if available < remaining else remaining
        remaining -= take
        taken.append((position, take))
        marginal_srmc = cost
    return remaining, taken, marginal_srmc


def _clearing_price(remaining: float, marginal_srmc: float, loss_of_load_price: float) -> float:
    """Loss-of-load price under shortage, else the marginal offer's SRMC."""
    return loss_of_load_price if remaining > 0.0 else marginal_srmc


def clear_segment(
    demand_mw: float, bids: list[Bid], loss_of_load_price: float
) -> SegmentClearing:
    """Fill demand greedily from the cheapest bids; the marginal unit sets the price.

    If demand exceeds total availability the shortfall is reported as
    unserved and the segment clears at the loss-of-load price.
    """
    ranked = sorted(bids, key=merit_order_key)
    remaining, taken, marginal = _fill(demand_mw, ((b.available_mw, b.srmc) for b in ranked))
    return SegmentClearing(
        dispatched=tuple((ranked[k].plant, mw) for k, mw in taken),
        clearing_price=_clearing_price(remaining, marginal, loss_of_load_price),
        unserved_mw=remaining if remaining > 0.0 else 0.0,
    )


@dataclass(frozen=True)
class MeritOrder:
    """The plants active in one market-year, sorted once by merit key."""

    plants: tuple[PowerPlant, ...]
    firm_offers: tuple[tuple[float, float], ...]  # (full capacity MW, SRMC) per plant
    weather: tuple[tuple[int, str], ...]  # (position, profile) of each intermittent plant

    def offers(self, segment: DaySegment) -> list[tuple[float, float]]:
        """(available MW, SRMC) per plant in ``segment``, cheapest first (see ``available_mw``)."""
        offers = list(self.firm_offers)
        for k, profile in self.weather:
            capacity, cost = offers[k]
            offers[k] = (capacity * segment.capacity_factor(profile), cost)
        return offers


def merit_order(
    fleet: list[PowerPlant], year: int, carbon_price: float, s: Scenario
) -> MeritOrder:
    """Sort the plants of ``fleet`` active in ``year`` by merit key (stable in fleet order)."""
    active = [p for p in fleet if p.active_in(year)]
    cost_of = srmc_by_technology({p.technology for p in active}, year, carbon_price, s)
    ranked = sorted(
        ((merit_key(p, cost_of[p.technology.name]), p) for p in active),
        key=operator.itemgetter(0),
    )
    plants = tuple(p for _, p in ranked)
    return MeritOrder(
        plants=plants,
        firm_offers=tuple(
            (p.technology.capacity_mw * p.unit_count, k[0]) for k, p in ranked
        ),
        weather=tuple(
            (k, p.technology.weather_profile)
            for k, p in enumerate(plants)
            if p.technology.is_intermittent
        ),
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
    order = merit_order(fleet, year, carbon_price, s)
    scale = s.demand_scale(year) * demand_scale

    energy_by_tech: dict[str, float] = {}
    energy_by_plant: dict[str, float] = {}
    revenue_by_plant: dict[str, float] = {}
    emissions = 0.0
    unserved_mwh = 0.0
    price_weighted = 0.0
    demand_mwh = 0.0
    served_mwh = 0.0

    for day in s.representative_days:
        hours_weight = day.weight_days
        for segment in day.segments:
            demand = segment.demand_mw * scale
            remaining, taken, marginal = _fill(demand, order.offers(segment))
            price = _clearing_price(remaining, marginal, s.loss_of_load_price)
            seg_hours = segment.duration_hours * hours_weight
            for k, mw in taken:
                plant = order.plants[k]
                energy = mw * seg_hours
                tech = plant.technology
                energy_by_tech[tech.name] = energy_by_tech.get(tech.name, 0.0) + energy
                energy_by_plant[plant.id] = energy_by_plant.get(plant.id, 0.0) + energy
                revenue_by_plant[plant.id] = revenue_by_plant.get(plant.id, 0.0) + energy * price
                emissions += energy * tech.emission_factor
                served_mwh += energy
            unserved_mwh += (remaining if remaining > 0.0 else 0.0) * seg_hours
            seg_demand_mwh = demand * seg_hours
            price_weighted += price * seg_demand_mwh
            demand_mwh += seg_demand_mwh

    return YearResult(
        energy_by_technology=energy_by_tech,
        emissions_t=emissions,
        average_price=price_weighted / demand_mwh if demand_mwh > 0 else 0.0,
        unserved_mwh=unserved_mwh,
        carbon_intensity=emissions / served_mwh if served_mwh > 0 else 0.0,
        energy_by_plant=energy_by_plant,
        revenue_by_plant=revenue_by_plant,
    )


class ProbeMarket:
    """A fleet's market-year that prices any one added unit, grown plant by plant.

    It keeps a (segment x offer) availability matrix in merit order,
    closed by a loss-of-load offer of unlimited MW at the loss-of-load
    price, and ``left``: the demand each segment has left before each
    offer. ``left`` is ``np.subtract.accumulate`` over the segment's
    demand and its offers, which subtracts strictly left to right, so it
    equals ``_fill``'s running ``remaining`` bit for bit up to the
    marginal offer (an offer that is not marginal gives all its MW, and
    subtracting 0 MW changes nothing). A unit bisected in at position
    ``p`` therefore sees ``left[:, p]``, and only the offers after ``p``
    are accumulated again.
    """

    def __init__(self, fleet: list[PowerPlant], year: int, carbon_price: float, s: Scenario):
        self.year = year
        self.carbon_price = carbon_price
        self._s = s
        scale = s.demand_scale(year)
        days = [(day, segment) for day in s.representative_days for segment in day.segments]
        self._segments = [segment for _, segment in days]
        self._demand = np.array([[segment.demand_mw * scale] for _, segment in days])
        self._hours = np.array([segment.duration_hours * day.weight_days for day, segment in days])
        self._factors: dict[str | None, np.ndarray] = {}
        self._keys: list[tuple] = []  # ascending merit keys of the plant offers
        self._cost = np.array([s.loss_of_load_price])  # SRMC per offer, loss of load last
        self._avail = np.full((len(days), 1), np.inf)
        self.add(fleet)

    def _weather(self, tech: Technology) -> np.ndarray:
        """Per-segment availability factor: the weather profile's for intermittents, else 1."""
        profile = tech.weather_profile if tech.is_intermittent else None
        factors = self._factors.get(profile)
        if factors is None:
            factors = self._factors[profile] = np.array(
                [1.0 if profile is None else seg.capacity_factor(profile) for seg in self._segments]
            )
        return factors

    def add(self, plants: list[PowerPlant]) -> None:
        """Add the plants active in the market-year, as if appended to the fleet.

        Equal keys keep their order, so the offers end up in the order a
        stable sort of ``fleet + plants`` gives (see ``merit_order``).
        """
        active = [p for p in plants if p.active_in(self.year)]
        if active:
            cost_of = srmc_by_technology(
                {p.technology for p in active}, self.year, self.carbon_price, self._s
            )
            keys = self._keys + [merit_key(p, cost_of[p.technology.name]) for p in active]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            n = len(self._keys)
            capacity = np.array([p.technology.capacity_mw * p.unit_count for p in active])
            added = np.column_stack([self._weather(p.technology) for p in active]) * capacity
            self._keys = [keys[i] for i in order]
            # [:, n:] is the loss-of-load offer, which stays last
            cost = np.append(self._cost[:n], [k[0] for k in keys[n:]])[order]
            avail = np.hstack((self._avail[:, :n], added))[:, order]
            self._cost = np.append(cost, self._cost[n:])
            self._avail = np.hstack((avail, self._avail[:, n:]))
        self._left = np.subtract.accumulate(np.hstack((self._demand, self._avail)), axis=1)

    def probe(self, unit: PowerPlant) -> tuple[float, float]:
        """Energy (MWh) and revenue (£) of ``unit`` added to the market's fleet.

        Equal, with ``==``, to ``energy_by_plant`` / ``revenue_by_plant``
        of ``run_year(fleet + [unit], ...)`` for the unit (0.0 when it is
        never dispatched).
        """
        if not unit.active_in(self.year):
            return 0.0, 0.0
        tech = unit.technology
        cost = srmc_by_technology([tech], self.year, self.carbon_price, self._s)[tech.name]
        # a stable sort of fleet + [unit] puts the unit after every equal key
        at = bisect_right(self._keys, merit_key(unit, cost))
        remaining = self._left[:, at]
        available = tech.capacity_mw * unit.unit_count * self._weather(tech)
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
