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
market-year. A market-year keeps its plants as an (offer x segment)
availability matrix in merit order; plants bought later go in with one
``np.insert`` per array at their ``bisect_right`` positions. The demand
each segment has left before each offer is ``np.subtract.accumulate``
over demand and offers, worked out when the market clears (probe
markets never do). That accumulate subtracts strictly in order, the
same operations in the same order as the greedy fill's
``remaining -= take``, so it is bit-exact. ``demand - np.cumsum(...)``
is not: it adds the offers up first and subtracts once, ``d - (a + b)``
rather than ``(d - a) - b``, which rounds differently. Totals are
likewise added strictly in order (``_total``), segment by segment and
in merit order within a segment, the order a segment-by-segment fill
produces them in; ``np.sum`` would add pairwise and round differently.
``MarketYear.probe_all`` prices one more unit of each catalog technology
in one pass: an (offer x technology x segment) grid with each unit at
its ``bisect_right`` position, and one accumulate down it.

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
    """A fleet's market-year: cleared as a whole, or pricing one added unit per technology.

    It keeps an (offer x segment) availability matrix in merit order,
    closed by a loss-of-load offer of unlimited MW at the loss-of-load
    price. The demand each segment has left before each offer,
    ``np.subtract.accumulate`` over its demand and offers, equals the
    greedy fill's running ``remaining`` (see ``clear_segment``) bit for
    bit up to the marginal offer (an offer that is not marginal gives all
    its MW, and subtracting 0 MW changes nothing). It never rises, and
    past the marginal offer it is <= 0, so an offer is dispatched exactly
    where the demand left before it and its own MW are both > 0, and the
    marginal offer is the one after which it is first <= 0.
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
        self._demand = np.array([segment.demand_mw * scale for _, segment in days])
        self._hours = np.array([segment.duration_hours * day.weight_days for day, segment in days])
        self._offers: dict[str, tuple[float, np.ndarray]] = {}
        self._plants: list[PowerPlant] = []  # the plant offers, in merit order
        self._keys: list[tuple] = []  # their ascending merit keys
        self._cost = np.array([s.loss_of_load_price])  # SRMC per offer, loss of load last
        self._avail = np.full((1, len(days)), np.inf)
        self._batch: dict[str, tuple[float, float]] | None = None  # probes of the catalog
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

        Sorted stably by merit key, each goes in after every offer of an equal
        key (``bisect_right``), so the offers end up in the order a stable
        sort of ``fleet + plants`` gives. Probes priced before are dropped.
        """
        active = [p for p in plants if p.active_in(self.year)]
        if not active:
            return
        self._batch = None
        offers = [self.offer(p.technology) for p in active]
        keys = [merit_key(p, cost) for p, (cost, _) in zip(active, offers)]
        order = sorted(range(len(active)), key=keys.__getitem__)
        at = [bisect_right(self._keys, keys[i]) for i in order]
        for shift, (i, k) in enumerate(zip(order, at)):  # each insert moves the later ones on
            self._keys.insert(k + shift, keys[i])
            self._plants.insert(k + shift, active[i])
        factors = np.array([offers[i][1] for i in order])
        capacity = [active[i].technology.capacity_mw * active[i].unit_count for i in order]
        # at <= the plant offers held, so the loss-of-load offer stays last
        self._cost = np.insert(self._cost, at, [keys[i][0] for i in order])
        self._avail = np.insert(self._avail, at, factors * np.array(capacity)[:, None], axis=0)

    def clear(self) -> YearResult:
        """The market-year cleared with the plants it holds, aggregated to yearly totals.

        Totals are added up segment by segment, each segment in merit order
        (the order ``clear_segment`` dispatches in), so they equal a
        segment-by-segment aggregation bit for bit and
        ``energy_by_technology`` keeps its first-dispatch key order.
        """
        n = len(self._plants)
        left = np.subtract.accumulate(np.vstack((self._demand, self._avail)), axis=0)
        # The loss-of-load offer, last, is dispatched exactly where the segment runs
        # short, so the marginal offer sets the price; -1 where there is no demand.
        last = np.count_nonzero(left > 0.0, axis=0) - 1
        price = np.where(last >= 0, self._cost[last], 0.0)
        unserved = np.where(left[n] > 0.0, left[n], 0.0)
        left, avail = left[:n].T, self._avail[:n].T  # segment-major, as the totals add up
        segments, offers = np.nonzero((left > 0.0) & (avail > 0.0))
        energy = np.where(avail < left, avail, left)[segments, offers] * self._hours[segments]

        code: dict[str, int] = {}  # technology name -> index
        tech_of = np.array([code.setdefault(p.technology.name, len(code)) for p in self._plants])
        factor = np.array([p.technology.emission_factor for p in self._plants])[offers]
        names, tech_of = list(code), tech_of[offers]
        energy_by_tech = {  # in first-dispatch order
            names[k]: _total(energy[tech_of == k]) for k in dict.fromkeys(tech_of.tolist())
        }
        emissions, served_mwh = _total(energy * factor), _total(energy)

        seg_demand_mwh = self._demand * self._hours
        demand_mwh = _total(seg_demand_mwh)
        return YearResult(
            energy_by_technology=energy_by_tech,
            emissions_t=emissions,
            average_price=_total(price * seg_demand_mwh) / demand_mwh if demand_mwh > 0 else 0.0,
            unserved_mwh=_total(unserved * self._hours),
            carbon_intensity=emissions / served_mwh if served_mwh > 0 else 0.0,
        )

    def probe(self, tech: Technology) -> tuple[float, float]:
        """Energy (MWh) and revenue (£) of one more unit of ``tech`` in the market-year.

        Equal, with ``==``, to the totals of a unit with id ``CANDIDATE_ID``
        over a segment-by-segment ``clear_segment`` of ``fleet + [unit]``
        (0.0 when it is never dispatched). ``tech`` is one of the scenario's
        catalog: the first probe after a build or an ``add`` prices the
        whole catalog with ``probe_all``, and each probe reads its own.
        """
        if self._batch is None:
            self._batch = self.probe_all(self._s.technologies)
        return self._batch[tech.name]

    def probe_all(self, techs) -> dict[str, tuple[float, float]]:
        """``probe`` of each of ``techs``, by name, in one (offer x tech x segment) pass.

        A technology's column of the grid is the demand, then the offers
        in merit order with one unit of it where a stable sort of
        ``fleet + [unit]`` puts it. One ``np.subtract.accumulate`` down the
        grid gives the demand left before each offer, up to the unit
        exactly as ``clear`` has it; where the unit is short (gives all it
        has) it goes on as the fill does, and the first offer after which
        nothing is left sets the price. Elsewhere the unit's SRMC does.
        """
        offers = [self.offer(tech) for tech in techs]
        cost = np.array([c for c, _ in offers])
        # a stable sort of fleet + [unit] puts the unit after every equal key
        at = np.array([
            bisect_right(self._keys, (c, tech.emission_factor, CANDIDATE_ID))
            for tech, (c, _) in zip(techs, offers)
        ])
        available = np.array([f * tech.capacity_mw for tech, (_, f) in zip(techs, offers)])
        # A unit's grid column takes rows 0..at of [demand; offers], then its own row
        # (stacked after the offers), then the rest: grid row r > at + 1 is row r - 1.
        rows, cols = np.arange(len(self._avail) + 2)[:, None], np.arange(len(techs))
        pick = rows - (rows > at + 1)
        pick[at + 1, cols] = len(rows) - 1 + cols
        left = np.subtract.accumulate(np.vstack((self._demand, self._avail, available))[pick])
        remaining = left[at, cols]  # (tech x segment) demand left before the unit
        dispatched = (remaining > 0.0) & (available > 0.0)
        short = available < remaining
        take = np.where(short, available, remaining)
        # Where the unit is short, what is left stays > 0 down to the row before the
        # price-setting offer's (loss of load's at the latest), so that offer is grid
        # row count: offer count - 2, past the demand and the unit. Elsewhere unread.
        marginal = self._cost.take(np.count_nonzero(left > 0.0, axis=0) - 2, mode="clip")
        energy = np.where(dispatched, take * self._hours, 0.0)
        revenue = energy * np.where(short, marginal, cost[:, None])
        return dict(zip((tech.name for tech in techs), zip(_total(energy), _total(revenue))))


def _total(x: np.ndarray):
    """``x`` added up strictly in order along its last axis, as Python floats.

    ``+ 0.0``: a Python sum starts from 0.0, so it never ends at -0.0.
    """
    return (np.add.accumulate(x, axis=-1)[..., -1] + 0.0).tolist() if x.size else 0.0
