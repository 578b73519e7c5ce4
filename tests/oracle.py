"""Plain oracles the tests hold the market kernel, the whole run and the optimizer to
with ``==``.

Each market oracle clears every segment bit by bit with ``build_bids`` and
``clear_segment`` and adds totals up in the order a segment-by-segment
fill produces them. ``reference_simulation`` runs the yearly loop the same
way: every candidate unit is valued by clearing ``fleet + [candidate]``
from scratch, with no market shared between states.

The optimizer oracles are pairwise Python loops: ``dominates`` and the
front sorts built on it, per-member crowding, the selection cut built on
those two, and the child loop that draws and varies one pair at a time.
``reference_generational_distance`` scores a whole front in one (points x
reference x objectives) tensor.
"""

from __future__ import annotations

import math

import numpy as np

from carbonopt.dispatch import CANDIDATE_ID, Bid, YearResult, _fuel_price, clear_segment, srmc
from carbonopt.investment import REVENUE_PROBE_YEARS, fit_carbon_forecast, npv
from carbonopt.scenario import PowerPlant
from carbonopt.simulation import Event, SimulationResult


def active_in(plant, year):
    """Whether ``plant`` runs in ``year``: commissioned by then and not yet retired."""
    return plant.commission_year <= year < plant.retirement_year


def available_mw(plant, segment):
    """Full capacity, derated by the segment's weather for intermittents."""
    tech = plant.technology
    available = tech.capacity_mw * plant.unit_count
    if tech.is_intermittent:
        available *= segment.capacity_factor(tech.weather_profile)
    return available


def build_bids(fleet, year, segment, carbon_price, s):
    """One bid per plant at its available MW in ``segment``.

    Callers are expected to pass a fleet already filtered to plants active
    in ``year``.
    """
    return [
        Bid(
            plant=plant,
            available_mw=available_mw(plant, segment),
            srmc=srmc(plant.technology, _fuel_price(plant.technology, year, s), carbon_price),
        )
        for plant in fleet
    ]


def reference_segments(fleet, year, carbon_price, s, demand_scale=1.0):
    """(demand MW, hours, clearing) of every segment of one year, cleared by the oracle."""
    active = [p for p in fleet if active_in(p, year)]
    scale = s.demand_scale(year) * demand_scale
    for day in s.representative_days:
        for segment in day.segments:
            demand = segment.demand_mw * scale
            bids = build_bids(active, year, segment, carbon_price, s)
            yield demand, segment.duration_hours * day.weight_days, clear_segment(
                demand, bids, s.loss_of_load_price
            )


def reference_probe(fleet, unit, year, carbon_price, s):
    """The unit's energy and revenue in the oracle's clearing of ``fleet + [unit]``.

    The unit is told apart by identity: a fleet plant may share its id.
    """
    energy = revenue = 0.0
    for _, hours, clearing in reference_segments(fleet + [unit], year, carbon_price, s):
        for plant, mw in clearing.dispatched:
            if plant is unit:
                e = mw * hours
                energy, revenue = energy + e, revenue + e * clearing.clearing_price
    return energy, revenue


def reference_year(fleet, year, carbon_price, s, demand_scale=1.0):
    """The yearly totals of the oracle's clearings, added up segment by segment in merit order."""
    by_tech = {}
    emissions = served = unserved = price_weighted = demand_mwh = 0.0
    for demand, hours, clearing in reference_segments(fleet, year, carbon_price, s, demand_scale):
        for plant, mw in clearing.dispatched:
            e = mw * hours
            tech = plant.technology
            by_tech[tech.name] = by_tech.get(tech.name, 0.0) + e
            emissions += e * tech.emission_factor
            served += e
        unserved += clearing.unserved_mw * hours
        seg_demand_mwh = demand * hours
        price_weighted += clearing.clearing_price * seg_demand_mwh
        demand_mwh += seg_demand_mwh
    return YearResult(
        energy_by_technology=by_tech,
        emissions_t=emissions,
        average_price=price_weighted / demand_mwh if demand_mwh > 0 else 0.0,
        unserved_mwh=unserved,
        carbon_intensity=emissions / served if served > 0 else 0.0,
    )


def candidates(s, year):
    """One probe unit per catalog technology, commissioned in ``year``."""
    return [
        PowerPlant(id=CANDIDATE_ID, technology=tech, owner="probe", commission_year=year, unit_count=1)
        for tech in s.technologies
    ]


def reference_yearly_revenue(tech, fleet, future_year, carbon_price, s):
    """A unit's net yearly cash flow in the oracle's clearing of ``fleet + [unit]``."""
    (unit,) = (u for u in candidates(s, future_year) if u.technology is tech)
    energy, revenue = reference_probe(fleet, unit, future_year, carbon_price, s)
    fuel_price = s.fuel_price(tech.fuel_kind, future_year) if tech.fuel_kind else 0.0
    return revenue - energy * srmc(tech, fuel_price, carbon_price) - tech.fixed_om * tech.capacity_mw


def reference_simulation(s, policy, seed):
    """``run_simulation`` as a plain loop over years, companies and purchases.

    Each company buys the affordable unit of highest positive NPV, again and
    again; every unit is valued afresh from ``reference_probe`` in the market
    ten years ahead at the forecast carbon price.
    """
    fleet = list(s.initial_fleet)
    budgets = {g.id: g.budget for g in s.gencos}
    events, history, per_year = [], [], []
    rng = np.random.default_rng(seed) if s.demand_noise_std > 0 else None

    def plant_event(year, kind, plant):
        return Event(year, kind, plant.owner, plant.technology.name, plant.id, plant.unit_count)

    for year_index in range(1, s.horizon_years + 1):
        year = s.start_year + year_index - 1
        events += [plant_event(year, "retire", p) for p in fleet if p.retirement_year == year]
        tax = policy.price_at(year_index)
        history.append((year, tax))
        future_year = year + REVENUE_PROBE_YEARS
        carbon_price = fit_carbon_forecast(history).predict(future_year)
        for genco in sorted(budgets):
            bought = 0
            while True:
                best, best_value = None, 0.0
                for tech in s.technologies:
                    yearly = reference_yearly_revenue(tech, fleet, future_year, carbon_price, s)
                    capital = tech.capital_cost * tech.capacity_mw
                    value = npv([-capital] + [yearly] * tech.lifetime_years, s.discount_rate)
                    if capital <= budgets[genco] and value > 0.0 and value > best_value:
                        best, best_value = tech, value
                if best is None:
                    break
                bought += 1
                capital = best.capital_cost * best.capacity_mw
                plant = PowerPlant(f"{genco}:{best.name}:{year}:{bought}", best, genco,
                                   year + best.construction_lag_years, 1)
                budgets[genco] -= capital
                fleet.append(plant)
                events.append(Event(year, "invest", genco, best.name, plant.id, 1, capital, best_value))
        events += [plant_event(year, "commission", p) for p in fleet if p.commission_year == year]
        noise = 1.0 if rng is None else max(0.0, 1.0 + rng.normal(0.0, s.demand_noise_std))
        per_year.append(reference_year(fleet, year, tax, s, noise))

    final = per_year[-1]
    return SimulationResult(
        per_year=tuple(per_year),
        carbon_prices=tuple(tax for _, tax in history),
        objective_price=final.average_price,
        objective_rci=final.carbon_intensity / s.base_carbon_intensity if final.emissions_t else 0.0,
        events=tuple(events),
    )


def dominates(a, b) -> bool:
    """True iff a is no worse than b everywhere and strictly better somewhere."""
    if len(a) != len(b):
        raise ValueError(f"objective length mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def brute_force_fronts(objectives):
    """Peel non-dominated sets by pairwise checks; independent of the fast sort."""
    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(objectives[j], objectives[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def reference_generational_distance(points, reference):
    """Generational distance from one whole-front difference tensor: the oracle for the
    blocked score."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    reference = np.asarray(reference, dtype=float)
    diffs = points[:, None, :] - reference[None, :, :]
    nearest = np.sqrt((diffs**2).sum(axis=2)).min(axis=1)
    return float(np.sqrt((nearest**2).sum()) / nearest.shape[0])


def reference_sort(objs):
    """The pairwise double-loop sort with a Python peel: the oracle for front member order."""
    n = len(objs)
    dominated = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objs[i], objs[j]):
                dominated[i].append(j)
                counts[j] += 1
            elif dominates(objs[j], objs[i]):
                dominated[j].append(i)
                counts[i] += 1
    fronts = []
    current = [i for i in range(n) if counts[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def reference_crowding(front):
    """The per-member crowding loop over Python floats: the oracle for crowding_distance."""
    front = [tuple(map(float, row)) for row in front]
    n = len(front)
    if n <= 2:
        return [math.inf] * n
    dists = [0.0] * n
    for m in range(len(front[0])):
        order = sorted(range(n), key=lambda k: front[k][m])
        dists[order[0]] = math.inf
        dists[order[-1]] = math.inf
        values = [row[m] for row in front]
        if values[order[-1]] == values[order[0]]:
            continue
        if values[order[-1]] - values[order[0]] == math.inf:  # the range overflows: halve
            values = [v / 2 for v in values]
        span = values[order[-1]] - values[order[0]]
        for pos in range(1, n - 1):
            k = order[pos]
            if dists[k] != math.inf:
                dists[k] += (values[order[pos + 1]] - values[order[pos - 1]]) / span
    return dists


def reference_select(objs, n):
    """The best ``n`` rows front by front from ``reference_sort`` and ``reference_crowding``,
    the overflowing front cut by (-crowding, row): the oracle for ``_select``. Returns the
    chosen rows, and every row's rank and crowding (0 beyond the fronts used), as lists."""
    ranks, crowding, chosen = [0] * len(objs), [0.0] * len(objs), []
    for rank, front in enumerate(reference_sort(objs), start=1):
        room = n - len(chosen)
        if room == 0:
            break
        for i, dist in zip(front, reference_crowding([objs[i] for i in front])):
            ranks[i], crowding[i] = rank, dist
        if len(front) > room:
            front = sorted(front, key=lambda i: (-crowding[i], i))[:room]
        chosen += front
    return chosen, ranks, crowding


def reference_tournament(ranks, crowding, rng):
    """The tournament with one ``integers`` draw of size 2: the oracle for two scalar draws."""
    i, j = rng.integers(0, len(ranks), size=2)
    return int(min((ranks[i], -crowding[i], i), (ranks[j], -crowding[j], j))[2])


def reference_sbx(parent_a, parent_b, rng, cfg, lows, highs):
    """SBX of one pair with its own crossover coin, spread and swap draws."""
    if rng.random() >= cfg.crossover_probability:
        return parent_a.copy(), parent_b.copy()
    exponent = 1.0 / (cfg.eta_crossover + 1.0)
    u = rng.random(parent_a.shape[0])
    beta = np.where(
        u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent
    )
    child_a = 0.5 * ((1.0 + beta) * parent_a + (1.0 - beta) * parent_b)
    child_b = 0.5 * ((1.0 - beta) * parent_a + (1.0 + beta) * parent_b)
    swap = rng.random(parent_a.shape[0]) < 0.5
    child_a, child_b = (
        np.where(swap, child_b, child_a),
        np.where(swap, child_a, child_b),
    )
    return np.clip(child_a, lows, highs), np.clip(child_b, lows, highs)


def reference_mutate(genome, rng, cfg, lows, highs):
    """Uniform-reset mutation of one child, drawing and assigning gene by gene."""
    out = genome.copy()
    if cfg.mutation_kind == "per-gene":
        mask = rng.random(out.shape[0]) < cfg.mutation_probability
        for idx in np.flatnonzero(mask):
            out[idx] = rng.uniform(lows[idx], highs[idx])
    elif rng.random() < cfg.mutation_probability:
        idx = int(rng.integers(0, out.shape[0]))
        out[idx] = rng.uniform(lows[idx], highs[idx])
    return out


def reference_offspring(pop, rng, cfg, lows, highs):
    """The per-pair child loop: the oracle for the array generation step."""
    children = []
    while len(children) < len(pop.genomes):
        a = reference_tournament(pop.ranks, pop.crowding, rng)
        b = reference_tournament(pop.ranks, pop.crowding, rng)
        pair = reference_sbx(pop.genomes[a], pop.genomes[b], rng, cfg, lows, highs)
        children.extend(reference_mutate(child, rng, cfg, lows, highs) for child in pair)
    return np.array(children)
