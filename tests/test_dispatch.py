"""Merit-order clearing: hand-derived examples, fuzzed invariants, brute-force oracle."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from carbonopt.dispatch import (
    CANDIDATE_ID,
    Bid,
    Fleet,
    clear_segment,
    merit_order_key,
    run_year,
    srmc,
)
from carbonopt import dispatch
from carbonopt.errors import ConfigurationError
from carbonopt.scenario import DaySegment, PowerPlant, RepresentativeDay

from conftest import (
    FULL_DAY,
    fleet_columns,
    float_bits,
    fleet_plants,
    make_scenario,
    make_tech,
    market_year,
    plant_ids,
    probe_markets,
)
from oracle import build_bids, candidates, reference_probe, reference_year

VOLL = 6000.0


def mk_bid(pid, available, cost, emission_factor=0.0):
    """A bid of one unit of its own fuel-free technology, sized at the bid's MW."""
    tech = make_tech(
        name=f"t-{pid}",
        capacity_mw=available,
        fuel_kind=None,
        efficiency=1.0,
        variable_om=cost,
        emission_factor=emission_factor,
    )
    plant = PowerPlant(id=pid, technology=tech, owner="g", commission_year=2000, unit_count=1)
    return Bid(plant=plant, available_mw=available, srmc=cost)


class TestSrmc:
    def test_gas_example(self):
        tech = make_tech(efficiency=0.5, variable_om=3.0, emission_factor=0.35)
        assert srmc(tech, fuel_price=20.0, carbon_price=100.0) == pytest.approx(78.0)

    def test_fuel_free_technology_ignores_carbon_when_clean(self):
        solar = make_tech(
            name="solar", fuel_kind=None, efficiency=1.0, variable_om=0.0, emission_factor=0.0
        )
        assert srmc(solar, fuel_price=0.0, carbon_price=250.0) == 0.0

    def test_coal_example(self):
        coal = make_tech(name="coal", efficiency=0.35, variable_om=2.0, emission_factor=0.9)
        assert srmc(coal, fuel_price=10.0, carbon_price=0.0) == pytest.approx(10.0 / 0.35 + 2.0)

    def test_negative_carbon_price_subsidizes(self):
        coal = make_tech(name="coal", efficiency=0.5, variable_om=2.0, emission_factor=0.9)
        assert srmc(coal, 10.0, -100.0) == pytest.approx(20.0 + 2.0 - 90.0)


class TestBuildBids:
    def test_intermittent_uses_segment_factor(self):
        solar = make_tech(
            name="solar",
            fuel_kind=None,
            efficiency=1.0,
            variable_om=0.0,
            emission_factor=0.0,
            is_intermittent=True,
            weather_profile="solar",
        )
        plant = PowerPlant(id="s1", technology=solar, owner="g1", commission_year=2010, unit_count=1)
        s = make_scenario([solar], [plant])
        segment = DaySegment(24.0, 80.0, solar_capacity_factor=0.4, wind_capacity_factor=0.9)
        (bid,) = build_bids([plant], 2020, segment, carbon_price=0.0, s=s)
        assert bid.available_mw == pytest.approx(40.0)
        assert bid.srmc == 0.0

    def test_firm_capacity_ignores_weather(self, static_fossil_scenario):
        s = static_fossil_scenario
        plant = s.initial_fleet[0]
        segment = s.representative_days[0].segments[0]
        (bid,) = build_bids([plant], 2020, segment, carbon_price=10.0, s=s)
        assert bid.available_mw == 100.0
        assert bid.srmc == pytest.approx(47.0)

    def test_missing_fuel_series_is_configuration_error(self, static_fossil_scenario):
        s = static_fossil_scenario
        oil = make_tech(name="oil", fuel_kind="oil")
        plant = PowerPlant(id="o1", technology=oil, owner="g1", commission_year=2000, unit_count=1)
        segment = s.representative_days[0].segments[0]
        with pytest.raises(ConfigurationError, match="oil"):
            build_bids([plant], 2020, segment, carbon_price=0.0, s=s)
        # the kernel prices the whole catalog, so it refuses the series even with no oil plant
        s_oil = dataclasses.replace(s, technologies=(*s.technologies, oil))
        with pytest.raises(ConfigurationError, match="oil"):
            run_year(Fleet(s_oil, s.initial_fleet), 2020, 0.0)

    def test_retired_plants_are_filtered_upstream(self, static_fossil_scenario):
        s = static_fossil_scenario
        old = PowerPlant(
            id="old", technology=s.technologies[0], owner="g1", commission_year=1980, unit_count=5
        )
        # demand 160 vs the 100 MW still active: the retired 500 MW would be needed
        fleet = list(s.initial_fleet)
        result = run_year(Fleet(s, fleet + [old]), 2020, 10.0, demand_scale=2.0)
        # retired 2010, never bids
        assert result == run_year(Fleet(s, fleet), 2020, 10.0, demand_scale=2.0)
        assert result.unserved_mwh == pytest.approx(60.0 * 8760.0)


class TestFleet:
    def test_an_equal_copy_of_a_catalog_technology_is_its_entry(self, static_fossil_scenario):
        s = static_fossil_scenario
        fleet = Fleet(s, s.initial_fleet)
        fleet.extend([dataclasses.replace(s.initial_fleet[0], id="p9",
                                          technology=dataclasses.replace(s.technologies[0]))])
        assert fleet.tech == [0, 0]

    def test_a_purchase_row_is_the_row_of_its_plant(self):
        # a purchase appends, column for column and type for type, what ``extend``
        # stores for the equal one-unit PowerPlant: it commissions after its
        # technology's construction lag and retires a lifetime after that
        techs = [make_tech(name="gas", capacity_mw=45.5, construction_lag_years=0),
                 make_tech(name="nuclear", capacity_mw=1200.0, construction_lag_years=5,
                           lifetime_years=40),
                 make_tech(name="wind", capacity_mw=3.0, fuel_kind=None, efficiency=1.0,
                           is_intermittent=True, weather_profile="wind")]
        s = make_scenario(techs, [])
        bought, extended = Fleet(s), Fleet(s)
        for k, tech in enumerate(techs):
            for owner, year in (("g1", 2020), ("g2", 2031)):
                plant_id = f"{owner}:{tech.name}:{year}:1"
                bought.buy(owner, k, plant_id, year)
                extended.extend([PowerPlant(id=plant_id, technology=tech, owner=owner,
                                            commission_year=year + tech.construction_lag_years,
                                            unit_count=1)])
        assert len(bought) == len(extended) == 6
        assert repr(fleet_columns(bought)) == repr(fleet_columns(extended))
        assert bought.commission[:4] == [2020, 2031, 2025, 2036]
        assert bought.retirement[:4] == [2050, 2061, 2065, 2076]

    def test_an_id_holding_nul_is_cleared_in_python_string_order(self):
        # wind "a\0" and solar "a" tie on SRMC and emission factor, so their ids order
        # them, solar first. ``validate_scenario`` refuses the id (see
        # ``scenario._RULES``); a fleet checks nothing and clears it as the oracle does
        wind, solar = (make_tech(name=name, capacity_mw=60.0, fuel_kind=None, efficiency=1.0,
                                 variable_om=0.0, emission_factor=0.0)
                       for name in ("wind", "solar"))
        plants = [PowerPlant(id=plant_id, technology=tech, owner="g1", commission_year=2000,
                             unit_count=1) for plant_id, tech in (("a\0", wind), ("a", solar))]
        s = make_scenario([wind, solar], plants[1:])
        expected = reference_year(plants, 2020, 0.0, s)
        assert list(expected.energy_by_technology.items()) == [("solar", 525600.0),
                                                               ("wind", 175200.0)]
        extended = Fleet(s, plants[1:])
        extended.extend(plants[:1])
        for fleet in (Fleet(s, plants), extended):
            result = run_year(fleet, 2020, 0.0)
            assert float_bits(result) == float_bits(expected)
            assert list(result.energy_by_technology) == list(expected.energy_by_technology)

    def test_the_market_tables_are_read_from_its_scenario(self):
        solar = make_tech(name="solar", capacity_mw=10.0, fuel_kind=None, efficiency=1.0,
                          emission_factor=0.0, is_intermittent=True, weather_profile="solar")
        gas = make_tech(capacity_mw=20.0, emission_factor=0.4)
        day = RepresentativeDay(name="d", weight_days=365.0, segments=(
            DaySegment(8.0, 50.0, 0.5, 0.2), DaySegment(16.0, 70.0, 0.0, 0.9)))
        fleet = Fleet(make_scenario([solar, gas], [], days=(day,)))
        assert fleet.demand_mw.tolist() == [50.0, 70.0]
        assert fleet.hours.tolist() == [8.0 * 365.0, 16.0 * 365.0]
        assert fleet.factors.tolist() == [[0.5, 0.0], [1.0, 1.0]]  # solar's profile; gas is firm
        assert fleet.unit_mw.tolist() == [[5.0, 0.0], [20.0, 20.0]]
        assert fleet.ef.tolist() == [0.0, 0.4]


class TestClearSegment:
    def test_two_bid_example(self):
        bids = [mk_bid("a", 60.0, 5.0), mk_bid("b", 60.0, 10.0)]
        clearing = clear_segment(100.0, bids, VOLL)
        assert [(p.id, mw) for p, mw in clearing.dispatched] == [("a", 60.0), ("b", 40.0)]
        assert clearing.clearing_price == 10.0
        assert clearing.unserved_mw == 0.0

    def test_single_partial_unit_sets_price(self):
        clearing = clear_segment(50.0, [mk_bid("a", 60.0, 5.0)], VOLL)
        assert [(p.id, mw) for p, mw in clearing.dispatched] == [("a", 50.0)]
        assert clearing.clearing_price == 5.0

    def test_shortage_prices_at_voll(self):
        bids = [mk_bid("a", 100.0, 5.0), mk_bid("b", 50.0, 10.0)]
        clearing = clear_segment(200.0, bids, VOLL)
        assert clearing.unserved_mw == pytest.approx(50.0)
        assert clearing.clearing_price == VOLL

    def test_exact_boundary_marginal_is_last_full_unit(self):
        bids = [mk_bid("a", 60.0, 5.0), mk_bid("b", 60.0, 10.0)]
        clearing = clear_segment(60.0, bids, VOLL)
        assert clearing.clearing_price == 5.0
        assert clearing.unserved_mw == 0.0

    def test_zero_availability_bids_never_set_price(self):
        bids = [mk_bid("night-solar", 0.0, 0.0), mk_bid("gas", 80.0, 40.0)]
        clearing = clear_segment(50.0, bids, VOLL)
        assert clearing.clearing_price == 40.0
        assert all(p.id != "night-solar" for p, _ in clearing.dispatched)

    def test_tie_break_prefers_lower_emissions_then_id(self):
        bids = [
            mk_bid("dirty", 50.0, 10.0, emission_factor=0.9),
            mk_bid("clean", 50.0, 10.0, emission_factor=0.0),
            mk_bid("clean2", 50.0, 10.0, emission_factor=0.0),
        ]
        clearing = clear_segment(60.0, bids, VOLL)
        order = [p.id for p, _ in clearing.dispatched]
        assert order == ["clean", "clean2"]


def brute_force_min_cost(demand, bids):
    """Cheapest feasible dispatch cost by trying every fill order (oracle for <= 6 bids)."""
    best = None
    for perm in itertools.permutations(bids):
        remaining = demand
        cost = 0.0
        for bid in perm:
            take = min(bid.available_mw, remaining)
            cost += take * bid.srmc
            remaining -= take
            if remaining <= 0:
                break
        if best is None or cost < best:
            best = cost
    return best


class TestBruteForceEquivalence:
    def test_greedy_matches_exhaustive_small_cases(self):
        import random

        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(1, 6)
            bids = [
                mk_bid(f"p{k}", rng.choice([0.0, 20.0, 50.0, 80.0]), rng.choice([0, 5, 5, 10, 30]))
                for k in range(n)
            ]
            demand = rng.choice([10.0, 60.0, 130.0, 400.0])
            clearing = clear_segment(demand, bids, VOLL)
            greedy_cost = sum(mw * next(b.srmc for b in bids if b.plant is p) for p, mw in clearing.dispatched)
            assert greedy_cost == pytest.approx(brute_force_min_cost(demand, bids), abs=1e-6)
            served = sum(mw for _, mw in clearing.dispatched)
            assert served + clearing.unserved_mw == pytest.approx(demand, abs=1e-9)


bid_lists = st.lists(
    st.tuples(
        st.floats(0.0, 2000.0, allow_nan=False),  # availability
        st.floats(-50.0, 300.0, allow_nan=False),  # srmc
        st.floats(0.0, 1.0, allow_nan=False),  # emission factor
    ),
    min_size=1,
    max_size=40,
)


class TestClearingProperties:
    @given(demand=st.floats(0.1, 1e5, allow_nan=False), raw=bid_lists)
    @settings(max_examples=300, deadline=None)
    def test_conservation_and_merit_order(self, demand, raw):
        bids = [mk_bid(f"p{k}", a, c, e) for k, (a, c, e) in enumerate(raw)]
        clearing = clear_segment(demand, bids, VOLL)
        served = sum(mw for _, mw in clearing.dispatched)
        assert served + clearing.unserved_mw == pytest.approx(demand, abs=1e-9)
        by_plant = {p.id: mw for p, mw in clearing.dispatched}
        for _, mw in clearing.dispatched:
            assert mw > 0.0
        # no dispatched plant exceeds availability; undispatched-with-availability
        # bids are never cheaper than a dispatched one
        ranked = sorted(bids, key=merit_order_key)
        seen_undispatched = False
        for bid in ranked:
            mw = by_plant.get(bid.plant.id, 0.0)
            assert mw <= bid.available_mw + 1e-9
            if bid.available_mw > 0.0:
                if mw == 0.0:
                    seen_undispatched = True
                elif seen_undispatched and mw > 0.0:
                    pytest.fail("dispatch skipped a cheaper available bid")

    @given(demand=st.floats(0.1, 1e5, allow_nan=False), raw=bid_lists)
    @settings(max_examples=200, deadline=None)
    def test_price_within_range(self, demand, raw):
        bids = [mk_bid(f"p{k}", a, c, e) for k, (a, c, e) in enumerate(raw)]
        clearing = clear_segment(demand, bids, VOLL)
        costs = [b.srmc for b in bids]
        assert min(costs + [0.0]) <= clearing.clearing_price <= max(costs + [VOLL])

    @given(
        raw=bid_lists,
        carbon_low=st.floats(0.0, 100.0, allow_nan=False),
        bump=st.floats(0.0, 200.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_carbon_price_monotonicity(self, raw, carbon_low, bump):
        # raising the carbon price never lowers any SRMC, and never lowers
        # the clearing price when the marginal unit emits
        demand = 500.0
        techs = [
            make_tech(name=f"t{k}", fuel_kind=None, efficiency=1.0, variable_om=c, emission_factor=e)
            for k, (_, c, e) in enumerate(raw)
        ]
        for tech in techs:
            assert srmc(tech, 0.0, carbon_low + bump) >= srmc(tech, 0.0, carbon_low)

        def clearing_at(carbon):
            bids = [
                Bid(
                    plant=PowerPlant(
                        id=f"p{k}", technology=techs[k], owner="g", commission_year=2000, unit_count=1
                    ),
                    available_mw=raw[k][0],
                    srmc=srmc(techs[k], 0.0, carbon),
                )
                for k in range(len(raw))
            ]
            return clear_segment(demand, bids, VOLL)

        low = clearing_at(carbon_low)
        high = clearing_at(carbon_low + bump)
        if low.unserved_mw == 0.0 and low.dispatched:
            marginal_plant = low.dispatched[-1][0]
            if marginal_plant.technology.emission_factor > 0.0 or bump == 0.0:
                assert high.clearing_price >= low.clearing_price - 1e-9


class TestRunYear:
    def test_all_solar_fleet_is_free_and_clean(self):
        solar = make_tech(
            name="solar",
            fuel_kind=None,
            efficiency=1.0,
            variable_om=0.0,
            emission_factor=0.0,
            is_intermittent=True,
            weather_profile="solar",
        )
        plant = PowerPlant(id="s1", technology=solar, owner="g1", commission_year=2010, unit_count=3)
        s = make_scenario([solar], [plant])  # demand 80, solar cf 0.5 -> 150 MW available
        result = run_year(Fleet(s, [plant]), 2020, 250.0)
        assert result.carbon_intensity == 0.0
        assert result.average_price == 0.0
        assert result.unserved_mwh == 0.0

    def test_hand_aggregated_two_bid_year(self):
        # one day (weight 365, 24 h), demand 100; bids 60 MW @ 5 and 60 MW @ 10:
        # dispatch (60, 40), price 10; energies 60*8760 and 40*8760 MWh
        cheap = make_tech(name="cheap", fuel_kind=None, efficiency=1.0, variable_om=5.0,
                          emission_factor=0.0, capacity_mw=60.0)
        dear = make_tech(name="dear", fuel_kind=None, efficiency=1.0, variable_om=10.0,
                         emission_factor=0.2, capacity_mw=60.0)
        p1 = PowerPlant(id="a", technology=cheap, owner="g1", commission_year=2000, unit_count=1)
        p2 = PowerPlant(id="b", technology=dear, owner="g1", commission_year=2000, unit_count=1)
        day = RepresentativeDay(
            name="always", weight_days=365.0,
            segments=(DaySegment(24.0, 100.0, 0.0, 0.0),),
        )
        s = make_scenario([cheap, dear], [p1, p2], days=(day,))
        result = run_year(Fleet(s, [p1, p2]), 2020, 0.0)
        assert result.energy_by_technology["cheap"] == pytest.approx(525600.0)
        assert result.energy_by_technology["dear"] == pytest.approx(350400.0)
        assert result.average_price == pytest.approx(10.0)
        assert result.emissions_t == pytest.approx(350400.0 * 0.2)
        assert result.carbon_intensity == pytest.approx(350400.0 * 0.2 / 876000.0)
        # "a" earns the 10 £/MWh set by "b" on all it runs
        # "cheap" is catalog entry 0
        energy, revenue = market_year(Fleet(s, [p2]), 2020, 0.0).probe()
        assert (energy[0], revenue[0]) == pytest.approx((525600.0, 525600.0 * 10.0))

    def test_demand_growth_scales_each_year(self, static_fossil_scenario):
        import dataclasses

        s = dataclasses.replace(static_fossil_scenario, demand_growth=1.1)
        base = run_year(Fleet(s, s.initial_fleet), 2020, 0.0)
        grown = run_year(Fleet(s, s.initial_fleet), 2021, 0.0)
        energy = sum(base.energy_by_technology.values())
        assert sum(grown.energy_by_technology.values()) == pytest.approx(energy * 1.1)

    def test_shortage_year_uses_voll(self, static_fossil_scenario):
        s = static_fossil_scenario
        result = run_year(Fleet(s, s.initial_fleet), 2020, 0.0, demand_scale=2.0)
        # demand 160 vs 100 MW available: 60 MW unserved all year at VoLL
        assert result.unserved_mwh == pytest.approx(60.0 * 8760.0)
        assert result.average_price == pytest.approx(6000.0)


class TestRunYearOracle:
    @given(case=probe_markets(), demand_scale=st.sampled_from([0.0, 0.97, 1.0, 1.3]))
    @settings(max_examples=300, deadline=None)
    def test_run_year_equals_segment_by_segment_clearing_exactly(self, case, demand_scale):
        s, fleet, year, carbon_price = case
        result = run_year(Fleet(s, fleet), year, carbon_price, demand_scale)
        expected = reference_year(fleet, year, carbon_price, s, demand_scale)
        assert float_bits(result) == float_bits(expected)
        assert list(result.energy_by_technology) == list(expected.energy_by_technology)


class TestProbeMarket:
    @given(case=probe_markets())
    @settings(max_examples=300, deadline=None)
    def test_probe_equals_full_clearing_exactly(self, case):
        s, fleet, year, carbon_price = case
        energy, revenue = market_year(Fleet(s, fleet), year, carbon_price).probe()
        for k, unit in enumerate(candidates(s, year)):
            expected = float_bits(reference_probe(fleet, unit, year, carbon_price, s))
            assert float_bits((energy[k], revenue[k])) == expected

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_added_plants_equal_a_fresh_market_exactly(self, case, data):
        s, fleet, year, carbon_price = case
        # same technologies as the fleet (ties on SRMC and emission factor), some
        # inactive in the year, ids on both sides of the fleet's and of the probe's
        plants = [
            PowerPlant(
                id=data.draw(plant_ids),
                technology=data.draw(st.sampled_from(s.technologies)),
                owner="g1",
                commission_year=data.draw(st.sampled_from([2000, 2016, 2020, 2025])),
                unit_count=data.draw(st.integers(1, 3)),
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        split = data.draw(st.integers(0, len(plants)))
        market = market_year(Fleet(s, fleet), year, carbon_price)
        for batch in (plants[:split], plants[split:]):
            market.fleet.extend(batch)
            market.add()
        (energy, revenue), (fresh_energy, fresh_revenue) = (
            market.probe(), market_year(Fleet(s, fleet + plants), year, carbon_price).probe()
        )
        for k, unit in enumerate(candidates(s, year)):
            expected = float_bits(reference_probe(fleet + plants, unit, year, carbon_price, s))
            assert float_bits((energy[k], revenue[k])) == expected
            assert float_bits((fresh_energy[k], fresh_revenue[k])) == expected

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_purchased_rows_equal_a_fresh_market_exactly(self, case, data):
        # units bought as fleet rows over several adds: some inactive in the year, ids
        # on both sides of the fleet's and of the probe's, keys tied with the fleet's
        s, fleet, year, carbon_price = case
        market = market_year(Fleet(s, fleet), year, carbon_price)
        for _ in range(data.draw(st.integers(1, 3))):
            for _ in range(data.draw(st.integers(0, 3))):
                market.fleet.buy(data.draw(st.sampled_from(["g1", "g2"])),
                                 data.draw(st.integers(0, len(s.technologies) - 1)),
                                 data.draw(plant_ids),
                                 data.draw(st.sampled_from([1990, 2016, 2019, 2020, 2021])))
            market.add()
        fresh = market_year(Fleet(s, fleet_plants(market.fleet)), year, carbon_price)
        assert [a.tolist() for a in market.probe()] == [a.tolist() for a in fresh.probe()]
        result, expected = market.clear(), fresh.clear()
        assert float_bits(result) == float_bits(expected)
        assert list(result.energy_by_technology) == list(expected.energy_by_technology)

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_probes_after_an_add_price_the_grown_fleet(self, case, data):
        s, fleet, year, carbon_price = case
        # ids on both sides of the fleet's, so some keys tie with a fleet plant's
        # key; commissioned too late or retired already, some are inactive
        plants = [
            PowerPlant(
                id=data.draw(plant_ids),
                technology=data.draw(st.sampled_from(s.technologies)),
                owner="g2",
                commission_year=data.draw(st.sampled_from([1990, 2016, 2020, 2025])),
                unit_count=data.draw(st.integers(1, 3)),
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        market = market_year(Fleet(s, fleet), year, carbon_price)
        energy, revenue = market.probe()
        for k, unit in enumerate(candidates(s, year)):
            expected = float_bits(reference_probe(fleet, unit, year, carbon_price, s))
            assert float_bits((energy[k], revenue[k])) == expected
        market.fleet.extend(plants)
        market.add()
        energy, revenue = market.probe()
        for k, unit in enumerate(candidates(s, year)):
            expected = float_bits(reference_probe(fleet + plants, unit, year, carbon_price, s))
            assert float_bits((energy[k], revenue[k])) == expected
        result = market.clear()
        expected = reference_year(fleet + plants, year, carbon_price, s)
        assert float_bits(result) == float_bits(expected)
        assert list(result.energy_by_technology) == list(expected.energy_by_technology)

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_added_same_id_units_keep_fleet_order(self, case, data):
        s, fleet, year, carbon_price = case
        # units of CANDIDATE_ID, several of one technology, tie with each other and with
        # every fleet plant of their key: each goes after all of them, in the order added
        plants = [
            PowerPlant(id=CANDIDATE_ID, technology=data.draw(st.sampled_from(s.technologies)),
                       owner="g1", commission_year=year, unit_count=data.draw(st.integers(1, 3)))
            for _ in range(data.draw(st.integers(2, 5)))
        ]
        market = market_year(Fleet(s, fleet), year, carbon_price)
        for batch in (plants[:1], plants[1:]):
            market.fleet.extend(batch)
            market.add()
        energy, revenue = market.probe()
        for k, unit in enumerate(candidates(s, year)):
            assert float_bits((energy[k], revenue[k])) == float_bits(reference_probe(
                fleet + plants, unit, year, carbon_price, s
            ))
        result = market.clear()
        expected = reference_year(fleet + plants, year, carbon_price, s)
        assert float_bits(result) == float_bits(expected)
        assert list(result.energy_by_technology) == list(expected.energy_by_technology)

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_markets_of_changing_ranks_over_one_growing_fleet_equal_the_oracle(self, case, data):
        # builds of one fleet at two carbon prices, drawn anew for each build, so its
        # kept merit order is sorted again or only placed into. Between builds the
        # fleet buys rows: some inactive in the year, some with ids tied to the
        # fleet's or the probe's, some holding NUL
        s, plants, year, carbon_price = case
        other = [price for price in (-100.0, -12.5, 0.0, 12.5, 200.0) if price != carbon_price]
        prices = (carbon_price, data.draw(st.sampled_from(other)))
        ids = st.one_of(plant_ids, st.sampled_from(["\0", "a\0", "a", CANDIDATE_ID + "\0"]))
        fleet = Fleet(s, plants)
        for _ in range(data.draw(st.integers(2, 4))):
            price = data.draw(st.sampled_from(prices))
            market, grown = market_year(fleet, year, price), fleet_plants(fleet)
            result, expected = market.clear(), reference_year(grown, year, price, s)
            assert float_bits(result) == float_bits(expected)
            assert list(result.energy_by_technology) == list(expected.energy_by_technology)
            energy, revenue = market.probe()
            for k, unit in enumerate(candidates(s, year)):
                expected = float_bits(reference_probe(grown, unit, year, price, s))
                assert float_bits((energy[k], revenue[k])) == expected
            for _ in range(data.draw(st.integers(0, 3))):
                k = data.draw(st.integers(0, len(s.technologies) - 1))
                fleet.buy("g2", k, data.draw(ids),
                          data.draw(st.sampled_from([1980, 2016, 2019, 2020, 2021])))

    def test_an_id_holding_nul_keeps_python_string_order(self):
        # unchecked purchase rows: wind "a\0" and solar "a" tie on SRMC and emission
        # factor, so their ids order them, and "a" < "a\0" puts solar first in a built
        # market, a market grown by ``add`` and the probes alike, as in the oracle
        wind, solar = (make_tech(name=name, capacity_mw=60.0, fuel_kind=None, efficiency=1.0,
                                 variable_om=0.0, emission_factor=0.0, construction_lag_years=0)
                       for name in ("wind", "solar"))
        s = make_scenario([wind, solar], [])
        built, grown = Fleet(s), market_year(Fleet(s), 2020, 0.0)
        for fleet in (built, grown.fleet):
            fleet.buy("g1", 0, "a\0", 2000)
            fleet.buy("g1", 1, "a", 2000)
        grown.add()
        plants = fleet_plants(built)
        expected = reference_year(plants, 2020, 0.0, s)
        assert list(expected.energy_by_technology.items()) == [("solar", 525600.0),
                                                               ("wind", 175200.0)]
        for market in (market_year(built, 2020, 0.0), grown):
            result = market.clear()
            assert float_bits(result) == float_bits(expected)
            assert list(result.energy_by_technology) == list(expected.energy_by_technology)
            energy, revenue = market.probe()
            for k, unit in enumerate(candidates(s, 2020)):
                probed = float_bits(reference_probe(plants, unit, 2020, 0.0, s))
                assert float_bits((energy[k], revenue[k])) == probed

    @given(case=probe_markets())
    @settings(max_examples=100, deadline=None)
    def test_each_technology_is_priced_once_per_market_year(self, case):
        s, fleet, year, carbon_price = case
        calls = []

        def counted(tech, *args):
            calls.append(tech.name)
            return srmc(tech, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatch, "srmc", counted)
            market = market_year(Fleet(s, fleet), year, carbon_price)
            market.fleet.extend(candidates(s, year))
            market.add()
            market.probe()
            market.probe()
        assert sorted(calls) == sorted(tech.name for tech in s.technologies)

    def test_unit_after_every_offer_sets_the_price(self, static_fossil_scenario):
        # gas at SRMC 43 covers 100 of the 150 MW; the peaker sorts last and
        # either meets the rest (its SRMC is the price) or falls short (VoLL)
        s = static_fossil_scenario
        fleet = list(s.initial_fleet)
        for capacity, price in ((100.0, 503.0), (30.0, VOLL)):
            peaker = make_tech(name="peaker", fuel_kind=None, efficiency=1.0, variable_om=503.0,
                               emission_factor=0.0, capacity_mw=capacity)
            busy = dataclasses.replace(FULL_DAY, segments=(DaySegment(24.0, 150.0, 0.5, 0.5),))
            s_busy = make_scenario([s.technologies[0], peaker], fleet, days=(busy,))
            market = market_year(Fleet(s_busy, fleet), 2020, 0.0)
            (unit,) = candidates(s_busy, 2020)[1:]
            (_, energy), (_, revenue) = market.probe()  # the peaker is catalog entry 1
            expected = float_bits(reference_probe(fleet, unit, 2020, 0.0, s_busy))
            assert float_bits((energy, revenue)) == expected
            assert energy == min(capacity, 50.0) * 8760.0
            assert revenue == energy * price

    def test_all_shortage_year_pays_voll_everywhere(self, static_fossil_scenario):
        s = static_fossil_scenario
        fleet = list(s.initial_fleet)
        starved = dataclasses.replace(FULL_DAY, segments=(
            DaySegment(8.0, 1000.0, 0.5, 0.5), DaySegment(16.0, 500.0, 0.5, 0.5),
        ))
        s_short = make_scenario(list(s.technologies), fleet, days=(starved,))
        market = market_year(Fleet(s_short, fleet), 2020, 10.0)
        (unit,) = candidates(s_short, 2020)
        (energy,), (revenue,) = market.probe()
        expected = float_bits(reference_probe(fleet, unit, 2020, 10.0, s_short))
        assert float_bits((energy, revenue)) == expected
        assert energy == 100.0 * 8.0 * 365.0 + 100.0 * 16.0 * 365.0
        assert revenue == pytest.approx(energy * VOLL)
