"""Carbon forecasting, NPV arithmetic and the greedy investment rule."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import carbonopt.investment as investment
from carbonopt import cli
from carbonopt.dispatch import Fleet, MarketYear, price_catalog, price_units
from carbonopt.investment import (
    REVENUE_PROBE_YEARS,
    CarbonForecast,
    Valuations,
    YearProbes,
    estimate_yearly_revenue,
    fit_carbon_forecast,
    invest,
    merit_ranks,
    npv,
)
from carbonopt.policy import bounds, decode
from carbonopt.scenario import (
    DaySegment,
    GenCo,
    PowerPlant,
    RepresentativeDay,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from carbonopt.simulation import Event, _event_log, _invest_over_horizon

from conftest import fleet_columns, fleet_plants, make_scenario, make_tech, plant_ids, probe_markets
from oracle import reference_yearly_revenue


class TestForecast:
    def test_three_point_line(self):
        history = [(0, 10.0), (1, 20.0), (2, 30.0)]
        assert fit_carbon_forecast(history).predict(12) == pytest.approx(130.0)

    def test_constant_history_is_flat(self):
        assert fit_carbon_forecast([(0, 50.0), (1, 50.0)]).predict(10) == pytest.approx(50.0)

    def test_single_point_is_flat(self):
        assert fit_carbon_forecast([(5, 80.0)]).predict(15) == 80.0

    def test_two_point_closed_form_exact(self):
        pairs = [((2018, 30.0), (2023, 90.0)), ((2018, 10.0), (2019, 7.0)), ((0, 1.0), (4, 1.0))]
        for (x1, y1), (x2, y2) in pairs:
            fit = fit_carbon_forecast([(x1, y1), (x2, y2)])
            slope = (y2 - y1) / (x2 - x1)
            intercept = y1 - slope * x1
            assert fit.slope == pytest.approx(slope, abs=1e-12)
            assert fit.intercept == pytest.approx(intercept, abs=1e-12)

    def test_three_point_closed_form_exact(self):
        xs = [0.0, 1.0, 2.0]
        ys = [4.0, 9.0, 11.0]
        fit = fit_carbon_forecast(list(zip((int(x) for x in xs), ys)))
        x_mean = sum(xs) / 3
        y_mean = sum(ys) / 3
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
            (x - x_mean) ** 2 for x in xs
        )
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.intercept == pytest.approx(y_mean - slope * x_mean, abs=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            fit_carbon_forecast([])


class TestNpv:
    def test_zero_discount_sums(self):
        assert npv([100.0, 100.0, 100.0], 0.0) == pytest.approx(300.0)

    def test_hand_example(self):
        value = npv([-1000.0, 600.0, 600.0], 0.1)
        assert value == pytest.approx(-1000.0 + 600.0 / 1.1 + 600.0 / 1.21)
        assert value == pytest.approx(41.32231, abs=1e-5)

    def test_time_zero_undiscounted(self):
        assert npv([42.0], 0.73) == 42.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            npv([1.0], -1.0)

    @given(
        flows_a=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=10),
        flows_b=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=10),
        a=st.floats(-5.0, 5.0, allow_nan=False),
        b=st.floats(-5.0, 5.0, allow_nan=False),
        rate=st.floats(-0.5, 0.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_linearity(self, flows_a, flows_b, a, b, rate):
        n = min(len(flows_a), len(flows_b))
        fa, fb = flows_a[:n], flows_b[:n]
        combined = [a * x + b * y for x, y in zip(fa, fb)]
        assert npv(combined, rate) == pytest.approx(
            a * npv(fa, rate) + b * npv(fb, rate), rel=1e-9, abs=1e-6
        )

    @given(
        rates=st.lists(st.floats(-0.99, 1.0), min_size=1, max_size=2),
        flows=st.lists(
            st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=41), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_plain_formula_exactly(self, rates, flows):
        # lengths and rates interleaved, each pair seen again after others, so the
        # cached discount powers are looked up by both parts of their key
        for rate in rates + rates:
            for cash in flows + flows[::-1]:
                plain = 0.0
                for t, r in enumerate(cash):
                    plain += r / (1.0 + rate) ** t
                assert npv(cash, rate) == plain

    def test_adds_left_to_right_on_every_python(self):
        # the builtin sum compensates rounding since Python 3.12 and gives 1.0
        assert npv([1e16, 1.0, -1e16], 0.0) == 0.0

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.1, 0.2])
    @pytest.mark.parametrize("periods", [1, 5, 17, 40])
    def test_matches_geometric_series(self, rate, periods):
        flow = 100.0
        value = npv([flow] * (periods + 1), rate)
        if rate == 0.0:
            closed = flow * (periods + 1)
        else:
            q = 1.0 / (1.0 + rate)
            closed = flow * (1.0 - q ** (periods + 1)) / (1.0 - q)
        assert value == pytest.approx(closed, rel=1e-9)


def solar_tech(**overrides):
    base = dict(
        name="solar",
        fuel_kind=None,
        efficiency=1.0,
        variable_om=0.0,
        emission_factor=0.0,
        fixed_om=8_000.0,
        is_intermittent=True,
        weather_profile="solar",
        lifetime_years=25,
    )
    base.update(overrides)
    return make_tech(**base)


def yearly_revenue(candidate, s, fleet, forecast, decision_year=2020):
    """The candidate's entry of ``estimate_yearly_revenue`` in the future market ``YearProbes``
    builds for the state."""
    future_year = decision_year + REVENUE_PROBE_YEARS
    market = MarketYear(fleet, future_year, forecast.predict(future_year))
    return estimate_yearly_revenue(market, decision_year, s, fleet)[s.technologies.index(candidate)]


def pinned_revenue(flows):
    """A stand-in for ``estimate_yearly_revenue`` that returns ``flows[name]`` per catalog entry."""
    return lambda market, year, s, fleet: np.array([flows[tech.name] for tech in s.technologies])


class TestEstimateRevenue:
    def test_hand_traced_two_plant_market(self, gas_tech):
        # Future market: demand 80 MW all year; existing gas 100 MW at srmc 47
        # (fuel 20 / 0.5 + 3 + 0.4 * 10); solar candidate 100 MW at cf 0.5.
        # Solar dispatches 50 MW, gas covers the remaining 30 and sets the
        # price at 47. Candidate cash flow:
        #   revenue 50 * 8760 * 47 = 20,586,000
        #   running cost 0, fixed O&M 8,000 * 100 = 800,000
        #   = 19,786,000 £/year
        candidate = solar_tech()
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        s = make_scenario([gas_tech, candidate], [plant], horizon_years=2)
        forecast = CarbonForecast(slope=0.0, intercept=10.0)
        cash = yearly_revenue(candidate, s, Fleet(s, [plant]), forecast)
        assert cash == pytest.approx(50 * 8760 * 47.0 - 800_000.0)

    def test_never_dispatched_candidate_pays_fixed_om(self, gas_tech):
        expensive = make_tech(name="peaker", variable_om=500.0, fixed_om=9_000.0)
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=2)
        s = make_scenario([gas_tech, expensive], [plant], horizon_years=2)
        forecast = CarbonForecast(slope=0.0, intercept=0.0)
        cash = yearly_revenue(expensive, s, Fleet(s, [plant]), forecast)
        assert cash == pytest.approx(-9_000.0 * 100.0)

    def test_zero_srmc_candidate_in_priced_market_earns(self, gas_tech):
        candidate = solar_tech()
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        s = make_scenario([gas_tech, candidate], [plant], horizon_years=2)
        forecast = CarbonForecast(slope=0.0, intercept=0.0)
        cash = yearly_revenue(candidate, s, Fleet(s, [plant]), forecast)
        assert cash > 0.0

    def test_high_emitter_npv_non_increasing_in_forecast_slope(self):
        # candidate coal sits below a fuel-free price-setter, so a rising
        # carbon forecast eats its margin monotonically
        peaker = make_tech(name="peaker", fuel_kind=None, efficiency=1.0, variable_om=47.0,
                           emission_factor=0.0, capacity_mw=200.0)
        coal = make_tech(name="coal", fuel_kind="coal", efficiency=0.36, variable_om=2.0,
                         emission_factor=0.9, capacity_mw=60.0, lifetime_years=40)
        plant = PowerPlant(id="p", technology=peaker, owner="g1", commission_year=2005, unit_count=1)
        s = make_scenario(
            [peaker, coal], [plant], horizon_years=2,
            fuel_prices={"coal": {2020: 9.0, 2021: 9.0}},
        )
        values = []
        for slope in [0.0, 0.5, 1.0, 2.0, 5.0]:
            forecast = CarbonForecast(slope=slope, intercept=0.0)
            revenue = yearly_revenue(coal, s, Fleet(s, [plant]), forecast)
            values.append(npv([-coal.capital_cost * coal.capacity_mw] + [revenue] * 40, 0.06))
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    @given(case=probe_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_catalog_flows_equal_the_oracle_exactly(self, case, data):
        # every catalog unit's flow, in the market as built and after plants join it
        # (ties, inactive plants, ids about the probed unit's, subsidies among the prices)
        s, fleet, year, carbon_price = case
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
        market = MarketYear(Fleet(s, fleet), year, carbon_price)
        for state in (fleet, fleet + plants):
            market.fleet.extend(state[len(market.fleet):])  # nothing, then the plants
            market.add()
            flows = estimate_yearly_revenue(market, year - REVENUE_PROBE_YEARS, s, market.fleet)
            for k, tech in enumerate(s.technologies):
                expected = reference_yearly_revenue(tech, state, year, carbon_price, s)
                assert flows[k] == expected, (len(state), tech.name)


def probes_2020(fleet: Fleet) -> YearProbes:
    """Probes of decision year 2020 over ``fleet`` after one year of zero tax."""
    return YearProbes(2020, fit_carbon_forecast([(2020, 0.0)]), fleet)


class TestInvest:
    def test_nothing_attractive_returns_empty(self, gas_tech):
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=2)
        budgets = {"g1": 1e12}
        s = make_scenario([gas_tech], [plant], horizon_years=2)
        fleet = Fleet(s, [plant])
        decisions = invest("g1", budgets, probes_2020(fleet))
        assert decisions == []
        assert budgets["g1"] == 1e12
        assert fleet_columns(fleet) == fleet_columns(Fleet(s, [plant]))

    def test_single_affordable_positive_option_is_bought_once(self):
        # old unit prices the market at 50; the cheaper new-build earns a
        # 7 £/MWh margin, which clears its capital cost. The budget covers
        # exactly one unit, so exactly one decision executes.
        old = make_tech(name="old-gas", variable_om=10.0)  # srmc 20/0.5 + 10 = 50
        new = make_tech(name="new-gas", variable_om=3.0, capacity_mw=50.0)  # srmc 43, infra-marginal
        plant = PowerPlant(id="g", technology=old, owner="g1", commission_year=2005, unit_count=1)
        capital = new.capital_cost * new.capacity_mw
        budgets = {"g1": capital * 1.5}
        s = make_scenario([old, new], [plant], horizon_years=2)
        fleet = Fleet(s, [plant])
        decisions = invest("g1", budgets, probes_2020(fleet))
        assert [(k, plant_id) for k, plant_id, _ in decisions] == [(1, "g1:new-gas:2020:1")]
        assert budgets["g1"] == pytest.approx(capital * 0.5)
        value = decisions[0][2]
        assert value > 0.0
        # the unit joins the fleet as a one-unit row, commissioning after its lag
        bought = PowerPlant(id="g1:new-gas:2020:1", technology=new, owner="g1",
                            commission_year=2021, unit_count=1)
        assert fleet_columns(fleet) == fleet_columns(Fleet(s, [plant, bought]))
        # and the run logs it as this event, with the capital it spent
        assert [e for e in _event_log(fleet, [[("g1", decisions)]]) if e.kind == "invest"] == [
            Event(2020, "invest", "g1", "new-gas", "g1:new-gas:2020:1", 1, capital, value)
        ]

    def test_greedy_picks_best_npv_first(self, monkeypatch, gas_tech):
        # three candidates with pinned yearly revenues; greedy must buy the
        # highest-NPV affordable option, re-evaluate, and repeat
        tech_a = make_tech(name="a", capital_cost=10_000.0, capacity_mw=1.0, lifetime_years=10)
        tech_b = make_tech(name="b", capital_cost=6_000.0, capacity_mw=1.0, lifetime_years=10)
        tech_c = make_tech(name="c", capital_cost=5_000.0, capacity_mw=1.0, lifetime_years=10)
        revenue = {"a": 3_000.0, "b": 1_500.0, "c": 1_000.0, "gas": -1.0}
        monkeypatch.setattr(investment, "estimate_yearly_revenue", pinned_revenue(revenue))
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        budgets = {"g1": 16_000.0}
        s = make_scenario([tech_a, tech_b, tech_c, gas_tech], [plant], horizon_years=2)

        fleet = Fleet(s, [plant])
        decisions = invest("g1", budgets, probes_2020(fleet))
        # npv(a) ~ 3000*annuity - 10000 best, then with 6000 left only b or c
        # are affordable and b has the higher npv
        assert [s.technologies[k].name for k, _, _ in decisions] == ["a", "b"]
        assert budgets["g1"] == pytest.approx(0.0)
        assert all(value > 0 for _, _, value in decisions)
        assert [s.technologies[k].name for k in fleet.tech[1:]] == ["a", "b"]
        assert fleet.commission[1] == 2021  # one year construction lag

    def test_greedy_matches_sequence_enumeration(self, monkeypatch, gas_tech):
        # oracle: enumerate every purchase sequence of <= 3 options under the
        # budget; the greedy rule must match the sequence built by repeatedly
        # taking the highest-NPV affordable option
        tech_specs = {"a": (10_000.0, 3_000.0), "b": (6_000.0, 1_500.0), "c": (5_000.0, 1_000.0),
                      "gas": (50_000_000.0, -1.0)}
        techs = [
            make_tech(name=n, capital_cost=cap, capacity_mw=1.0, lifetime_years=10)
            for n, (cap, _) in tech_specs.items()
            if n != "gas"
        ]
        monkeypatch.setattr(investment, "estimate_yearly_revenue",
                            pinned_revenue({name: rev for name, (_, rev) in tech_specs.items()}))
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        s_all = make_scenario(techs + [gas_tech], [plant], horizon_years=2)

        def npv_of(name):
            cap, rev = tech_specs[name]
            return npv([-cap] + [rev] * 10, s_all.discount_rate)

        def greedy_oracle(budget):
            sequence, remaining = [], budget
            while True:
                affordable = [
                    n for n in ("a", "b", "c")
                    if tech_specs[n][0] <= remaining and npv_of(n) > 0
                ]
                if not affordable:
                    return sequence
                best = max(affordable, key=npv_of)
                sequence.append(best)
                remaining -= tech_specs[best][0]

        # 5_000 and 15_000 leave exactly the cheapest unit (c) affordable
        for budget in [0.0, 4_000.0, 5_000.0, 5_500.0, 11_000.0, 15_000.0, 16_000.0, 21_000.0,
                       60_000.0]:
            budgets = {"g1": budget}
            fleet = Fleet(s_all, [plant])
            decisions = invest("g1", budgets, probes_2020(fleet))
            assert [s_all.technologies[k].name for k, _, _ in decisions] == greedy_oracle(budget), budget
            assert budgets["g1"] >= 0.0
            spent = sum(tech_specs[s_all.technologies[k].name][0] for k, _, _ in decisions)
            assert spent <= budget + 1e-9

    def test_unaffordable_high_npv_falls_back_to_affordable(self, monkeypatch, gas_tech):
        big = make_tech(name="big", capital_cost=100_000.0, capacity_mw=1.0, lifetime_years=10)
        small = make_tech(name="small", capital_cost=4_000.0, capacity_mw=1.0, lifetime_years=10)
        revenue = {"big": 30_000.0, "small": 900.0, "gas": -1.0}
        monkeypatch.setattr(investment, "estimate_yearly_revenue", pinned_revenue(revenue))
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        budgets = {"g1": 9_000.0}
        s = make_scenario([big, small, gas_tech], [plant], horizon_years=2)
        decisions = invest("g1", budgets, probes_2020(Fleet(s, [plant])))
        assert [s.technologies[k].name for k, _, _ in decisions] == ["small", "small"]
        assert budgets["g1"] == pytest.approx(1_000.0)

    def test_equal_npvs_buy_the_first_in_catalog_order(self, monkeypatch, gas_tech):
        # two technologies alike but for their names; the budget covers one unit
        twins = [make_tech(name=name, capital_cost=5_000.0, capacity_mw=1.0, lifetime_years=10)
                 for name in ("x", "y")]
        revenue = {"x": 1_000.0, "y": 1_000.0, "gas": -1.0}
        monkeypatch.setattr(investment, "estimate_yearly_revenue", pinned_revenue(revenue))
        plant = PowerPlant(id="g", technology=gas_tech, owner="g1", commission_year=2005, unit_count=1)
        for catalog in (twins, twins[::-1]):
            s = make_scenario([*catalog, gas_tech], [plant], horizon_years=2)
            probes = probes_2020(Fleet(s, [plant]))
            assert probes.value()[0] == probes.value()[1] > 0.0
            decisions = invest("g1", {"g1": 5_000.0}, probes)
            assert [s.technologies[k].name for k, _, _ in decisions] == [catalog[0].name]


class TestYearProbes:
    @staticmethod
    def coal_and_gas():
        # coal sets the price; new gas earns more the higher the carbon price
        coal = make_tech(name="coal", fuel_kind="coal", efficiency=0.35, variable_om=2.0,
                         emission_factor=0.9)
        gas = make_tech(name="gas", capacity_mw=50.0)
        plant = PowerPlant(id="c", technology=coal, owner="g1", commission_year=2005, unit_count=1)
        gencos = (GenCo(id="g1", budget=0.0), GenCo(id="g2", budget=3 * 25_000_000.0))
        s = make_scenario([coal, gas], [plant], gencos=gencos, horizon_years=2,
                          fuel_prices={"coal": {2020: 20.0, 2021: 20.0},
                                       "gas": {2020: 20.0, 2021: 20.0}})
        return s, plant

    def test_shared_probes_equal_fresh_calls(self, monkeypatch):
        # two companies in one decision year: the second reuses the market the
        # first built and grew, and decides exactly as it would alone
        s, plant = self.coal_and_gas()
        forecast = fit_carbon_forecast([(2020, 50.0)])
        budget = s.gencos[1].budget
        fleet = Fleet(s, [plant])
        valued = []  # the length of ``fleet`` at each revenue estimate over it

        def counted(market, decision_year, s, probed):
            if probed is fleet:
                valued.append(len(probed))
            return estimate_yearly_revenue(market, decision_year, s, probed)

        monkeypatch.setattr(investment, "estimate_yearly_revenue", counted)
        probes = YearProbes(2020, forecast, fleet)
        budgets = {"g0": budget, "g2": budget}
        first = invest("g0", budgets, probes)
        rebuilt = Fleet(s, fleet_plants(fleet))
        alone = invest("g2", {"g2": budget}, YearProbes(2020, forecast, rebuilt))
        shared = invest("g2", budgets, probes)
        assert first  # so the second company values a state the market grew into
        assert shared == alone
        assert fleet_columns(fleet) == fleet_columns(rebuilt)
        assert budgets["g2"] == budget - sum(s.technologies[k].capital_cost
                                             * s.technologies[k].capacity_mw for k, _, _ in shared)
        assert valued == list(range(1, len(fleet) + 1))  # every state valued exactly once

    @given(
        catalog=st.lists(st.tuples(
            st.sampled_from([1.0, 45.5, 1e9]),  # capital cost
            st.integers(1, 61),  # lifetime
            st.one_of(st.floats(-1e9, 1e9), st.sampled_from([0.0, -0.0, 1e16, -1e16])),
        ), min_size=1, max_size=7),
        rate=st.sampled_from([0.0, 0.06, 0.35, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_catalog_values_equal_npv_exactly(self, catalog, rate):
        # the probes value the catalog in one matrix; each value is the npv of
        # the capital up front and then the yearly flow over the lifetime
        techs = [make_tech(name=f"t{k}", capital_cost=capital, capacity_mw=1.0,
                           lifetime_years=lifetime)
                 for k, (capital, lifetime, _) in enumerate(catalog)]
        yearly = {tech.name: flow for tech, (_, _, flow) in zip(techs, catalog)}
        fleet = [PowerPlant(id="g", technology=techs[0], owner="g1", commission_year=2005,
                            unit_count=1)]
        s = make_scenario(techs, fleet, discount_rate=rate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(investment, "estimate_yearly_revenue", pinned_revenue(yearly))
            values = probes_2020(Fleet(s, fleet)).value()
        assert len(values) == len(techs)
        for value, tech in zip(values, techs):
            capital = tech.capital_cost * tech.capacity_mw
            flows = [-capital] + [yearly[tech.name]] * tech.lifetime_years
            assert value == npv(flows, rate), tech.name

    def test_one_market_per_decision_year(self, monkeypatch):
        # 20 MW gas units under a coal plant that always has MW to spare: a new
        # gas unit is short in each segment where the gas bought leaves it more
        # than 20 MW, and there earns the coal price. Those segments grow fewer
        # with each unit, so every state values gas differently and a market
        # grown from the wrong slice of the fleet values the wrong state.
        built = []

        class CountedMarketYear(MarketYear):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        valued = []  # the fleet length at each revenue estimate

        def counted(market, decision_year, s, fleet):
            valued.append(len(fleet))
            return estimate_yearly_revenue(market, decision_year, s, fleet)

        monkeypatch.setattr(investment, "MarketYear", CountedMarketYear)
        monkeypatch.setattr(investment, "estimate_yearly_revenue", counted)
        coal = make_tech(name="coal", fuel_kind="coal", efficiency=0.35, variable_om=2.0,
                         emission_factor=0.9, capacity_mw=200.0)
        gas = make_tech(name="gas", capacity_mw=20.0)
        coal_plant = PowerPlant(id="c", technology=coal, owner="g1", commission_year=2005,
                                unit_count=1)
        day = RepresentativeDay(name="steps", weight_days=365.0, segments=tuple(
            DaySegment(4.0, demand, 0.5, 0.5) for demand in (25.0, 45.0, 65.0, 85.0, 105.0, 125.0)
        ))
        s = make_scenario([coal, gas], [coal_plant], days=(day,))
        plants = [coal_plant]
        fleet = Fleet(s, plants)
        forecast = fit_carbon_forecast([(2019, 10.0), (2020, 50.0)])
        probes = YearProbes(2020, forecast, fleet)
        looked_up = []  # (fleet length, NPVs) of each lookup
        for bought in (0, 1, 2, 1, 0):  # two at once, then a state valued twice
            batch = [PowerPlant(id=f"g{len(fleet) + k}", technology=gas, owner="g1",
                                commission_year=2021, unit_count=1)
                     for k in range(bought)]
            fleet.extend(batch)
            plants += batch
            looked_up.append((len(fleet), probes.value()))
        assert built == [probes.market]
        assert valued == [1, 2, 4, 5]  # each length valued exactly once
        assert looked_up[-1][1] is looked_up[-2][1]  # the repeated lookup
        states = dict(looked_up)
        assert list(states) == [1, 2, 4, 5]
        for n, npvs in states.items():
            assert npvs == YearProbes(2020, forecast, Fleet(s, plants[:n])).value()
        assert len({npvs[s.technologies.index(gas)] for npvs in states.values()}) == 4


def bits(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


class TestValuations:
    @given(case=probe_markets(), other=st.floats(-300.0, 300.0), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_units_depend_on_the_catalog_order_alone(self, case, other, data):
        # two carbon prices that rank the catalog alike give the same units, bit
        # for bit, and either market's units priced at the other's prices probe it
        s, fleet, year, carbon_price = case
        pairs = [price_catalog(Fleet(s, ()), year, price)[0] for price in (carbon_price, other)]
        assume(merit_ranks(pairs[0]) == merit_ranks(pairs[1]))
        markets = [MarketYear(Fleet(s, fleet), year, price) for price in (carbon_price, other)]
        bought = data.draw(st.sampled_from(s.technologies))
        for market in markets:  # and after a purchase the markets place by bisection
            market.fleet.buy("g2", s.technologies.index(bought), "g2:x:2020:1", year - 1)
            market.add()
        units = [market.units() for market in markets]
        assert bits(units[0]) == bits(units[1])
        for market, (energy, index) in zip(markets, units[::-1]):
            assert bits(price_units(energy, index, market.prices)) == bits(market.probe())

    @staticmethod
    def genomes(s, count, seed):
        """``count`` uniform genomes of each kind, linear first."""
        rng = np.random.default_rng(seed)
        drawn = []
        for kind in ("linear", "free"):
            low, high = np.array(bounds(kind, s.horizon_years)).T
            drawn += [(kind, genome) for genome in rng.uniform(low, high, (count, len(low))).tolist()]
        return drawn

    @staticmethod
    def passes(s, genomes, memo):
        """Each genome's purchases (NPVs by ``repr``) and final fleet, through ``memo``."""
        out = []
        for kind, genome in genomes:
            policy = decode(genome, kind, s.horizon_years)
            fleet, bought, _, _ = _invest_over_horizon(s, policy, 0, s.horizon_years, memo)
            out.append((repr(bought), fleet_columns(fleet)))
        return out

    def test_genomes_through_one_memo_buy_as_without_it(self, uk_scenario):
        genomes = self.genomes(uk_scenario, 4, seed=5)
        genomes += [("free", [0.0] * uk_scenario.horizon_years)] * 2  # a genome scored again
        memo = Valuations()
        assert self.passes(uk_scenario, genomes, memo) == self.passes(uk_scenario, genomes, None)
        assert memo.hits > 0 and memo.misses == len(memo.states)

    def test_a_memo_that_empties_itself_mid_search_changes_nothing(self, uk_scenario, monkeypatch):
        # a history number given out before the memo emptied itself must never
        # name another history after it: the genome in flight still holds it
        # (a counter restarted at each emptying gives these genomes wrong purchases)
        genomes = self.genomes(uk_scenario, 3, seed=6)
        genomes += genomes[::-1]  # the last genome twice in a row, so some states hit
        plain = self.passes(uk_scenario, genomes, None)
        monkeypatch.setattr(investment, "MEMO_STATES", 200)
        memo = Valuations()
        assert self.passes(uk_scenario, genomes, memo) == plain
        assert len(memo.states) <= 200 and memo.misses > 4 * 200 and memo.hits > 0

    @pytest.mark.parametrize("search, work", [
        # the benchmark's optimize-linear search, 9 distinct genomes of 16
        (["--kind", "linear", "--pop", "4", "--gens", "3", "--seed", "3"], (886, 340, 546, 95)),
        # the golden optimize-free search, in the paper's encoding
        (["--kind", "free", "--pop", "8", "--gens", "2", "--seed", "0"], (2082, 963, 1119, 176)),
    ])
    def test_a_search_pins_its_work(self, tmp_path, monkeypatch, search, work):
        # the states valued, the memo's hits and misses, and the probe markets built
        memos, built, valued = [], [], []

        class CountedValuations(Valuations):
            def __init__(self):
                memos.append(self)
                super().__init__()

        class CountedMarketYear(MarketYear):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        def counted(market, decision_year, s, fleet):
            valued.append(decision_year)
            return estimate(market, decision_year, s, fleet)

        estimate = investment.estimate_yearly_revenue
        monkeypatch.setattr(cli, "Valuations", CountedValuations)
        monkeypatch.setattr(investment, "MarketYear", CountedMarketYear)
        monkeypatch.setattr(investment, "estimate_yearly_revenue", counted)
        assert cli.main(["optimize", "--scenario", "uk_synthetic", *search, "--jobs", "1",
                         "--out", str(tmp_path)]) == 0
        (memo,) = memos
        assert (len(valued), memo.hits, memo.misses, len(built)) == work

    def test_purchases_of_one_plant_id_are_different_histories(self, uk_scenario):
        # a plant id is "<genco>:<technology>:<year>:<n>", and a company id or a
        # technology name may hold ':'. Company "d" buying "w:solar" and company "d:w"
        # buying "solar" in 2018 both buy "d:w:solar:2018:1", but not the same unit
        text = json.dumps(scenario_to_dict(uk_scenario))
        for old, new in (("delta", "d"), ("gamma", "d:w"), ("onshore_wind", "w:solar")):
            text = text.replace(f'"{old}"', f'"{new}"')  # every id, name and reference
        s = scenario_from_dict(json.loads(text))
        assert validate_scenario(s) == []
        forecast, memo, valued = CarbonForecast(slope=0.0, intercept=0.0), Valuations(), []
        for owner, name in (("d", "w:solar"), ("d:w", "solar")):
            fleet = Fleet(s, s.initial_fleet)
            probes = YearProbes(2018, forecast, fleet, memo)  # history 0: the initial fleet
            fleet.buy(owner, fleet.index[name], f"{owner}:{name}:2018:1", 2018)
            assert fleet.ids[-1] == "d:w:solar:2018:1"
            shared = probes.value()
            assert shared == YearProbes(2018, forecast, fleet).value()
            valued.append(shared)
        assert valued[0] != valued[1] and memo.hits == 0

    def test_probes_over_a_grown_fleet_intern_its_purchases(self, uk_scenario):
        # probes built after a purchase start their history at the initial fleet, not
        # at the fleet as given: two fleets that bought different units share no state
        forecast, memo = CarbonForecast(slope=0.0, intercept=0.0), Valuations()
        for name in ("ccgt", "onshore_wind"):
            fleet = Fleet(uk_scenario, uk_scenario.initial_fleet)
            fleet.buy("alpha", fleet.index[name], f"alpha:{name}:2018:1", 2018)
            shared = YearProbes(2018, forecast, fleet, memo).value()
            assert shared == YearProbes(2018, forecast, fleet).value()
        assert memo.hits == 0

    def test_a_memo_is_pickled_empty(self, uk_scenario):
        memo = Valuations()
        self.passes(uk_scenario, self.genomes(uk_scenario, 1, seed=5), memo)
        again = pickle.loads(pickle.dumps(memo))
        assert memo.states and not again.states and not again.histories
        assert (again.hits, again.misses, again.last_history) == (0, 0, 0)
