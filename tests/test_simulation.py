"""The yearly loop and objective extraction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carbonopt import dispatch, investment
from carbonopt.dispatch import CANDIDATE_ID, Fleet, MarketYear, run_year
from carbonopt.errors import ConfigurationError, GenomeError
from carbonopt.policy import FREE, CarbonPolicy, bounds, decode, parse_policy_spec
from carbonopt.scenario import (
    DaySegment,
    GenCo,
    PowerPlant,
    RepresentativeDay,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from carbonopt.simulation import Event, SimulationResult, evaluate_objectives, run_simulation

from conftest import FULL_DAY, make_scenario, make_tech
from oracle import reference_simulation


def flat(value, n):
    return CarbonPolicy(FREE, (float(value),) * n)


class TestRunSimulation:
    def test_zero_emission_fleet_has_zero_rci(self):
        wind = make_tech(
            name="wind", fuel_kind=None, efficiency=1.0, variable_om=0.0,
            emission_factor=0.0, is_intermittent=True, weather_profile="wind",
        )
        plant = PowerPlant(id="w", technology=wind, owner="g1", commission_year=2010, unit_count=4)
        # 400 MW at cf 0.5 covers the 80 MW load in every segment
        s = make_scenario([wind], [plant])
        result = run_simulation(s, flat(0.0, 2), seed=1)
        assert result.objective_rci == 0.0
        assert result.objective_price == 0.0

    def test_static_fossil_two_year_hand_trace(self, static_fossil_scenario):
        # hand trace (see conftest): srmc 47 at tax 10, demand 80 MW flat
        result = run_simulation(static_fossil_scenario, flat(10.0, 2), seed=0)
        assert len(result.per_year) == 2
        for year_result in result.per_year:
            assert year_result.average_price == pytest.approx(47.0)
            assert year_result.energy_by_technology["gas"] == pytest.approx(700800.0)
            assert year_result.emissions_t == pytest.approx(280320.0)
            assert year_result.carbon_intensity == pytest.approx(0.4)
        assert result.objective_price == pytest.approx(47.0)
        assert result.objective_rci == pytest.approx(1.0)
        assert result.events == ()  # no budget, no retirements inside horizon

    def test_all_zero_tax_static_mix_gives_rci_one(self, static_fossil_scenario):
        result = run_simulation(static_fossil_scenario, flat(0.0, 2), seed=0)
        assert result.objective_rci == 1.0

    def test_same_seed_is_bitwise_identical(self, static_fossil_scenario):
        a = run_simulation(static_fossil_scenario, flat(10.0, 2), seed=7)
        b = run_simulation(static_fossil_scenario, flat(10.0, 2), seed=7)
        assert a == b

    def test_runs_leave_the_scenario_unchanged(self):
        # budgets are run-local: a second run on the same object buys the same
        s = load_scenario(bundled_scenario_path("uk_synthetic"))
        policy = parse_policy_spec("linear:8,100", s.horizon_years)
        first = run_simulation(s, policy, seed=0)
        assert any(e.kind == "invest" for e in first.events)
        assert run_simulation(s, policy, seed=0) == first
        assert s == load_scenario(bundled_scenario_path("uk_synthetic"))

    def test_policy_bounds_checked(self, static_fossil_scenario):
        with pytest.raises(GenomeError):
            run_simulation(static_fossil_scenario, flat(300.0, 2), seed=0)
        with pytest.raises(GenomeError):
            run_simulation(static_fossil_scenario, flat(10.0, 5), seed=0)

    def test_retirement_and_commissioning_events(self):
        gas = make_tech(lifetime_years=3)
        retiree = PowerPlant(id="old", technology=gas, owner="g1", commission_year=2018, unit_count=1)
        keeper = PowerPlant(id="new", technology=gas, owner="g1", commission_year=2021, unit_count=1)
        # 150 MW of load: one 100 MW plant runs short, both together would not
        busy = dataclasses.replace(FULL_DAY, segments=(DaySegment(24.0, 150.0, 0.5, 0.5),))
        s = make_scenario([gas], [retiree, keeper], days=(busy,), start_year=2020, horizon_years=2)
        result = run_simulation(s, flat(0.0, 2), seed=0)
        kinds = [(e.year, e.kind, e.plant_id) for e in result.events]
        assert (2021, "retire", "old") in kinds
        assert (2021, "commission", "new") in kinds
        # year 2020: only "old" active; year 2021: only "new"
        assert result.per_year[0] == run_year(Fleet(s, [retiree]), 2020, 0.0)
        assert result.per_year[1] == run_year(Fleet(s, [keeper]), 2021, 0.0)
        assert [y.unserved_mwh for y in result.per_year] == [50.0 * 8760.0] * 2

    def test_base_zero_with_emissions_is_an_error(self, static_fossil_scenario):
        s = dataclasses.replace(static_fossil_scenario, base_carbon_intensity=0.0)
        with pytest.raises(ConfigurationError):
            run_simulation(s, flat(0.0, 2), seed=0)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_negative_seed_is_refused_by_name(self, static_fossil_scenario, noise):
        s = dataclasses.replace(static_fossil_scenario, demand_noise_std=noise)
        with pytest.raises(ConfigurationError, match=r"seed must be >= 0, got -1"):
            run_simulation(s, flat(0.0, 2), seed=-1)

    def test_demand_noise_hook_reacts_to_seed(self, static_fossil_scenario):
        noisy = dataclasses.replace(static_fossil_scenario, demand_noise_std=0.05)
        a = run_simulation(noisy, flat(10.0, 2), seed=1)
        b = run_simulation(noisy, flat(10.0, 2), seed=2)
        a2 = run_simulation(noisy, flat(10.0, 2), seed=1)
        assert a == a2
        energy = lambda r: sum(r.per_year[0].energy_by_technology.values())  # noqa: E731
        assert energy(a) != energy(b)

    def test_demand_noise_draws_from_a_generator_only_when_enabled(self, uk_scenario,
                                                                    monkeypatch):
        # a noise-free run builds no generator; a noisy one builds one, from its seed
        default_rng, seeds = np.random.default_rng, []

        def refused(seed):
            raise AssertionError(f"a noise-free run built a generator from seed {seed}")

        def recorded(seed):
            seeds.append(seed)
            return default_rng(seed)

        n = uk_scenario.horizon_years
        noisy = dataclasses.replace(uk_scenario, demand_noise_std=0.05)
        for s, rng in ((uk_scenario, refused), (noisy, recorded)):
            monkeypatch.setattr(np.random, "default_rng", rng)
            run_simulation(s, flat(10.0, n), seed=3)
            evaluate_objectives(s, [10.0] * n, "free", seed=3)
        assert seeds == [3, 3]

    def test_a_price_of_negative_zero_is_reported_as_zero(self, uk_scenario):
        # a scenario file can hold -0.0 wherever a rule reads ">= 0": here every
        # segment clears at an SRMC of -0.0, and each sum of prices or emissions is
        # -0.0 until ``dispatch._total`` adds 0.0; a probe's revenue likewise until
        # ``dispatch.price_units`` does
        raw = scenario_to_dict(uk_scenario)
        (ccgt,) = [tech for tech in raw["technologies"] if tech["name"] == "ccgt"]
        raw["technologies"] = [{**ccgt, "variable_om": -0.0, "emission_factor": -0.0}]
        raw["initial_fleet"] = [{"id": "ccgt-a", "technology": "ccgt", "owner": "alpha",
                                 "commission_year": 2010, "unit_count": 200}]
        raw["gencos"] = [{**genco, "budget": 0.0} for genco in raw["gencos"]]
        raw["fuel_prices"]["gas"] = dict.fromkeys(raw["fuel_prices"]["gas"], -0.0)
        s = scenario_from_dict(raw)
        assert validate_scenario(s) == []
        n = s.horizon_years
        market = MarketYear(Fleet(s, s.initial_fleet), s.start_year, 10.0)
        assert repr(market.srmc.tolist()) == "[-0.0]"
        assert repr(market.probe()[1].tolist()) == "[0.0]"
        result = run_simulation(s, parse_policy_spec("flat:10", n), seed=0)
        assert repr((result.objective_price, result.objective_rci)) == "(0.0, 0.0)"
        assert repr({(year.average_price, year.emissions_t) for year in result.per_year}) == (
            "{(0.0, 0.0)}")
        assert repr(evaluate_objectives(s, [10.0] * n, "free", seed=0)) == "(0.0, 0.0)"


class TestEvaluateObjectives:
    def test_matches_run_simulation(self, static_fossil_scenario):
        price, rci = evaluate_objectives(static_fossil_scenario, [10.0, 10.0], "free", seed=0)
        assert price == pytest.approx(47.0)
        assert rci == pytest.approx(1.0)

    def test_the_genome_is_checked_once(self, static_fossil_scenario, monkeypatch):
        # decode checks the genome against its kind's box; the investment pass
        # does not check it again. Each check builds the box once.
        from carbonopt import policy, simulation

        checks, boxes = [], []
        check_bounds, bounds = policy.check_bounds, policy.bounds

        def counted_check(*args):
            checks.append(args)
            return check_bounds(*args)

        def counted_box(*args):
            boxes.append(args)
            return bounds(*args)

        for module in (policy, simulation):
            monkeypatch.setattr(module, "check_bounds", counted_check)
        monkeypatch.setattr(policy, "bounds", counted_box)
        evaluate_objectives(static_fossil_scenario, [10.0, 10.0], "free", seed=0)
        assert (len(checks), len(boxes)) == (1, 1)
        run_simulation(static_fossil_scenario, flat(10.0, 2), seed=0)
        assert (len(checks), len(boxes)) == (2, 2)

    def test_decode_failure_raises(self, static_fossil_scenario):
        with pytest.raises(GenomeError):
            evaluate_objectives(static_fossil_scenario, [10.0], "free", seed=0)
        with pytest.raises(GenomeError):
            evaluate_objectives(static_fossil_scenario, [10.0, 10.0], "cubic", seed=0)

    def test_constant_linear_equals_expanded_free(self, uk_scenario):
        constant = 120.0
        linear = evaluate_objectives(uk_scenario, [0.0, constant], "linear", seed=3)
        free = evaluate_objectives(uk_scenario, [constant] * 18, "free", seed=3)
        assert linear == free  # exact equality: the policies coincide

    def test_max_tax_does_not_raise_final_intensity(self, uk_scenario):
        # the core model is seed-independent (no noise hooks in the bundled
        # scenario), so a single seed stands in for a seed average
        _, rci_taxed = evaluate_objectives(uk_scenario, [250.0] * 18, "free", seed=1)
        _, rci_untaxed = evaluate_objectives(uk_scenario, [0.0] * 18, "free", seed=1)
        assert rci_taxed <= rci_untaxed

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_negative_seed_is_refused_by_name(self, static_fossil_scenario, noise):
        s = dataclasses.replace(static_fossil_scenario, demand_noise_std=noise)
        with pytest.raises(ConfigurationError, match=r"seed must be >= 0, got -1"):
            evaluate_objectives(s, [0.0, 0.0], "free", seed=-1)

    def test_base_zero_with_emissions_is_an_error(self, static_fossil_scenario):
        s = dataclasses.replace(static_fossil_scenario, base_carbon_intensity=0.0)
        with pytest.raises(ConfigurationError, match="base_carbon_intensity is 0"):
            evaluate_objectives(s, [0.0, 0.0], "free", seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_objectives_are_refused(self, static_fossil_scenario):
        # 150 MW of load on a 100 MW plant: the shortfall, priced near the float
        # limit (validation refuses such a price), overflows the price to inf
        busy = dataclasses.replace(FULL_DAY, segments=(DaySegment(24.0, 150.0, 0.5, 0.5),))
        s = dataclasses.replace(static_fossil_scenario, representative_days=(busy,),
                                loss_of_load_price=1e308)
        with pytest.raises(ConfigurationError, match=r"non-finite objectives \(inf, "):
            evaluate_objectives(s, [0.0, 0.0], "free", seed=0)

    def test_clears_only_the_final_year(self, uk_scenario, monkeypatch):
        cleared = []

        def clear(market):
            cleared.append(market.year)
            return original(market)

        original = MarketYear.clear
        monkeypatch.setattr(MarketYear, "clear", clear)
        final_year = uk_scenario.start_year + uk_scenario.horizon_years - 1
        evaluate_objectives(uk_scenario, [8.0, 100.0], "linear", seed=0)
        assert cleared == [final_year]
        cleared.clear()
        run_simulation(uk_scenario, parse_policy_spec("linear:8,100", uk_scenario.horizon_years),
                       seed=0)
        assert cleared == list(range(uk_scenario.start_year, final_year + 1))

    def test_values_no_state_in_the_final_year(self, uk_scenario, monkeypatch):
        # every uk_synthetic technology takes a year or more to build, so a fitness
        # evaluation skips the final round, whose purchases a run does value
        valued = []  # the decision year of each state valued

        def counted(market, decision_year, s, fleet):
            valued.append(decision_year)
            return estimate(market, decision_year, s, fleet)

        estimate = investment.estimate_yearly_revenue
        monkeypatch.setattr(investment, "estimate_yearly_revenue", counted)
        n, final_year = uk_scenario.horizon_years, uk_scenario.final_year
        for genome in ([8.0, 100.0], [14.0, 0.0]):  # rising taxes: companies buy to the end
            run_simulation(uk_scenario, decode(genome, "linear", n), seed=0)
            assert final_year in valued
            valued.clear()
            evaluate_objectives(uk_scenario, genome, "linear", seed=0)
            assert final_year - 1 in valued and final_year not in valued
            valued.clear()

    def test_builds_no_per_purchase_object(self, uk_scenario, monkeypatch):
        # a purchase is a fleet row and a record: scoring genomes that buy units
        # builds no PowerPlant and no Event; only a run's event log builds events
        counts = {"PowerPlant": 0, "Event": 0, "buy": 0}

        def count(owner, name, label):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[label] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(PowerPlant, "__init__", "PowerPlant")
        count(Event, "__init__", "Event")
        count(Fleet, "buy", "buy")
        n = uk_scenario.horizon_years
        genomes = [("linear", [8.0, 100.0]), ("linear", [-14.0, 250.0]), ("free", [0.0] * n),
                   ("free", [250.0] * n)]
        for kind, genome in genomes:
            evaluate_objectives(uk_scenario, genome, kind, seed=0)
        assert counts["PowerPlant"] == counts["Event"] == 0
        assert counts["buy"] > 50 * len(genomes)  # about 94 units a run
        result = run_simulation(uk_scenario, decode([8.0, 100.0], "linear", n), seed=0)
        assert counts["Event"] == len(result.events) > 0  # the counter counts

    @pytest.mark.parametrize("buyers", ["broke", "none"])
    def test_no_buyer_builds_no_probe_market(self, uk_scenario, gas_tech, monkeypatch, buyers):
        # only the spot markets are built: every year's for a run, the final
        # year's for a fitness evaluation
        built = []  # the year of each market built

        class CountedMarketYear(MarketYear):
            def __init__(self, fleet, year, *args, **kwargs):
                built.append(year)
                super().__init__(fleet, year, *args, **kwargs)

        monkeypatch.setattr(dispatch, "MarketYear", CountedMarketYear)
        monkeypatch.setattr(investment, "MarketYear", CountedMarketYear)
        if buyers == "broke":
            s = dataclasses.replace(uk_scenario, gencos=tuple(
                dataclasses.replace(genco, budget=0.0) for genco in uk_scenario.gencos))
        else:
            s = make_scenario([gas_tech], [], gencos=())
        years = list(range(s.start_year, s.start_year + s.horizon_years))
        run_simulation(s, flat(10.0, s.horizon_years), seed=0)
        assert built == years
        built.clear()
        evaluate_objectives(s, [10.0] * s.horizon_years, "free", seed=0)
        assert built == years[-1:]

    def test_a_unit_built_in_the_final_year_counts(self):
        # with no construction lag the wind unit runs in the final year and
        # displaces gas; with a lag of a year it is bought all the same but
        # comes too late, so the final round may be skipped only then
        objectives = {}
        for lag in (0, 1):
            s, policy, seed = final_year_wind(lag)
            result = run_simulation(s, policy, seed)
            assert [(e.year, e.technology) for e in result.events if e.kind == "invest"] \
                == [(2021, "wind")]
            objectives[lag] = evaluate_objectives(s, list(policy.genes), "free", seed)
            assert objectives[lag] == (result.objective_price, result.objective_rci)
        assert objectives[0] != objectives[1]
        assert objectives[0][1] == pytest.approx(0.375)  # 50 of 80 MW from wind

    @pytest.mark.parametrize("zero_lag", [(), ("ocgt",)])
    def test_drawn_uk_genomes_score_as_their_runs(self, uk_scenario, zero_lag):
        # the bundled catalog takes a year or more to build everything; with a
        # technology of no construction lag, the final round is run
        techs = {tech.name: dataclasses.replace(
            tech, construction_lag_years=0 if tech.name in zero_lag else tech.construction_lag_years)
            for tech in uk_scenario.technologies}
        s = dataclasses.replace(
            uk_scenario, technologies=tuple(techs.values()),
            initial_fleet=tuple(dataclasses.replace(plant, technology=techs[plant.technology.name])
                                for plant in uk_scenario.initial_fleet))
        rng = np.random.default_rng(11)
        final_purchases = 0
        for kind in ("linear", "free"):
            low, high = np.array(bounds(kind, s.horizon_years)).T
            for genome in rng.uniform(low, high, (5, len(low))).tolist():
                result = run_simulation(s, decode(genome, kind, s.horizon_years), seed=0)
                final_purchases += any(e.kind == "invest" and e.year == s.final_year
                                       for e in result.events)
                assert evaluate_objectives(s, genome, kind, seed=0) == (
                    result.objective_price, result.objective_rci), (kind, genome)
        assert final_purchases > 0

    def test_objectives_finite_on_uk_fixture_corners(self, uk_scenario):
        import math

        for genome in ([-14.0, 0.0], [14.0, 250.0], [0.0, 0.0]):
            price, rci = evaluate_objectives(uk_scenario, genome, "linear", seed=0)
            assert math.isfinite(price) and math.isfinite(rci)
            assert rci >= 0.0


def final_year_wind(lag):
    """A run whose only purchase is made in its final year: (scenario, policy, seed).

    A wind unit of construction lag ``lag`` pays off against a gas plant
    only once the second year's tax of 250 steepens the carbon forecast.
    """
    gas = make_tech()
    plant = PowerPlant(id="gas-1", technology=gas, owner="g1", commission_year=2010, unit_count=1)
    wind = make_tech(name="wind", capital_cost=4e6, fixed_om=0.0, variable_om=0.0, fuel_kind=None,
                     efficiency=1.0, emission_factor=0.0, is_intermittent=True,
                     weather_profile="wind", construction_lag_years=lag)
    s = make_scenario([gas, wind], [plant], gencos=(GenCo("g1", 4e8),))
    return s, CarbonPolicy(FREE, (0.0, 250.0)), 0


@st.composite
def small_runs(draw):
    """A few years of a small market: SRMC and emission-factor ties, plants that
    retire or come online inside the ten-year probe horizon, budgets for a few units."""
    techs = []
    for k in range(draw(st.integers(2, 5))):
        intermittent = draw(st.booleans())
        fueled = not intermittent and draw(st.booleans())
        techs.append(make_tech(
            name=f"t{k}",
            capacity_mw=draw(st.sampled_from([10.0, 30.0, 45.5])),
            capital_cost=draw(st.sampled_from([20_000.0, 100_000.0, 500_000.0])),
            fixed_om=draw(st.sampled_from([0.0, 10_000.0])),
            fuel_kind="gas" if fueled else None,
            efficiency=0.5 if fueled else 1.0,
            # 45 ties a fuel-free SRMC with a fueled one (fuel term 40) of variable O&M 5
            variable_om=draw(st.sampled_from([0.0, 5.0, 45.0])),
            emission_factor=draw(st.sampled_from([0.0, 0.4])),
            is_intermittent=intermittent,
            weather_profile=draw(st.sampled_from(["solar", "wind"])) if intermittent else None,
            lifetime_years=draw(st.sampled_from([3, 8, 30])),
            construction_lag_years=draw(st.sampled_from([0, 2, 6])),
        ))
    ids = ["0", "A", "_", CANDIDATE_ID, CANDIDATE_ID + "0", "a", "z"]
    fleet = [
        PowerPlant(id=plant_id, technology=draw(st.sampled_from(techs)), owner="g1",
                   commission_year=draw(st.sampled_from([2005, 2015, 2020, 2024, 2027])),
                   unit_count=draw(st.integers(1, 3)))
        for plant_id in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    ]
    budgets = st.sampled_from([0.0, 2e6, 2e7])
    factors = st.sampled_from([0.0, 0.3, 1.0])
    days = tuple(
        RepresentativeDay(name=f"d{i}", weight_days=weight, segments=tuple(
            DaySegment(hours, draw(st.sampled_from([20.0, 60.0, 150.0])), draw(factors),
                       draw(factors))
            for hours in (8.0, 16.0)
        ))
        for i, weight in enumerate((200.0, 165.0))
    )
    years = draw(st.integers(2, 4))
    s = make_scenario(
        techs, fleet, gencos=(GenCo("g1", draw(budgets)), GenCo("g2", draw(budgets))), days=days,
        horizon_years=years, demand_growth=draw(st.sampled_from([1.0, 1.05])),
        demand_noise_std=draw(st.sampled_from([0.0, 0.05])),
    )
    policy = CarbonPolicy(FREE, tuple(
        draw(st.sampled_from([0.0, 12.5, 60.0, 250.0])) for _ in range(years)
    ))
    return s, policy, draw(st.integers(0, 3))


def assert_same_run(result, expected):
    for field in dataclasses.fields(SimulationResult):
        assert getattr(result, field.name) == getattr(expected, field.name), field.name
    for year, reference in zip(result.per_year, expected.per_year):
        assert list(year.energy_by_technology) == list(reference.energy_by_technology)


class TestRunSimulationOracle:
    """``run_simulation`` == the plain loop of ``oracle.reference_simulation``, exactly."""

    @given(case=small_runs())
    @settings(max_examples=60, deadline=None)
    def test_small_runs_equal_the_plain_loop(self, case):
        s, policy, seed = case
        assert_same_run(run_simulation(s, policy, seed), reference_simulation(s, policy, seed))

    @given(case=small_runs())
    @example(case=final_year_wind(0))  # few drawn runs buy a unit that runs in the final year
    @settings(max_examples=40, deadline=None)
    def test_objectives_equal_the_plain_loop(self, case):
        s, policy, seed = case
        expected = reference_simulation(s, policy, seed)
        objectives = evaluate_objectives(s, list(policy.genes), "free", seed)
        assert objectives == (expected.objective_price, expected.objective_rci)

    def test_uk_first_years_equal_the_plain_loop(self, uk_scenario):
        s = dataclasses.replace(uk_scenario, horizon_years=4)
        policy = parse_policy_spec("linear:8,100", s.horizon_years)
        result = run_simulation(s, policy, 0)
        assert any(e.kind == "invest" for e in result.events)
        assert_same_run(result, reference_simulation(s, policy, 0))

