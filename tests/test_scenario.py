"""Scenario loading, validation and round-trip behaviour."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import reprlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from carbonopt.errors import ScenarioParseError, ScenarioValidationError
from carbonopt.policy import parse_policy_spec
from carbonopt.scenario import (
    DaySegment,
    GenCo,
    PowerPlant,
    RepresentativeDay,
    Scenario,
    bundled_scenario_path,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from carbonopt.simulation import run_simulation

from conftest import make_scenario, make_tech

MINIMAL = {
    "start_year": 2020,
    "horizon_years": 2,
    "base_carbon_intensity": 0.4,
    "technologies": [
        {
            "name": "gas",
            "capacity_mw": 100.0,
            "capital_cost": 500000.0,
            "fixed_om": 10000.0,
            "variable_om": 3.0,
            "fuel_kind": "gas",
            "efficiency": 0.5,
            "emission_factor": 0.4,
            "lifetime_years": 30,
        }
    ],
    "initial_fleet": [
        {"id": "p1", "technology": "gas", "owner": "g1", "commission_year": 2000, "unit_count": 1}
    ],
    "gencos": [{"id": "g1", "budget": 0.0}],
    "representative_days": [
        {
            "name": "always",
            "weight_days": 365.0,
            "segments": [{"duration_hours": 24.0, "demand_mw": 80.0}],
        }
    ],
    "fuel_prices": {"gas": {"2020": 20.0, "2021": 20.0}},
}


def write_json(tmp_path, data, name="s.scenario"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoad:
    def test_minimal_file_fills_defaults(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        del data["technologies"][0]["fuel_kind"], data["representative_days"][0]["name"]
        s = load_scenario(write_json(tmp_path, data))
        assert s.horizon_years == 2
        assert s.discount_rate == 0.06
        assert s.demand_growth == 1.0
        assert s.loss_of_load_price == 6000.0
        assert s.demand_noise_std == 0.0
        tech = s.technologies[0]
        assert tech.fuel_kind is None and tech.weather_profile is None
        assert tech.construction_lag_years == 0 and tech.is_intermittent is False
        assert s.representative_days[0].name == "day-0"
        segment = s.representative_days[0].segments[0]
        assert segment.solar_capacity_factor == segment.wind_capacity_factor == 0.0
        del data["horizon_years"]
        assert scenario_from_dict(data).horizon_years == 18

    def test_bad_hours_rejected_naming_day_set(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        # 365 days of this segment sum to 8000 hours, not 8760
        data["representative_days"][0]["segments"][0]["duration_hours"] = 8000.0 / 365.0
        path = write_json(tmp_path, data)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        messages = [str(v) for v in err.value.violations]
        assert any("representative_days" in m and "always" in m for m in messages)

    def test_bundled_fixture(self):
        path = bundled_scenario_path("uk_synthetic")
        assert path is not None
        s = load_scenario(path)
        assert len(s.technologies) == 7
        assert s.horizon_years == 18
        assert s.final_year == 2035
        assert validate_scenario(s) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "nope.scenario")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_missing_required_key(self, tmp_path):
        data = dict(MINIMAL)
        del data["start_year"]
        with pytest.raises(ScenarioParseError, match="start_year"):
            load_scenario(write_json(tmp_path, data))

    def test_a_repeated_key_is_refused(self, tmp_path):
        # ``json`` keeps the last value of a repeated key, so 1.0 would vanish unseen
        text = bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8")
        path = tmp_path / "twice.scenario"
        path.write_text(text.replace('"capacity_mw": 1000.0', '"capacity_mw": 1.0, "capacity_mw": 1000.0', 1),
                        encoding="utf-8")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert str(err.value) == f"scenario file {path}: key 'capacity_mw' is repeated in one object"

    @pytest.mark.parametrize("spelling", ["2_020", " 2020", "2020 ", "+2020", "02020", "٢٠٢٠"])
    def test_a_year_spelled_twice_is_refused(self, tmp_path, spelling):
        # each is int() 2020: beside "2020" it would replace the listed 20.0 with 999.0
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        raw["fuel_prices"]["gas"][spelling] = 999.0
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write_json(tmp_path, raw))
        assert str(err.value) == f"fuel_prices[gas] year: must be an integer, got {spelling!r}"

    def test_int_years_from_python_are_read(self):
        raw = copy.deepcopy(MINIMAL)
        raw["fuel_prices"] = {"gas": {2020: 20.0, 2021: 21.0}}
        assert scenario_from_dict(raw).fuel_prices == {"gas": {2020: 20.0, 2021: 21.0}}

    def test_unknown_plant_technology(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["initial_fleet"][0]["technology"] = "fusion"
        with pytest.raises(ScenarioParseError, match="fusion"):
            load_scenario(write_json(tmp_path, data))


class TestValidate:
    def test_valid_fixture_has_no_violations(self, static_fossil_scenario):
        assert validate_scenario(static_fossil_scenario) == []

    def test_bad_efficiency_cited_by_path(self):
        from carbonopt.scenario import Scenario

        tech = make_tech(efficiency=1.2)
        plant = PowerPlant(id="p", technology=tech, owner="g1", commission_year=2000, unit_count=1)
        s = Scenario(
            start_year=2020,
            horizon_years=2,
            technologies=(tech,),
            initial_fleet=(plant,),
            gencos=(GenCo(id="g1", budget=0.0),),
            representative_days=(
                RepresentativeDay(
                    name="always",
                    weight_days=365.0,
                    segments=(DaySegment(24.0, 80.0, 0.0, 0.0),),
                ),
            ),
            fuel_prices={"gas": {2020: 20.0, 2021: 20.0}},
            base_carbon_intensity=0.4,
        )
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert violations[0].path == "technologies[gas].efficiency"

    def test_missing_fuel_price_year_cited(self):
        from carbonopt.scenario import Scenario

        tech = make_tech()
        plant = PowerPlant(id="p", technology=tech, owner="g1", commission_year=2000, unit_count=1)
        s = Scenario(
            start_year=2020,
            horizon_years=3,
            technologies=(tech,),
            initial_fleet=(plant,),
            gencos=(GenCo(id="g1", budget=0.0),),
            representative_days=(
                RepresentativeDay(
                    name="always",
                    weight_days=365.0,
                    segments=(DaySegment(24.0, 80.0, 0.0, 0.0),),
                ),
            ),
            fuel_prices={"gas": {2020: 20.0, 2021: 20.0}},  # 2022 missing
            base_carbon_intensity=0.4,
        )
        violations = validate_scenario(s)
        assert [v.path for v in violations] == ["fuel_prices[gas]"]
        assert "2022" in violations[0].message

    def test_plant_technology_must_be_the_catalog_entry(self, static_fossil_scenario):
        # a copy of the catalog's gas with other costs: a market would price it as the
        # catalog's gas (SRMC 47 at tax 10), not at its own (SRMC 99)
        s = static_fossil_scenario
        gas = s.technologies[0]
        copy = dataclasses.replace(gas, variable_om=50.0, emission_factor=0.9)
        plants = (dataclasses.replace(s.initial_fleet[0], id="own", technology=copy),
                  *s.initial_fleet)
        violations = validate_scenario(dataclasses.replace(s, initial_fleet=plants))
        assert [(v.path, v.message) for v in violations] == [
            ("initial_fleet[own].technology", "technology 'gas' differs from the catalog's entry")
        ]
        equal = dataclasses.replace(gas)  # an equal copy prices the same and is accepted
        plants = (dataclasses.replace(s.initial_fleet[0], id="own", technology=equal),)
        assert validate_scenario(dataclasses.replace(s, initial_fleet=plants)) == []

    def test_a_plant_id_holding_nul_is_refused(self, static_fossil_scenario, tmp_path):
        # numpy strings drop trailing NULs, so the market's sort would tie "coal-a\0"
        # with "coal-a" (see ``dispatch.Fleet``)
        s = static_fossil_scenario
        plants = (dataclasses.replace(s.initial_fleet[0], id="own\0"), *s.initial_fleet)
        violations = validate_scenario(dataclasses.replace(s, initial_fleet=plants))
        assert [str(v) for v in violations] == ["initial_fleet[own\0].id: must not contain U+0000"]
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        (plant,) = (plant for plant in raw["initial_fleet"] if plant["id"] == "coal-b")
        plant["id"] = "coal-a\u0000"
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, raw))
        assert [str(v) for v in err.value.violations] == [
            "initial_fleet[coal-a\0].id: must not contain U+0000"]

    @pytest.mark.parametrize("key, old, path", [
        ("gencos", "alpha", "gencos[alpha\0].id"),
        ("technologies", "nuclear", "technologies[nuclear\0].name"),
    ], ids=["genco", "technology"])
    def test_a_genco_or_technology_name_holding_nul_is_refused(self, tmp_path, key, old, path):
        # a bought plant's id is "<genco>:<technology>:<year>:<n>", which a run's fleet
        # refuses if it holds U+0000: a run would stop naming a plant not in the file
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        field, reference = ("id", "owner") if key == "gencos" else ("name", "technology")
        for item in raw[key]:
            if item[field] == old:
                item[field] += "\u0000"
        for plant in raw["initial_fleet"]:
            if plant[reference] == old:
                plant[reference] += "\u0000"
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, raw))
        assert [str(v) for v in err.value.violations] == [f"{path}: must not contain U+0000"]

    def test_intermittent_needs_weather_profile(self):
        from carbonopt.scenario import Scenario

        tech = make_tech(
            name="solar", fuel_kind=None, efficiency=1.0, is_intermittent=True
        )
        s = Scenario(
            start_year=2020,
            horizon_years=2,
            technologies=(tech,),
            initial_fleet=(),
            gencos=(GenCo(id="g1", budget=0.0),),
            representative_days=(
                RepresentativeDay(
                    name="always",
                    weight_days=365.0,
                    segments=(DaySegment(24.0, 80.0, 0.0, 0.0),),
                ),
            ),
            fuel_prices={},
            base_carbon_intensity=0.4,
        )
        assert any(
            v.path == "technologies[solar].weather_profile" for v in validate_scenario(s)
        )


class TestRoundTrip:
    def test_bundled_round_trip(self, tmp_path, uk_scenario):
        path = tmp_path / "copy.scenario"
        save_scenario(uk_scenario, path)
        assert load_scenario(path) == uk_scenario

    def test_dict_round_trip(self, static_fossil_scenario):
        raw = scenario_to_dict(static_fossil_scenario)
        assert json.loads(json.dumps(raw)) == raw  # lists and string keys only
        assert scenario_from_dict(raw) == static_fossil_scenario

    @given(
        demand=st.floats(1.0, 1e6, allow_nan=False),
        price=st.floats(0.0, 1e4, allow_nan=False),
        growth=st.floats(0.5, 2.0, allow_nan=False),
        budget=st.floats(0.0, 1e12, allow_nan=False),
    )
    def test_numeric_fields_survive_round_trip(self, demand, price, growth, budget):
        # a unit of 1e9 keeps every drawn budget within MAX_PURCHASES units
        tech = make_tech(capital_cost=10_000_000.0)
        plant = PowerPlant(id="p", technology=tech, owner="g1", commission_year=2000, unit_count=2)
        day = RepresentativeDay(
            name="always",
            weight_days=365.0,
            segments=(DaySegment(24.0, demand, 0.0, 0.0),),
        )
        s = make_scenario(
            [tech],
            [plant],
            gencos=(GenCo(id="g1", budget=budget),),
            days=(day,),
            demand_growth=growth,
            fuel_prices={"gas": {2020: price, 2021: price}},
            # the fuel costs up to 1e4 / 0.5 per MWh, which must stay below loss of load
            loss_of_load_price=1e5,
        )
        raw = json.loads(json.dumps(scenario_to_dict(s)))
        assert scenario_from_dict(raw) == s


class TestImmutability:
    def test_genco_budget_cannot_be_assigned(self):
        s = load_scenario(bundled_scenario_path("uk_synthetic"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.gencos[0].budget = 0.0


class TestAccessors:
    def test_fuel_price_clamps_beyond_series(self, static_fossil_scenario):
        s = static_fossil_scenario
        assert s.fuel_price("gas", 2021) == 20.0
        assert s.fuel_price("gas", 2040) == 20.0  # held at last value
        with pytest.raises(KeyError):
            s.fuel_price("gas", 2010)
        with pytest.raises(KeyError):
            s.fuel_price("unobtainium", 2021)

    def test_demand_scale(self, static_fossil_scenario):
        import dataclasses

        s = dataclasses.replace(static_fossil_scenario, demand_growth=1.1)
        assert s.demand_scale(2020) == 1.0
        assert s.demand_scale(2022) == pytest.approx(1.21)

    def test_plant_activity_window(self, gas_tech):
        plant = PowerPlant(id="p", technology=gas_tech, owner="g", commission_year=2000, unit_count=1)
        assert plant.retirement_year == 2030
        assert plant.active_in(2000)
        assert plant.active_in(2029)
        assert not plant.active_in(2030)
        assert not plant.active_in(1999)


class TestNumericGuards:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path, edit",
        [
            ("discount_rate", lambda d, v: d.update(discount_rate=v)),
            ("technologies[gas].fixed_om", lambda d, v: d["technologies"][0].update(fixed_om=v)),
            ("gencos[g1].budget", lambda d, v: d["gencos"][0].update(budget=v)),
            ("representative_days[always].segments[0].duration_hours",
             lambda d, v: d["representative_days"][0]["segments"][0].update(duration_hours=v)),
            ("fuel_prices[gas][2020]", lambda d, v: d["fuel_prices"]["gas"].update({"2020": v})),
        ],
    )
    def test_non_finite_number_is_named(self, tmp_path, path, edit, value):
        data = copy.deepcopy(MINIMAL)
        edit(data, value)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, data))
        assert path in [v.path for v in err.value.violations]

    @pytest.mark.parametrize(
        "path, edit",
        [
            # a huge horizon once made validation list every year of it
            ("horizon_years", lambda d: d.update(horizon_years=10**9)),
            ("technologies[gas].lifetime_years",
             lambda d: d["technologies"][0].update(lifetime_years=1e300)),
            ("discount_rate", lambda d: d.update(discount_rate=1e300)),
            ("demand_growth", lambda d: d.update(demand_growth=1e300)),
            ("base_carbon_intensity", lambda d: d.update(base_carbon_intensity=0.0)),
            ("technologies[gas].emission_factor",
             lambda d: d["technologies"][0].update(emission_factor=1e300)),
        ],
    )
    def test_number_out_of_range_is_named(self, tmp_path, path, edit):
        data = copy.deepcopy(MINIMAL)
        edit(data)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, data))
        assert [v.path for v in err.value.violations] == [path]

    @pytest.mark.parametrize("field", ["variable_om", "fixed_om"])
    def test_negative_om_cost_is_rejected(self, tmp_path, field):
        data = copy.deepcopy(MINIMAL)
        data["technologies"][0][field] = -1.0
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, data))
        assert [v.path for v in err.value.violations] == [f"technologies[gas].{field}"]

    @pytest.mark.parametrize("capacity_mw, refused", [(1e-6, True), (59.0, True), (60.0, False)])
    def test_runaway_purchases_are_refused(self, capacity_mw, refused):
        # the richest company (36e9) may buy at most MAX_PURCHASES = 1000 solar
        # units (600,000 per MW); a near-free unit keeps the greedy invest loop buying
        raw = two_year_uk()
        solar = next(t for t in raw["technologies"] if t["name"] == "solar")
        solar["capacity_mw"] = capacity_mw
        paths = [v.path for v in validate_scenario(scenario_from_dict(raw))]
        assert paths == (["technologies[solar].capacity_mw"] if refused else [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
    def test_non_integer_count_is_named(self, tmp_path, value):
        data = copy.deepcopy(MINIMAL)
        data["initial_fleet"][0]["unit_count"] = value
        with pytest.raises(ScenarioParseError, match="unit_count"):
            load_scenario(write_json(tmp_path, data))

    @pytest.mark.parametrize(
        "message, edit",
        [
            ("technologies[gas].capacity_mw: must be a number, got None",
             lambda d: d["technologies"][0].update(capacity_mw=None)),
            ("technologies[gas].capacity_mw: must be a number, got 'abc'",
             lambda d: d["technologies"][0].update(capacity_mw="abc")),
            ("technologies[gas].efficiency: must be a number, got True",
             lambda d: d["technologies"][0].update(efficiency=True)),
            ("initial_fleet[p1].unit_count: must be an integer, got '1'",
             lambda d: d["initial_fleet"][0].update(unit_count="1")),
            ("technologies[gas].fuel_kind: must be a string or null, got 5",
             lambda d: d["technologies"][0].update(fuel_kind=5)),
            ("technologies[gas].is_intermittent: must be true or false, got 'false'",
             lambda d: d["technologies"][0].update(is_intermittent="false")),
            ("gencos[0].id: must be a string, got 1", lambda d: d["gencos"][0].update(id=1)),
            ("representative_days[always].segments: must be a list, got {}",
             lambda d: d["representative_days"][0].update(segments={})),
            ("fuel_prices[gas][2020]: must be a number, got [20.0]",
             lambda d: d["fuel_prices"]["gas"].update({"2020": [20.0]})),
            ("fuel_prices[gas] year: must be an integer, got 'next'",
             lambda d: d["fuel_prices"]["gas"].update({"next": 20.0})),
            # str.isdigit accepts a superscript digit, int() does not
            ("fuel_prices[gas] year: must be an integer, got '²'",
             lambda d: d["fuel_prices"]["gas"].update({"²": 20.0})),
            # past the digit limit of int()
            ("fuel_prices[gas] year: must be an integer, got " + reprlib.repr("9" * 5000),
             lambda d: d["fuel_prices"]["gas"].update({"9" * 5000: 20.0})),
            ("representative_days: must be a list, got ()",
             lambda d: d.update(representative_days=())),
            # keys that name no field
            ("demand_grwoth: unknown key", lambda d: d.update(demand_grwoth=1.5)),
            ("technologies[gas].efficency: unknown key",
             lambda d: d["technologies"][0].update(efficency=0.5)),
            ("representative_days[always].segments[0].wind: unknown key",
             lambda d: d["representative_days"][0]["segments"][0].update(wind=0.5)),
        ],
        ids=["null-number", "string-number", "true-number", "string-integer", "number-fuel-kind",
             "string-bool", "number-id", "object-list", "list-fuel-price", "word-year",
             "superscript-year", "long-year", "tuple-list", "unknown-key", "unknown-technology-key",
             "unknown-segment-key"],
    )
    def test_wrong_json_type_is_named(self, message, edit):
        data = copy.deepcopy(MINIMAL)
        edit(data)
        with pytest.raises(ScenarioParseError) as err:
            scenario_from_dict(data)
        assert str(err.value) == message

    def test_document_must_be_an_object(self):
        with pytest.raises(ScenarioParseError, match=r"^scenario: must be an object, got \[1\]$"):
            scenario_from_dict([1])

    @pytest.mark.parametrize(
        "efficiency, violations",
        [
            (1e-300, ["technologies[ccgt].efficiency"]),
            (1e-9, ["technologies[ccgt].efficiency"]),
            # refused by its own range check only, never divided by
            (0.0, ["technologies[ccgt].efficiency"]),
            # gas costs at most 20 per MWh thermal: 20 / 0.003 = 6667 is above 6000,
            # 20 / 0.004 = 5000 is not
            (0.003, ["technologies[ccgt].efficiency"]),
            (0.004, []),
        ],
    )
    def test_fuel_cost_above_loss_of_load_is_refused(self, efficiency, violations):
        raw = two_year_uk()
        ccgt = next(t for t in raw["technologies"] if t["name"] == "ccgt")
        ccgt["efficiency"] = efficiency
        found = validate_scenario(scenario_from_dict(raw))
        assert [v.path for v in found] == violations
        if efficiency > 0:
            assert all("loss-of-load price 6000" in v.message for v in found)

    def test_fuel_cost_check_skips_a_refused_fuel_series(self):
        raw = two_year_uk()
        next(t for t in raw["technologies"] if t["name"] == "ccgt")["efficiency"] = 1e-9
        raw["fuel_prices"]["gas"]["2020"] = math.nan
        paths = [v.path for v in validate_scenario(scenario_from_dict(raw))]
        assert paths == ["fuel_prices[gas][2020]"]


def two_year_uk() -> dict:
    """The bundled ``uk_synthetic`` document cut to its first two years."""
    raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
    raw["horizon_years"] = 2
    years = {str(raw["start_year"] + k) for k in range(2)}
    raw["fuel_prices"] = {
        fuel: {y: p for y, p in series.items() if y in years}
        for fuel, series in raw["fuel_prices"].items()
    }
    return raw


def is_number(node) -> bool:
    """Whether a JSON value is a number; true/false are not."""
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def numeric_paths(node, path=()):
    """Key paths of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if is_number(node) else []
    return [p for key, value in items for p in numeric_paths(value, path + (key,))]


def numeric_fields(obj, path="", keys=()):
    """(dotted path, JSON key path, type) of every int and float field of dataclass ``obj``
    and, through its tuples, of their elements; an element is named by its name or id, else
    its index."""
    for f in dataclasses.fields(obj):
        value, where = getattr(obj, f.name), f"{path}.{f.name}" if path else f.name
        if is_number(value):
            yield where, keys + (f.name,), type(value)
        elif isinstance(value, tuple):
            for k, item in enumerate(value):
                label = getattr(item, "name", getattr(item, "id", k))
                yield from numeric_fields(item, f"{where}[{label}]", keys + (f.name, k))


UK_TWO_YEARS = two_year_uk()
UK_NUMBERS = numeric_paths(UK_TWO_YEARS)
NUMERIC_FIELDS = list(numeric_fields(scenario_from_dict(UK_TWO_YEARS)))
EDITS = {
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "negative": lambda v: -abs(v) - 1.0,
    "huge": lambda v: 1e300,
    "fraction": lambda v: v + 0.5,
    "zero": lambda v: 0 * v,
    # wrong JSON types; true/false are not numbers
    "null": lambda v: None,
    "list": lambda v: [v],
    "string": lambda v: "x",
    "true": lambda v: True,
}
NUMERIC_EDITS = {"negative", "fraction", "zero"}  # these do arithmetic on the old value


class TestScenarioFuzz:
    @given(edits=st.lists(
        st.tuples(st.sampled_from(UK_NUMBERS), st.sampled_from(sorted(EDITS))),
        min_size=1, max_size=3,
    ))
    @settings(max_examples=200, deadline=None)
    def test_perturbed_numbers_are_refused_or_simulate_finitely(self, edits):
        raw = copy.deepcopy(UK_TWO_YEARS)
        for path, how in edits:
            holder = raw
            for key in path[:-1]:
                holder = holder[key]
            if how in NUMERIC_EDITS and not is_number(holder[path[-1]]):
                continue  # an earlier type edit on the same path left no number
            holder[path[-1]] = EDITS[how](holder[path[-1]])
        try:
            s = scenario_from_dict(raw)
        except ScenarioParseError:
            return
        if validate_scenario(s):
            return  # load_scenario raises ScenarioValidationError
        policy = parse_policy_spec("linear:8,100", s.horizon_years)
        first, again = (run_simulation(s, policy, seed=5) for _ in range(2))
        objectives = (first.objective_price, first.objective_rci)
        assert all(math.isfinite(v) for v in objectives), (edits, objectives)
        assert objectives == (again.objective_price, again.objective_rci)


class TestFieldRules:
    @pytest.mark.parametrize(
        "violations, edit",
        [
            (["technologies[gas]: duplicate name"],
             lambda d: d["technologies"].append(copy.deepcopy(d["technologies"][0]))),
            (["gencos[g1]: duplicate id"], lambda d: d["gencos"].append({"id": "g1", "budget": 0.0})),
            (["initial_fleet[p1]: duplicate id"],
             lambda d: d["initial_fleet"].append(dict(d["initial_fleet"][0]))),
            # two half-year days of one name: each keeps its weight, the name repeats
            (["representative_days[always]: duplicate name"],
             lambda d: d.update(representative_days=[
                 {**d["representative_days"][0], "weight_days": 182.5} for _ in range(2)])),
            (["initial_fleet[p1].owner: unknown genco 'nobody'"],
             lambda d: d["initial_fleet"][0].update(owner="nobody")),
            (["technologies: must be non-empty"], lambda d: d.update(technologies=[], initial_fleet=[])),
            (["representative_days: must be non-empty"], lambda d: d.update(representative_days=[])),
            (["representative_days[always].segments: must be non-empty",
              "representative_days: weighted hours of day set (always) total 0.0, expected 8760.0"],
             lambda d: d["representative_days"][0].update(segments=[])),
        ],
        ids=["technology-name", "genco-id", "plant-id", "day-name", "unknown-owner", "empty-catalog",
             "no-days", "no-segments"],
    )
    def test_names_references_and_lists_are_checked(self, tmp_path, violations, edit):
        data = copy.deepcopy(MINIMAL)
        edit(data)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, data))
        assert [str(v) for v in err.value.violations] == violations

    @pytest.mark.parametrize(
        "violation, series",
        [
            ("fuel_prices[gas]: missing price for year 2036", {"2040": 30.0}),
            # a far year is refused as fast as a near one: the span is never listed
            ("fuel_prices[gas]: missing price for year 2036", {str(10**16): 30.0}),
            ("fuel_prices[gas]: missing price for year 2036", {str(10**400): 30.0}),
        ],
        ids=["2040", "1e16", "1e400"],
    )
    def test_gapped_fuel_series_is_refused_at_its_first_missing_year(self, tmp_path, violation, series):
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        raw["fuel_prices"]["gas"].update(series)
        started = time.perf_counter()
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, raw))
        assert time.perf_counter() - started < 1.0
        assert [str(v) for v in err.value.violations] == [violation]

    def test_fuel_nobody_burns_must_still_be_contiguous(self):
        raw = two_year_uk()
        raw["fuel_prices"]["hydrogen"] = {"2017": 1.0, "2018": 1.0, "2020": 1.0}
        found = validate_scenario(scenario_from_dict(raw))
        assert [str(v) for v in found] == ["fuel_prices[hydrogen]: missing price for year 2019"]
        raw["fuel_prices"]["hydrogen"]["2019"] = 1.0
        assert validate_scenario(scenario_from_dict(raw)) == []

    @pytest.mark.parametrize("path, keys, kind", NUMERIC_FIELDS, ids=[p for p, *_ in NUMERIC_FIELDS])
    def test_every_numeric_field_is_held_finite_and_in_size(self, tmp_path, path, keys, kind):
        # each field found by walking the loaded scenario, so a new field is covered too
        raw = copy.deepcopy(UK_TWO_YEARS)
        holder = raw
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = math.nan if kind is float else 10**16
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write_json(tmp_path, raw))
        assert [v.path for v in err.value.violations] == [path]
