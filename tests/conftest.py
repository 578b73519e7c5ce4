"""Shared fixtures: tiny hand-checkable scenarios plus the bundled one, and the fuzzed
small markets the market kernel and the cash flows are held to the oracle on."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from carbonopt.dispatch import CANDIDATE_ID
from carbonopt.scenario import (
    DaySegment,
    GenCo,
    PowerPlant,
    RepresentativeDay,
    Scenario,
    Technology,
    bundled_scenario_path,
    load_scenario,
    validate_scenario,
)

FULL_DAY = RepresentativeDay(
    name="always",
    weight_days=365.0,
    segments=(
        DaySegment(
            duration_hours=24.0,
            demand_mw=80.0,
            solar_capacity_factor=0.5,
            wind_capacity_factor=0.5,
        ),
    ),
)


def make_tech(name="gas", **overrides) -> Technology:
    base = dict(
        name=name,
        capacity_mw=100.0,
        capital_cost=500_000.0,
        fixed_om=10_000.0,
        variable_om=3.0,
        fuel_kind="gas",
        efficiency=0.5,
        emission_factor=0.4,
        lifetime_years=30,
        construction_lag_years=1,
        is_intermittent=False,
        weather_profile=None,
    )
    base.update(overrides)
    return Technology(**base)


def make_scenario(
    technologies,
    fleet,
    gencos=(GenCo(id="g1", budget=0.0),),
    days=(FULL_DAY,),
    start_year=2020,
    horizon_years=2,
    base_carbon_intensity=0.4,
    **overrides,
) -> Scenario:
    fuel_kinds = {t.fuel_kind for t in technologies if t.fuel_kind}
    years = range(start_year, start_year + horizon_years)
    fuel_prices = overrides.pop(
        "fuel_prices", {kind: {y: 20.0 for y in years} for kind in fuel_kinds}
    )
    s = Scenario(
        start_year=start_year,
        horizon_years=horizon_years,
        technologies=tuple(technologies),
        initial_fleet=tuple(fleet),
        gencos=tuple(gencos),
        representative_days=tuple(days),
        fuel_prices=fuel_prices,
        base_carbon_intensity=base_carbon_intensity,
        **overrides,
    )
    assert validate_scenario(s) == [], validate_scenario(s)
    return s


@pytest.fixture(scope="session")
def uk_scenario():
    path = bundled_scenario_path("uk_synthetic")
    assert path is not None
    return load_scenario(path)


@pytest.fixture()
def gas_tech():
    return make_tech()


@pytest.fixture()
def static_fossil_scenario():
    """One gas plant, zero budgets: the mix cannot change over the horizon.

    Hand trace (flat tax 10, demand 80 MW around the clock):
      srmc = 20/0.5 + 3 + 0.4*10 = 47 £/MWh
      energy = 80 * 8760 = 700800 MWh/year, emissions = 280320 t
      intensity = 0.4 exactly, so relative intensity = 0.4/0.4 = 1.
    """
    tech = make_tech()
    plant = PowerPlant(
        id="gas-1", technology=tech, owner="g1", commission_year=2000, unit_count=1
    )
    return make_scenario([tech], [plant])


def fleet_columns(fleet) -> tuple[list, ...]:
    """What a ``Fleet`` holds of its plants, column by column in fleet order."""
    return (fleet.tech, fleet.mw, fleet.commission, fleet.retirement, fleet.ids, fleet.owner,
            fleet.units)


def fleet_plants(fleet) -> list[PowerPlant]:
    """The plants whose ``Fleet.extend`` stores ``fleet``'s rows, in fleet order."""
    return [
        PowerPlant(id=plant_id, technology=fleet.catalog[k], owner=owner, commission_year=start,
                   unit_count=units)
        for k, start, plant_id, owner, units
        in zip(fleet.tech, fleet.commission, fleet.ids, fleet.owner, fleet.units)
    ]


# Plant ids on both sides of the probed unit's, and equal to it: digits and
# capitals sort before "_", lower case after, and "__candidate_" before
# CANDIDATE_ID before "__candidate__0".
plant_ids = st.sampled_from(
    ["0", "7", "A", "Z1", "_", "__candidate_", CANDIDATE_ID, CANDIDATE_ID + "0", "a", "z"]
)


@st.composite
def probe_markets(draw):
    """Small fleets built to hit ties, dark or windless segments, shortages and subsidies."""
    techs = []
    for k in range(draw(st.integers(1, 4))):
        intermittent = draw(st.booleans())
        fueled = not intermittent and draw(st.booleans())
        techs.append(make_tech(
            name=f"t{k}",
            capacity_mw=draw(st.sampled_from([10.0, 30.0, 45.5])),
            fuel_kind="gas" if fueled else None,
            efficiency=0.5 if fueled else 1.0,
            # 45 ties a fuel-free SRMC with a fueled one (fuel term 40) of variable O&M 5
            variable_om=draw(st.sampled_from([0.0, 5.0, 5.0, 12.5, 45.0])),
            emission_factor=draw(st.sampled_from([0.0, 0.4, 0.4])),
            is_intermittent=intermittent,
            weather_profile=draw(st.sampled_from(["solar", "wind"])) if intermittent else None,
            lifetime_years=draw(st.sampled_from([5, 30])),
            fixed_om=draw(st.sampled_from([10_000.0, 0.1, 7_777.7])),  # flows that round
        ))
    fleet = [
        PowerPlant(
            id=plant_id,
            technology=draw(st.sampled_from(techs)),
            owner="g1",
            commission_year=draw(st.sampled_from([2000, 2016, 2020, 2025])),
            unit_count=draw(st.integers(1, 3)),
        )
        for plant_id in draw(st.lists(plant_ids, max_size=8, unique=True))  # as a scenario's
    ]
    factors = st.sampled_from([0.0, 0.0, 0.3, 1.0])
    demands = st.sampled_from([5.0, 40.0, 77.7, 150.0, 1000.0])  # the largest always runs short
    days = tuple(
        RepresentativeDay(
            name=f"d{i}",
            weight_days=weight,
            segments=tuple(
                DaySegment(hours, draw(demands), draw(factors), draw(factors))
                for hours in (8.0, 16.0)
            ),
        )
        for i, weight in enumerate((200.0, 165.0))
    )
    s = make_scenario(techs, fleet, days=days, demand_growth=draw(st.sampled_from([1.0, 1.05])))
    carbon_price = draw(st.sampled_from([-100.0, -12.5, 0.0, 12.5, 200.0]))
    return s, fleet, draw(st.sampled_from([2020, 2021])), carbon_price
