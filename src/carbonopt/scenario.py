"""World description consumed by the market simulator.

A scenario bundles the generation technology catalog, the starting plant
fleet, the generation companies and their investment budgets, weighted
representative days standing in for a full year, fuel price paths and the
global economic knobs. Scenarios are frozen after loading (a run keeps
the budgets it spends to itself) and safe to share across parallel
simulation workers.

The on-disk format is a single JSON document; the schema is documented in
``docs/scenario-schema.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioParseError, ScenarioValidationError

HOURS_PER_YEAR = 8760.0
HOURS_TOLERANCE = 1e-6

DEFAULT_HORIZON_YEARS = 18
DEFAULT_DISCOUNT_RATE = 0.06
DEFAULT_DEMAND_GROWTH = 1.0
# Administrative shortage price; any positive value far above every SRMC works.
DEFAULT_LOSS_OF_LOAD_PRICE = 6000.0

WEATHER_PROFILES = ("solar", "wind")


@dataclass(frozen=True)
class Technology:
    """One investable generation technology; ``capacity_mw`` is the size of a single unit."""

    name: str
    capacity_mw: float
    capital_cost: float  # £/MW
    fixed_om: float  # £/MW/year
    variable_om: float  # £/MWh
    fuel_kind: str | None
    efficiency: float  # thermal-to-electric, in (0, 1]
    emission_factor: float  # tCO2/MWh electrical
    lifetime_years: int
    construction_lag_years: int
    is_intermittent: bool = False
    weather_profile: str | None = None  # "solar" or "wind" when intermittent


@dataclass(frozen=True)
class PowerPlant:
    id: str
    technology: Technology
    owner: str
    commission_year: int
    unit_count: int

    @property
    def capacity_mw(self) -> float:
        return self.technology.capacity_mw * self.unit_count

    @property
    def retirement_year(self) -> int:
        return self.commission_year + self.technology.lifetime_years

    def active_in(self, year: int) -> bool:
        return self.commission_year <= year < self.retirement_year


@dataclass(frozen=True)
class GenCo:
    """Generation company agent; ``budget`` is its investment budget for a whole run."""

    id: str
    budget: float


@dataclass(frozen=True)
class DaySegment:
    duration_hours: float
    demand_mw: float
    solar_capacity_factor: float
    wind_capacity_factor: float

    def capacity_factor(self, profile: str) -> float:
        if profile == "solar":
            return self.solar_capacity_factor
        if profile == "wind":
            return self.wind_capacity_factor
        raise ValueError(f"unknown weather profile {profile!r}")


@dataclass(frozen=True)
class RepresentativeDay:
    """A weighted sample day; ``weight_days`` is how many real days it stands for."""

    name: str
    weight_days: float
    segments: tuple[DaySegment, ...]

    @property
    def hours(self) -> float:
        return sum(seg.duration_hours for seg in self.segments)


@dataclass(frozen=True)
class Scenario:
    start_year: int
    technologies: tuple[Technology, ...]
    initial_fleet: tuple[PowerPlant, ...]
    gencos: tuple[GenCo, ...]
    representative_days: tuple[RepresentativeDay, ...]
    fuel_prices: dict[str, dict[int, float]]  # fuel kind -> calendar year -> £/MWh thermal
    base_carbon_intensity: float  # tCO2/MWh of the start-year fleet (objective denominator)
    horizon_years: int = DEFAULT_HORIZON_YEARS
    demand_growth: float = DEFAULT_DEMAND_GROWTH  # per-year multiplier on all segment demand
    discount_rate: float = DEFAULT_DISCOUNT_RATE
    loss_of_load_price: float = DEFAULT_LOSS_OF_LOAD_PRICE
    demand_noise_std: float = 0.0  # optional per-year demand jitter; 0 keeps the model deterministic

    @property
    def final_year(self) -> int:
        return self.start_year + self.horizon_years - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.start_year + self.horizon_years)

    def fuel_price(self, fuel_kind: str, year: int) -> float:
        """Fuel price for a calendar year; years past the series end are held at the last value."""
        series = self.fuel_prices.get(fuel_kind)
        if not series:
            raise KeyError(f"no fuel price series for {fuel_kind!r}")
        if year in series:
            return series[year]
        last = max(series)
        if year > last:
            return series[last]
        raise KeyError(f"no {fuel_kind!r} fuel price for year {year}")

    def demand_scale(self, year: int) -> float:
        """Cumulative demand growth factor relative to the start year."""
        return self.demand_growth ** (year - self.start_year)


@dataclass(frozen=True)
class Violation:
    """A single broken invariant, located by a dotted field path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# Range rules of numeric fields; every numeric field must also be finite and
# at most MAX_MAGNITUDE in size, which keeps every product the model forms
# (price x energy x years, capital x units) far from float overflow.
MAX_MAGNITUDE = 1e15
# Budgets never grow and each purchase costs a whole unit, so the greedy
# investment loop makes at most budget / (capital_cost x capacity_mw)
# purchases of a technology; each one values the market anew.
MAX_PURCHASES = 1000
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [1, 100]": lambda v: 1 <= v <= 100,
    "in [2, 100]": lambda v: 2 <= v <= 100,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 2]": lambda v: 0 < v <= 2,
}

_TECHNOLOGY_RULES = (
    ("capacity_mw", "> 0"),
    # a free-to-build technology would let the greedy investment loop buy
    # forever without draining any budget
    ("capital_cost", "> 0"),
    ("fixed_om", ">= 0"),
    ("variable_om", ">= 0"),
    ("efficiency", "in (0, 1]"),
    ("emission_factor", ">= 0"),
    # every operating year is one term of the NPV sum
    ("lifetime_years", "in [1, 100]"),
    ("construction_lag_years", ">= 0"),
)


def _check(out: list[Violation], path: str, value, rule: str) -> None:
    """Record a violation unless ``value`` is finite, not too large and satisfies ``rule``."""
    # ints are finite, and math.isfinite overflows on huge ones
    if not (isinstance(value, int) or math.isfinite(value)):
        out.append(Violation(path, f"must be finite, got {value}"))
    elif abs(value) > MAX_MAGNITUDE:
        out.append(Violation(path, f"must be at most {MAX_MAGNITUDE:g} in size, got {value}"))
    elif not _RULES[rule](value):
        out.append(Violation(path, f"must be {rule}, got {value}"))


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every scenario invariant; an empty list means the scenario is valid.

    Every numeric field must be finite (NaN and infinities would break the
    merit order's total order or poison every sum); most also have a range.
    """
    out: list[Violation] = []

    for name, rule in (
        ("horizon_years", "in [2, 100]"),
        # the growth factor and the discount rate are raised to powers of years
        ("discount_rate", "in [0, 1]"),
        ("demand_growth", "in (0, 2]"),
        # the relative carbon intensity objective divides by it
        ("base_carbon_intensity", "> 0"),
        ("loss_of_load_price", "> 0"),
        ("demand_noise_std", ">= 0"),
    ):
        _check(out, name, getattr(s, name), rule)

    if not s.technologies:
        out.append(Violation("technologies", "catalog is empty"))
    seen_tech: set[str] = set()
    for tech in s.technologies:
        path = f"technologies[{tech.name}]"
        if tech.name in seen_tech:
            out.append(Violation(path, "duplicate technology name"))
        seen_tech.add(tech.name)
        for name, rule in _TECHNOLOGY_RULES:
            _check(out, f"{path}.{name}", getattr(tech, name), rule)
        if tech.is_intermittent and tech.weather_profile not in WEATHER_PROFILES:
            out.append(
                Violation(
                    f"{path}.weather_profile",
                    f"intermittent technology needs one of {WEATHER_PROFILES}, "
                    f"got {tech.weather_profile!r}",
                )
            )

    genco_ids: set[str] = set()
    for genco in s.gencos:
        path = f"gencos[{genco.id}]"
        if genco.id in genco_ids:
            out.append(Violation(path, "duplicate genco id"))
        genco_ids.add(genco.id)
        _check(out, f"{path}.budget", genco.budget, ">= 0")

    refused = {v.path for v in out}
    richest = max(
        (g.budget for g in s.gencos if f"gencos[{g.id}].budget" not in refused), default=0.0
    )
    for tech in s.technologies:
        path = f"technologies[{tech.name}]"
        if {f"{path}.capacity_mw", f"{path}.capital_cost"} & refused:
            continue
        unit = tech.capital_cost * tech.capacity_mw
        if richest > MAX_PURCHASES * unit:
            out.append(
                Violation(
                    f"{path}.capacity_mw",
                    f"one unit costs {unit:g} (capital_cost x capacity_mw), so a budget "
                    f"of {richest:g} buys more than {MAX_PURCHASES} units",
                )
            )

    plant_ids: set[str] = set()
    for plant in s.initial_fleet:
        path = f"initial_fleet[{plant.id}]"
        if plant.id in plant_ids:
            out.append(Violation(path, "duplicate plant id"))
        plant_ids.add(plant.id)
        if plant.technology.name not in seen_tech:
            out.append(
                Violation(f"{path}.technology", f"unknown technology {plant.technology.name!r}")
            )
        if plant.owner not in genco_ids:
            out.append(Violation(f"{path}.owner", f"unknown genco {plant.owner!r}"))
        _check(out, f"{path}.unit_count", plant.unit_count, ">= 1")

    if not s.representative_days:
        out.append(Violation("representative_days", "at least one day is required"))
    weighted_hours = 0.0
    for day in s.representative_days:
        path = f"representative_days[{day.name}]"
        _check(out, f"{path}.weight_days", day.weight_days, "> 0")
        if not day.segments:
            out.append(Violation(f"{path}.segments", "day has no segments"))
        for idx, seg in enumerate(day.segments):
            spath = f"{path}.segments[{idx}]"
            for name, rule in (
                ("duration_hours", "> 0"),
                ("demand_mw", "> 0"),
                ("solar_capacity_factor", "in [0, 1]"),
                ("wind_capacity_factor", "in [0, 1]"),
            ):
                _check(out, f"{spath}.{name}", getattr(seg, name), rule)
        weighted_hours += day.weight_days * day.hours
    if s.representative_days and abs(weighted_hours - HOURS_PER_YEAR) > HOURS_TOLERANCE:
        names = ", ".join(day.name for day in s.representative_days)
        out.append(
            Violation(
                "representative_days",
                f"weighted hours of day set ({names}) total {weighted_hours}, "
                f"expected {HOURS_PER_YEAR}",
            )
        )

    fueled = sorted({t.fuel_kind for t in s.technologies if t.fuel_kind})
    if any(v.path == "horizon_years" for v in out):
        fueled = []  # listing the years of a huge horizon would exhaust memory
    for fuel in fueled:
        series = s.fuel_prices.get(fuel, {})
        missing = [year for year in s.years if year not in series]
        if missing:
            out.append(
                Violation(
                    f"fuel_prices[{fuel}]",
                    f"missing price for year(s) {', '.join(map(str, missing))}",
                )
            )
    for fuel, series in sorted(s.fuel_prices.items()):
        for year, price in series.items():
            _check(out, f"fuel_prices[{fuel}][{year}]", price, ">= 0")

    return out


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _integer(value, where: str) -> int:
    """A whole JSON number (or numeral string) as int; NaN, infinities and fractions are refused."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (not isinstance(value, str) and number != value):
        raise ScenarioParseError(f"{where}: must be an integer, got {value!r}")
    return number


def _build_technology(raw: dict) -> Technology:
    name = _require(raw, "name", "technology")
    where = f"technology {name!r}"
    return Technology(
        name=str(name),
        capacity_mw=float(_require(raw, "capacity_mw", where)),
        capital_cost=float(_require(raw, "capital_cost", where)),
        fixed_om=float(_require(raw, "fixed_om", where)),
        variable_om=float(_require(raw, "variable_om", where)),
        fuel_kind=raw.get("fuel_kind"),
        efficiency=float(_require(raw, "efficiency", where)),
        emission_factor=float(_require(raw, "emission_factor", where)),
        lifetime_years=_integer(_require(raw, "lifetime_years", where), f"{where} lifetime_years"),
        construction_lag_years=_integer(
            raw.get("construction_lag_years", 0), f"{where} construction_lag_years"
        ),
        is_intermittent=bool(raw.get("is_intermittent", False)),
        weather_profile=raw.get("weather_profile"),
    )


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON data, applying defaults for omitted fields."""
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    technologies = tuple(
        _build_technology(t) for t in _require(raw, "technologies", "scenario")
    )
    tech_by_name = {t.name: t for t in technologies}

    fleet = []
    for p in _require(raw, "initial_fleet", "scenario"):
        pid = str(_require(p, "id", "plant"))
        tech_name = str(_require(p, "technology", f"plant {pid!r}"))
        if tech_name not in tech_by_name:
            raise ScenarioParseError(f"plant {pid!r}: unknown technology {tech_name!r}")
        fleet.append(
            PowerPlant(
                id=pid,
                technology=tech_by_name[tech_name],
                owner=str(_require(p, "owner", f"plant {pid!r}")),
                commission_year=_integer(
                    _require(p, "commission_year", f"plant {pid!r}"),
                    f"plant {pid!r} commission_year",
                ),
                unit_count=_integer(
                    _require(p, "unit_count", f"plant {pid!r}"), f"plant {pid!r} unit_count"
                ),
            )
        )

    gencos = tuple(
        GenCo(id=str(_require(g, "id", "genco")), budget=float(_require(g, "budget", "genco")))
        for g in _require(raw, "gencos", "scenario")
    )

    days = []
    for i, d in enumerate(_require(raw, "representative_days", "scenario")):
        name = str(d.get("name", f"day-{i}"))
        segments = tuple(
            DaySegment(
                duration_hours=float(_require(seg, "duration_hours", f"day {name!r}")),
                demand_mw=float(_require(seg, "demand_mw", f"day {name!r}")),
                solar_capacity_factor=float(seg.get("solar_capacity_factor", 0.0)),
                wind_capacity_factor=float(seg.get("wind_capacity_factor", 0.0)),
            )
            for seg in _require(d, "segments", f"day {name!r}")
        )
        days.append(
            RepresentativeDay(
                name=name,
                weight_days=float(_require(d, "weight_days", f"day {name!r}")),
                segments=segments,
            )
        )

    fuel_prices: dict[str, dict[int, float]] = {}
    for fuel, series in _require(raw, "fuel_prices", "scenario").items():
        fuel_prices[str(fuel)] = {
            _integer(year, f"fuel_prices[{fuel}] year"): float(price)
            for year, price in series.items()
        }

    return Scenario(
        start_year=_integer(_require(raw, "start_year", "scenario"), "start_year"),
        horizon_years=_integer(
            raw.get("horizon_years", DEFAULT_HORIZON_YEARS), "horizon_years"
        ),
        technologies=technologies,
        initial_fleet=tuple(fleet),
        gencos=gencos,
        representative_days=tuple(days),
        fuel_prices=fuel_prices,
        demand_growth=float(raw.get("demand_growth", DEFAULT_DEMAND_GROWTH)),
        discount_rate=float(raw.get("discount_rate", DEFAULT_DISCOUNT_RATE)),
        base_carbon_intensity=float(_require(raw, "base_carbon_intensity", "scenario")),
        loss_of_load_price=float(raw.get("loss_of_load_price", DEFAULT_LOSS_OF_LOAD_PRICE)),
        demand_noise_std=float(raw.get("demand_noise_std", 0.0)),
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict`; all fields written explicitly."""
    return {
        "start_year": s.start_year,
        "horizon_years": s.horizon_years,
        "demand_growth": s.demand_growth,
        "discount_rate": s.discount_rate,
        "base_carbon_intensity": s.base_carbon_intensity,
        "loss_of_load_price": s.loss_of_load_price,
        "demand_noise_std": s.demand_noise_std,
        "technologies": [
            {
                "name": t.name,
                "capacity_mw": t.capacity_mw,
                "capital_cost": t.capital_cost,
                "fixed_om": t.fixed_om,
                "variable_om": t.variable_om,
                "fuel_kind": t.fuel_kind,
                "efficiency": t.efficiency,
                "emission_factor": t.emission_factor,
                "lifetime_years": t.lifetime_years,
                "construction_lag_years": t.construction_lag_years,
                "is_intermittent": t.is_intermittent,
                "weather_profile": t.weather_profile,
            }
            for t in s.technologies
        ],
        "initial_fleet": [
            {
                "id": p.id,
                "technology": p.technology.name,
                "owner": p.owner,
                "commission_year": p.commission_year,
                "unit_count": p.unit_count,
            }
            for p in s.initial_fleet
        ],
        "gencos": [{"id": g.id, "budget": g.budget} for g in s.gencos],
        "representative_days": [
            {
                "name": d.name,
                "weight_days": d.weight_days,
                "segments": [
                    {
                        "duration_hours": seg.duration_hours,
                        "demand_mw": seg.demand_mw,
                        "solar_capacity_factor": seg.solar_capacity_factor,
                        "wind_capacity_factor": seg.wind_capacity_factor,
                    }
                    for seg in d.segments
                ],
            }
            for d in s.representative_days
        ],
        "fuel_prices": {
            fuel: {str(year): price for year, price in sorted(series.items())}
            for fuel, series in sorted(s.fuel_prices.items())
        },
    }


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; raises on parse or validation failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    scenario = scenario_from_dict(raw)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario as JSON so that load_scenario(save_scenario(s)) == s."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(s), indent=2) + "\n", encoding="utf-8"
    )


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario by bare name (e.g. ``uk_synthetic``)."""
    data_dir = resources.files(__package__) / "data"
    for candidate in (name, f"{name}.scenario"):
        target = data_dir / candidate
        if target.is_file():
            return Path(str(target))
    return None
