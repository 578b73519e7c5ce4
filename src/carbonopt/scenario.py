"""World description consumed by the market simulator.

A scenario bundles the generation technology catalog, the starting plant
fleet, the generation companies and their investment budgets, weighted
representative days standing in for a full year, fuel price paths and the
global economic knobs. Scenarios are frozen after loading (a run keeps
the budgets it spends to itself) and safe to share across parallel
simulation workers.

The on-disk format is a single JSON document, read and written by walking
the dataclass fields (so annotations here are types, never postponed); the
schema is documented in ``docs/scenario-schema.md``. A field's rule lives
in its annotation, as in ``Annotated[float, "> 0"]``: ``validate_scenario``
walks the same fields, holds every number finite, at most ``MAX_MAGNITUDE``
in size and to its rule, and refuses a repeated list-element label; only
the rules that tie several fields together are written out there.
"""

import json
import math
import reprlib
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache, partial, reduce
from importlib import resources
from operator import add
from pathlib import Path
from typing import Annotated, get_args, get_origin

from .errors import ScenarioParseError, ScenarioValidationError

HOURS_PER_YEAR = 8760.0
HOURS_TOLERANCE = 1e-6

WEATHER_PROFILES = ("solar", "wind")


@dataclass(frozen=True)
class Technology:
    """One investable generation technology; ``capacity_mw`` is the size of a single unit."""

    name: str
    capacity_mw: Annotated[float, "> 0"]
    # a free-to-build technology would let the greedy investment loop buy
    # forever without draining any budget
    capital_cost: Annotated[float, "> 0"]  # £/MW
    fixed_om: Annotated[float, ">= 0"]  # £/MW/year
    variable_om: Annotated[float, ">= 0"]  # £/MWh
    efficiency: Annotated[float, "in (0, 1]"]  # thermal-to-electric
    emission_factor: Annotated[float, ">= 0"]  # tCO2/MWh electrical
    # every operating year is one term of the NPV sum
    lifetime_years: Annotated[int, "in [1, 100]"]
    fuel_kind: str | None = None  # key into Scenario.fuel_prices; None when fuel-free
    construction_lag_years: Annotated[int, ">= 0"] = 0
    is_intermittent: bool = False
    weather_profile: str | None = None  # "solar" or "wind" when intermittent


@dataclass(frozen=True)
class PowerPlant:
    id: str
    technology: Technology
    owner: str
    commission_year: int
    unit_count: Annotated[int, ">= 1"]

    @property
    def retirement_year(self) -> int:
        return self.commission_year + self.technology.lifetime_years

    def active_in(self, year: int) -> bool:
        return self.commission_year <= year < self.retirement_year


@dataclass(frozen=True)
class GenCo:
    """Generation company agent; ``budget`` is its investment budget for a whole run."""

    id: str
    budget: Annotated[float, ">= 0"]


@dataclass(frozen=True)
class DaySegment:
    duration_hours: Annotated[float, "> 0"]
    demand_mw: Annotated[float, "> 0"]
    solar_capacity_factor: Annotated[float, "in [0, 1]"] = 0.0
    wind_capacity_factor: Annotated[float, "in [0, 1]"] = 0.0

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
    weight_days: Annotated[float, "> 0"]
    segments: Annotated[tuple[DaySegment, ...], "non-empty"]

    @property
    def hours(self) -> float:
        return reduce(add, (seg.duration_hours for seg in self.segments), 0.0)


@dataclass(frozen=True)
class Scenario:
    start_year: int
    technologies: Annotated[tuple[Technology, ...], "non-empty"]
    initial_fleet: tuple[PowerPlant, ...]
    gencos: tuple[GenCo, ...]
    representative_days: Annotated[tuple[RepresentativeDay, ...], "non-empty"]
    fuel_prices: dict[str, dict[int, float]]  # fuel kind -> calendar year -> £/MWh thermal
    # tCO2/MWh of the start-year fleet; the relative carbon intensity objective divides by it
    base_carbon_intensity: Annotated[float, "> 0"]
    horizon_years: Annotated[int, "in [2, 100]"] = 18
    # the growth factor and the discount rate are raised to powers of years
    demand_growth: Annotated[float, "in (0, 2]"] = 1.0  # per-year multiplier on all segment demand
    discount_rate: Annotated[float, "in [0, 1]"] = 0.06
    # administrative shortage price, above every SRMC
    loss_of_load_price: Annotated[float, "> 0"] = 6000.0
    # optional per-year demand jitter; 0 keeps the model deterministic
    demand_noise_std: Annotated[float, ">= 0"] = 0.0

    @property
    def final_year(self) -> int:
        return self.start_year + self.horizon_years - 1

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


# Every numeric field must be finite and at most MAX_MAGNITUDE in size, which
# keeps every product the model forms (price x energy x years, capital x units)
# far from float overflow; a field may also declare one of the _RULES.
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
    "non-empty": lambda v: len(v) > 0,
}


@cache
def _schema(cls) -> dict[str, tuple]:
    """Dataclass ``cls``'s fields in order, read from their annotations once per class:
    name -> ``(kind, items, rule, required)``. ``kind`` is the declared type, except that
    a tuple field's is ``tuple`` and its element class is ``items`` (else ``None``);
    ``rule`` is ``None`` when the annotation declares none, and a field with a default
    is not ``required``."""
    schema = {}
    for f in fields(cls):
        kind, rule = get_args(f.type) if get_origin(f.type) is Annotated else (f.type, None)
        items = None
        if get_origin(kind) is tuple:
            kind, items = tuple, get_args(kind)[0]
        schema[f.name] = kind, items, rule, f.default is MISSING
    return schema


def _label(item, k: int):
    """How a list element is named in a path: its ``name`` or ``id`` string, else its index."""
    # getattr, not vars(): a materialised instance __dict__ slows every later attribute read
    get = item.get if isinstance(item, dict) else partial(getattr, item)
    ident = get("name", get("id", None))
    return ident if isinstance(ident, str) else k


def _check(out: list[Violation], path: str, value, rule: str | None) -> None:
    """Record a violation unless ``value`` is finite, not too large and satisfies ``rule``."""
    # ints are finite, and math.isfinite overflows on huge ones
    if not (isinstance(value, int) or math.isfinite(value)):
        out.append(Violation(path, f"must be finite, got {value}"))
    elif abs(value) > MAX_MAGNITUDE:
        out.append(Violation(path, f"must be at most {MAX_MAGNITUDE:g} in size, got {value}"))
    elif rule and not _RULES[rule](value):
        out.append(Violation(path, f"must be {rule}, got {value}"))


def _walk(out: list[Violation], obj, path: str) -> None:
    """Hold every number of dataclass ``obj`` and of the elements of its tuples to its
    field's rule; an element whose label repeats an earlier one's is refused at its path."""
    prefix = f"{path}." if path else ""
    for name, (kind, _, rule, _) in _schema(type(obj)).items():
        value, where = getattr(obj, name), prefix + name
        if kind in (int, float):
            _check(out, where, value, rule)
        elif kind is tuple:
            if rule and not _RULES[rule](value):
                out.append(Violation(where, f"must be {rule}"))
            seen = set()
            for k, item in enumerate(value):
                label = _label(item, k)
                if label in seen:
                    noun = "name" if hasattr(item, "name") else "id"
                    out.append(Violation(f"{where}[{label}]", f"duplicate {noun}"))
                seen.add(label)
                _walk(out, item, f"{where}[{label}]")


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every scenario invariant; an empty list means the scenario is valid.

    The walk over the fields holds every number finite (NaN and infinities
    would break the merit order's total order or poison every sum) and to
    its declared rule; the rules below tie several fields together.
    """
    out: list[Violation] = []
    _walk(out, s, "")

    for tech in s.technologies:
        if tech.is_intermittent and tech.weather_profile not in WEATHER_PROFILES:
            needs = f"intermittent technology needs one of {WEATHER_PROFILES}"
            out.append(Violation(f"technologies[{tech.name}].weather_profile",
                                 f"{needs}, got {tech.weather_profile!r}"))

    # a bought plant's id is "<genco>:<technology>:<year>:<n>", and a run's ``Fleet``
    # refuses an id holding U+0000 (see there)
    named = [(f"gencos[{g.id}].id", g.id) for g in s.gencos]
    named += [(f"technologies[{t.name}].name", t.name) for t in s.technologies]
    out += [Violation(path, "must not contain U+0000") for path, name in named if "\0" in name]

    catalog = {t.name: t for t in s.technologies}
    owners = {g.id for g in s.gencos}
    for plant in s.initial_fleet:
        path = f"initial_fleet[{plant.id}]"
        if "\0" in plant.id:  # a run's ``Fleet`` refuses it (see there)
            out.append(Violation(f"{path}.id", "must not contain U+0000"))
        name = plant.technology.name
        if name not in catalog:
            out.append(Violation(f"{path}.technology", f"unknown technology {name!r}"))
        elif plant.technology != catalog[name]:  # a market prices a name by the catalog's entry
            out.append(Violation(f"{path}.technology",
                                 f"technology {name!r} differs from the catalog's entry"))
        if plant.owner not in owners:
            out.append(Violation(f"{path}.owner", f"unknown genco {plant.owner!r}"))

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

    weighted_hours = reduce(add, (day.weight_days * day.hours for day in s.representative_days),
                            0.0)
    if s.representative_days and abs(weighted_hours - HOURS_PER_YEAR) > HOURS_TOLERANCE:
        names = ", ".join(day.name for day in s.representative_days)
        out.append(
            Violation(
                "representative_days",
                f"weighted hours of day set ({names}) total {weighted_hours}, "
                f"expected {HOURS_PER_YEAR}",
            )
        )

    # A series runs without a gap from the start year to its last listed year,
    # and a fuel in use on to the final year. The listed years are counted up,
    # so no list of years is built however far the span reaches.
    used = {t.fuel_kind for t in s.technologies if t.fuel_kind}
    horizon_known = not {"start_year", "horizon_years"} & refused
    for fuel in sorted(used | set(s.fuel_prices)):
        series = s.fuel_prices.get(fuel, {})
        for year, price in series.items():
            _check(out, f"fuel_prices[{fuel}][{year}]", price, ">= 0")
        end = max(series, default=s.start_year - 1)
        if fuel in used and horizon_known:
            end = max(end, s.final_year)
        year = s.start_year
        for listed in sorted(y for y in series if y >= s.start_year):
            if listed != year:
                break
            year += 1
        if year <= end:
            out.append(Violation(f"fuel_prices[{fuel}]", f"missing price for year {year}"))

    # A plant whose fuel alone costs more than shortage is dispatched ahead of
    # the loss-of-load offer; a tiny efficiency makes its SRMC overflow.
    refused = {v.path for v in out}
    for tech in s.technologies:
        path, fuel = f"technologies[{tech.name}].efficiency", tech.fuel_kind
        if not s.fuel_prices.get(fuel) or {path, "loss_of_load_price"} & refused or any(
            p.startswith(f"fuel_prices[{fuel}]") for p in refused
        ):
            continue
        cost = max(s.fuel_prices[fuel].values()) / tech.efficiency
        if cost > s.loss_of_load_price:
            limit = f"the loss-of-load price {s.loss_of_load_price:g}"
            out.append(Violation(path, f"fuel costs up to {cost:g} per MWh, above {limit}"))

    return out


def _typed(value, where: str, kinds, noun: str):
    """``value`` if it is a JSON value of type ``kinds``; anything else is refused."""
    if isinstance(value, kinds):
        return value
    raise ScenarioParseError(f"{where}: must be {noun}, got {reprlib.repr(value)}")


_string = partial(_typed, kinds=str, noun="a string")
_boolean = partial(_typed, kinds=bool, noun="true or false")
_string_or_null = partial(_typed, kinds=(str, type(None)), noun="a string or null")
_list = partial(_typed, kinds=list, noun="a list")
_object = partial(_typed, kinds=dict, noun="an object")


def _number(value, where: str, kind=float):
    """A JSON number as ``kind``; true/false are not numbers, and an int must be whole."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):  # NaN or infinity as int, huge int as float
            if kind is float or int(value) == value:
                return kind(value)
    noun = "a number" if kind is float else "an integer"
    raise ScenarioParseError(f"{where}: must be {noun}, got {reprlib.repr(value)}")


_integer = partial(_number, kind=int)
_CONVERTERS = {
    float: _number, int: _integer, str: _string, bool: _boolean, str | None: _string_or_null,
}


def _read(cls, raw, path: str, **special):
    """A ``cls`` from the JSON object ``raw``: a field is required unless ``cls`` gives it a
    default, and is read by its declared type's converter unless ``special`` names it.
    A key that names no field is refused, so a misspelt optional key cannot pass unseen."""
    _object(raw, path or "scenario")
    prefix = f"{path}." if path else ""
    schema = _schema(cls)
    for key in raw:
        if key not in schema:
            raise ScenarioParseError(f"{prefix}{key}: unknown key")
    values = {}
    for name, (kind, items, _, required) in schema.items():
        if name in raw:
            convert = special.get(name) or _CONVERTERS.get(kind)
            if convert is None:  # a tuple of dataclasses
                convert = partial(_items, items)
            values[name] = convert(raw[name], prefix + name)
        elif required:
            raise ScenarioParseError(f"{path or 'scenario'}: missing required key {name!r}")
    return cls(**values)


def _items(cls, value, where: str, **special) -> tuple:
    """A JSON list of ``cls`` objects, each named by its ``name`` or ``id``, else its index."""
    return tuple(
        _read(cls, item, f"{where}[{_label(item, k)}]", **special)
        for k, item in enumerate(_list(value, where))
    )


def _year(key, where: str) -> int:
    """A fuel-price year; JSON object keys are strings, so a year is read from its numeral.

    Only a year's own decimal numeral is one: ``int()`` also reads ``"2_020"``,
    ``" 2020"``, ``"+2020"`` and ``"02020"``, which would spell a listed year twice.
    """
    with suppress(ValueError):  # not a numeral, or longer than int() reads
        year = int(str(key))
        if str(year) == str(key):
            return year
    return _integer(key, where)


def _fuel_prices(value, where: str) -> dict[str, dict[int, float]]:
    """fuel kind -> year -> price."""
    return {
        fuel: {
            _year(year, f"{where}[{fuel}] year"): _number(price, f"{where}[{fuel}][{year}]")
            for year, price in _object(series, f"{where}[{fuel}]").items()
        }
        for fuel, series in _object(value, where).items()
    }


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON data; omitted fields take their dataclass defaults.

    Three fields are not read by their declared type: a plant names its technology,
    a day without a name is ``day-<i>``, and fuel prices map fuel -> year -> price.
    """
    catalog: dict[str, Technology] = {}

    def technologies(value, where):
        techs = _items(Technology, value, where)
        catalog.update((t.name, t) for t in techs)
        return techs

    def technology(value, where):
        if _string(value, where) not in catalog:
            raise ScenarioParseError(f"{where}: unknown technology {value!r}")
        return catalog[value]

    def days(value, where):
        named = [
            {"name": f"day-{k}", **day} if isinstance(day, dict) else day
            for k, day in enumerate(_list(value, where))
        ]
        return _items(RepresentativeDay, named, where)

    # Scenario declares technologies before initial_fleet, so plants see the whole catalog
    return _read(
        Scenario, raw, "", technologies=technologies, representative_days=days,
        initial_fleet=partial(_items, PowerPlant, technology=technology), fuel_prices=_fuel_prices,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict`: ``asdict`` with JSON containers (lists, not
    tuples), except that plants name their technology and fuel-price years are strings."""
    raw = asdict(s, dict_factory=lambda pairs: {
        k: list(v) if isinstance(v, tuple) else v for k, v in pairs})
    for plant, p in zip(raw["initial_fleet"], s.initial_fleet):
        plant["technology"] = p.technology.name
    raw["fuel_prices"] = {
        fuel: {str(year): price for year, price in sorted(series.items())}
        for fuel, series in sorted(s.fuel_prices.items())
    }
    return raw


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key it repeats is refused (``ValueError``), not kept once."""
    raw = dict(pairs)
    if len(raw) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise ValueError(f"key {repeated!r} is repeated in one object")
    return raw


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; raises on parse or validation failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ScenarioParseError(f"scenario file {path}: {exc}") from exc
    scenario = scenario_from_dict(raw)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario as JSON so that load_scenario(save_scenario(s)) == s."""
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n", encoding="utf-8")


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario by bare name (e.g. ``uk_synthetic``)."""
    data_dir = resources.files(__package__) / "data"
    for candidate in (name, f"{name}.scenario"):
        target = data_dir / candidate
        if target.is_file():
            return Path(str(target))
    return None
