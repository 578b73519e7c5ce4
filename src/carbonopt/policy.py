"""Carbon-tax trajectories and their genome encodings.

Two families are supported:

* ``free``: one tax level per simulated year, each gene bounded to
  [0, 250] £/tCO2.
* ``linear``: tax is an affine function of the year index,
  ``gradient * y + intercept``, with the gradient in [-14, 14] and the
  intercept in [0, 250]. A negative evaluated price is allowed and acts
  as a per-tCO2 subsidy in dispatch costs; it is deliberately not
  clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenomeError

FREE = "free"
LINEAR = "linear"
POLICY_KINDS = (FREE, LINEAR)

TAX_LOW = 0.0
TAX_HIGH = 250.0
GRADIENT_BOUND = 14.0


@dataclass(frozen=True)
class NonParametricPolicy:
    """A separate tax level for every year of the horizon."""

    prices: tuple[float, ...]

    kind = FREE

    def price_at(self, year_index: int) -> float:
        if not 1 <= year_index <= len(self.prices):
            raise IndexError(
                f"year index {year_index} outside 1..{len(self.prices)}"
            )
        return self.prices[year_index - 1]


@dataclass(frozen=True)
class LinearPolicy:
    """Tax as an affine function of the 1-based year index."""

    gradient: float  # £/tCO2 per year
    intercept: float  # £/tCO2

    kind = LINEAR

    def price_at(self, year_index: int) -> float:
        if year_index < 1:
            raise IndexError(f"year index {year_index} outside 1..horizon")
        return self.gradient * year_index + self.intercept


CarbonPolicy = NonParametricPolicy | LinearPolicy


def bounds(kind: str, n_years: int = 18) -> list[tuple[float, float]]:
    """Per-gene (low, high) box for a policy kind."""
    if kind == FREE:
        return [(TAX_LOW, TAX_HIGH)] * n_years
    if kind == LINEAR:
        return [(-GRADIENT_BOUND, GRADIENT_BOUND), (TAX_LOW, TAX_HIGH)]
    raise GenomeError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def encode(policy: CarbonPolicy) -> list[float]:
    """Flatten a policy into its genome vector."""
    if isinstance(policy, NonParametricPolicy):
        return list(policy.prices)
    if isinstance(policy, LinearPolicy):
        return [policy.gradient, policy.intercept]
    raise GenomeError(f"cannot encode {type(policy).__name__}")


def _check_box(genes: list[float], kind: str, n_years: int) -> None:
    box = bounds(kind, n_years)
    if len(genes) != len(box):
        raise GenomeError(
            f"{kind} genome must have {len(box)} genes, got {len(genes)}"
        )
    for i, (g, (low, high)) in enumerate(zip(genes, box)):
        if not low <= g <= high:
            raise GenomeError(
                f"gene {i} = {g} outside [{low}, {high}] for kind {kind!r}"
            )


def decode(genome, kind: str, n_years: int = 18) -> CarbonPolicy:
    """Build a policy from a genome; out-of-bounds genes are rejected."""
    genes = [float(g) for g in genome]
    _check_box(genes, kind, n_years)
    if kind == FREE:
        return NonParametricPolicy(prices=tuple(genes))
    return LinearPolicy(gradient=genes[0], intercept=genes[1])


def check_bounds(policy: CarbonPolicy, n_years: int) -> None:
    """Raise GenomeError unless the policy parameters sit inside their box."""
    _check_box(encode(policy), policy.kind, n_years)


def parse_policy_spec(spec: str, n_years: int) -> CarbonPolicy:
    """Parse a command-line policy spec.

    Accepted forms: ``flat:C`` (constant tax), ``linear:A1,A2`` and
    ``free:V1,...,Vn`` with one value per simulated year.
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise GenomeError(f"malformed policy spec {spec!r}: expected kind:values")
    try:
        values = [float(v) for v in body.split(",")] if body else []
    except ValueError as exc:
        raise GenomeError(f"malformed policy spec {spec!r}: {exc}") from exc
    if head == "flat":
        if len(values) != 1:
            raise GenomeError(f"flat policy takes one value, got {len(values)}")
        return decode(values * n_years, FREE, n_years=n_years)
    if head == LINEAR:
        return decode(values, LINEAR, n_years=n_years)
    if head == FREE:
        return decode(values, FREE, n_years=n_years)
    raise GenomeError(f"unknown policy kind {head!r} in spec {spec!r}")
