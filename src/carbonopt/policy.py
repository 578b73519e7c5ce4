"""Carbon-tax trajectories, held as the genomes the optimizer searches.

A ``CarbonPolicy`` is its kind and its genes. Two kinds are supported:

* ``free``: one tax level per simulated year, each gene bounded to
  [0, 250] £/tCO2.
* ``linear``: tax is an affine function of the year index,
  ``gradient * y + intercept``, with genes ``(gradient, intercept)``,
  the gradient in [-14, 14] and the intercept in [0, 250]. A negative
  evaluated price is allowed and acts as a per-tCO2 subsidy in dispatch
  costs; it is deliberately not clamped.
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
class CarbonPolicy:
    """A tax trajectory: a ``free`` policy's genes are its yearly taxes, a ``linear`` one's
    are ``(gradient, intercept)`` in £/tCO2 per year and £/tCO2."""

    kind: str
    genes: tuple[float, ...]

    def price_at(self, year_index: int) -> float:
        """The tax in the 1-based ``year_index``th year of the horizon."""
        if self.kind == LINEAR:
            if year_index < 1:
                raise IndexError(f"year index {year_index} outside 1..horizon")
            gradient, intercept = self.genes
            return gradient * year_index + intercept
        if not 1 <= year_index <= len(self.genes):
            raise IndexError(f"year index {year_index} outside 1..{len(self.genes)}")
        return self.genes[year_index - 1]


def bounds(kind: str, n_years: int) -> list[tuple[float, float]]:
    """Per-gene (low, high) box for a policy kind over an ``n_years`` horizon."""
    if kind == FREE:
        return [(TAX_LOW, TAX_HIGH)] * n_years
    if kind == LINEAR:
        return [(-GRADIENT_BOUND, GRADIENT_BOUND), (TAX_LOW, TAX_HIGH)]
    raise GenomeError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def check_bounds(policy: CarbonPolicy, n_years: int) -> None:
    """Raise GenomeError unless the policy's genes fit its kind's box."""
    box = bounds(policy.kind, n_years)
    if len(policy.genes) != len(box):
        raise GenomeError(
            f"{policy.kind} genome must have {len(box)} genes, got {len(policy.genes)}"
        )
    for i, (g, (low, high)) in enumerate(zip(policy.genes, box)):
        if not low <= g <= high:
            raise GenomeError(
                f"gene {i} = {g} outside [{low}, {high}] for kind {policy.kind!r}"
            )


def decode(genome, kind: str, n_years: int) -> CarbonPolicy:
    """Build a policy from a genome; out-of-bounds genes are rejected."""
    policy = CarbonPolicy(kind, tuple(float(g) for g in genome))
    check_bounds(policy, n_years)
    return policy


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
    if head in POLICY_KINDS:
        return decode(values, head, n_years=n_years)
    raise GenomeError(f"unknown policy kind {head!r} in spec {spec!r}")
