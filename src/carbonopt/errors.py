"""Exception types shared across the package."""


class CarbonOptError(Exception):
    """Base class for all package errors."""


class ScenarioParseError(CarbonOptError):
    """Scenario file is unreadable or not JSON, or lacks a key, has one of the wrong type
    or has one that names no field."""


class ScenarioValidationError(CarbonOptError):
    """Scenario data violates one or more invariants.

    Carries the full violation list so callers can report every problem
    at once instead of the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid scenario: {lines}")


class ConfigurationError(CarbonOptError):
    """A simulation input is internally inconsistent (e.g. missing fuel price)."""


class GenomeError(CarbonOptError):
    """A genome cannot be decoded: wrong length or out-of-bounds gene."""


class EvaluationError(CarbonOptError):
    """A fitness evaluation failed; carries the offending genome."""

    def __init__(self, genome, cause):
        self.genome = list(genome)
        super().__init__(f"fitness evaluation failed for genome {self.genome}: {cause}")
