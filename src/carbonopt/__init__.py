"""Carbon-tax trajectory search over a merit-order electricity market model."""

__version__ = "0.1.0"

from .nsga2 import GAConfig, evolve
from .scenario import load_scenario
from .simulation import evaluate_objectives

__all__ = ["__version__", "GAConfig", "evaluate_objectives", "evolve", "load_scenario"]
