"""Deterministic simulator for the multiplayer quantum Colonel Blotto game.

The package couples the quantum game protocol (strategy gates,
entangler, strengths read off the final state) with a classical Blotto
oracle for cross-validation, parameter sweep tooling and a CLI
(``qblotto play | sweep | verify | oracle``). The top level exports
what a caller needs to build, evaluate, sweep and store a scenario;
everything else lives in its submodule: the payoff rule and the
classical game in ``qblotto.classical`` and the engine's building
blocks, which read a scenario's angle and phase grids, in
``qblotto.engine``. A scenario is validated once, when it is built.
"""

from .engine import MeasurementTable, Scenario, evaluate
from .errors import (
    BlottoError,
    DimensionError,
    NumericalIntegrityError,
    ValidationError,
)
from .scenario_io import dump_scenario, load_scenario
from .sweep import SweepResult, SweepSpec, best_response_grid, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BlottoError",
    "DimensionError",
    "MeasurementTable",
    "NumericalIntegrityError",
    "Scenario",
    "SweepResult",
    "SweepSpec",
    "ValidationError",
    "best_response_grid",
    "dump_scenario",
    "evaluate",
    "load_scenario",
    "run_sweep",
]
