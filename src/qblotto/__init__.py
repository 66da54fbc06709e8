"""Deterministic simulator for the multiplayer quantum Colonel Blotto game.

The package couples the quantum game protocol (strategy gates,
entangler, strengths read off the final state) with a classical Blotto
oracle for cross-validation, parameter sweep tooling and a CLI
(``qblotto play | sweep | verify | oracle``). The top level exports
what a caller needs to build, evaluate, sweep and store a scenario;
everything else lives in its submodule: the payoff rule and the
classical game in ``qblotto.classical`` and the engine's building
blocks, which read a scenario's angle and phase grids, in
``qblotto.engine``. A scenario is validated once, when it is built. The
sweep and file names load their submodules when first read.
"""

import importlib

from .engine import MeasurementTable, Scenario, evaluate
from .errors import (
    BlottoError,
    DimensionError,
    NumericalIntegrityError,
    ValidationError,
)

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

# Exported names whose submodule loads when the name is first read.
_LAZY = {
    "dump_scenario": "scenario_io", "load_scenario": "scenario_io",
    "SweepResult": "sweep", "SweepSpec": "sweep",
    "best_response_grid": "sweep", "run_sweep": "sweep",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
