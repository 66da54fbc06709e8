"""Deterministic simulator for the multiplayer quantum Colonel Blotto game.

The package couples the quantum game protocol (strategy gates,
entangler, strengths read off the final state) with a dense
Kronecker/partial-trace reference used by the tests, a classical Blotto
oracle for cross-validation, parameter sweep tooling and a CLI
(``qblotto play | sweep | verify | oracle``).
"""

from .classical import (
    DEFAULT_TIE_EPS,
    AllocationViolation,
    PlayerRoster,
    classical_payoffs,
    sgn_eps,
    validate_allocation,
)
from .engine import (
    EntanglerConfig,
    MeasurementTable,
    QuantumStrategy,
    Scenario,
    entangler,
    entangler_generator,
    evaluate,
    evaluate_strategies,
    evolve,
    evolve_strategies,
    initial_state,
    measurements,
    player_operator,
    quantum_payoffs,
    rotation_angle,
    strategies_of,
    strategy_gate,
    validate_scenario,
)
from .errors import (
    BlottoError,
    DimensionError,
    NumericalIntegrityError,
    ValidationError,
)
from .scenario_io import (
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .sweep import (
    BestResponse,
    PayoffTransition,
    PhaseInsensitivityReport,
    SweepPoint,
    SweepResult,
    SweepSpec,
    best_response_grid,
    check_phase_insensitivity,
    run_sweep,
)
from .tensor import (
    DEFAULT_EPS,
    MAX_DIM,
    TensorDims,
    allclose,
    dagger,
    density_matrix,
    expectation,
    kron,
    kron_all,
    partial_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationViolation",
    "BestResponse",
    "BlottoError",
    "DEFAULT_EPS",
    "DEFAULT_TIE_EPS",
    "DimensionError",
    "EntanglerConfig",
    "MAX_DIM",
    "MeasurementTable",
    "NumericalIntegrityError",
    "PayoffTransition",
    "PhaseInsensitivityReport",
    "PlayerRoster",
    "QuantumStrategy",
    "Scenario",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TensorDims",
    "ValidationError",
    "allclose",
    "best_response_grid",
    "check_phase_insensitivity",
    "classical_payoffs",
    "dagger",
    "density_matrix",
    "dump_scenario",
    "entangler",
    "entangler_generator",
    "evaluate",
    "evaluate_strategies",
    "evolve",
    "evolve_strategies",
    "expectation",
    "initial_state",
    "kron",
    "kron_all",
    "load_scenario",
    "measurements",
    "partial_trace",
    "player_operator",
    "quantum_payoffs",
    "rotation_angle",
    "scenario_from_dict",
    "scenario_to_dict",
    "sgn_eps",
    "strategies_of",
    "strategy_gate",
    "validate_allocation",
    "validate_scenario",
]
