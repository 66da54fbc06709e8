"""Dense reference that the tests compare the engine against.

Kronecker products, conjugate transposes, density matrices, partial
traces and expectation values on plain ``numpy`` arrays; the
unentangled initial state, the entangler's generator and the checked
entangler as dense matrices; strengths from one state vector per
battlefield; and a probe of payoff dependence on one phase. The engine
forms none of these: it writes the entangled start state directly,
applies the generator's adjoint matrix-free and reads strengths off the
state vector. A composite space is described by its tuple of factor sizes,
``(2,) * N + (n,)`` for a game (:func:`game_factors`), and factor
indices in this interface are 1-based. Strategies are the engine's
player-major angle and phase grids.

Matrices are compared entrywise with a max-abs tolerance; exact float
equality is never meaningful here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qblotto.engine import (
    HALF_PI,
    UNITARITY_EPS,
    Scenario,
    disentangle,
    entangle,
    evolve_strategies,
    player_operator,
    strategies_of,
    strategy_gate,
)
from qblotto.errors import DimensionError, NumericalIntegrityError, ValidationError
from qblotto.sweep import SweepSpec, _evaluator

# Default tolerance of the entrywise comparisons and of an expectation's
# imaginary residue.
DEFAULT_EPS = 1e-10
COMMUTATION_EPS = 1e-10

# 2-D and 1-D complex arrays.
ComplexMatrix = np.ndarray
StateVector = np.ndarray

_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# Kronecker and partial-trace algebra
# ---------------------------------------------------------------------------


def game_factors(num_players: int, num_battlefields: int) -> tuple[int, ...]:
    """Factor sizes of a game: one qubit per player, then the register."""
    return (2,) * num_players + (num_battlefields,)


def _check_keep_indices(keep: Iterable[int], num_factors: int) -> list[int]:
    indices = sorted(set(int(i) for i in keep))
    for i in indices:
        if not 1 <= i <= num_factors:
            raise DimensionError(
                f"keep indices within 1..{num_factors}", indices, "partial_trace"
            )
    return indices


def as_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex array, rejecting anything else."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError("a 2-D matrix", arr.shape)
    return arr


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product with the row-major convention.

    Entry ((i1,i2),(j1,j2)) of the result is ``a[i1,j1] * b[i2,j2]``; the
    first operand indexes the most significant part of the composite
    index, matching the order of a factor tuple.
    """
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats: Sequence[ComplexMatrix]) -> ComplexMatrix:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, as_matrix(m))
    return out


def dagger(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def allclose(a, b, eps: float = DEFAULT_EPS) -> bool:
    """Entrywise max-abs comparison."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return float(np.abs(a - b).max()) <= eps


def density_matrix(psi: StateVector) -> ComplexMatrix:
    """Rank-one density matrix of a pure state vector."""
    amp = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(amp, amp.conj())


def partial_trace(
    rho: ComplexMatrix, factors: Sequence[int], keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out every factor not listed in ``keep``.

    Parameters
    ----------
    rho : square matrix on the composite space of ``factors``
    factors : factor sizes of ``rho``, most significant first
    keep : 1-based factor indices to retain; their original ordering is
        preserved in the result. An empty ``keep`` reduces to the scalar
        trace as a 1x1 matrix.

    The total trace is preserved: ``tr(result) == tr(rho)`` up to
    rounding.
    """
    rho = as_matrix(rho)
    factors = list(factors)
    dim = math.prod(factors)
    if rho.shape != (dim, dim):
        raise DimensionError((dim, dim), rho.shape, "partial_trace input")

    indices = _check_keep_indices(keep, len(factors))
    traced = [i for i in range(1, len(factors) + 1) if i not in indices]

    reshaped = rho.reshape(tuple(factors) + tuple(factors))
    for i in sorted(traced, reverse=True):
        half = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=i - 1, axis2=i - 1 + half)
        del factors[i - 1]

    kept_dim = math.prod(factors)
    return reshaped.reshape(kept_dim, kept_dim)


def expectation(
    op: ComplexMatrix, rho: ComplexMatrix, imag_tol: float = DEFAULT_EPS
) -> float:
    """Real expectation value ``tr(op @ rho)``.

    The trace of a Hermitian observable against a density matrix must be
    real; any imaginary residue beyond ``imag_tol`` raises
    :class:`NumericalIntegrityError` instead of being silently dropped.
    """
    op = as_matrix(op)
    rho = as_matrix(rho)
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise DimensionError(rho.shape, op.shape, "expectation operator")
    value = complex(np.trace(op @ rho))
    if abs(value.imag) > imag_tol:
        raise NumericalIntegrityError(
            f"expectation value {value!r} has imaginary part beyond {imag_tol}"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def initial_state(num_players: int, num_battlefields: int) -> StateVector:
    """All qubits in state 0, battlefield register uniformly superposed."""
    qubits = np.zeros(2**num_players, dtype=complex)
    qubits[0] = 1.0
    register = np.full(num_battlefields, 1.0 / math.sqrt(num_battlefields), complex)
    return np.kron(qubits, register)


def final_state(scenario: Scenario) -> StateVector:
    """The engine's final state of a scenario, operators in ascending order."""
    angles, phases = strategies_of(scenario)
    return evolve_strategies(angles, phases, scenario.gamma, scenario.sign_pattern)


def final_state_in_order(
    operators: Sequence[ComplexMatrix],
    order: Sequence[int],
    gamma: float,
    sign_pattern: Sequence[int],
) -> StateVector:
    """The final state with ``operators[j - 1]`` applied for each j in ``order``.

    ``operators`` holds every player's strategy operator and ``order``
    is a permutation of the 1-based players. The engine's own stages,
    with the operators permuted between :func:`~qblotto.engine.entangle`
    and :func:`~qblotto.engine.disentangle`.
    """
    count = len(operators)
    psi = entangle(count, gamma, sign_pattern)
    for j in order:
        psi = operators[j - 1] @ psi
    return disentangle(psi, count, gamma, sign_pattern)


# ---------------------------------------------------------------------------
# The entangler as a dense matrix
# ---------------------------------------------------------------------------


def entangler_generator(
    num_players: int, sign_pattern: Sequence[int]
) -> ComplexMatrix:
    """Generator of the entangling operator, as a dense matrix.

    A scaled tensor product of one antisymmetric flip block per player
    with a diagonal battlefield block of ``sign * i`` entries. It
    squares to plus the identity for an odd player count and minus the
    identity for an even one, which decides whether an entangler can be
    built from it. Evaluation writes ``J`` applied to the initial state
    directly and applies the adjoint with
    :func:`qblotto.engine.generator_weights` and
    :func:`qblotto.engine.apply_generator` instead.
    """
    register_block = np.diag([1j * s for s in sign_pattern]).astype(complex)
    generator = kron_all([_FLIP] * num_players + [register_block])
    return ((-1.0) ** num_players) * generator


def generator_square_scalar(generator: ComplexMatrix) -> complex:
    """Scalar s with ``generator @ generator == s * I`` (diagnostic)."""
    generator = as_matrix(generator)
    square = generator @ generator
    return complex(square[0, 0])


def entangler(
    gamma: float,
    generator: ComplexMatrix,
    num_players: int | None = None,
) -> ComplexMatrix:
    """Entangling operator ``cos(gamma/2) I + i sin(gamma/2) generator``.

    The closed form is only unitary when the generator squares to the
    identity, which holds for an odd number of players; an even count is
    rejected with a diagnostic. When ``num_players`` is given, the result is
    additionally checked to commute with a pseudo-randomly sampled
    classical (phase-free) strategy operator, which every valid
    entangler must do.
    """
    generator = as_matrix(generator)
    dim = generator.shape[0]
    if generator.shape != (dim, dim):
        raise DimensionError((dim, dim), generator.shape, "entangler generator")
    half = float(gamma) / 2.0
    out = math.cos(half) * np.eye(dim, dtype=complex) + (
        1j * math.sin(half)
    ) * generator

    deviation = float(np.abs(dagger(out) @ out - np.eye(dim)).max())
    if deviation > UNITARITY_EPS:
        square = generator_square_scalar(generator)
        hint = ""
        if abs(square + 1.0) < 1e-6:
            hint = (
                "; the generator squares to -I, which happens for an even "
                "number of players: use an odd player count or gamma = 0"
            )
        raise NumericalIntegrityError(
            f"entangler is not unitary (max deviation {deviation:.3e}){hint}"
        )

    if num_players is not None:
        _check_classical_commutation(out, num_players)
    return out


def _check_classical_commutation(op: ComplexMatrix, num_players: int) -> None:
    """Verify ``op`` commutes with a sampled phase-free strategy operator."""
    n = op.shape[0] // 2**num_players
    rng = np.random.default_rng(0x51B10)  # fixed seed keeps runs bit-identical
    player = int(rng.integers(1, num_players + 1))
    angles = rng.uniform(0.0, HALF_PI, size=n)
    probe = player_operator(player, angles, (0.0,) * n, num_players)
    residue = float(np.abs(op @ probe - probe @ op).max())
    if residue > COMMUTATION_EPS:
        raise NumericalIntegrityError(
            f"entangler fails to commute with a classical strategy operator "
            f"(max residue {residue:.3e})"
        )


# ---------------------------------------------------------------------------
# One battlefield at a time
# ---------------------------------------------------------------------------


def branch_strengths(
    angles: Sequence[Sequence[float]],
    phases: Sequence[Sequence[float]],
    gamma: float,
    sign_pattern: Sequence[int],
) -> np.ndarray:
    """Strength grid ``[j, k]`` from one 2^N state vector per battlefield.

    Every operator is diagonal in the register, so battlefield k's branch
    is the N-qubit game with sign ``sign_pattern[k]``, weighted ``1/n``.
    Each branch is entangled and disentangled by the engine's stages with
    a one-entry pattern, and each player's gate is applied to their own
    qubit axis; no operator on the whole space is formed, so this runs
    at player counts whose strategy operators would not fit in memory.
    """
    count, n = len(angles), len(sign_pattern)
    grid = np.empty((count, n))
    for k, sign in enumerate(sign_pattern):
        psi = entangle(count, gamma, (sign,)).reshape((2,) * count)
        for j in range(count):
            gate = strategy_gate(angles[j][k], phases[j][k])
            psi = np.moveaxis(np.tensordot(gate, psi, axes=([1], [j])), 0, j)
        psi = disentangle(psi.reshape(-1), count, gamma, (sign,))
        probabilities = (psi.real**2 + psi.imag**2).reshape((2,) * count)
        for j in range(count):
            grid[j, k] = np.take(probabilities, 1, axis=j).sum() / n
    return grid


# ---------------------------------------------------------------------------
# Payoff dependence on one phase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseInsensitivityReport:
    """Payoffs across interior phase samples versus the zero-phase point.

    ``interior_uniform`` says whether every sampled interior phase gave
    the same payoff vector; ``differs_at_zero`` whether that common
    vector jumps when the phase is set exactly to zero.
    """

    samples: tuple[tuple[float, tuple[int, ...]], ...]
    interior_uniform: bool
    zero_payoffs: tuple[int, ...]
    differs_at_zero: bool


def check_phase_insensitivity(
    base: Scenario,
    player: int,
    battlefield: int,
    samples: Sequence[float],
) -> PhaseInsensitivityReport:
    """Probe payoff dependence on one phase strictly inside (0, pi/2)."""
    if not samples:
        raise ValidationError("need at least one sample phase")
    for value in samples:
        if not 0.0 < float(value) < HALF_PI:
            raise ValidationError(
                f"sample phase {value!r} must lie strictly inside (0, pi/2)"
            )
    spec = SweepSpec(
        base=base,
        target_player=player,
        target_battlefield=battlefield,
        parameter="phi",
        lo=0.0,
        hi=HALF_PI,
        steps=2,
    )
    evaluate_at = _evaluator(spec)

    sampled = tuple(
        (float(v), evaluate_at(float(v)).payoffs) for v in samples
    )
    first = sampled[0][1]
    interior_uniform = all(payoffs == first for _, payoffs in sampled)
    zero_payoffs = evaluate_at(0.0).payoffs
    differs = interior_uniform and zero_payoffs != first
    return PhaseInsensitivityReport(
        samples=sampled,
        interior_uniform=interior_uniform,
        zero_payoffs=zero_payoffs,
        differs_at_zero=differs,
    )
