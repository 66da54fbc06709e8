"""Dense reference that the tests compare the engine against.

Kronecker products, conjugate transposes, density matrices, partial
traces and expectation values on plain ``numpy`` arrays; the
unentangled initial state, the entangler's generator and the checked
entangler as dense matrices; strengths from one state vector per
battlefield, in closed form from per-player overlaps with no state
vector (:func:`closed_form_strengths`, plain Python) and at 40 digits in
mpmath (:func:`exact_strengths`); and a probe of
payoff dependence on one phase. The engine
forms none of these: it writes the entangled start state directly,
applies the generator's adjoint matrix-free and reads strengths off the
state vector. Each player's 2x2 strategy gate is written here from the
paper's formula, not taken from the engine. A composite space is
described by its tuple of factor sizes, ``(2,) * N + (n,)`` for a game
(:func:`game_factors`), and factor indices in this interface are
1-based. Strategies are the engine's
player-major angle and phase grids.

Matrices are compared entrywise with a max-abs tolerance; exact float
equality is never meaningful here.
"""

from __future__ import annotations

import math
from collections import Counter
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
)
from qblotto.errors import NumericalIntegrityError, ValidationError, dimension_error
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
            raise dimension_error(
                f"keep indices within 1..{num_factors}", indices, "partial_trace"
            )
    return indices


def as_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex array, rejecting anything else."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise dimension_error("a 2-D matrix", arr.shape)
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
        raise dimension_error((dim, dim), rho.shape, "partial_trace input")

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
        raise dimension_error(rho.shape, op.shape, "expectation operator")
    value = complex(np.trace(op @ rho))
    if abs(value.imag) > imag_tol:
        raise NumericalIntegrityError(
            f"expectation value {value!r} has imaginary part beyond {imag_tol}"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# Strategy gates
# ---------------------------------------------------------------------------


def strategy_gate(angle: float, phase: float = 0.0) -> ComplexMatrix:
    """A player's single-qubit strategy gate, from the paper's formula.

    ::

        [[exp(i*phase)*cos(angle), -sin(angle)              ],
         [sin(angle),               exp(-i*phase)*cos(angle)]]

    At ``phase = 0`` this is the plain rotation taking state 0 toward
    state 1 by ``angle``; a nonzero phase is the quantum resource.
    """
    c, s = math.cos(angle), math.sin(angle)
    e = complex(math.cos(phase), math.sin(phase))
    return np.array([[e * c, -s], [s, e.conjugate() * c]], dtype=complex)


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
    directly, and :func:`qblotto.engine.disentangle` applies the adjoint
    as a signed, phased reversal of the qubit index instead.
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
        raise dimension_error((dim, dim), generator.shape, "entangler generator")
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


# The pairs (x, y) of branch vectors (u, v, Fu, Fv) whose overlaps do not
# vanish: (u, Fu), (u, Fv), (v, Fu) and (v, Fv).
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


def closed_form_strengths(
    angles: Sequence[Sequence[float]],
    phases: Sequence[Sequence[float]],
    gamma: float,
    sign_pattern: Sequence[int],
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Strength grid ``[j][k]`` and each battlefield's norm^2, in closed form.

    Plain Python, with no state vector. Battlefield k's branch, of
    weight ``1/n``, is an N-qubit EWL circuit. With ``u = U|0>`` and
    ``v = U|1>`` for each player's gate ``U`` (:func:`strategy_gate`),
    ``F`` the flip block and ``A, B = cos, sin(gamma/2)``, its final
    state is ``A^2 (x)u - A B sign ((x)v + (x)Fu) + B^2 (x)Fv``. Player
    l's strength is each vector's weight squared times l's ``<x|P|x>``,
    plus twice the real part of a sum over the pairs (u, Fu), (u, Fv),
    (v, Fu) and (v, Fv): the pair's weights, times l's ``<x|P|y>``,
    times every other player's overlap ``<x|y>``. The pairs (u, v) and
    (Fu, Fv) drop out, as ``<u|v> = 0``. The norm^2 is the same sum with
    l's projector dropped, over every player's overlap.

    The products that leave player l out are taken over groups of equal
    overlap tuples, in sorted order: a member of group h gets the
    weights times the other groups' powers, as prefix and suffix
    products, times h's tuple to one power fewer; every power is
    multiplied out left to right. These products depend only on the
    multiset of the players' overlap tuples, so relabelling players
    permutes the strengths bit for bit and identical players get
    identical rows. An even player count needs ``gamma = 0``, as in the
    engine.
    """
    count, n = len(angles), len(sign_pattern)
    a, b = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    strengths = [[0.0] * n for _ in range(count)]
    norms = []
    for k, sign in enumerate(sign_pattern):
        scale = (a * a, -a * b * sign, -a * b * sign, b * b)  # of u, v, Fu, Fv
        keys, projected, diagonals = [], [], []
        for j in range(count):
            c, s = math.cos(angles[j][k]), math.sin(angles[j][k])
            e = complex(math.cos(phases[j][k]), math.sin(phases[j][k]))
            u, v = (e * c, complex(s)), (complex(-s), e.conjugate() * c)
            vectors = (u, v, (u[1], -u[0]), (v[1], -v[0]))
            overlaps = [
                vectors[x][0].conjugate() * vectors[y][0]
                + vectors[x][1].conjugate() * vectors[y][1]
                for x, y in _PAIRS
            ]
            # -0.0 + 0.0 is 0.0: equal overlaps make one key whatever their zeros' signs
            keys.append(tuple((z.real + 0.0, z.imag + 0.0) for z in overlaps))
            projected.append(
                [vectors[x][1].conjugate() * vectors[y][1] for x, y in _PAIRS]
            )
            diagonals.append(
                sum(w * w * abs(x[1]) ** 2 for w, x in zip(scale, vectors))
            )
        groups = sorted(Counter(keys).items())
        tuples = [[complex(*z) for z in key] for key, _ in groups]
        # each group's tuple to its multiplicity, and to one fewer
        lower = [_power(o, m - 1) for o, (_, m) in zip(tuples, groups)]
        full = [_times(p, o) for p, o in zip(lower, tuples)]
        prefix = [[scale[x] * scale[y] for x, y in _PAIRS]]
        for f in full:
            prefix.append(_times(prefix[-1], f))
        suffix = [[1.0] * 4]
        for f in reversed(full[1:]):
            suffix.append(_times(f, suffix[-1]))
        suffix.reverse()
        rest = {
            key: _times(_times(prefix[h], suffix[h]), lower[h])
            for h, (key, _) in enumerate(groups)
        }
        for j in range(count):
            cross = sum(_times(rest[keys[j]], projected[j]))
            strengths[j][k] = (diagonals[j] + 2.0 * cross.real) / n
        norms.append((sum(w * w for w in scale) + 2.0 * sum(prefix[-1]).real) / n)
    return tuple(map(tuple, strengths)), tuple(norms)


def exact_strengths(scenario: Scenario) -> list[list]:
    """Strength grid ``[j][k]`` of ``scenario`` as mpmath reals at 40 digits.

    Battlefield k's branch, of weight ``1/n``, is evolved amplitude by
    amplitude from the paper's definitions, with no numpy and no engine
    stage: ``J|0...0>`` with ``J = cos(gamma/2) I + i sin(gamma/2) G`` and
    ``G`` the flip block on every qubit times ``(-1)^N i sign_k``, each
    player's gate (the formula of :func:`strategy_gate`) on their own
    qubit, then ``J^+``. The angles are ``(pi/2) x / B`` from the
    allocations and the phases are taken as given, both in mpmath, so
    the scenario's floats are the only rounded inputs. mpmath is imported
    here: the rest of this module does not need it.
    """
    import mpmath

    with mpmath.workdps(40):
        count, n = scenario.num_players, scenario.num_battlefields
        half = mpmath.mpf(scenario.gamma) / 2
        c, s = mpmath.cos(half), mpmath.sin(half)
        i = mpmath.mpc(0, 1)
        blotto = mpmath.mpf(scenario.blotto_total)
        grid = [[mpmath.mpf(0)] * n for _ in range(count)]
        for k, sign in enumerate(scenario.sign_pattern):
            psi = [mpmath.mpc(0)] * 2**count
            psi[0] = mpmath.mpc(1)
            flipped = _on_every_qubit(psi, ((0, 1), (-1, 0)))  # the flip block F
            weight = (-1) ** count * i * sign  # G = weight * F on every qubit
            psi = [c * a + i * s * weight * g for a, g in zip(psi, flipped)]
            for j in range(count):
                angle = mpmath.pi / 2 * mpmath.mpf(scenario.allocations[j][k]) / blotto
                e = mpmath.expj(mpmath.mpf(scenario.phases[j][k]))
                cos, sin = mpmath.cos(angle), mpmath.sin(angle)
                gate = ((e * cos, -sin), (sin, mpmath.conj(e) * cos))
                psi = _on_qubit(psi, gate, j)
            flipped = _on_every_qubit(psi, ((0, -1), (1, 0)))  # F's transpose
            weight = mpmath.conj(weight)  # G^+ = conj(weight) * F^T on every qubit
            psi = [c * a - i * s * weight * g for a, g in zip(psi, flipped)]
            for j in range(count):
                bit = 1 << (count - 1 - j)  # player 1's qubit is the most significant
                committed = (abs(a) ** 2 for index, a in enumerate(psi) if index & bit)
                grid[j][k] = mpmath.fsum(committed) / n
    return grid


def _on_every_qubit(psi: list, gate) -> list:
    """``gate`` applied to every qubit of an amplitude list."""
    for j in range(len(psi).bit_length() - 1):
        psi = _on_qubit(psi, gate, j)
    return psi


def _on_qubit(psi: list, gate, j: int) -> list:
    """``gate`` applied to the 0-based qubit ``j`` of an amplitude list.

    Qubit 0, player 1's, is the most significant bit of an amplitude's index.
    """
    bit = len(psi) >> (j + 1)
    out = list(psi)
    for index in range(len(psi)):
        if not index & bit:
            zero, one = psi[index], psi[index | bit]
            out[index] = gate[0][0] * zero + gate[0][1] * one
            out[index | bit] = gate[1][0] * zero + gate[1][1] * one
    return out


def _times(x: Sequence[complex], y: Sequence[complex]) -> list[complex]:
    """Channel-wise product of two overlap tuples."""
    return [p * q for p, q in zip(x, y)]


def _power(o: Sequence[complex], m: int) -> list[complex]:
    """Channel-wise ``o`` to the power ``m``, multiplied out left to right."""
    product = [1.0] * len(o)
    for _ in range(m):
        product = _times(product, o)
    return product


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
