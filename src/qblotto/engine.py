"""Quantum multiplayer Colonel Blotto engine.

The composite space holds one soldier qubit per player plus an
n-dimensional battlefield register prepared in a uniform superposition.
A player's troop commitment on battlefield k becomes a rotation angle of
their qubit, applied conditionally on the register; an optional phase
per battlefield is the purely quantum part of the strategy. There is one
evolution path: the entangled start state, every player's strategy
operator in ascending order, then the entangler's inverse. The start
state ``J|0...0>`` holds two nonzero qubit states per battlefield and is
written directly; the inverse's generator has one nonzero per row, so it
is applied as a signed, phased reversal of the qubit index rather than
as a matrix. Strength (j, k) is read off the final state as the
probability of player j's qubit in state 1 with the register on
battlefield k, and payoffs compare those measured strengths across
players with the classical game's rule,
:func:`qblotto.classical.payoff_terms`.

The engine's strategy input is two player-major N x n grids, rotation
angles and phases (:func:`strategies_of`), plus ``gamma`` and the sign
pattern. A :class:`Scenario` is validated once, when it is built, so
every scenario that exists is valid and evaluation does not check it
again. All operations are pure functions of their inputs; evaluating
the same scenario twice produces bit-identical results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical import (
    DEFAULT_TIE_EPS,
    PlayerRoster,
    check_tie_eps,
    payoff_terms,
    validate_allocation,
)
from .errors import DimensionError, NumericalIntegrityError, ValidationError

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi

# Tolerance of the even-count unitarity rule, of the final state's norm
# and of a strength's [0, 1] range.
UNITARITY_EPS = 1e-10

# Hard cap on the composite dimension 2^N * n; dense storage stays
# tractable below this and exponential blowups fail fast above it.
MAX_DIM = 2**20

_ANGLE_SLACK = 1e-12

# A player's rotation angles or phases, one per battlefield.
Row = Sequence[float]
# Player-major N x n grid of rows.
Grid = Sequence[Row]


def rotation_angle(soldiers: float, blotto_total: float) -> float:
    """Map a troop commitment to a qubit rotation angle in [0, pi/2].

    The angle is ``(pi/2) * soldiers / blotto_total``: committing
    Blotto's entire budget rotates the qubit all the way from state 0 to
    state 1. No player can commit more than Blotto's budget to a single
    battlefield, so values outside the domain are rejected.
    """
    soldiers = float(soldiers)
    blotto_total = float(blotto_total)
    if blotto_total <= 0:
        raise ValidationError(
            f"Blotto's budget must be positive, got {blotto_total!r}"
        )
    if soldiers < 0:
        raise ValidationError(f"troop commitment is negative: {soldiers!r}")
    if soldiers > blotto_total:
        raise ValidationError(
            f"troop commitment {soldiers!r} exceeds Blotto's budget "
            f"{blotto_total!r}; no valid allocation can reach this"
        )
    # The product can round one ulp above pi/2 when soldiers == blotto_total.
    return min(HALF_PI * soldiers / blotto_total, HALF_PI)


def strategy_gate(angle: float, phase: float = 0.0) -> np.ndarray:
    """Single-qubit strategy gate.

    ::

        [[exp(i*phase)*cos(angle), -sin(angle)              ],
         [sin(angle),               exp(-i*phase)*cos(angle)]]

    At ``phase = 0`` this is the plain rotation taking state 0 toward
    state 1 by ``angle``; a nonzero phase is the quantum resource.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    ph = complex(math.cos(phase), math.sin(phase))
    return np.array([[ph * c, -s], [s, ph.conjugate() * c]], dtype=complex)


def default_pattern(num_battlefields: int) -> tuple[int, ...]:
    """Deterministic default sign pattern: all +1 with the last battlefield flipped."""
    return (1,) * (num_battlefields - 1) + (-1,)


@dataclass(frozen=True)
class MeasurementTable:
    """Measured strengths per player and battlefield, with payoffs.

    ``values[j][k]`` is player j+1's strength on battlefield k+1, a
    probability-like number in [0, 1]. ``rival_best`` holds, for each
    cell, the best strength among the other players on that battlefield,
    and ``payoffs`` the resulting signed scores in [-n, n].
    """

    values: tuple[tuple[float, ...], ...]
    rival_best: tuple[tuple[float, ...], ...]
    payoffs: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """Complete description of one game.

    Player 1 is Blotto and must hold the largest budget. ``allocations``
    and ``phases`` are player-major grids of shape N x n; ``eps`` is the
    absolute tie tolerance used for payoffs and budget sums. Building a
    scenario (``dataclasses.replace`` included) validates it and raises
    :class:`ValidationError` on the first broken rule; phases are stored
    as given and reduced by :func:`strategies_of`. The rules: matching
    shapes, finite phases, a valid tie tolerance, the composite-dimension
    guard ``2^N * n <= MAX_DIM``, the budgets (:class:`PlayerRoster`),
    each player's allocation (:func:`validate_allocation`), ``gamma`` in
    [0, pi/2], sign entries of exactly +1 or -1, and no commitment above
    Blotto's budget (:func:`rotation_angle`). ``gamma``, ``eps`` and the
    sign entries must be real numbers; a bool is not one.
    """

    player_names: tuple[str, ...]
    totals: tuple[float, ...]
    allocations: tuple[tuple[float, ...], ...]
    phases: tuple[tuple[float, ...], ...]
    gamma: float
    sign_pattern: tuple[int, ...]
    eps: float = DEFAULT_TIE_EPS

    def __post_init__(self):
        names = tuple(str(s) for s in self.player_names)
        totals = tuple(float(t) for t in self.totals)
        allocations = tuple(tuple(float(x) for x in row) for row in self.allocations)
        phases = tuple(tuple(float(p) for p in row) for row in self.phases)
        # A sign entry that is not a number exactly +1 or -1 is kept as
        # given, for the sign rule to reject; a bool is not a number here.
        pattern = tuple(
            int(s) if _is_number(s) and s in (-1, 1) else s
            for s in self.sign_pattern
        )
        raw_gamma, raw_eps = self.gamma, self.eps
        object.__setattr__(self, "player_names", names)
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "allocations", allocations)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "sign_pattern", pattern)
        object.__setattr__(self, "eps", float(self.eps))

        count = len(totals)
        if count == 0:
            raise ValidationError("scenario has no players")
        if len(names) != count:
            raise DimensionError(count, len(names), "player names")
        if len(allocations) != count:
            raise DimensionError(count, len(allocations), "allocation rows")
        if len(phases) != count:
            raise DimensionError(count, len(phases), "phase rows")
        n = len(allocations[0])
        if n < 1:
            raise ValidationError("scenario has no battlefields")
        for j, row in enumerate(allocations, start=1):
            if len(row) != n:
                raise DimensionError(n, len(row), f"player {j} allocations")
        for j, row in enumerate(phases, start=1):
            if len(row) != n:
                raise DimensionError(n, len(row), f"player {j} phases")
            for k, p in enumerate(row, start=1):
                if not math.isfinite(p):
                    raise ValidationError(
                        f"phase for player {j}, battlefield {k} is not finite: {p!r}"
                    )
        if len(pattern) != n:
            raise DimensionError(n, len(pattern), "sign pattern")
        if not _is_number(raw_eps):
            raise ValidationError(f"tie tolerance must be a number, got {raw_eps!r}")
        check_tie_eps(self.eps)
        dim = 2**count * n  # checked before anything costly
        if dim > MAX_DIM:
            raise ValidationError(
                f"composite dimension {dim} exceeds the guardrail {MAX_DIM}; "
                f"reduce the player count or battlefield count"
            )
        PlayerRoster(totals)  # two or more finite budgets, Blotto's the largest
        for j, row in enumerate(allocations):
            violation = validate_allocation(row, totals[j], self.eps)
            if violation is not None:
                raise ValidationError(
                    f"player {j + 1} ({names[j]}): {violation.message}"
                )
        if not _is_number(raw_gamma):
            raise ValidationError(
                f"entanglement parameter must be a number, got {raw_gamma!r}"
            )
        if not -_ANGLE_SLACK <= self.gamma <= HALF_PI + _ANGLE_SLACK:
            raise ValidationError(
                f"entanglement parameter {self.gamma!r} outside [0, pi/2]"
            )
        if any(not _is_number(s) or s not in (-1, 1) for s in pattern):
            raise ValidationError(
                f"sign pattern entries must be +1 or -1, got {pattern}"
            )
        # A row can sum to its budget within eps and still hold one
        # commitment above Blotto's budget.
        for row in allocations:
            for x in row:
                rotation_angle(x, totals[0])

    @classmethod
    def create(
        cls,
        totals: Sequence[float],
        allocations: Sequence[Sequence[float]],
        gamma: float,
        *,
        phases: Sequence[Sequence[float]] | None = None,
        sign_pattern: Sequence[int] | None = None,
        names: Sequence[str] | None = None,
        eps: float = DEFAULT_TIE_EPS,
    ) -> "Scenario":
        """Build a scenario, filling in the standard defaults.

        Phases default to all zero (the classical game), the sign
        pattern to :func:`default_pattern`, and names to
        "Blotto", "enemy 1", "enemy 2", ...
        """
        rows = [tuple(float(x) for x in row) for row in allocations]
        if not rows or not rows[0]:
            raise ValidationError("allocations must be a non-empty N x n grid")
        n = len(rows[0])
        if phases is None:
            phases = [(0.0,) * n for _ in rows]
        if sign_pattern is None:
            sign_pattern = default_pattern(n)
        if names is None:
            names = ["Blotto"] + [f"enemy {j}" for j in range(1, len(rows))]
        return cls(
            player_names=tuple(names),
            totals=tuple(float(t) for t in totals),
            allocations=tuple(rows),
            phases=tuple(tuple(float(p) for p in row) for row in phases),
            gamma=gamma,
            sign_pattern=tuple(sign_pattern),
            eps=eps,
        )

    @property
    def num_players(self) -> int:
        return len(self.totals)

    @property
    def num_battlefields(self) -> int:
        return len(self.allocations[0])

    @property
    def blotto_total(self) -> float:
        return self.totals[0]


def _is_number(value, kind: type = numbers.Real) -> bool:
    """A number of ``kind``, a real by default, that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def reduced_phase(phase: float) -> float:
    """A phase reduced by its period 2*pi; one in [0, 2*pi) is returned as is."""
    return phase if 0.0 <= phase < TWO_PI else phase % TWO_PI


def scenario_notices(scenario: Scenario) -> list[str]:
    """Human-readable notes on the unusual choices of a valid scenario.

    A two-player game, a uniform sign pattern and each phase outside
    [0, 2*pi), with the value :func:`reduced_phase` gives it.
    """
    notices: list[str] = []
    if scenario.num_players == 2:
        notices.append(
            "two-player game accepted; the game is usually played with "
            "three or more players"
        )
    pattern = scenario.sign_pattern
    if len(set(pattern)) == 1 and len(pattern) > 1:
        notices.append(
            f"uniform sign pattern {pattern} accepted as an explicit "
            f"override; the default flips the last battlefield's sign"
        )
    for j, row in enumerate(scenario.phases, start=1):
        for k, p in enumerate(row, start=1):
            q = reduced_phase(p)
            if q != p:
                notices.append(
                    f"phase for player {j}, battlefield {k} reduced "
                    f"from {p!r} to {q!r} (period 2*pi)"
                )
    return notices


def strategies_of(scenario: Scenario) -> tuple[Grid, Grid]:
    """The scenario's ``(angles, phases)`` grids.

    Each allocation's rotation angle (:func:`rotation_angle`) and each
    phase reduced by :func:`reduced_phase`, player-major.
    """
    blotto_total = scenario.blotto_total
    angles = tuple(
        tuple(rotation_angle(x, blotto_total) for x in row)
        for row in scenario.allocations
    )
    phases = tuple(tuple(reduced_phase(p) for p in row) for row in scenario.phases)
    return angles, phases


def player_operator(
    player: int, angles: Row, phases: Row, num_players: int
) -> np.ndarray:
    """Full-space strategy operator of the 1-based ``player``.

    ``angles`` and ``phases`` are the player's rows of the strategy
    grids. The operator is the sum over battlefields of the player's
    gate on their own qubit, identities on everyone else's, tensored
    with the battlefield projector; block-diagonal in the register basis
    and unitary. Built by writing each battlefield's gate into its
    diagonal block in one indexed assignment, with no Kronecker products.
    """
    n = len(angles)
    gates = np.array([strategy_gate(a, p) for a, p in zip(angles, phases)])
    # Row (a, x, b, k) and column (c, y, d, l) over the qubits before the
    # player's, the player's qubit, the qubits after it and the register.
    before, after = 2 ** (player - 1), 2 ** (num_players - player)
    op = np.zeros((before, 2, after, n) * 2, dtype=complex)
    a, x, b, k, y = np.ogrid[:before, :2, :after, :n, :2]
    op[a, x, b, k, a, y, b, k] = gates[k, x, y]
    dim = 2**num_players * n
    return op.reshape(dim, dim)


def generator_weights(num_players: int, sign_pattern: Sequence[int]) -> np.ndarray:
    """``G^+``'s one nonzero per row, on the ``(2^N, n)`` state grid.

    Row ``(s, k)`` of ``G`` holds ``(-1)^(N + popcount(s)) * i * sign_k``
    in column ``(2^N - 1 - s, k)``: every flip block swaps a qubit's
    state, with a minus sign when it is 1. ``G^+ = -(-1)^N G``, so the
    adjoint's weights are ``-(-1)^popcount(s) * i * sign_k``.
    ``sign_pattern`` is taken as checked, as a :class:`Scenario` holds it.
    """
    parity = np.ones(1)
    for _ in range(num_players):
        parity = np.concatenate([parity, -parity])  # (-1)^popcount(s)
    register = 1j * np.asarray(sign_pattern, dtype=float)
    return (-parity)[:, None] * register


def apply_generator(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``weights`` times ``psi`` with its qubit index reversed: ``G^+ psi``."""
    return (weights * psi.reshape(weights.shape)[::-1]).reshape(-1)


def check_entangler_unitary(num_players: int, gamma: float) -> None:
    """The even-count rule: raise if the entangler ``J`` is not unitary.

    ``max|J^+ J - I|`` is exactly ``|sin(gamma)|`` for an even player
    count (the generator squares to ``-I``) and 0 for an odd one, so an
    even count with ``|sin(gamma)| > UNITARITY_EPS`` raises
    :class:`NumericalIntegrityError`.
    """
    deviation = abs(math.sin(gamma)) if num_players % 2 == 0 else 0.0
    if deviation > UNITARITY_EPS:
        raise NumericalIntegrityError(
            f"entangler is not unitary (max deviation {deviation:.3e}); the "
            f"generator squares to -I, which happens for an even number of "
            f"players: use an odd player count or gamma = 0"
        )


def entangle(
    num_players: int, gamma: float, sign_pattern: Sequence[int]
) -> np.ndarray:
    """``J|0...0>`` times the uniform register, with ``J = c I + i s G``.

    ``c, s = cos, sin(gamma/2)`` and ``r = 1/sqrt(n)``. ``G`` sends qubit
    state 0...0 on battlefield k to ``i sign_k`` times 1...1, so the
    state holds ``c r`` at 0...0 and ``-(s r) sign_k`` at 1...1 and is
    written directly. :func:`check_entangler_unitary` runs first.
    """
    check_entangler_unitary(num_players, gamma)
    half = gamma / 2.0
    c, s = math.cos(half), math.sin(half)
    r = 1.0 / math.sqrt(len(sign_pattern))
    psi = np.zeros((2**num_players, len(sign_pattern)), dtype=complex)
    psi[0] = c * r
    psi[-1] = -(s * r) * np.asarray(sign_pattern, dtype=float)
    return psi.reshape(-1)


def disentangle(
    psi: np.ndarray, num_players: int, gamma: float, sign_pattern: Sequence[int]
) -> np.ndarray:
    """``J^+ psi = c psi - i s (G^+ psi)``, the final state; its norm is checked."""
    half = gamma / 2.0
    c, s = math.cos(half), math.sin(half)
    inverse = generator_weights(num_players, sign_pattern)
    psi = c * psi - (1j * s) * apply_generator(inverse, psi)
    check_norm_sq(np.vdot(psi, psi).real)
    return psi


def check_norm_sq(norm_sq) -> None:
    """Raise if a squared norm strays from 1 by more than UNITARITY_EPS.

    ``norm_sq`` is one value or an array of them; of an array, the value
    furthest from 1 is checked and reported, a NaN first. Written so
    that a NaN norm fails too.
    """
    if isinstance(norm_sq, np.ndarray):
        norm_sq = norm_sq[np.argmax(abs(norm_sq - 1.0))]
    if not abs(norm_sq - 1.0) <= UNITARITY_EPS:
        raise NumericalIntegrityError(
            f"state vector norm^2 = {float(norm_sq)!r} deviates from 1 beyond "
            f"{UNITARITY_EPS}"
        )


def evolve_strategies(
    angles: Grid, phases: Grid, gamma: float, sign_pattern: Sequence[int]
) -> np.ndarray:
    """Run the protocol for explicit strategy grids, ``gamma`` and sign pattern.

    ``angles`` and ``phases`` are player-major N x n grids, taken as a
    :class:`Scenario` holds them valid. The entangled start state is
    written directly (:func:`entangle`), every player's strategy
    operator is applied in ascending order, then the entangler's
    inverse (:func:`disentangle`). Strategy operators commute pairwise,
    so any other order gives the same outcome; the verify command's
    order-invariance check applies them in random orders.

    ``G^+`` has one nonzero per row, so ``G^+ psi`` reverses the qubit
    index of the ``(2^N, n)`` view of ``psi`` and multiplies by
    :func:`generator_weights`; neither ``G``, ``J`` nor a dense
    unitarity or commutation probe is formed. The strategy operators
    are dense matrices. An even player count with ``|sin(gamma)| >
    UNITARITY_EPS`` raises :class:`NumericalIntegrityError`, and the
    final state's norm is checked.
    """
    count = len(angles)
    psi = entangle(count, gamma, sign_pattern)
    for player in range(1, count + 1):
        # No name holds the last operator, so one is alive at a time.
        psi = (
            player_operator(player, angles[player - 1], phases[player - 1], count)
            @ psi
        )
    return disentangle(psi, count, gamma, sign_pattern)


def qubit_sums(values: np.ndarray, num_players: int) -> np.ndarray:
    """Sums of ``values[..., s, k]`` over the basis states s with each qubit set.

    Entry ``[..., j, k]`` sums over the states with player j+1's qubit
    in state 1; player 1 is the most significant bit of s.
    """
    shifts = np.arange(num_players - 1, -1, -1)[:, None]
    bits = (np.arange(2**num_players) >> shifts) & 1
    return bits.astype(float) @ values


def check_strengths(grid: np.ndarray) -> None:
    """Raise :class:`NumericalIntegrityError` for a strength outside [0, 1].

    The tolerance is ``UNITARITY_EPS``, and NaN fails. The last two axes
    of ``grid`` are player and battlefield.
    """
    in_range = (grid >= -UNITARITY_EPS) & (grid <= 1.0 + UNITARITY_EPS)
    if not in_range.all():
        index = tuple(np.argwhere(~in_range)[0])
        j, k = index[-2:]
        raise NumericalIntegrityError(
            f"measurement for player {j + 1}, battlefield {k + 1} outside "
            f"[0, 1]: {float(grid[index])!r}"
        )


def measurements(
    psi: np.ndarray, num_players: int, eps: float = DEFAULT_TIE_EPS
) -> MeasurementTable:
    """Read per-player battlefield strengths off a final state.

    Strength (j, k) is the probability of player j's qubit in state 1
    with the register on battlefield k: the sum of ``|psi|^2`` over the
    basis states with qubit j set and register index k, where ``psi``
    has ``2^num_players * n`` amplitudes. This equals the
    committed-qubit projector's expectation on the density matrix
    reduced to qubit j and the register, which the tests' dense
    reference computes. A value outside [0, 1] beyond tolerance, NaN
    included, raises :class:`NumericalIntegrityError`. Rival bests and
    payoffs come from :func:`qblotto.classical.payoff_terms` applied to
    the strength grid.
    """
    probabilities = (psi.real**2 + psi.imag**2).reshape(2**num_players, -1)
    grid = qubit_sums(probabilities, num_players)
    check_strengths(grid)

    rival_best, terms = payoff_terms(grid, eps)
    return MeasurementTable(
        values=tuple(map(tuple, grid.tolist())),
        rival_best=tuple(map(tuple, rival_best.tolist())),
        payoffs=tuple(int(p) for p in terms.sum(axis=1)),
    )


def evaluate(scenario: Scenario) -> MeasurementTable:
    """Evolve and measure a scenario in one call."""
    angles, phases = strategies_of(scenario)
    return evaluate_strategies(
        angles, phases, scenario.gamma, scenario.sign_pattern, scenario.eps
    )


def evaluate_strategies(
    angles: Grid,
    phases: Grid,
    gamma: float,
    sign_pattern: Sequence[int],
    eps: float = DEFAULT_TIE_EPS,
) -> MeasurementTable:
    """Evolve and measure explicit strategy grids (sweep entry point)."""
    psi = evolve_strategies(angles, phases, gamma, sign_pattern)
    return measurements(psi, len(angles), eps)
