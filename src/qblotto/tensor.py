"""Dimensions and the norm check of the game's composite space.

The composite space holds one qubit per player followed by the
battlefield register. Its factor structure travels alongside state
vectors as a :class:`TensorDims` value, which also enforces the
dimension guard; factor indices are 1-based. The dense
Kronecker/partial-trace reference that the tests measure the engine
against lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ValidationError

# Tolerance of the norm check.
DEFAULT_EPS = 1e-10

# Hard cap on the composite dimension 2^N * n; dense storage stays
# tractable below this and exponential blowups fail fast above it.
MAX_DIM = 2**20

# Aliases used throughout the package: 2-D / 1-D complex ndarrays.
ComplexMatrix = np.ndarray
StateVector = np.ndarray


@dataclass(frozen=True)
class TensorDims:
    """Ordered factor sizes of a composite space.

    The game convention is ``(2, ..., 2, n)``: one 2-dimensional soldier
    qubit per player, then the n-dimensional battlefield register. Only
    the final factor may differ from 2.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValidationError("TensorDims needs at least one factor")
        if any(f < 1 for f in factors):
            raise ValidationError(f"factor sizes must be positive, got {factors}")
        if any(f != 2 for f in factors[:-1]):
            raise ValidationError(
                f"only the final factor (battlefield register) may differ "
                f"from 2, got {factors}"
            )
        dim = 1
        for f in factors:
            dim *= f
        if dim > MAX_DIM:
            raise ValidationError(
                f"composite dimension {dim} exceeds the guardrail {MAX_DIM}; "
                f"reduce the player count or battlefield count"
            )

    @classmethod
    def for_game(cls, num_players: int, num_battlefields: int) -> "TensorDims":
        """Dims of a game with ``num_players`` qubits and an n-sized register."""
        if num_players < 1:
            raise ValidationError("a game needs at least one player")
        if num_battlefields < 1:
            raise ValidationError("a game needs at least one battlefield")
        return cls((2,) * num_players + (num_battlefields,))

    @property
    def dim(self) -> int:
        total = 1
        for f in self.factors:
            total *= f
        return total

    def __len__(self) -> int:
        return len(self.factors)


def assert_unit_norm(psi: StateVector, eps: float = DEFAULT_EPS) -> None:
    """Raise if the squared norm of ``psi`` strays from 1 by more than eps.

    Written so that a NaN norm fails too.
    """
    amp = np.asarray(psi, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(amp, amp).real)
    if not abs(norm_sq - 1.0) <= eps:
        raise NumericalIntegrityError(
            f"state vector norm^2 = {norm_sq!r} deviates from 1 beyond {eps}"
        )
