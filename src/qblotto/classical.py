"""Classical multiplayer Colonel Blotto game.

Players split a fixed troop budget across battlefields; a battlefield
pays +1 to a player who strictly out-allocates every rival there, -1 to
a player strictly beaten by the best rival, and 0 on a tie. This module
is the independent oracle the quantum engine is checked against in its
classical limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError, ValidationError

# Absolute tie tolerance for sign comparisons and budget sums. Troop
# counts and measurement values are O(1), so absolute beats relative.
DEFAULT_TIE_EPS = 1e-9


@dataclass(frozen=True)
class AllocationViolation:
    """First constraint broken by an allocation vector.

    ``index`` is the 1-based battlefield of a negative entry, or None
    when the budget sum is off; ``amount`` carries the offending value.
    """

    index: int | None
    amount: float
    message: str


def validate_allocation(
    troops: Sequence[float], total: float, eps: float = DEFAULT_TIE_EPS
) -> AllocationViolation | None:
    """Check non-negativity and the budget sum, reporting the first breach.

    Returns None when the allocation is valid, otherwise an
    :class:`AllocationViolation` naming the violated constraint.
    """
    troops = [float(x) for x in troops]
    for k, x in enumerate(troops, start=1):
        if x < 0:
            return AllocationViolation(
                index=k,
                amount=x,
                message=f"battlefield {k} allocation is negative ({x!r})",
            )
    total_allocated = sum(troops)
    if abs(total_allocated - float(total)) > eps:
        return AllocationViolation(
            index=None,
            amount=total_allocated,
            message=(
                f"allocations sum to {total_allocated!r}, budget is {float(total)!r}"
            ),
        )
    return None


def sgn_eps(x: float, eps: float = DEFAULT_TIE_EPS) -> int:
    """Signum with a tie band: 0 whenever ``|x| <= eps``."""
    if not 0 <= eps < math.inf:
        raise ValidationError(
            f"tie tolerance must be finite and non-negative, got {eps!r}"
        )
    if abs(x) <= eps:
        return 0
    return 1 if x > 0 else -1


@dataclass(frozen=True)
class PlayerRoster:
    """Troop budgets, with player 1 fixed as Blotto.

    Blotto must hold the largest (strictly positive) budget; every
    rotation angle in the quantum game is normalized by it. Two-player
    games are accepted with a warning since nothing in the payoff rule
    breaks for them.
    """

    totals: tuple[float, ...]

    def __post_init__(self):
        totals = tuple(float(t) for t in self.totals)
        object.__setattr__(self, "totals", totals)
        if len(totals) < 2:
            raise ValidationError(
                f"need at least two players, got {len(totals)}"
            )
        if len(totals) == 2:
            warnings.warn(
                "two-player roster accepted; the game is usually played "
                "with three or more players",
                stacklevel=2,
            )
        blotto = totals[0]
        if blotto <= 0:
            raise ValidationError(f"Blotto's budget must be positive, got {blotto!r}")
        for j, total in enumerate(totals[1:], start=2):
            if total > blotto:
                raise ValidationError(
                    f"player {j} budget {total!r} exceeds Blotto's {blotto!r}; "
                    f"player 1 must hold the largest budget"
                )

    @property
    def num_players(self) -> int:
        return len(self.totals)

    @property
    def blotto_index(self) -> int:
        return 1

    @property
    def blotto_total(self) -> float:
        return self.totals[0]


def classical_payoffs(
    allocations: Sequence[Sequence[float]],
    roster: PlayerRoster,
    eps: float = DEFAULT_TIE_EPS,
) -> tuple[int, ...]:
    """Per-player payoff: battlefields won minus battlefields lost.

    For each battlefield a player's allocation is compared against the
    best allocation among all other players with :func:`sgn_eps`, and
    the signs are summed. Allocations are assumed budget-valid (see
    :func:`validate_allocation`); only shapes are checked here.
    """
    rows = [[float(x) for x in row] for row in allocations]
    if len(rows) != roster.num_players:
        raise DimensionError(roster.num_players, len(rows), "allocation rows")
    n = len(rows[0]) if rows else 0
    for j, row in enumerate(rows, start=1):
        if len(row) != n:
            raise DimensionError(n, len(row), f"player {j} allocation length")

    payoffs = []
    for j, row in enumerate(rows):
        score = 0
        for k in range(n):
            best_rival = max(rows[i][k] for i in range(len(rows)) if i != j)
            score += sgn_eps(row[k] - best_rival, eps)
        payoffs.append(score)
    return tuple(payoffs)
