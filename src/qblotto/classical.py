"""Classical multiplayer Colonel Blotto game and the payoff rule.

Players split a fixed troop budget across battlefields; a battlefield
pays +1 to a player who strictly out-allocates every rival there, -1 to
a player strictly beaten by the best rival, and 0 on a tie.
:func:`_payoff_terms` is that rule over a checked player-by-battlefield
grid, through :func:`rival_best` and the tie band :func:`sgn_eps` uses
too; the quantum engine applies it to measured strengths, and
:func:`classical_payoffs` checks allocations and applies it as the
oracle the engine is checked against in its classical limit.

It also holds the package's input rules, each implemented once: the
number rule (a real number, not a bool, that fits a float), the integer
rule, the sign rule (a number equal to +1 or -1) and the roster rule
(two or more finite budgets, Blotto's positive and the largest). They
run where input enters the package; the payoff rule takes checked input.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError, dimension_error

# Absolute tie tolerance for sign comparisons and budget sums. Troop
# counts and measurement values are O(1), so absolute beats relative.
DEFAULT_TIE_EPS = 1e-9


def _is_number(value, kind: type = numbers.Real) -> bool:
    """A number of ``kind``, a real by default, that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _real(value, what: str, *cell: int) -> float:
    """``value`` as a float under the number rule: a real number, not a bool.

    ``what`` names the value in a message; for a grid cell, its 1-based
    player and battlefield follow.
    """
    if type(value) is float:  # the common case, ahead of the slower ABC check
        return value
    if cell:
        what = "{} for player {}, battlefield {}".format(what, *cell)
    if not _is_number(value):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a float") from None


def _integer(value, name: str) -> int:
    """``value`` as an int; a non-integer or a bool raises ValidationError."""
    if not _is_number(value, numbers.Integral):
        raise ValidationError(
            f"{name.replace('_', ' ')} must be an integer, got {value!r}"
        )
    return int(value)


def _is_sign(value) -> bool:
    """A sign entry: a number, not a bool, equal to +1 or -1."""
    return _is_number(value) and value in (-1, 1)


def _stored(values, kind: type) -> bool:
    """The stored form: a tuple whose entries all have exactly type ``kind``.

    A build keeps a value in stored form as the same object.
    """
    return type(values) is tuple and all(type(x) is kind for x in values)


def _ordered(values, what: str, *row: int):
    """``values`` as given; a set (in hash order) or a mapping (its keys) raises.

    ``what`` names the value in a message; for a grid row, its 1-based
    player follows.
    """
    if type(values) in (tuple, list) or not isinstance(values, (Set, Mapping)):
        return values  # the common types, ahead of the slower ABC check
    if row:
        what = "player {} {} row".format(*row, what)
    raise ValidationError(f"{what} must be an ordered sequence, got {values!r}")


def _sequence(values, what: str) -> list:
    """``values`` as a list; a set, mapping or non-iterable raises ValidationError."""
    try:
        return list(_ordered(values, what))
    except TypeError:
        raise ValidationError(f"{what} must form a sequence, got {values!r}") from None


def _grid_rows(grid: Sequence[Sequence], what: str, cell=None) -> tuple[tuple, ...]:
    """A player-major grid's rows as tuples, cells as given or ``cell(x, what, j, k)``.

    ``cell`` returns a float as it is, so a row whose cells are all
    floats is taken as they are, with no call per cell. A grid or row
    that is a set, a mapping or not iterable raises ValidationError (a
    row that is not iterable, DimensionError).
    """
    try:
        given = list(_ordered(grid, f"{what}s"))
    except TypeError:
        raise ValidationError(f"{what}s must form a grid, got {grid!r}") from None
    rows = []
    for j, row in enumerate(given, start=1):
        try:
            row = tuple(_ordered(row, what, j))
        except TypeError:
            raise dimension_error(1, 0, f"player {j} {what} row {row!r}") from None
        if cell and not _stored(row, float):
            row = tuple(cell(x, what, j, k) for k, x in enumerate(row, start=1))
        rows.append(row)
    return tuple(rows)


def _real_grid(grid: Sequence[Sequence], what: str) -> tuple[tuple[float, ...], ...]:
    """A player-major grid as floats, each cell under :func:`_real`."""
    return _grid_rows(grid, what, _real)


def _real_budgets(totals: Sequence) -> tuple[float, ...]:
    """Troop budgets as floats, a sequence each under :func:`_real`.

    A tuple of floats, which :func:`_real` returns as they are, is kept.
    """
    if _stored(totals, float):
        return totals
    budgets = enumerate(_sequence(totals, "budgets"), start=1)
    return tuple(_real(t, f"player {j} budget") for j, t in budgets)


def check_tie_eps(eps: float) -> float:
    """A tie tolerance as a float under the number rule, finite and non-negative."""
    eps = _real(eps, "tie tolerance")
    if not 0 <= eps < math.inf:
        raise ValidationError(
            f"tie tolerance must be finite and non-negative, got {eps!r}"
        )
    return eps


def _tie_sign(d, eps: float):
    """The sign of ``d``, 0 whenever ``|d| <= eps``; elementwise on an array too."""
    return (d > eps) * 1 - (d < -eps)


def sgn_eps(x: float, eps: float = DEFAULT_TIE_EPS) -> int:
    """Signum with a tie band: 0 whenever ``|x| <= eps``; ``x`` must be finite."""
    eps = check_tie_eps(eps)
    x = _real(x, "signed value")
    if not math.isfinite(x):
        raise ValidationError(f"signed value {x!r} is not finite")
    return _tie_sign(x, eps)


def rival_best(rows: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Each cell's best rival value on its battlefield, from its column's top two."""
    best = [[] for _ in rows]
    for column in zip(*rows):
        top, second = sorted(column, reverse=True)[:2]
        for cells, v in zip(best, column):
            cells.append(second if v == top else top)
    return tuple(map(tuple, best))


def _payoff_terms(rows: Sequence[Sequence[float]], eps: float):
    """The payoff rule: each cell's tie-band sign against its best rival.

    ``rows`` is a finite, rectangular player-by-battlefield grid of
    floats with two or more rows and ``eps`` a checked tie tolerance;
    nothing is checked here. A player's payoff is their row's sum.
    """
    best = rival_best(rows)
    return tuple(
        tuple(_tie_sign(v - r, eps) for v, r in zip(*pair)) for pair in zip(rows, best)
    )


def _payoff_vector(rows: Sequence[Sequence[float]], eps: float) -> tuple[int, ...]:
    """Each player's payoff, their row's sum of :func:`_payoff_terms`; unchecked too."""
    return tuple(map(sum, _payoff_terms(rows, eps)))


def _check_roster(totals: tuple[float, ...]) -> None:
    """The roster rule: two or more finite budgets, Blotto's positive and the largest.

    ``totals`` has passed the number rule; the first broken rule raises.
    """
    if len(totals) < 2:
        raise ValidationError(f"need at least two players, got {len(totals)}")
    for j, total in enumerate(totals, start=1):
        if not math.isfinite(total):
            raise ValidationError(f"player {j} budget {total!r} is not finite")
    blotto = totals[0]
    if blotto <= 0:
        raise ValidationError(f"Blotto's budget must be positive, got {blotto!r}")
    for j, total in enumerate(totals[1:], start=2):
        if total > blotto:
            raise ValidationError(
                f"player {j} budget {total!r} exceeds Blotto's {blotto!r}; "
                f"player 1 must hold the largest budget"
            )


@dataclass(frozen=True, slots=True)
class PlayerRoster:
    """Troop budgets, with player 1 fixed as Blotto.

    Budgets follow the number rule (:func:`_real`), are stored as floats
    and must be finite, and Blotto must hold the largest (strictly
    positive) one (:func:`_check_roster`); every rotation angle in the
    quantum game is normalized by it. Two-player games are accepted,
    since nothing in the payoff rule breaks for them;
    :func:`qblotto.engine.scenario_notices` reports them.
    """

    totals: tuple[float, ...]

    def __post_init__(self):
        totals = _real_budgets(self.totals)
        object.__setattr__(self, "totals", totals)
        _check_roster(totals)

    @property
    def num_players(self) -> int:
        return len(self.totals)


def classical_payoffs(
    allocations: Sequence[Sequence[float]],
    roster: PlayerRoster,
    eps: float = DEFAULT_TIE_EPS,
) -> tuple[int, ...]:
    """Per-player payoff: battlefields won minus battlefields lost.

    :func:`_payoff_vector` over the allocation grid. Allocations are
    assumed budget-valid, as a :class:`qblotto.engine.Scenario` holds
    them; only the number rule (:func:`_real`), shapes, the tie
    tolerance and finiteness are checked.
    """
    rows = _real_grid(allocations, "allocation")
    n = len(rows[0]) if rows else 0
    for j, row in enumerate(rows, start=1):
        if len(row) != n:
            raise dimension_error(n, len(row), f"player {j} allocation length")
    if len(rows) != roster.num_players:
        raise dimension_error(roster.num_players, len(rows), "allocation rows")
    eps = check_tie_eps(eps)
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValidationError("payoff grid has a non-finite entry")
    return _payoff_vector(rows, eps)
