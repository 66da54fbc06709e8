"""Parameter sweeps and grid searches over quantum resources.

Payoffs are integer-valued step functions of the swept parameter, so a
sweep records exact payoff vectors on a grid and, where two neighboring
grid points disagree, localizes every transition in that cell by
bisection. A grid search over one player's phases finds their best
reachable payoff with allocations held fixed. The payoff is a sum of
per-battlefield terms and the phase on battlefield k moves only term k,
so one axis of ``steps`` phase values stands for the ``steps**n`` grid.
Along that axis the final state is linear in ``(1, cos p, sin p)``, so
the search forms three final states and reads every strength on the
axis off one quadratic form, evaluating a value directly only where a
margin sits at a tie-band edge.
Both take a built scenario, which was validated then, and do not check
it again; they copy its angle and phase grids from
:func:`~qblotto.engine.strategies_of` and set one cell or one row.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .classical import payoff_terms
from .engine import (
    Grid,
    MeasurementTable,
    Scenario,
    check_strengths,
    disentangle,
    entangle,
    evaluate_strategies,
    player_operator,
    qubit_sums,
    strategies_of,
)
from .errors import ValidationError

HALF_PI = math.pi / 2

SWEEP_PARAMETERS = ("phi", "lambda", "gamma")

# Bisection width for payoff-transition boundaries, in radians.
TRANSITION_RESOLUTION = 1e-6

# Cap on ``steps**max(n, 2)``: 64 steps on up to 4 battlefields, and at
# most 4096 steps on one or two. The search costs at most ``steps``
# evaluations and its memory grows with ``steps``, so one battlefield
# gets no more steps than two.
MAX_GRID_POINTS = 64**4

# A phase-axis value is evaluated directly when the player's margin on
# some battlefield is this close to a tie-band edge (+-eps), where the
# quadratic form's rounding could move the term. On 300 seeded scenarios
# (N 3/5/7, n 1-4, steps 2-64) the largest |form - direct| strength was
# 6.7e-16, over 1000 times below this guard.
DECISION_GUARD = 1e-12

DEFAULT_SWEEP_STEPS = 101


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over phi, lambda or gamma.

    ``target_player`` and ``target_battlefield`` are 1-based and select
    whose parameter moves (both are ignored for gamma, which is global,
    but still validated). The grid has ``steps`` evenly spaced points on
    [lo, hi].
    """

    base: Scenario
    target_player: int
    target_battlefield: int
    parameter: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "steps", int(self.steps))
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValidationError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {SWEEP_PARAMETERS}"
            )
        if self.steps < 2:
            raise ValidationError(f"need at least 2 steps, got {self.steps}")
        if self.lo > self.hi:
            raise ValidationError(
                f"sweep range is reversed: {self.lo!r} > {self.hi!r}"
            )
        if not 1 <= self.target_player <= self.base.num_players:
            raise ValidationError(
                f"target player {self.target_player} outside "
                f"1..{self.base.num_players}"
            )
        if not 1 <= self.target_battlefield <= self.base.num_battlefields:
            raise ValidationError(
                f"target battlefield {self.target_battlefield} outside "
                f"1..{self.base.num_battlefields}"
            )
        if self.parameter == "lambda" and not (
            0.0 <= self.lo and self.hi <= HALF_PI + 1e-12
        ):
            raise ValidationError(
                "rotation-angle sweeps must stay inside [0, pi/2]"
            )
        if self.parameter == "gamma" and not (
            0.0 <= self.lo and self.hi <= HALF_PI + 1e-12
        ):
            raise ValidationError(
                "entanglement sweeps must stay inside [0, pi/2]"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepPoint:
    value: float
    payoffs: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PayoffTransition:
    """Bisection-localized boundary between two payoff vectors."""

    boundary: float
    below: tuple[int, ...]
    above: tuple[int, ...]


@dataclass(frozen=True)
class SweepResult:
    """Grid points and located transitions of one sweep.

    The grid is stored packed: parameter values and strengths as float64
    bytes, payoffs as int64 bytes. That is several times smaller than a
    tuple of :class:`SweepPoint` objects, which ``points`` rebuilds bit
    for bit on each access.
    """

    spec: SweepSpec
    points: InitVar[Sequence[SweepPoint]]
    transitions: tuple[PayoffTransition, ...]
    grid_bytes: bytes = field(init=False, repr=False)
    payoff_bytes: bytes = field(init=False, repr=False)
    strength_bytes: bytes = field(init=False, repr=False)

    def __post_init__(self, points: Sequence[SweepPoint]):
        grid = array("d", [p.value for p in points])
        payoffs = array("q", [x for p in points for x in p.payoffs])
        strengths = array("d", [v for p in points for row in p.values for v in row])
        object.__setattr__(self, "grid_bytes", grid.tobytes())
        object.__setattr__(self, "payoff_bytes", payoffs.tobytes())
        object.__setattr__(self, "strength_bytes", strengths.tobytes())

    def _unpack(self) -> tuple[SweepPoint, ...]:
        grid, payoffs, strengths = array("d"), array("q"), array("d")
        grid.frombytes(self.grid_bytes)
        payoffs.frombytes(self.payoff_bytes)
        strengths.frombytes(self.strength_bytes)
        players = self.spec.base.num_players
        n = self.spec.base.num_battlefields
        cells = players * n
        return tuple(
            SweepPoint(
                value=value,
                payoffs=tuple(payoffs[i * players : (i + 1) * players]),
                values=tuple(
                    tuple(strengths[i * cells + j * n : i * cells + (j + 1) * n])
                    for j in range(players)
                ),
            )
            for i, value in enumerate(grid)
        )


# Set after the class body: a property defined inside it would become the
# default of the ``points`` init argument.
SweepResult.points = property(SweepResult._unpack, doc="Grid points in order.")


def _evaluator(spec: SweepSpec) -> Callable[[float], MeasurementTable]:
    """Closure evaluating the base scenario with one parameter replaced.

    A phi value comes from the sweep's range or a bisection midpoint, not
    from the scenario, so its finiteness is checked here.
    """
    base = spec.base
    angles, phases = strategies_of(base)
    j, k = spec.target_player - 1, spec.target_battlefield - 1
    gamma, pattern, eps = base.gamma, base.sign_pattern, base.eps

    if spec.parameter == "gamma":

        def evaluate_at(value: float) -> MeasurementTable:
            return evaluate_strategies(angles, phases, value, pattern, eps)

    elif spec.parameter == "phi":

        def evaluate_at(value: float) -> MeasurementTable:
            if not math.isfinite(value):
                raise ValidationError(
                    f"battlefield {k + 1} phase {value!r} is not finite"
                )
            moved = _with_cell(phases, j, k, value)
            return evaluate_strategies(angles, moved, gamma, pattern, eps)

    else:

        def evaluate_at(value: float) -> MeasurementTable:
            moved = _with_cell(angles, j, k, value)
            return evaluate_strategies(moved, phases, gamma, pattern, eps)

    return evaluate_at


def _with_cell(grid: Grid, j: int, k: int, value: float) -> list:
    """Copy of ``grid`` with cell ``[j][k]`` (0-based) set to ``value``."""
    moved = list(grid)
    row = list(grid[j])
    row[k] = value
    moved[j] = row
    return moved


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid and localize every payoff transition.

    The result is a pure function of ``spec``: repeat runs are
    bit-identical.
    """
    evaluate_at = _evaluator(spec)
    values = [float(v) for v in spec.grid()]
    tables = [evaluate_at(v) for v in values]
    points = [
        SweepPoint(value=v, payoffs=t.payoffs, values=t.values)
        for v, t in zip(values, tables)
    ]

    transitions: list[PayoffTransition] = []
    for left, right in zip(points, points[1:]):
        if left.payoffs != right.payoffs:
            transitions.extend(
                _bisect_transitions(
                    evaluate_at,
                    left.value,
                    right.value,
                    left.payoffs,
                    right.payoffs,
                )
            )
    return SweepResult(spec=spec, points=points, transitions=tuple(transitions))


def _bisect_transitions(
    evaluate_at: Callable[[float], MeasurementTable],
    lo: float,
    hi: float,
    lo_payoffs: tuple[int, ...],
    hi_payoffs: tuple[int, ...],
) -> list[PayoffTransition]:
    """Narrow every payoff change in (lo, hi] to TRANSITION_RESOLUTION.

    Bisection narrows one change away from ``lo_payoffs``; the search
    then restarts from that change's upper end until it reaches
    ``hi_payoffs``, so a cell holding several transitions reports each.
    """
    found = []
    while lo_payoffs != hi_payoffs:
        upper, upper_payoffs = hi, hi_payoffs
        while upper - lo > TRANSITION_RESOLUTION:
            mid = 0.5 * (lo + upper)
            mid_payoffs = evaluate_at(mid).payoffs
            if mid_payoffs == lo_payoffs:
                lo = mid
            else:
                upper, upper_payoffs = mid, mid_payoffs
        found.append(
            PayoffTransition(
                boundary=0.5 * (lo + upper), below=lo_payoffs, above=upper_payoffs
            )
        )
        lo, lo_payoffs = upper, upper_payoffs
    return found


@dataclass(frozen=True)
class BestResponse:
    player: int
    payoff: int
    phases: tuple[float, ...]


def _phase_axis_strengths(
    angles: Grid,
    phases: Grid,
    gamma: float,
    sign_pattern: Sequence[int],
    player: int,
    axis: np.ndarray,
) -> np.ndarray:
    """Strength grids ``[s, j, k]`` with all of ``player``'s phases at ``axis[s]``.

    The player's gate on battlefield k at phase p is ``R + cos p C +
    sin p D``, with ``R = [[0, -sin], [sin, 0]]``, ``C = cos I`` and
    ``D = i cos diag(1, -1)`` of that battlefield's angle. The protocol
    is linear in the gate, so the final state is ``u + cos p v + sin p
    w``: the state after the entangler and every rival's operator is
    formed once, the player's operator is applied at p = 0, pi and
    pi/2, and the three final states give u, v and w. Each strength is
    then a quadratic form in ``(1, cos p, sin p)`` whose six
    coefficients are qubit sums of products of u, v and w. The final
    states' norms and every strength's [0, 1] range are checked, as an
    evaluation checks them.
    """
    count = len(angles)
    rivals = entangle(count, gamma, sign_pattern)
    for j in range(1, count + 1):
        if j != player:
            rivals = player_operator(j, angles[j - 1], phases[j - 1], count) @ rivals
    row = angles[player - 1]
    at_0, at_pi, at_half_pi = (
        disentangle(
            player_operator(player, row, (p,) * len(row), count) @ rivals,
            count,
            gamma,
            sign_pattern,
        ).reshape(2**count, -1)
        for p in (0.0, math.pi, HALF_PI)
    )
    u, v = 0.5 * (at_0 + at_pi), 0.5 * (at_0 - at_pi)
    w = at_half_pi - u
    pairs = ((u, u), (v, v), (w, w), (u, v), (u, w), (v, w))
    products = np.stack([(x.conj() * y).real for x, y in pairs])
    coefficients = qubit_sums(products, count)  # [pair, j, k]
    cos, sin = np.cos(axis), np.sin(axis)
    basis = np.stack(
        [np.ones_like(axis), cos * cos, sin * sin, 2 * cos, 2 * sin, 2 * cos * sin],
        axis=-1,
    )
    values = np.tensordot(basis, coefficients, axes=1)
    check_strengths(values)
    return values


def best_response_grid(
    base: Scenario, player: int, phi_grid_steps: int
) -> BestResponse:
    """Best phases for one player on the grid [0, pi/2]^n.

    Allocations stay fixed and each battlefield's phase takes one of
    ``phi_grid_steps`` evenly spaced values. Returns the best payoff for
    ``player`` and the lexicographically smallest grid point achieving
    it.

    The payoff is a sum of per-battlefield terms, and the phase on
    battlefield k moves only term k. So the strengths with all of the
    player's phases at one grid value score every battlefield at once,
    and the first index maximizing each term (``argmax``) gives the
    optimum. Those strengths come from :func:`_phase_axis_strengths`:
    three final states give every grid value's strengths as a quadratic
    form in ``(1, cos p, sin p)``. A grid value where the player's
    margin on some battlefield lies within ``DECISION_GUARD`` of a
    tie-band edge is evaluated directly, so the result is the one that
    evaluating every grid value gives, at no evaluation on generic
    inputs and never more than ``phi_grid_steps``. ``MAX_GRID_POINTS``
    caps ``phi_grid_steps**max(n, 2)``: at most 64 steps on four
    battlefields and 4096 on one or two.
    """
    if phi_grid_steps < 2:
        raise ValidationError(f"need at least 2 grid steps, got {phi_grid_steps}")
    if not 1 <= player <= base.num_players:
        raise ValidationError(
            f"player index {player} outside 1..{base.num_players}"
        )
    n = base.num_battlefields
    if phi_grid_steps ** max(n, 2) > MAX_GRID_POINTS:
        raise ValidationError(
            f"{phi_grid_steps} phase grid steps on {n} battlefield(s) are "
            f"over the cap: steps**max(n, 2) must not exceed "
            f"{MAX_GRID_POINTS}; lower the step count or battlefield count"
        )

    angles, phases = strategies_of(base)
    gamma, pattern, eps = base.gamma, base.sign_pattern, base.eps
    axis = np.linspace(0.0, HALF_PI, phi_grid_steps)
    values = _phase_axis_strengths(angles, phases, gamma, pattern, player, axis)

    # Player-major grids, one column per grid value: [j, s, k].
    rival_best, terms = payoff_terms(values.transpose(1, 0, 2), eps)
    terms = terms[player - 1]  # terms[s, k]: battlefield k's term at axis[s]
    margin = values[:, player - 1] - rival_best[player - 1]
    unsure = (abs(abs(margin) - eps) <= DECISION_GUARD).any(axis=1)
    moved = list(phases)
    for s in np.flatnonzero(unsure):
        moved[player - 1] = (float(axis[s]),) * n
        table = evaluate_strategies(angles, moved, gamma, pattern, eps)
        terms[s] = payoff_terms(table.values, eps)[1][player - 1]
    return BestResponse(
        player=player,
        payoff=int(terms.max(axis=0).sum()),
        phases=tuple(float(axis[s]) for s in terms.argmax(axis=0)),
    )
