"""Parameter sweeps and grid searches over quantum resources.

Payoffs are integer-valued step functions of the swept parameter, so a
sweep records exact payoff vectors on a grid and, where two neighboring
grid points disagree, localizes every transition in that cell by
bisection. A grid search over one player's phases finds their best
reachable payoff with allocations held fixed. The payoff is a sum of
per-battlefield terms and the phase on battlefield k moves only term k,
so one axis of ``steps`` phase values stands for the ``steps**n`` grid.
Each battlefield's branch of the game is an N-qubit EWL circuit with a
closed form, so along that axis every strength is a degree-2
trigonometric polynomial whose five coefficients come from two overlaps
per player, with no state vector; the search evaluates a value directly
only where a margin sits at a tie-band edge.
Both take a built scenario, which was validated then, and do not check
it again; they copy its angle and phase grids from
:func:`~qblotto.engine.strategies_of` and set one cell or one row.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .classical import payoff_terms
from .engine import (
    Grid,
    MeasurementTable,
    Row,
    Scenario,
    _is_number,
    check_entangler_unitary,
    check_norm_sq,
    check_strengths,
    evaluate_strategies,
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

# Cap on a sweep's grid steps. A sweep holds every grid point while it
# runs, a peak of about 1.2 KB each at three players, so this bounds one
# near 80 MB.
MAX_SWEEP_STEPS = 2**16

# A phase-axis value is evaluated directly when the player's margin on
# some battlefield is this close to a tie-band edge (+-eps), where the
# closed form's rounding could move the term. On 700 seeded searches
# (N 2-9, n 1-4, phases in [-20, 20], steps 2-64) the largest
# |form - direct| strength was 8.9e-16, over 1000 times below this guard.
DECISION_GUARD = 1e-12

DEFAULT_SWEEP_STEPS = 101


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over phi, lambda or gamma.

    ``target_player`` and ``target_battlefield`` are 1-based and select
    whose parameter moves (both are ignored for gamma, which is global,
    but still validated). The grid has ``steps`` evenly spaced points on
    [lo, hi], at least 2 and at most ``MAX_SWEEP_STEPS``. The indices
    and ``steps`` must be integers; a bool is not one.
    """

    base: Scenario
    target_player: int
    target_battlefield: int
    parameter: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        for name in ("target_player", "target_battlefield", "steps"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValidationError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {SWEEP_PARAMETERS}"
            )
        if self.steps < 2:
            raise ValidationError(f"need at least 2 steps, got {self.steps}")
        if self.steps > MAX_SWEEP_STEPS:
            raise ValidationError(
                f"{self.steps} sweep steps are over the cap {MAX_SWEEP_STEPS}; "
                f"lower the step count"
            )
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


def _integer(value, name: str) -> int:
    """``value`` as an int; a non-integer or a bool raises ValidationError."""
    if not _is_number(value, numbers.Integral):
        raise ValidationError(
            f"{name.replace('_', ' ')} must be an integer, got {value!r}"
        )
    return int(value)


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

    Along the axis every strength is ``a0 + a1 cos p + b1 sin p + a2 cos
    2p + b2 sin 2p``. Each battlefield's closed form
    (:func:`_battlefield_form`) gives the five coefficients of every
    cell, in O(N) per battlefield and with no state vector; they are
    then evaluated at each axis value. The even-count rule runs first,
    and the final state's norm^2 (:func:`check_norm_sq`) and every
    strength's [0, 1] range are checked at every axis value, as an
    evaluation checks them.
    """
    check_entangler_unitary(len(angles), gamma)
    n = len(sign_pattern)
    columns = [
        _battlefield_form(
            [row[k] for row in angles], [row[k] for row in phases], gamma, sign, player
        )
        for k, sign in enumerate(sign_pattern)
    ]
    # Coefficients of the basis: [5, j, k] for the cells, [5] for norm^2.
    coefficients = np.array([cells for cells, _ in columns]).transpose(2, 1, 0) / n
    norm_sq = np.array([norm for _, norm in columns]).sum(axis=0) / n
    harmonics = [f(m * axis) for m in (1, 2) for f in (np.cos, np.sin)]
    basis = np.stack([np.ones_like(axis), *harmonics], axis=-1)
    check_norm_sq(basis @ norm_sq)
    values = np.tensordot(basis, coefficients, axes=1)
    check_strengths(values)
    return values


def _battlefield_form(
    angles: Row, phases: Row, gamma: float, sign: int, player: int
) -> tuple[list[tuple[float, ...]], tuple[float, ...]]:
    """Coefficients, times n, of one battlefield's strengths along ``player``'s axis.

    ``angles`` and ``phases`` hold each player's values on the
    battlefield. Returns every player's five coefficients in the basis
    ``(1, cos p, sin p, cos 2p, sin 2p)``, and those of the branch's
    norm^2.

    Every operator is diagonal in the register, so the branch is an
    N-qubit EWL circuit of weight ``1/sqrt(n)``. With ``u = U|0>`` and
    ``v = U|1>`` for each player's gate ``U``, ``F = [[0, 1], [-1, 0]]``
    and ``A, B = cos, sin(gamma/2)``, its final state is ``A^2 (x)u - A
    B sign ((x)v + (x)Fu) + B^2 (x)Fv``. The four vectors have unit
    length and ``<u|v> = <Fu|Fv> = 0``; each player's two other overlaps
    are ``tau = <u|Fu> = -<v|Fv>`` and ``mu = <u|Fv> = -conj(<v|Fu>)``.
    Strength l is the four diagonal pairs' weights times player l's
    projected overlaps ``<x|P|x>``, plus twice the real part of a sum
    over the pairs (u, Fu), (u, Fv), (v, Fu) and (v, Fv): weight, times
    player l's projected overlap ``<x|P|y>``, times every other player's
    overlap. Those products leave one player out and come from prefix
    and suffix products, never from division (``tau`` is 0 at zero
    phase). Norm^2 is the same sum with player l's projector dropped.
    The searcher's overlaps and projected overlaps are trigonometric
    polynomials of degree 2 in its phase p, so each sum's coefficients
    follow in closed form (:func:`_rival_form`, :func:`_own_form`).
    """
    searcher = player - 1
    a, b = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    ab = a * b
    weights = (-a * a * ab * sign, ab * ab, ab * ab, -b * b * ab * sign)
    overlaps, projected, diagonals = [], [], []
    for angle, phase in zip(angles, phases):
        c, s = math.cos(angle), math.sin(angle)
        e = complex(math.cos(phase), math.sin(phase))
        tau = -2j * c * s * e.imag
        mu = (e.conjugate() * c) ** 2 + s * s
        overlaps.append((tau, mu, -mu.conjugate(), -tau))
        projected.append((-c * s * e, s * s, -((e * c) ** 2), c * s * e))
        diagonals.append((a**4 + b**4) * s * s + 2 * (ab * c) ** 2)
    overlaps[searcher] = (1.0,) * 4

    # others[l]: the weights times every overlap but player l's and the
    # searcher's.
    before, after = [weights], [(1.0,) * 4]
    for g in overlaps[:-1]:
        before.append(tuple(x * y for x, y in zip(before[-1], g)))
    for g in overlaps[:0:-1]:
        after.append(tuple(x * y for x, y in zip(after[-1], g)))
    others = [
        tuple(x * y for x, y in zip(p, q)) for p, q in zip(before, reversed(after))
    ]

    c, s = math.cos(angles[searcher]), math.sin(angles[searcher])
    searcher_gate = (c * s, c * c, s * s)
    cells = [
        _own_form(diagonal, rest, *searcher_gate)
        if l == searcher
        else _rival_form(diagonal, [x * y for x, y in zip(rest, own)], *searcher_gate)
        for l, (diagonal, rest, own) in enumerate(zip(diagonals, others, projected))
    ]
    norm_sq = _rival_form((a * a + b * b) ** 2, others[searcher], *searcher_gate)
    return cells, norm_sq


def _rival_form(constant, x, cs, c2, s2) -> tuple[float, ...]:
    """Coefficients of ``constant + 2 Re sum_pair x[pair] * g[pair](p)``.

    ``g`` are the searcher's overlaps at phase p, with ``cs, c2, s2`` of
    the searcher's angle: ``(tau, mu, -conj(mu), -tau)`` with ``tau =
    -2i cs sin p`` and ``mu = c2 exp(-2ip) + s2``.
    """
    tau_part, mu_part = x[0] - x[3], x[1] - x[2]
    return (
        constant + 2 * s2 * mu_part.real,
        0.0,
        4 * cs * tau_part.imag,
        2 * c2 * mu_part.real,
        2 * c2 * (x[1].imag + x[2].imag),
    )


def _own_form(constant, x, cs, c2, s2) -> tuple[float, ...]:
    """Coefficients of ``constant + 2 Re sum_pair x[pair] * q[pair](p)``.

    ``q`` are the searcher's projected overlaps at phase p, with ``cs,
    c2, s2`` of its angle: ``(-cs z, s2, -c2 z^2, cs z)`` with ``z =
    exp(ip)``.
    """
    tau_part = x[0] - x[3]
    return (
        constant + 2 * s2 * x[1].real,
        -2 * cs * tau_part.real,
        2 * cs * tau_part.imag,
        -2 * c2 * x[2].real,
        2 * c2 * x[2].imag,
    )


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
    five trigonometric coefficients per cell from each battlefield's
    closed form, in O(N n) and with no state vector. A grid value where
    the player's margin on some battlefield lies within
    ``DECISION_GUARD`` of a tie-band edge is evaluated directly (through
    :func:`evaluate_strategies`), so the result is the one that
    evaluating every grid value gives, at no evaluation on generic
    inputs and never more than ``phi_grid_steps``. ``MAX_GRID_POINTS``
    caps ``phi_grid_steps**max(n, 2)``: at most 64 steps on four
    battlefields and 4096 on one or two. ``player`` and
    ``phi_grid_steps`` must be integers; a bool is not one.
    """
    player = _integer(player, "player")
    phi_grid_steps = _integer(phi_grid_steps, "phi_grid_steps")
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
