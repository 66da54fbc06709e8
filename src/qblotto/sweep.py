"""Parameter sweeps and grid searches over quantum resources.

Payoffs are integer-valued step functions of the swept parameter, so a
sweep records exact payoff vectors on a grid and, where two neighboring
grid points disagree, localizes every transition in that cell by
bisection. A grid search over one player's phases finds their best
reachable payoff with allocations held fixed. The payoff is a sum of
per-battlefield terms and the phase on battlefield k moves only term k,
so one axis of ``steps`` phase values stands for the ``steps**n`` grid.
Each battlefield's branch is an N-qubit EWL circuit with a closed form:
along that axis each strength is a degree-2 trigonometric polynomial of
five coefficients, from two overlaps per player, and one matrix product
evaluates them all with no state vector. The search evaluates a value
directly only where a margin sits at a tie-band edge, and keeps the axis
and its basis for the last 8 step counts searched. Both take a built
scenario, which was validated then, and do not check it again; they
copy its angle and phase grids from :func:`~qblotto.engine.strategies_of`,
set one cell or one row, and evaluate the moved grids with that
scenario's sign pattern and tie tolerance
(:func:`~qblotto.engine.evaluate_strategies`).

numpy is imported inside the functions that build a sweep grid or a
search axis, not by this module, and by a search only after its
checks: a :class:`SweepSpec` and a refused search load none, and a
sweep or a search loads it at its first array.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field, fields
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .classical import _integer, _payoff_terms, _real, _tie_sign
from .engine import (
    _ANGLE_SLACK,
    HALF_PI,
    Grid,
    MeasurementTable,
    Row,
    Scenario,
    _float_bytes,
    _float_rows,
    check_entangler_unitary,
    check_norm_sq,
    check_strengths,
    evaluate_strategies,
    reduced_phase,
    strategies_of,
)
from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

SWEEP_PARAMETERS = ("phi", "lambda", "gamma")

# Bisection width for payoff-transition boundaries, in radians.
TRANSITION_RESOLUTION = 1e-6

# Cap on the floats a phase search holds: ``steps`` times ``N n + 7``,
# the fitted table's ``N n + 1`` columns plus the cached axis and its
# 5-row basis. It admits 4096 steps at N = 19 on two battlefields
# (184,320 floats), 64 steps on 6 battlefields at N = 3, and at most
# 29,127 steps, at N = 2 on one battlefield.
MAX_SEARCH_FLOATS = 2**18

# Cap on a sweep's grid steps. A sweep packs each grid point's payoffs
# and strengths as it is evaluated, 72 B at three players on two
# battlefields and a traced peak near 200 B, so this bounds one near
# 13 MB. ``qblotto sweep --out`` streams its CSV from
# ``SweepResult.rows()`` and peaks near the same.
MAX_SWEEP_STEPS = 2**16

# A phase-axis value is evaluated directly when the player's margin on
# some battlefield is this close to a tie-band edge (+-eps), where the
# closed form's rounding could move the term. The largest |form - direct|
# strength was 1.0e-15 on 700 seeded searches (N 2-9, n 1-4, steps 2-64)
# and 7.8e-16 on 40 at N=3 with 1024-4096 steps, phases in [-20, 20].
DECISION_GUARD = 1e-12


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """One-dimensional sweep over phi, lambda or gamma.

    ``target_player`` and ``target_battlefield`` are 1-based and select
    whose parameter moves (both are ignored for gamma, which is global,
    but still validated). The grid has ``steps`` evenly spaced points on
    [lo, hi], at least 2 and at most ``MAX_SWEEP_STEPS``. The indices
    and ``steps`` are integers and ``lo``, ``hi`` real; a bool is neither.
    A phi range's ends and its width must be finite.
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
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
        bounded = {"lambda": "rotation-angle", "gamma": "entanglement"}
        if self.parameter in bounded and not (
            0.0 <= self.lo and self.hi <= HALF_PI + _ANGLE_SLACK
        ):
            raise ValidationError(
                f"{bounded[self.parameter]} sweeps must stay inside [0, pi/2]"
            )
        if self.parameter == "phi" and not math.isfinite(self.hi - self.lo):
            k = self.target_battlefield
            for value in (self.lo, self.hi):
                if not math.isfinite(value):
                    raise ValidationError(
                        f"battlefield {k} phase {value!r} is not finite"
                    )
            raise ValidationError(
                f"sweep range {self.lo!r} to {self.hi!r} is wider than a float holds"
            )

    def grid(self) -> np.ndarray:
        import numpy as np

        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    value: float
    payoffs: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]


@dataclass(frozen=True, slots=True)
class PayoffTransition:
    """Bisection-localized boundary between two payoff vectors."""

    boundary: float
    below: tuple[int, ...]
    above: tuple[int, ...]


@dataclass(frozen=True, slots=True, init=False)
class SweepResult:
    """Grid points and located transitions of one sweep.

    The points are stored packed, as :func:`run_sweep` writes them:
    payoffs as int64 bytes and strengths as float64 bytes, 72 B per
    point at three players on two battlefields. That is several times
    smaller than a tuple of :class:`SweepPoint` objects. Each point's
    strengths are its table's ``strength_bytes``, appended as they are.
    The parameter values are not stored: they are ``spec.grid()``, which
    the sweep evaluated. :meth:`rows` is the one reader of the packing
    and streams the points; ``points`` builds them from it, bit for bit,
    on each access. Given ``points``, the constructor packs their
    payoffs and strengths in place of the two byte fields, so
    ``replace(result, points=...)`` also works; their values are the
    spec's.
    """

    spec: SweepSpec
    transitions: tuple[PayoffTransition, ...]
    payoff_bytes: bytes = field(repr=False)
    strength_bytes: bytes = field(repr=False)

    def __init__(
        self, spec, transitions, payoff_bytes=b"", strength_bytes=b"",
        *, points: Sequence[SweepPoint] | None = None,
    ):
        if points is not None:
            payoff_bytes = array("q", [x for p in points for x in p.payoffs]).tobytes()
            strength_bytes = _float_bytes(row for p in points for row in p.values)
        packed = (spec, transitions, payoff_bytes, strength_bytes)
        for f, value in zip(fields(self), packed):
            object.__setattr__(self, f.name, value)

    def rows(self) -> Iterator[tuple[float, tuple[int, ...], tuple[float, ...]]]:
        """Each grid point's value, payoffs and player-major strengths, in order."""
        players = self.spec.base.num_players
        payoffs = iter(memoryview(self.payoff_bytes).cast("q"))
        return zip(
            memoryview(self.spec.grid()),  # float64, read as Python floats
            zip(*[payoffs] * players),  # ``players`` items at a time
            _float_rows(self.strength_bytes, players * self.spec.base.num_battlefields),
        )

    @property
    def points(self) -> tuple[SweepPoint, ...]:
        """Grid points in order, built from :meth:`rows`."""
        n = self.spec.base.num_battlefields
        return tuple(
            SweepPoint(value, payoffs, tuple(zip(*[iter(cells)] * n)))  # n per player
            for value, payoffs, cells in self.rows()
        )


def _evaluator(spec: SweepSpec) -> Callable[[float], MeasurementTable]:
    """Closure evaluating the base scenario with one parameter replaced.

    Each value is a grid value or a bisection midpoint, so it lies in
    the range :class:`SweepSpec` checked.
    """
    base = spec.base
    angles, phases = strategies_of(base)
    j, k = spec.target_player - 1, spec.target_battlefield - 1
    moves_angle = spec.parameter == "lambda"

    def evaluate_at(value: float) -> MeasurementTable:
        if spec.parameter == "gamma":
            return evaluate_strategies(base, angles, phases, value)
        moved = list(angles if moves_angle else phases)  # the base grids stay
        row = moved[j] = list(moved[j])
        if moves_angle:
            row[k] = value
            return evaluate_strategies(base, moved, phases, base.gamma)
        row[k] = reduced_phase(value)  # as strategies_of
        return evaluate_strategies(base, angles, moved, base.gamma)

    return evaluate_at


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid and localize every payoff transition.

    Each grid value is evaluated and packed once, and a cell whose end
    payoffs differ is bisected as soon as both are known, so no table is
    held. Repeat runs are bit-identical.
    """
    evaluate_at = _evaluator(spec)
    payoffs, strengths = array("q"), array("d")
    transitions: list[PayoffTransition] = []
    lo = below = None
    for value in map(float, spec.grid()):
        table = evaluate_at(value)
        if below is not None and table.payoffs != below:
            transitions.extend(
                _bisect_transitions(evaluate_at, lo, value, below, table.payoffs)
            )
        lo, below = value, table.payoffs
        payoffs.extend(below)
        strengths.frombytes(table.strength_bytes)
    return SweepResult(
        spec, tuple(transitions), payoffs.tobytes(), strengths.tobytes()
    )


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
    Where floats are spaced wider than the resolution, narrowing stops
    at adjacent floats, when the midpoint rounds to a bound. The
    midpoint halves each bound before adding, so it stays finite near
    the largest float; the boundary reported is the last midpoint.
    """
    found = []
    while lo_payoffs != hi_payoffs:
        upper, upper_payoffs = hi, hi_payoffs
        mid = 0.5 * lo + 0.5 * upper
        while upper - lo > TRANSITION_RESOLUTION and mid != lo and mid != upper:
            mid_payoffs = evaluate_at(mid).payoffs
            if mid_payoffs == lo_payoffs:
                lo = mid
            else:
                upper, upper_payoffs = mid, mid_payoffs
            mid = 0.5 * lo + 0.5 * upper
        found.append(
            PayoffTransition(boundary=mid, below=lo_payoffs, above=upper_payoffs)
        )
        lo, lo_payoffs = upper, upper_payoffs
    return found


@dataclass(frozen=True, slots=True)
class BestResponse:
    player: int
    payoff: int
    phases: tuple[float, ...]


@functools.lru_cache(maxsize=8)
def _phase_axis(steps: int) -> tuple[tuple[float, ...], np.ndarray]:
    """The search's ``steps`` phase values on [0, pi/2] and their basis.

    The axis is ``np.linspace(0.0, HALF_PI, steps)``, as a tuple. The
    basis is read-only, 5 x ``steps``, with rows ``1, cos p, sin p, cos
    2p, sin 2p``. Searches repeat a step count, so the last 8 counts are
    kept. At 29,127 steps, the most that ``MAX_SEARCH_FLOATS`` admits,
    one entry holds about 2.1 MB, so the cache holds at most about 17 MB.
    """
    import numpy as np

    axis = np.linspace(0.0, HALF_PI, steps)
    basis = np.ones((5, steps))
    for row, harmonic in ((1, axis), (3, 2.0 * axis)):
        np.cos(harmonic, out=basis[row])
        np.sin(harmonic, out=basis[row + 1])
    basis.flags.writeable = False  # every search of this step count shares it
    return tuple(axis.tolist()), basis


def _phase_axis_strengths(
    angles: Grid,
    phases: Grid,
    gamma: float,
    sign_pattern: Sequence[int],
    player: int,
    steps: int,
) -> np.ndarray:
    """Strength grids ``[s, j, k]`` with all of ``player``'s phases at axis value s.

    The axis is :func:`_phase_axis`'s ``steps`` values. Along it every
    strength is ``a0 + a1 cos p + b1 sin p + a2 cos 2p + b2 sin 2p``. Each
    battlefield's closed form (:func:`_battlefield_form`) gives the five
    coefficients of every cell, in O(N) per battlefield and with no state
    vector; one matrix, a row per cell and a last one for norm^2, times
    the axis's basis evaluates them all. The even-count rule runs first,
    and the final state's norm^2 (:func:`check_norm_sq`) and every
    strength's [0, 1] range are checked at every axis value, as an
    evaluation checks them.
    """
    import numpy as np

    check_entangler_unitary(len(angles), gamma)
    n = len(sign_pattern)
    half = gamma / 2.0
    entangler = (math.cos(half), math.sin(half))
    columns = zip(zip(*angles), zip(*phases), sign_pattern)  # one per battlefield
    forms = [
        _battlefield_form(a, p, entangler, sign, player) for a, p, sign in columns
    ]
    cells, norm_forms = zip(*forms)
    rows = [cell for row in zip(*cells) for cell in row]  # player-major cells
    rows.append([sum(terms) for terms in zip(*norm_forms)])
    coefficients = np.divide(rows, n)
    fitted = _phase_axis(steps)[1].T @ coefficients.T
    norms = fitted[:, -1]
    check_norm_sq(norms.item(abs(norms - 1.0).argmax()))  # the furthest from 1, NaN first
    values = fitted[:, :-1].reshape(steps, len(angles), n)
    check_strengths(values)
    return values


def _battlefield_form(
    angles: Row, phases: Row, entangler: tuple[float, float], sign: int, player: int
) -> tuple[list[tuple[float, ...]], tuple[float, ...]]:
    """Coefficients, times n, of one battlefield's strengths along ``player``'s axis.

    ``angles`` and ``phases`` hold each player's values on the
    battlefield and ``entangler`` is ``cos, sin(gamma/2)``. Returns every
    player's five coefficients in the basis ``(1, cos p, sin p, cos 2p,
    sin 2p)``, and those of the branch's norm^2.

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
    overlap: products that leave one player out, all four pairs in one
    :func:`_leave_one_out` pass, never a division (``tau`` is 0 at zero
    phase). Norm^2 is the same sum with player l's projector dropped. The
    searcher's overlaps and projected overlaps are trigonometric
    polynomials of degree 2 in its phase p, so each sum's coefficients
    follow in closed form (:func:`_rival_form`, :func:`_own_form`).
    """
    searcher = player - 1
    a, b = entangler
    ab = a * b
    weights = (-a * a * ab * sign, ab * ab, ab * ab, -b * b * ab * sign)
    diagonal_weight = a**4 + b**4
    overlaps, projected, diagonals = [], [], []
    for l, (angle, phase) in enumerate(zip(angles, phases)):
        c, s = math.cos(angle), math.sin(angle)
        diagonals.append(diagonal_weight * s * s + 2 * (ab * c) ** 2)
        if l == searcher:  # its overlaps vary along the axis; the forms take its gate
            overlaps.append((1.0,) * 4)
            projected.append(None)
            cs, c2, s2 = c * s, c * c, s * s
            continue
        e = complex(math.cos(phase), math.sin(phase))
        tau = -2j * c * s * e.imag
        mu = (e.conjugate() * c) ** 2 + s * s
        overlaps.append((tau, mu, -mu.conjugate(), -tau))
        projected.append((-c * s * e, s * s, -((e * c) ** 2), c * s * e))

    # others[l][pair]: the weight times every overlap but l's and the searcher's
    others = _leave_one_out(overlaps, weights)
    cells = [
        _own_form(diagonal, rest, cs, c2, s2)
        if own is None
        else _rival_form(diagonal, tuple(map(mul, rest, own)), cs, c2, s2)
        for diagonal, rest, own in zip(diagonals, others, projected)
    ]
    norm_sq = _rival_form((a * a + b * b) ** 2, others[searcher], cs, c2, s2)
    return cells, norm_sq


def _leave_one_out(factors: Sequence[tuple], scale: tuple) -> list[tuple]:
    """``scale`` times the product of every factor but the l-th, for each l.

    ``scale`` and each factor are 4-tuples, one entry per pair channel,
    and every channel is multiplied on its own. One prefix pass from the
    left meets one suffix pass from the right: O(N) products and no
    division, so a zero factor is exact.
    """
    products = []
    w, x, y, z = scale
    for f in factors[:-1]:
        products.append((w, x, y, z))
        w, x, y, z = w * f[0], x * f[1], y * f[2], z * f[3]
    products.append((w, x, y, z))
    sw = sx = sy = sz = 1.0
    for l in range(len(factors) - 1, 0, -1):
        f = factors[l]
        sw, sx, sy, sz = sw * f[0], sx * f[1], sy * f[2], sz * f[3]
        w, x, y, z = products[l - 1]
        products[l - 1] = (w * sw, x * sx, y * sy, z * sz)
    return products


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
    closed form, in O(N n) and with no state vector, times the axis's
    basis, which :func:`_phase_axis` keeps for the last 8 step counts.
    A grid value where the player's margin on some battlefield lies within
    ``DECISION_GUARD`` of a tie-band edge is evaluated directly (through
    :func:`evaluate_strategies`), so the result is the one that
    evaluating every grid value gives, at no evaluation on generic
    inputs and never more than ``phi_grid_steps``; one needed above the
    engine's ``MAX_DENSE_DIM`` raises ``ValidationError``. The search
    holds ``N n + 7`` floats per step, so ``MAX_SEARCH_FLOATS`` caps
    ``phi_grid_steps * (N n + 7)``. ``player`` and ``phi_grid_steps``
    must be integers; a bool is not one.
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
    if phi_grid_steps * (base.num_players * n + 7) > MAX_SEARCH_FLOATS:
        raise ValidationError(
            f"{phi_grid_steps} phase grid steps on {n} battlefield(s) are "
            f"over the cap: steps * (players * battlefields + 7) must not "
            f"exceed {MAX_SEARCH_FLOATS}; lower the step, player or battlefield count"
        )

    import numpy as np

    angles, phases = strategies_of(base)
    gamma, pattern, eps = base.gamma, base.sign_pattern, base.eps
    axis = _phase_axis(phi_grid_steps)[0]
    values = _phase_axis_strengths(
        angles, phases, gamma, pattern, player, phi_grid_steps
    )

    # values[s, j, k]; margin[s, k] is the player's lead over the best rival,
    # terms[s, k] battlefield k's term at axis[s] by the payoff rule's tie
    # band, and gap[s, k] how far |margin| lies outside that band.
    rivals = [j for j in range(base.num_players) if j != player - 1]
    margin = values[:, player - 1] - values[:, rivals].max(axis=1)
    terms = _tie_sign(margin, eps)
    gap = abs(margin) - eps
    unsure = np.flatnonzero(abs(gap) <= DECISION_GUARD).tolist()  # cells s * n + k
    moved = list(phases)
    for s in sorted({cell // n for cell in unsure}):
        moved[player - 1] = (axis[s],) * n
        table = evaluate_strategies(base, angles, moved, gamma)
        terms[s] = _payoff_terms(table.values, eps)[player - 1]
    best = terms.argmax(axis=0).tolist()  # the first axis value maximizing each term
    return BestResponse(
        player=player,
        payoff=int(sum(terms[s, k] for k, s in enumerate(best))),
        phases=tuple(axis[s] for s in best),
    )
