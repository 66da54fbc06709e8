"""Quantum multiplayer Colonel Blotto engine.

The composite space holds one soldier qubit per player plus an
n-dimensional battlefield register prepared in a uniform superposition.
A player's troop commitment on battlefield k becomes a rotation angle of
their qubit, applied conditionally on the register; an optional phase
per battlefield is the purely quantum part of the strategy. Evolution
is the entangled start state ``J|0...0>``, written directly with two
nonzero qubit states per battlefield, then every player's strategy
operator in ascending order, then the inverse of ``J``, applied as a
signed, phased reversal of the qubit index. Strength (j, k) is the
probability of player j's qubit in state 1 with the register on
battlefield k, and payoffs compare those strengths across players with
the classical game's rule, :func:`qblotto.classical._payoff_terms`.

The engine's strategy input is two player-major N x n grids, rotation
angles and phases (:func:`strategies_of`), plus ``gamma`` and the sign
pattern. A :class:`Scenario` is validated once, when it is built;
evaluation, the angle map and the payoff rule do not check it again.
The explicit-grid entry points, :func:`evaluate_strategies` and
:func:`measurements`, take the built scenario the grids came from and
read its player count, sign pattern and tie tolerance. Evaluating the
same scenario twice gives bit-identical results.

numpy is imported inside the functions that build arrays, not by this
module, so building and checking a scenario loads no numpy; the first
evaluation does. A refusal raised before the state is built, such as
a dimension over ``MAX_DENSE_DIM``, loads none.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .classical import DEFAULT_TIE_EPS, check_tie_eps
from .classical import _is_sign, _real, _real_budgets, _real_grid  # the input rules
from .classical import _check_roster, _grid_rows, _sequence, _stored
from .classical import _payoff_vector, rival_best  # the payoff rule
from .errors import NumericalIntegrityError, ValidationError, dimension_error

if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi

# Tolerance of the even-count unitarity rule, of the final state's norm
# and of a strength's [0, 1] range.
UNITARITY_EPS = 1e-10

# Hard cap on the composite dimension 2^N * n; dense storage stays
# tractable below this and exponential blowups fail fast above it.
MAX_DIM = 2**20

# Cap on 2^N * n for an evaluation: each dense strategy operator takes
# 256 MiB at 4096. The phase search's closed form runs up to MAX_DIM.
MAX_DENSE_DIM = 2**12

_ANGLE_SLACK = 1e-12

# A player's rotation angles or phases, one per battlefield.
Row = Sequence[float]
# Player-major N x n grid of rows.
Grid = Sequence[Row]


def rotation_angle(soldiers: float, blotto_total: float) -> float:
    """Map a checked troop commitment to a qubit rotation angle in [0, pi/2].

    The angle is ``(pi/2) * soldiers / blotto_total``: committing
    Blotto's entire budget rotates the qubit all the way from state 0 to
    state 1. The commitment is taken as a :class:`Scenario` holds it, in
    [0, ``blotto_total``]; nothing is checked here.
    """
    # The product can round one ulp above pi/2 when soldiers == blotto_total.
    return min(HALF_PI * soldiers / blotto_total, HALF_PI)


# The defaults of the last 16 sizes. Scenario.create asks for the sizes a
# build admits only, whose 2^N * n is at most MAX_DIM, so one entry's zero
# phases take at most 4 MiB.
@functools.lru_cache(maxsize=16)
def _defaults(num_players: int, num_battlefields: int) -> tuple[tuple, tuple, bytes]:
    """One size's default names, sign pattern and zero-phase bytes, built once.

    The names are "Blotto", "enemy 1", ...; the sign pattern is all +1
    with the last battlefield flipped; the phases are ``N * n`` float64
    zeros, which every scenario of that size shares as its ``phase_bytes``.
    """
    names = ("Blotto",) + tuple(f"enemy {j}" for j in range(1, num_players))
    pattern = (1,) * (num_battlefields - 1) + (-1,)
    return names, pattern, bytes(8 * num_players * num_battlefields)


def _float_bytes(rows: Iterable[Iterable[float]]) -> bytes:
    """Rows of floats as row-major float64 bytes, as :func:`_float_rows` reads them."""
    from array import array  # an extension module, loaded off the import path

    return array("d", [v for row in rows for v in row]).tobytes()


def _float_rows(data: bytes, width: int) -> Iterator[tuple[float, ...]]:
    """Row-major float64 ``data`` read back as ``width``-float rows, bit for bit."""
    cells = iter(memoryview(data).cast("d"))
    return zip(*[cells] * width)  # ``width`` items of ``cells`` at a time


def _row_width(data: bytes, rows: int, what: str) -> int:
    """The width of ``data`` read as ``rows`` float64 rows of one or more floats.

    No rows, or a length that is not a whole number of such rows, raises
    :class:`qblotto.errors.DimensionError` naming ``what``.
    """
    if rows < 1:
        raise dimension_error("1 or more", rows, f"{what} rows")
    width, rest = divmod(len(data), 8 * rows)
    if rest or not width:
        raise dimension_error(
            f"a positive multiple of {8 * rows}", len(data), f"{what} bytes"
        )
    return width


def _byte_rows(data: bytes, rows: int, what: str) -> tuple[tuple[float, ...], ...]:
    """``data`` read back as ``rows`` float64 rows under :func:`_row_width`'s rule."""
    return tuple(_float_rows(data, _row_width(data, rows, what)))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MeasurementTable:
    """Measured strengths per player and battlefield, with payoffs.

    ``values[j][k]`` is player j+1's strength on battlefield k+1, in
    [0, 1], and ``payoffs`` the signed scores in [-n, n]. Only the
    payoffs and the strengths are stored, the strengths as row-major
    float64 bytes, about a third of a tuple grid's size (the layout
    :class:`qblotto.sweep.SweepResult` packs per grid point).
    ``values`` is read back from them bit for bit on each access, and
    ``rival_best``, each cell's best rival strength on its battlefield,
    is derived from ``values``: the floats the payoff rule compares.
    Given ``values``, the constructor packs them in place of
    ``strength_bytes``, so ``MeasurementTable(values, payoffs)`` and
    ``replace(table, values=...)`` work as on a stored grid. ``payoffs``
    is required, and the strengths, given as a grid or as bytes, must
    hold one row per payoff, one or more rows, each of one length and of
    one or more floats, or :class:`qblotto.errors.DimensionError` is
    raised.
    """

    payoffs: tuple[int, ...]
    strength_bytes: bytes

    def __init__(self, values=None, payoffs=None, strength_bytes=b""):
        if payoffs is None:
            raise TypeError("MeasurementTable() missing required argument: 'payoffs'")
        if values is not None:
            if len(values) != len(payoffs):
                raise dimension_error(len(payoffs), len(values), "strength rows")
            for j, row in enumerate(values, start=1):
                if len(row) != len(values[0]):
                    raise dimension_error(len(values[0]), len(row), f"strength row {j}")
            strength_bytes = _float_bytes(values)
        _row_width(strength_bytes, len(payoffs), "strength")
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "strength_bytes", strength_bytes)

    def __repr__(self) -> str:
        return f"MeasurementTable(values={self.values!r}, payoffs={self.payoffs!r})"

    @property
    def values(self) -> tuple[tuple[float, ...], ...]:
        """The strength grid, one row per player."""
        n = len(self.strength_bytes) // (8 * len(self.payoffs))
        return tuple(_float_rows(self.strength_bytes, n))

    @property
    def rival_best(self) -> tuple[tuple[float, ...], ...]:
        """Each cell's best rival strength (:func:`qblotto.classical.rival_best`)."""
        return rival_best(self.values)  # the module function, not this property


# A Scenario argument not given; a grid not given is read from its bytes.
_UNSET = object()


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Scenario:
    """Complete description of one game.

    Player 1 is Blotto and must hold the largest budget. ``allocations``
    and ``phases`` are player-major grids of shape N x n; ``eps`` is the
    absolute tie tolerance used for payoffs and budget sums. Building a
    scenario (``dataclasses.replace`` included) validates it and raises
    :class:`ValidationError` on the first broken rule; phases are stored
    as given and reduced by :func:`strategies_of`. One number rule comes
    first: every total, allocation, phase, ``gamma``, ``eps`` and sign
    entry must be a real number, and a bool is not one; totals,
    allocations, phases, ``gamma`` and ``eps`` are stored as floats and
    the signs as ints. The other rules: sign entries of exactly +1 or
    -1, matching shapes, finite phases, a valid tie tolerance, the
    composite-dimension guard ``2^N * n <= MAX_DIM``, the budgets (the
    roster rule), each player's allocations (finite, non-negative and
    summing to the budget within ``eps``), ``gamma`` in [0, pi/2], and
    no commitment above Blotto's budget, so every commitment has a
    rotation angle (:func:`rotation_angle`). Names, budgets, the sign
    pattern and each grid and row must be ordered sequences: a set or
    mapping is refused, and so is a str or bytes for names.

    The budgets, allocations and phases are stored as row-major float64
    bytes, ``total_bytes``, ``allocation_bytes`` and ``phase_bytes``,
    packed after the rules pass; ``totals``, ``allocations`` and
    ``phases`` read them back, bit for bit, on each access. The
    constructor's arguments are ``player_names``, ``totals``,
    ``allocations``, ``phases``, ``gamma``, ``sign_pattern`` and ``eps``,
    in that order, and the three byte fields by keyword. A grid not given
    is read from its bytes field, with one row per budget in
    ``total_bytes`` (without it, one per row of the field before), and a
    length that is not a whole number of rows raises
    :class:`qblotto.errors.DimensionError`. Such a field meets every rule
    again and is kept as the same object, so ``replace(s, gamma=0.5)``
    shares all three with ``s``; names and a sign pattern already in
    stored form (a tuple of ``str``, of ``int``) are kept too. Equality
    and hash compare the stored bits, so a -0.0 cell differs from 0.0.
    :meth:`create` holds the defaults.
    """

    player_names: tuple[str, ...]
    total_bytes: bytes
    allocation_bytes: bytes
    phase_bytes: bytes
    gamma: float
    sign_pattern: tuple[int, ...]
    eps: float = DEFAULT_TIE_EPS

    def __init__(
        self, player_names, totals=_UNSET, allocations=_UNSET, phases=_UNSET,
        gamma=_UNSET, sign_pattern=_UNSET, eps=DEFAULT_TIE_EPS,
        *, total_bytes=None, allocation_bytes=None, phase_bytes=None,
    ):
        for name, value, data in (
            ("totals", totals, total_bytes),
            ("allocations", allocations, allocation_bytes),
            ("phases", phases, phase_bytes),
            ("gamma", gamma, None),
            ("sign_pattern", sign_pattern, None),
        ):
            if value is _UNSET and data is None:
                raise TypeError(f"Scenario() missing required argument: {name!r}")
        names = player_names
        if isinstance(names, (str, bytes, Set, Mapping)):  # no ordered list of names
            raise ValidationError(
                f"player names must be a sequence of names, got {names!r}"
            )
        if not _stored(names, str):
            names = tuple(map(str, _sequence(names, "player names")))
        # A grid not given is read from its bytes, one row per stored budget;
        # its cells are floats, so it meets the number rule as read. A given
        # one is packed once the rules pass.
        layout = None if total_bytes is None else len(total_bytes) // 8
        if totals is _UNSET:
            (totals,) = _byte_rows(total_bytes, 1, "total")
        else:
            totals, total_bytes = _real_budgets(totals), None
        if allocations is _UNSET:
            rows = layout or len(totals)
            allocations = _byte_rows(allocation_bytes, rows, "allocation")
        else:
            allocations, allocation_bytes = _real_grid(allocations, "allocation"), None
        if phases is _UNSET:
            phases = _byte_rows(phase_bytes, layout or len(allocations), "phase")
        else:
            phases, phase_bytes = _real_grid(phases, "phase"), None
        gamma = _real(gamma, "entanglement parameter")
        eps = _real(eps, "tie tolerance")
        pattern = sign_pattern
        if not _stored(pattern, int):
            entries = _sequence(pattern, "sign pattern")
            pattern = tuple(int(s) if _is_sign(s) else s for s in entries)
        if not all(map(_is_sign, pattern)):
            raise ValidationError(
                f"sign pattern entries must be +1 or -1, got {pattern}"
            )

        count = len(totals)
        if count == 0:
            raise ValidationError("scenario has no players")
        if len(names) != count:
            raise dimension_error(count, len(names), "player names")
        if len(allocations) != count:
            raise dimension_error(count, len(allocations), "allocation rows")
        if len(phases) != count:
            raise dimension_error(count, len(phases), "phase rows")
        n = len(allocations[0])
        if n < 1:
            raise ValidationError("scenario has no battlefields")
        for j, row in enumerate(allocations, start=1):
            if len(row) != n:
                raise dimension_error(n, len(row), f"player {j} allocations")
        for j, row in enumerate(phases, start=1):
            if len(row) != n:
                raise dimension_error(n, len(row), f"player {j} phases")
            for k, p in enumerate(row, start=1):
                if not math.isfinite(p):
                    raise ValidationError(
                        f"phase for player {j}, battlefield {k} is not finite: {p!r}"
                    )
        if len(pattern) != n:
            raise dimension_error(n, len(pattern), "sign pattern")
        check_tie_eps(eps)
        dim = 2**count * n  # checked before anything costly
        if dim > MAX_DIM:
            raise ValidationError(
                f"composite dimension {dim} exceeds the guardrail {MAX_DIM}; "
                f"reduce the player count or battlefield count"
            )
        _check_roster(totals)  # two or more finite budgets, Blotto's the largest
        players = zip(names, allocations, totals)
        for j, (name, row, total) in enumerate(players, start=1):
            for k, x in enumerate(row, start=1):
                if not 0 <= x < math.inf:
                    problem = "is negative" if x < 0 else "is not finite"
                    raise ValidationError(
                        f"player {j} ({name}): battlefield {k} allocation "
                        f"{problem} ({x!r})"
                    )
            allocated = sum(row)
            if not abs(allocated - total) <= eps:
                raise ValidationError(
                    f"player {j} ({name}): allocations sum to {allocated!r}, "
                    f"budget is {total!r}"
                )
        if not -_ANGLE_SLACK <= gamma <= HALF_PI + _ANGLE_SLACK:
            raise ValidationError(
                f"entanglement parameter {gamma!r} outside [0, pi/2]"
            )
        # A row can sum to its budget within eps and still hold one
        # commitment above Blotto's budget.
        for row in allocations:
            for x in row:
                if x > totals[0]:
                    raise ValidationError(
                        f"troop commitment {x!r} exceeds Blotto's budget "
                        f"{totals[0]!r}; no valid allocation can reach this"
                    )

        if total_bytes is None:
            total_bytes = _float_bytes([totals])
        if allocation_bytes is None:
            allocation_bytes = _float_bytes(allocations)
        if phase_bytes is None:
            phase_bytes = _float_bytes(phases)
        stored = names, total_bytes, allocation_bytes, phase_bytes, gamma, pattern, eps
        for f, value in zip(fields(self), stored):
            object.__setattr__(self, f.name, value)

    def __repr__(self) -> str:
        return (
            f"Scenario(player_names={self.player_names!r}, totals={self.totals!r}, "
            f"allocations={self.allocations!r}, phases={self.phases!r}, "
            f"gamma={self.gamma!r}, sign_pattern={self.sign_pattern!r}, "
            f"eps={self.eps!r})"
        )

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
        pattern to all +1 with the last battlefield flipped, and names to
        "Blotto", "enemy 1", .... The three are built once per size a
        build admits (two or more players and ``2^N * n <= MAX_DIM``) and
        kept in one cache of the last 16 sizes, so every scenario of
        that size shares them, the phases as one zero ``phase_bytes``; a
        size the build refuses leaves no entry.
        Every other value reaches the number rule as passed.
        """
        rows = _grid_rows(allocations, "allocation")  # read once, as the build reads it
        if not rows or not rows[0]:
            raise ValidationError("allocations must be a non-empty N x n grid")
        count, n = len(rows), len(rows[0])
        # the build's size rules: a size it refuses gets its defaults uncached
        admitted = count >= 2 and 2**count * n <= MAX_DIM
        defaults = _defaults if admitted else _defaults.__wrapped__
        default_names, default_pattern, zero_phases = defaults(count, n)
        return cls(
            player_names=default_names if names is None else names,
            totals=totals,
            allocations=rows,
            phases=_UNSET if phases is None else phases,
            gamma=gamma,
            sign_pattern=default_pattern if sign_pattern is None else sign_pattern,
            eps=eps,
            phase_bytes=zero_phases,
        )

    @property
    def totals(self) -> tuple[float, ...]:
        """The budgets, read back from ``total_bytes``."""
        (totals,) = _float_rows(self.total_bytes, self.num_players)
        return totals

    @property
    def allocations(self) -> tuple[tuple[float, ...], ...]:
        """The allocation grid, read back from ``allocation_bytes``."""
        return tuple(_float_rows(self.allocation_bytes, self.num_battlefields))

    @property
    def phases(self) -> tuple[tuple[float, ...], ...]:
        """The phase grid, read back from ``phase_bytes``."""
        return tuple(_float_rows(self.phase_bytes, self.num_battlefields))

    @property
    def num_players(self) -> int:
        return len(self.total_bytes) // 8

    @property
    def num_battlefields(self) -> int:
        return len(self.allocation_bytes) // len(self.total_bytes)

    @property
    def blotto_total(self) -> float:
        return self.totals[0]


def reduced_phase(phase: float) -> float:
    """A phase reduced by its period 2*pi into [0, 2*pi).

    One in range is returned as is. A remainder that rounds up to 2*pi,
    as a tiny negative phase's does, is 0.0, the same point on the circle.
    """
    if 0.0 <= phase < TWO_PI:
        return phase
    reduced = phase % TWO_PI
    return 0.0 if reduced == TWO_PI else reduced


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
    and unitary. The gate at angle ``a`` and phase ``p`` is::

        [[exp(i*p)*cos(a), -sin(a)        ],
         [sin(a),           exp(-i*p)*cos(a)]]

    At ``p = 0`` this is the plain rotation taking state 0 toward state 1
    by ``a``; a nonzero phase is the quantum resource. Each battlefield's
    gate is written into its diagonal block in one indexed assignment,
    with no Kronecker products.
    """
    import numpy as np

    n = len(angles)
    gates = []
    for angle, phase in zip(angles, phases):
        c, s = math.cos(angle), math.sin(angle)
        ph = complex(math.cos(phase), math.sin(phase))
        gates.append([[ph * c, -s], [s, ph.conjugate() * c]])
    gates = np.array(gates, dtype=complex)
    # Row (a, x, b, k) and column (c, y, d, l) over the qubits before the
    # player's, the player's qubit, the qubits after it and the register.
    before, after = 2 ** (player - 1), 2 ** (num_players - player)
    op = np.zeros((before, 2, after, n) * 2, dtype=complex)
    a, x, b, k, y = np.ogrid[:before, :2, :after, :n, :2]
    op[a, x, b, k, a, y, b, k] = gates[k, x, y]
    dim = 2**num_players * n
    return op.reshape(dim, dim)


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
    import numpy as np

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
    """``J^+ psi = c psi - i s (G^+ psi)``, the final state; its norm is checked.

    Row ``(t, k)`` of ``G``, on the ``(2^N, n)`` view of the state, holds
    ``(-1)^(N + popcount(t)) * i * sign_k`` in column ``(2^N - 1 - t, k)``:
    every flip block swaps a qubit's state, with a minus sign when it is
    1. ``G^+ = -(-1)^N G``, so ``G^+ psi`` is that view with its qubit
    index reversed, times ``-(-1)^popcount(t) * i * sign_k``; ``G`` is
    never formed. ``sign_pattern`` is taken as a :class:`Scenario` holds it.
    """
    import numpy as np

    half = gamma / 2.0
    c, s = math.cos(half), math.sin(half)
    parity = np.ones(1)
    for _ in range(num_players):
        parity = np.concatenate([parity, -parity])  # (-1)^popcount(t)
    weights = (-parity)[:, None] * (1j * np.asarray(sign_pattern, dtype=float))
    adjoint = (weights * psi.reshape(weights.shape)[::-1]).reshape(-1)
    psi = c * psi - (1j * s) * adjoint
    check_norm_sq(np.vdot(psi, psi).real)
    return psi


def check_norm_sq(norm_sq: float) -> None:
    """Raise if a squared norm, NaN included, strays from 1 beyond UNITARITY_EPS."""
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

    ``G^+`` has one nonzero per row, so :func:`disentangle` applies it
    as a signed, phased reversal of the qubit index; neither ``G``,
    ``J`` nor a dense unitarity or commutation probe is formed. The
    strategy operators are dense, so ``2^N * n`` above ``MAX_DENSE_DIM``
    raises :class:`ValidationError` before any is built. An even player
    count with ``|sin(gamma)| > UNITARITY_EPS`` raises
    :class:`NumericalIntegrityError`, and the final state's norm is checked.
    """
    count = len(angles)
    dim = 2**count * len(sign_pattern)
    if dim > MAX_DENSE_DIM:
        raise ValidationError(
            f"composite dimension {dim} is over {MAX_DENSE_DIM}, the largest "
            f"an evaluation holds; reduce the player count or battlefield count"
        )
    psi = entangle(count, gamma, sign_pattern)
    for player in range(1, count + 1):
        # No name holds the last operator, so one is alive at a time.
        psi = (
            player_operator(player, angles[player - 1], phases[player - 1], count)
            @ psi
        )
    return disentangle(psi, count, gamma, sign_pattern)


def check_strengths(grid: np.ndarray) -> None:
    """Raise :class:`NumericalIntegrityError` for a strength outside [0, 1].

    The tolerance is ``UNITARITY_EPS``, and NaN fails. The last two axes
    of ``grid`` are player and battlefield. Its minimum and maximum
    decide; only a failure looks for the first cell out of range, whose
    player and battlefield the message names.
    """
    if not (grid.min() >= -UNITARITY_EPS and grid.max() <= 1.0 + UNITARITY_EPS):
        import numpy as np

        in_range = (grid >= -UNITARITY_EPS) & (grid <= 1.0 + UNITARITY_EPS)
        index = tuple(np.argwhere(~in_range)[0])
        j, k = index[-2:]
        raise NumericalIntegrityError(
            f"measurement for player {j + 1}, battlefield {k + 1} outside "
            f"[0, 1]: {float(grid[index])!r}"
        )


def measurements(base: Scenario, psi: np.ndarray) -> MeasurementTable:
    """Read per-player battlefield strengths off a final state of ``base``.

    Strength (j, k) is the probability of player j's qubit in state 1
    with the register on battlefield k: the sum of ``|psi|^2`` over the
    basis states with qubit j set and register index k, where ``psi``
    has ``2^N * n`` amplitudes for ``base``'s N players. This equals the
    committed-qubit projector's expectation on the density matrix
    reduced to qubit j and the register, which the tests' dense
    reference computes. A value outside [0, 1] beyond tolerance, NaN
    included, raises :class:`NumericalIntegrityError`. Payoffs are
    :func:`qblotto.classical._payoff_vector` of the strength grid at
    ``base.eps``, which that range check and the build make its
    trusted input. The table keeps the grid's float64 bytes and derives
    its values and rival bests when read.
    """
    num_players = base.num_players
    import numpy as np

    probabilities = (psi.real**2 + psi.imag**2).reshape(2**num_players, -1)
    # bits[j, s]: player j+1's qubit in basis state s, player 1's the most significant
    shifts = np.arange(num_players - 1, -1, -1)[:, None]
    bits = (np.arange(2**num_players) >> shifts) & 1
    grid = bits.astype(float) @ probabilities
    check_strengths(grid)
    payoffs = _payoff_vector(grid.tolist(), base.eps)
    return MeasurementTable(payoffs=payoffs, strength_bytes=grid.tobytes())


def evaluate(scenario: Scenario) -> MeasurementTable:
    """Evolve and measure a scenario in one call."""
    angles, phases = strategies_of(scenario)
    return evaluate_strategies(scenario, angles, phases, scenario.gamma)


def evaluate_strategies(
    base: Scenario, angles: Grid, phases: Grid, gamma: float
) -> MeasurementTable:
    """Evolve and measure explicit strategy grids (sweep entry point).

    ``angles`` and ``phases`` are ``base``'s grids with cells moved, and
    ``gamma`` its entanglement parameter or a moved one; the sign
    pattern and tie tolerance are ``base``'s.
    """
    psi = evolve_strategies(angles, phases, gamma, base.sign_pattern)
    return measurements(base, psi)
