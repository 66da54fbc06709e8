"""The closed-form strength oracle against the engine and its own symmetries.

:func:`reference.closed_form_strengths` computes each battlefield's
strengths from per-player overlaps, grouped so that relabelling players
cannot change its rounding. It is checked against ``evaluate`` and the
phase search's axis form, and for the symmetries and the classical limit
that the game has.
"""

import functools
import math
import random

import pytest

import qblotto.sweep
from qblotto import Scenario, best_response_grid, evaluate
from qblotto.classical import PlayerRoster, classical_payoffs
from qblotto.engine import HALF_PI, strategies_of
from qblotto.sweep import _phase_axis, _phase_axis_strengths
from reference import closed_form_strengths, exact_strengths
from test_classical import brute_force_payoffs

DRAWS = 400
# Draws checked against the 40-digit reference: N 3, 5 and 7 on one to
# four battlefields, zero phases on nine of them; under a second.
EXACT_DRAWS = 30
# Games with two idle rivals on battlefield 1, checked against the same
# reference; about half a second.
SEPARATION_DRAWS = 30


def _split(rng, total, n):
    """Random whole-number n-part split of ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@functools.lru_cache(maxsize=1)
def draws():
    """Seeded games: ``(scenario, copy)``, ``copy`` a (target, source) pair or None.

    N is 3 to 7 and n 1 to 4, with whole-number budgets and allocations
    and eps 0. A quarter have zero phases; in half, one rival (never
    Blotto) copies another player's budget and move. An even player
    count has gamma 0, as the even-count rule requires.
    """
    rng = random.Random(2026)
    games = []
    for _ in range(DRAWS):
        count, n = rng.randint(3, 7), rng.randint(1, 4)
        blotto = rng.randint(2, 9)
        totals = [blotto] + [rng.randint(1, blotto) for _ in range(count - 1)]
        allocations = [_split(rng, total, n) for total in totals]
        zero = rng.random() < 0.25
        phases = [
            [0.0 if zero else rng.uniform(-math.pi, 3 * math.pi) for _ in range(n)]
            for _ in totals
        ]
        copy = None
        if rng.random() < 0.5:
            target = rng.randint(2, count)
            source = rng.choice([j for j in range(1, count + 1) if j != target])
            for rows in (totals, allocations, phases):
                rows[target - 1] = rows[source - 1]
            copy = (target, source)
        gamma = 0.0 if count % 2 == 0 else rng.uniform(0.0, HALF_PI)
        pattern = [rng.choice((1, -1)) for _ in range(n)]
        scenario = Scenario.create(
            totals, allocations, gamma, phases=phases, sign_pattern=pattern, eps=0.0
        )
        games.append((scenario, copy))
    return games


def closed_form(scenario):
    return closed_form_strengths(
        *strategies_of(scenario), scenario.gamma, scenario.sign_pattern
    )


def bits(rows):
    return [[v.hex() for v in row] for row in rows]


def test_matches_evaluate():
    worst = 0.0
    for scenario, _ in draws():
        values = closed_form(scenario)[0]
        engine = evaluate(scenario).values
        for row, expected in zip(values, engine):
            worst = max(worst, max(abs(v - w) for v, w in zip(row, expected)))
    assert worst <= 1e-14, worst


def test_evaluate_matches_the_exact_reference():
    mpmath = pytest.importorskip("mpmath")
    odd = [scenario for scenario, _ in draws() if scenario.num_players % 2]
    worst = mpmath.mpf(0)
    for scenario in odd[:EXACT_DRAWS]:
        exact = exact_strengths(scenario)
        for row, exact_row in zip(evaluate(scenario).values, exact):
            worst = max(worst, *(abs(v - x) for v, x in zip(row, exact_row)))
    assert worst <= 1e-13, float(worst)


def test_norm_sq_sums_to_one():
    for scenario, _ in draws():
        assert abs(math.fsum(closed_form(scenario)[1]) - 1.0) <= 1e-12, scenario


def test_matches_phase_axis_strengths():
    rng = random.Random(2027)
    for scenario, _ in draws()[:100]:
        angles, phases = strategies_of(scenario)
        gamma, pattern = scenario.gamma, scenario.sign_pattern
        player, steps = rng.randint(1, scenario.num_players), rng.randint(2, 9)
        form = _phase_axis_strengths(angles, phases, gamma, pattern, player, steps)
        moved = list(phases)
        for s, phase in enumerate(_phase_axis(steps)[0]):
            moved[player - 1] = (phase,) * scenario.num_battlefields
            values = closed_form_strengths(angles, moved, gamma, pattern)[0]
            assert abs(form[s] - values).max() <= 1e-14, (scenario, player, phase)


def test_relabelling_rivals_permutes_strengths_bit_for_bit():
    rng = random.Random(2028)
    for scenario, _ in draws():
        angles, phases = strategies_of(scenario)
        count = scenario.num_players
        order = [0] + rng.sample(range(1, count), count - 1)  # Blotto stays first
        values, norms = closed_form(scenario)
        relabelled = closed_form_strengths(
            [angles[j] for j in order],
            [phases[j] for j in order],
            scenario.gamma,
            scenario.sign_pattern,
        )
        assert bits(relabelled[0]) == bits([values[j] for j in order]), scenario
        assert bits([relabelled[1]]) == bits([norms]), scenario


def test_copied_rivals_get_identical_rows():
    copies = [(scenario, copy) for scenario, copy in draws() if copy]
    assert len(copies) > DRAWS // 3
    for scenario, (target, source) in copies:
        values = bits(closed_form(scenario)[0])
        assert values[target - 1] == values[source - 1], scenario


def zero_phase_draws():
    return [
        scenario
        for scenario, _ in draws()
        if not any(any(row) for row in scenario.phases)
    ]


def classical_game(scenario):
    return classical_payoffs(scenario.allocations, PlayerRoster(scenario.totals), 0.0)


def test_zero_phase_payoffs_are_the_classical_game():
    classical = zero_phase_draws()
    assert len(classical) > DRAWS // 6
    for scenario in classical:
        expected = classical_game(scenario)
        assert brute_force_payoffs(closed_form(scenario)[0], 0.0) == expected, scenario


# The engine's rounding depends on a player's position in the state vector,
# so at eps 0 it splits exact ties that the classical game and the grouped
# closed form keep. These pass once the engine decides ties by structure;
# the marker goes then.
SPLITS_TIES = pytest.mark.xfail(
    strict=True, reason="the engine's rounding splits exact ties at eps 0"
)


@SPLITS_TIES
def test_evaluate_zero_phase_payoffs_are_the_classical_game():
    for scenario in zero_phase_draws():
        assert evaluate(scenario).payoffs == classical_game(scenario), scenario


@SPLITS_TIES
def test_evaluate_oracle_file_payoffs_at_eps_0():
    scenario = Scenario.create(
        (5, 3, 2), ((3, 2), (2, 1), (0, 2)), math.pi / 4, eps=0.0
    )
    assert evaluate(scenario).payoffs == (1, -2, -1)


# Two players who commit nothing to a battlefield tie there at every phase
# (exact_strengths shows it below), so at eps = 0 every axis value where
# they lead is a tie-band edge, and the search evaluates each directly:
# 32 of 64 values here, and 512 of 1024. At eps = 1e-9 it evaluates none.
# Passes once ties are decided by structure; the marker goes then.
@pytest.mark.xfail(
    strict=True, reason="the search evaluates every idle-pair tie at eps 0"
)
def test_idle_pair_search_at_eps_0_evaluates_nothing(monkeypatch):
    calls = []
    real = qblotto.sweep.evaluate_strategies

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qblotto.sweep, "evaluate_strategies", counted)
    scenario = Scenario.create(
        (6, 4, 3), ((3, 3), (0, 4), (0, 3)), HALF_PI, eps=0.0
    )
    best_response_grid(scenario, 2, 64)
    assert len(calls) == 0


def separation_draws():
    """Seeded games in which two rivals commit nothing to battlefield 1.

    N is 3, 5 or 7 and n 1 to 4, with whole-number budgets and
    allocations; gamma is pi/2 on every third. The two idle rivals' phases
    on battlefield 1 are drawn, so they differ.
    """
    rng = random.Random(2029)
    games = []
    for d in range(SEPARATION_DRAWS):
        count, n = rng.choice((3, 5, 7)), rng.randint(1, 4)
        blotto = rng.randint(2, 9)
        totals = [blotto] + [rng.randint(1, blotto) for _ in range(count - 1)]
        allocations = [_split(rng, total, n) for total in totals]
        for j in rng.sample(range(1, count), 2):
            allocations[j] = [0] + _split(rng, totals[j], n - 1) if n > 1 else [0]
            totals[j] = sum(allocations[j])
        phases = [[rng.uniform(-math.pi, 3 * math.pi) for _ in range(n)] for _ in totals]
        gamma = HALF_PI if d % 3 == 0 else rng.uniform(0.0, HALF_PI)
        pattern = [rng.choice((1, -1)) for _ in range(n)]
        games.append(
            Scenario.create(totals, allocations, gamma, phases=phases, sign_pattern=pattern)
        )
    return games


def test_exact_margins_are_ties_or_far_from_rounding():
    # A rounding bound of order 1e-13 can only certify payoff terms if real
    # margins sit far above it and the rest are exact ties, as players who
    # commit nothing to a battlefield are, whatever their phases.
    mpmath = pytest.importorskip("mpmath")
    worst, idle_pairs = mpmath.mpf(0), 0
    for scenario in separation_draws():
        exact = exact_strengths(scenario)
        for row, exact_row in zip(closed_form(scenario)[0], exact):
            worst = max(worst, *(abs(v - x) for v, x in zip(row, exact_row)))
        allocations = scenario.allocations
        for k in range(scenario.num_battlefields):
            for i in range(scenario.num_players):
                for j in range(i + 1, scenario.num_players):
                    margin = abs(exact[i][k] - exact[j][k])
                    assert margin < 1e-30 or margin >= 1e-10, (scenario, i, j, k)
                    if allocations[i][k] == allocations[j][k] == 0:
                        idle_pairs += 1
                        assert margin < 1e-30, (scenario, i, j, k)
    assert worst <= 1e-13, float(worst)
    assert idle_pairs >= SEPARATION_DRAWS


def test_oracle_file_payoffs_at_eps_0():
    # The classical game on which `qblotto oracle --eps 0` reports a
    # mismatch: the engine's rounding splits a tie that the classical game
    # and the grouped closed form keep. This pins the closed form only.
    scenario = Scenario.create(
        (5, 3, 2), ((3, 2), (2, 1), (0, 2)), math.pi / 4, eps=0.0
    )
    assert brute_force_payoffs(closed_form(scenario)[0], 0.0) == (1, -2, -1)
