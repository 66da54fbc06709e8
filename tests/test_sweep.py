import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qblotto.engine
import qblotto.sweep
from qblotto import (
    NumericalIntegrityError,
    Scenario,
    SweepResult,
    SweepSpec,
    ValidationError,
    best_response_grid,
    evaluate,
    run_sweep,
)
from qblotto.classical import payoff_terms
from qblotto.engine import evaluate_strategies, strategies_of
from qblotto.sweep import (
    MAX_GRID_POINTS,
    MAX_SWEEP_STEPS,
    SWEEP_PARAMETERS,
    BestResponse,
    _phase_axis_strengths,
)
from reference import branch_strengths, check_phase_insensitivity

HALF_PI = math.pi / 2


def threshold_sweep_spec(worked_example, steps=101):
    """Sweep enemy 2's first-battlefield phase over a quarter turn."""
    return SweepSpec(
        base=worked_example,
        target_player=3,
        target_battlefield=1,
        parameter="phi",
        lo=0.0,
        hi=HALF_PI,
        steps=steps,
    )


class TestSweepSpec:
    def test_validation(self, worked_example):
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 1, "theta", 0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 1, "phi", 0.0, 1.0, 1)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 1, "phi", 1.0, 0.0, 10)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 4, 1, "phi", 0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 3, "phi", 0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 1, "lambda", 0.0, 2.0, 10)
        with pytest.raises(ValidationError):
            SweepSpec(worked_example, 3, 1, "gamma", 0.0, 2.0, 10)

    def test_fractional_steps_rejected(self, worked_example):
        # not truncated to 2 steps
        with pytest.raises(ValidationError, match="^steps must be an integer, got 2.9"):
            SweepSpec(worked_example, 3, 1, "phi", 0.0, 1.0, 2.9)

    def test_float_target_player_rejected_at_build(self, worked_example):
        # rejected when built, not by an indexing TypeError inside run_sweep
        with pytest.raises(ValidationError, match="^target player must be an integer"):
            run_sweep(SweepSpec(worked_example, 3.0, 1, "phi", 0.0, 1.0, 5))

    @pytest.mark.parametrize("index", ["target_player", "target_battlefield", "steps"])
    def test_bool_rejected(self, worked_example, index):
        fields = dict(target_player=1, target_battlefield=1, steps=5)
        fields[index] = True
        with pytest.raises(ValidationError, match="must be an integer, got True"):
            SweepSpec(worked_example, parameter="phi", lo=0.0, hi=1.0, **fields)

    def test_numpy_integers_accepted(self, worked_example):
        spec = SweepSpec(
            worked_example, np.int64(3), np.int32(1), "phi", 0.0, 1.0, np.int64(5)
        )
        assert (spec.target_player, spec.target_battlefield, spec.steps) == (3, 1, 5)
        assert type(spec.steps) is int

    def test_step_cap_checked_at_build(self, worked_example):
        # built, never run: a sweep keeps every grid point
        assert SweepSpec(worked_example, 3, 1, "phi", 0.0, 1.0, MAX_SWEEP_STEPS)
        too_many = MAX_SWEEP_STEPS + 1
        with pytest.raises(ValidationError, match=f"^{too_many} sweep steps"):
            SweepSpec(worked_example, 3, 1, "phi", 0.0, 1.0, too_many)


class TestRunSweep:
    def test_phase_sweep_turns_enemy2_positive(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example))
        assert len(result.points) == 101
        assert result.points[0].payoffs == (0, -1, -1)
        margin = 1e-6  # grid point 50 sits one ulp above pi/4, inside the tie band
        for point in result.points:
            if point.value > math.pi / 4 + margin:
                assert point.payoffs[2] > 0
            elif point.value < math.pi / 4 - margin:
                assert point.payoffs[2] == -1

    def test_transition_localized_at_quarter_pi(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example))
        assert result.transitions
        assert any(
            abs(t.boundary - math.pi / 4) < 1e-6 for t in result.transitions
        )

    def test_collapsed_range(self, worked_example):
        spec = SweepSpec(worked_example, 3, 1, "phi", 0.0, 0.0, 2)
        result = run_sweep(spec)
        assert len(result.points) == 2
        assert result.points[0] == result.points[1]
        assert not result.transitions

    def test_no_entanglement_sweep_is_constant(self, worked_example):
        spec = threshold_sweep_spec(replace(worked_example, gamma=0.0), steps=21)
        result = run_sweep(spec)
        first = result.points[0].payoffs
        assert all(point.payoffs == first for point in result.points)
        assert not result.transitions

    def test_gamma_sweep_classical_scenario_constant(self, worked_example):
        spec = SweepSpec(worked_example, 1, 1, "gamma", 0.0, HALF_PI, 11)
        result = run_sweep(spec)
        assert all(p.payoffs == (0, -1, -1) for p in result.points)

    def test_angle_sweep_moves_blotto(self, worked_example):
        # raising Blotto's own angle on battlefield 1 toward pi/2 wins it
        spec = SweepSpec(worked_example, 1, 1, "lambda", 0.0, HALF_PI, 5)
        result = run_sweep(spec)
        assert result.points[0].payoffs[0] == -1  # angle 0 loses battlefield 1
        assert result.points[-1].payoffs[0] == 1  # full turn wins it

    def test_repeat_runs_bit_identical(self, worked_example):
        spec = threshold_sweep_spec(worked_example, steps=11)
        assert run_sweep(spec) == run_sweep(spec)

    def test_refinement_keeps_coarse_vectors(self, worked_example):
        coarse = run_sweep(threshold_sweep_spec(worked_example, steps=11))
        fine = run_sweep(threshold_sweep_spec(worked_example, steps=21))
        fine_by_value = {round(p.value, 12): p.payoffs for p in fine.points}
        for point in coarse.points:
            assert fine_by_value[round(point.value, 12)] == point.payoffs


class TestTransitionsInOneCell:
    # Between pi/4 - 1e-6 and pi/4 enemy 2 ties on battlefield 1 inside
    # the 1e-9 tie band, so one grid cell can hold two transitions.
    EXPECTED = [((0, -1, -1), (0, -1, 0)), ((0, -1, 0), (-1, -2, 1))]

    def test_readme_boundaries(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example))
        assert [(t.below, t.above) for t in result.transitions] == self.EXPECTED
        assert [format(t.boundary, ".12g") for t in result.transitions] == [
            "0.785397684028",
            "0.785398642766",
        ]

    @pytest.mark.parametrize("steps", [100, 102])
    def test_every_transition_in_a_cell_is_reported(self, worked_example, steps):
        reference = run_sweep(threshold_sweep_spec(worked_example)).transitions
        result = run_sweep(threshold_sweep_spec(worked_example, steps=steps))
        assert [(t.below, t.above) for t in result.transitions] == self.EXPECTED
        for found, expected in zip(result.transitions, reference):
            assert abs(found.boundary - expected.boundary) < 1e-6


def _point_bits(value, payoffs, strengths):
    return (
        float(value).hex(),
        tuple(payoffs),
        tuple(float(v).hex() for row in strengths for v in row),
    )


class TestPackedSweepResult:
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_points_match_evaluate_strategies_bit_for_bit(
        self, worked_example, parameter
    ):
        base = replace(worked_example, phases=((0.0, 0.3), (0.2, 0.0), (1.0, 0.5)))
        spec = SweepSpec(base, 2, 1, parameter, 0.0, HALF_PI, 21)
        result = run_sweep(spec)
        assert len(result.points) == spec.steps
        for point, value in zip(result.points, spec.grid()):
            angles, phases = (
                [list(row) for row in grid] for grid in strategies_of(base)
            )
            gamma = base.gamma
            if parameter == "phi":
                phases[1][0] = float(value)
            elif parameter == "lambda":
                angles[1][0] = float(value)
            else:
                gamma = float(value)
            table = evaluate_strategies(
                angles, phases, gamma, base.sign_pattern, base.eps
            )
            assert _point_bits(point.value, point.payoffs, point.values) == (
                _point_bits(value, table.payoffs, table.values)
            )
            assert all(type(p) is int for p in point.payoffs)

    def test_round_trip_and_equality(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example, steps=11))
        again = SweepResult(
            spec=result.spec, points=result.points, transitions=result.transitions
        )
        assert again == result
        assert again.points == result.points
        fewer = replace(result, points=result.points, transitions=result.transitions[:1])
        assert fewer != result
        assert replace(result, points=result.points[:-1]) != result

    def test_packed_result_is_much_smaller_than_points(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            points = result.points
            unpacked = tracemalloc.get_traced_memory()[0] - start
            start = tracemalloc.get_traced_memory()[0]
            packed = SweepResult(
                spec=result.spec, points=points, transitions=result.transitions
            )
            packed_size = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert packed == result
        assert packed_size * 3 < unpacked, (packed_size, unpacked)


class TestPhaseInsensitivity:
    def test_interior_phase_is_irrelevant(self, worked_example):
        base = replace(worked_example, phases=((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)))
        report = check_phase_insensitivity(base, 3, 2, (0.1, 0.5, 1.0, 1.5))
        assert report.interior_uniform
        assert report.differs_at_zero
        assert report.zero_payoffs == (-1, -2, 1)
        assert all(payoffs == (-2, -2, 2) for _, payoffs in report.samples)

    def test_no_entanglement_kills_the_jump(self, worked_example):
        base = replace(
            worked_example,
            gamma=0.0,
            phases=((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)),
        )
        report = check_phase_insensitivity(base, 3, 2, (0.1, 0.5, 1.0, 1.5))
        assert report.interior_uniform
        assert not report.differs_at_zero
        assert report.zero_payoffs == report.samples[0][1]

    def test_samples_must_be_interior(self, worked_example):
        with pytest.raises(ValidationError):
            check_phase_insensitivity(worked_example, 3, 2, (0.0, 0.5))
        with pytest.raises(ValidationError):
            check_phase_insensitivity(worked_example, 3, 2, (0.5, HALF_PI))
        with pytest.raises(ValidationError):
            check_phase_insensitivity(worked_example, 3, 2, ())


class TestBestResponseGrid:
    def test_enemy2_best_response_reaches_two(self, worked_example):
        best = best_response_grid(worked_example, 3, 33)
        assert best.payoff == 2
        assert best.phases[0] > math.pi / 4  # needs the first-battlefield phase
        assert 0.0 < best.phases[1] < HALF_PI  # and an interior second phase

    def test_lexicographically_smallest_argmax(self, worked_example):
        best = best_response_grid(worked_example, 3, 33)
        # rerunning must give the identical grid point, not just the payoff
        again = best_response_grid(worked_example, 3, 33)
        assert best == again
        axis = [k * HALF_PI / 32 for k in range(33)]
        assert any(abs(best.phases[0] - v) < 1e-12 for v in axis)

    def test_no_entanglement_matches_classical(self, worked_example):
        best = best_response_grid(replace(worked_example, gamma=0.0), 3, 9)
        assert best.payoff == -1

    def test_single_player_rejected_upstream(self):
        from qblotto import Scenario

        # a one-player scenario cannot be built, so neither search sees one
        with pytest.raises(ValidationError, match="two players"):
            Scenario.create(totals=(3.0,), allocations=((3.0,),), gamma=0.0)

    @pytest.mark.parametrize(
        "player, steps, message",
        [
            (2.0, 5, "player must be an integer, got 2.0"),
            (2, 2.5, "phi grid steps must be an integer, got 2.5"),
            (True, 5, "player must be an integer, got True"),
        ],
    )
    def test_non_integers_rejected(self, worked_example, player, steps, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            best_response_grid(worked_example, player, steps)

    def test_guardrails(self, worked_example):
        from qblotto import Scenario

        with pytest.raises(ValidationError):
            best_response_grid(worked_example, 3, 1)
        with pytest.raises(ValidationError):
            best_response_grid(worked_example, 4, 9)
        # 5 battlefields at 64 steps exceeds the grid cap
        scenario = Scenario.create(
            totals=(5.0, 3.0),
            allocations=((1.0,) * 5, (0.6,) * 5),
            gamma=0.0,
        )
        with pytest.raises(ValidationError, match="cap"):
            best_response_grid(scenario, 2, 64)

    def test_one_battlefield_gets_no_more_steps_than_two(self, monkeypatch):
        # The search's memory grows with the step count, so one
        # battlefield is capped as two are: 4096 = 64**2 steps.
        scenario = Scenario.create(
            totals=(4.0, 3.0, 2.0), allocations=((4.0,), (3.0,), (2.0,)), gamma=1.1
        )
        assert best_response_grid(scenario, 2, 4096).player == 2

        def refuse(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(qblotto.sweep, "_phase_axis_strengths", refuse)
        with pytest.raises(ValidationError, match="^4097 phase grid steps on 1 "):
            best_response_grid(scenario, 2, 4097)


def exhaustive_best_response(scenario, player, steps):
    """Reference search: evaluate every point of the phase grid.

    Walks the grid in lexicographic order, most significant battlefield
    first, and keeps the first point reaching the best payoff.
    """
    angles, base_phases = strategies_of(scenario)
    gamma, pattern = scenario.gamma, scenario.sign_pattern
    n = scenario.num_battlefields
    axis = [float(v) for v in np.linspace(0.0, HALF_PI, steps)]

    best_payoff = None
    best_phases = ()
    counters = [0] * n
    while True:
        phases = tuple(axis[c] for c in counters)
        moved = list(base_phases)
        moved[player - 1] = phases
        table = evaluate_strategies(angles, moved, gamma, pattern, scenario.eps)
        payoff = table.payoffs[player - 1]
        if best_payoff is None or payoff > best_payoff:
            best_payoff = payoff
            best_phases = phases
        # lexicographic increment, most significant axis first
        slot = n - 1
        while slot >= 0:
            counters[slot] += 1
            if counters[slot] < steps:
                break
            counters[slot] = 0
            slot -= 1
        if slot < 0:
            break
    return BestResponse(player=player, payoff=best_payoff, phases=best_phases)


def _split(rng, total, n, integer):
    """Random non-negative n-part split of ``total``."""
    draw = rng.randint if integer else rng.uniform
    cuts = sorted(draw(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_grid_scenario(rng, num_players, n, gamma):
    """Integer splits make ties likely; phases are zero or random."""
    blotto = rng.randint(2, 8)
    totals = [blotto] + [rng.randint(1, blotto) for _ in range(num_players - 1)]
    integer = rng.random() < 0.5
    allocations = [_split(rng, total, n, integer) for total in totals]
    phases = [
        [rng.choice((0.0, rng.uniform(0.0, 2 * math.pi))) for _ in range(n)]
        for _ in totals
    ]
    return Scenario.create(totals, allocations, gamma, phases=phases)


# Largest steps per (players, battlefields): the reference costs steps**n
# evaluations.
DIFFERENTIAL_STEPS = {
    (3, 1): 9, (3, 2): 9, (3, 3): 4,
    (5, 1): 9, (5, 2): 6, (5, 3): 3,
}


@pytest.mark.parametrize("num_players, n", sorted(DIFFERENTIAL_STEPS))
def test_separable_search_matches_exhaustive_reference(num_players, n):
    rng = random.Random(100 * num_players + n)
    for rep in range(4):
        for player in range(1, num_players + 1):
            gamma = 0.0 if rep == 0 else rng.uniform(0.1, HALF_PI)
            scenario = random_grid_scenario(rng, num_players, n, gamma)
            steps = rng.randint(2, DIFFERENTIAL_STEPS[num_players, n])
            assert best_response_grid(scenario, player, steps) == (
                exhaustive_best_response(scenario, player, steps)
            ), (scenario, player, steps)


def evaluated_strengths(angles, phases, gamma, pattern):
    return evaluate_strategies(angles, phases, gamma, pattern).values


def direct_best_response(scenario, player, steps, strengths=evaluated_strengths):
    """Reference search: evaluate every value of the phase axis.

    One evaluation per axis value, with all of the player's phases at
    that value; the first index maximizing each battlefield's term wins.
    ``strengths(angles, phases, gamma, pattern)`` gives an evaluation's
    strength grid.
    """
    angles, phases = strategies_of(scenario)
    phases = list(phases)
    gamma, pattern, eps = scenario.gamma, scenario.sign_pattern, scenario.eps
    n = scenario.num_battlefields
    axis = [float(v) for v in np.linspace(0.0, HALF_PI, steps)]

    rows = []
    for phase in axis:
        phases[player - 1] = (phase,) * n
        values = strengths(angles, phases, gamma, pattern)
        rows.append(payoff_terms(values, eps)[1][player - 1])
    terms = np.array(rows)
    return BestResponse(
        player=player,
        payoff=int(terms.max(axis=0).sum()),
        phases=tuple(axis[s] for s in terms.argmax(axis=0)),
    )


def with_copied_rival(rng, scenario, **changes):
    """One rival (never Blotto) takes another player's budget and move.

    ``changes`` are further fields to replace in the same build.
    """
    players = range(1, scenario.num_players + 1)
    target = rng.randint(2, scenario.num_players)
    source = rng.choice([j for j in players if j != target])
    rows = {
        name: list(getattr(scenario, name))
        for name in ("totals", "allocations", "phases")
    }
    for row in rows.values():
        row[target - 1] = row[source - 1]
    rows = {name: tuple(row) for name, row in rows.items()}
    return replace(scenario, **rows, **changes)


def differential_case(rng, num_players):
    """A seeded search: scenario, player and steps under the grid cap.

    At eps = 0 a fractional split can miss its budget by an ulp; such a
    scenario is invalid and is drawn again.
    """
    n = rng.randint(1, 4)
    # even player counts admit only gamma = 0
    classical = num_players % 2 == 0 or rng.random() < 0.2
    gamma = 0.0 if classical else rng.uniform(0.05, HALF_PI)
    eps = rng.choice((0.0, 1e-9, 1e-3))
    copied = rng.random() < 0.3
    while True:
        scenario = random_grid_scenario(rng, num_players, n, gamma)
        try:
            if copied:
                scenario = with_copied_rival(rng, scenario, eps=eps)
            else:
                scenario = replace(scenario, eps=eps)
            break
        except ValidationError:
            pass
    steps = rng.randint(2, 64)
    while steps**n > MAX_GRID_POINTS:
        steps -= 1
    return scenario, rng.randint(1, num_players), steps


# Searches per player count: 304 in all.
DIFFERENTIAL_SEARCHES = {2: 110, 3: 110, 5: 60, 7: 24}


@pytest.mark.parametrize("num_players", sorted(DIFFERENTIAL_SEARCHES))
def test_fitted_search_matches_direct_reference(num_players):
    rng = random.Random(7000 + num_players)
    for _ in range(DIFFERENTIAL_SEARCHES[num_players]):
        scenario, player, steps = differential_case(rng, num_players)
        assert best_response_grid(scenario, player, steps) == (
            direct_best_response(scenario, player, steps)
        ), (scenario, player, steps)


EVEN_PLAYER_GAMES = {
    2: dict(totals=(5.0, 3.0), allocations=((2.5, 2.5), (1.0, 2.0))),
    4: dict(
        totals=(6.0, 4.0, 3.0, 2.0),
        allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 3.0), (1.5, 0.5)),
    ),
}


class TestEvenPlayerCount:
    @pytest.mark.parametrize("num_players", sorted(EVEN_PLAYER_GAMES))
    @pytest.mark.parametrize("gamma", [2e-10, 1e-3, HALF_PI])
    def test_entangled_search_raises_as_evaluate_does(self, num_players, gamma):
        scenario = Scenario.create(gamma=gamma, **EVEN_PLAYER_GAMES[num_players])
        with pytest.raises(NumericalIntegrityError, match="even"):
            evaluate(scenario)
        for player in range(1, num_players + 1):
            with pytest.raises(NumericalIntegrityError, match="even"):
                best_response_grid(scenario, player, 9)

    @pytest.mark.parametrize("num_players", sorted(EVEN_PLAYER_GAMES))
    @pytest.mark.parametrize("gamma", [0.0, 1e-11])
    def test_unentangled_search_matches_direct_reference(self, num_players, gamma):
        scenario = Scenario.create(
            gamma=gamma,
            phases=[(0.3 * j, 1.1) for j in range(num_players)],
            **EVEN_PLAYER_GAMES[num_players],
        )
        for player in range(1, num_players + 1):
            assert best_response_grid(scenario, player, 9) == (
                direct_best_response(scenario, player, 9)
            )


def counting_evaluations(monkeypatch, name="evaluate_strategies", module=qblotto.sweep):
    """Record the calls made to ``<module>.<name>``."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def generic_scenario(rng, num_players, n, gamma=1.1):
    """Fractional budgets, splits and phases: no tie is likely."""
    totals = [6.0] + [rng.uniform(1.0, 6.0) for _ in range(num_players - 1)]
    allocations = []
    for total in totals:
        row = [rng.uniform(0.1, 1.0) for _ in range(n)]
        allocations.append([total * x / sum(row) for x in row])
    phases = [[rng.uniform(0.0, 2 * math.pi) for _ in range(n)] for _ in totals]
    return Scenario.create(totals, allocations, gamma, phases=phases, eps=1e-9)


class TestFittedSearchCost:
    def test_generic_search_runs_no_state_vector(self, monkeypatch, worked_example):
        generic = generic_scenario(random.Random(11), 3, 3)
        calls = counting_evaluations(monkeypatch)
        stages = [
            counting_evaluations(monkeypatch, name, qblotto.engine)
            for name in ("entangle", "disentangle", "player_operator")
        ]
        norms = counting_evaluations(monkeypatch, "check_norm_sq")
        for scenario, player, steps in ((generic, 2, 64), (worked_example, 3, 33)):
            for recorded in [calls, norms, *stages]:
                recorded.clear()
            best = best_response_grid(scenario, player, steps)
            assert len(calls) == 0
            assert [len(recorded) for recorded in stages] == [0, 0, 0]
            # one norm^2 per axis value, checked in one call
            ((norm_sq,),) = norms
            assert norm_sq.shape == (steps,)
            assert np.abs(norm_sq - 1.0).max() <= 1e-14
            assert best == direct_best_response(scenario, player, steps)

    def test_exact_ties_fall_back_within_steps(self, monkeypatch, worked_example):
        # Without entanglement the phases do nothing, so enemy 1 ties
        # its copy exactly at every grid value; at eps = 0 every fitted
        # value must be evaluated.
        scenario = replace(
            worked_example,
            gamma=0.0,
            eps=0.0,
            totals=(6.0, 4.0, 4.0),
            allocations=((3.0, 3.0), (3.0, 1.0), (3.0, 1.0)),
        )
        steps = 17
        calls = counting_evaluations(monkeypatch)
        best = best_response_grid(scenario, 2, steps)
        assert 5 < len(calls) <= steps
        assert best == direct_best_response(scenario, 2, steps)

    def test_margin_at_tie_band_edge_falls_back(
        self, monkeypatch, worked_example
    ):
        # eps set to enemy 1's margin on battlefield 2, which no phase
        # moves without entanglement: every fitted value sits on the
        # band's edge and must be evaluated. No margin is near zero.
        classical = replace(
            worked_example,
            gamma=0.0,
            allocations=((3.0, 3.0), (2.5, 1.5), (0.0, 3.0)),
        )
        table = evaluate_strategies(
            *strategies_of(classical), classical.gamma, classical.sign_pattern
        )
        margin = table.values[1][1] - table.rival_best[1][1]
        assert margin < 0
        scenario = replace(classical, eps=-margin)
        steps = 12
        calls = counting_evaluations(monkeypatch)
        best = best_response_grid(scenario, 2, steps)
        assert len(calls) == steps
        assert best == direct_best_response(scenario, 2, steps)


# Seeded cases per player count; an N=9 evaluation takes up to ~0.2 s,
# so that count runs fewer cases on at most 12 axis values.
AXIS_FORM_CASES = {2: 8, 3: 8, 5: 8, 7: 8, 9: 4}


@pytest.mark.parametrize("num_players", sorted(AXIS_FORM_CASES))
def test_axis_form_predicts_every_grid_value(num_players):
    rng = random.Random(900 + num_players)
    for _ in range(AXIS_FORM_CASES[num_players]):
        scenario, player, steps = differential_case(rng, num_players)
        steps = max(steps, 6) if num_players < 9 else min(max(steps, 6), 12)
        angles, phases = strategies_of(scenario)
        gamma, pattern = scenario.gamma, scenario.sign_pattern
        axis = np.linspace(0.0, HALF_PI, steps)
        form = _phase_axis_strengths(angles, phases, gamma, pattern, player, axis)
        phases = list(phases)
        grids = []
        for phase in axis:
            phases[player - 1] = (phase,) * scenario.num_battlefields
            table = evaluate_strategies(angles, phases, gamma, pattern)
            grids.append(table.values)
        grids = np.array(grids)
        assert np.abs(form - grids).max() <= 1e-14, (scenario, player, steps)


@pytest.mark.parametrize("num_players", [15, 19])
def test_search_cost_does_not_depend_on_player_count(monkeypatch, num_players):
    # A state-vector search at N=15 would form a (2^15 * 2)^2 complex
    # operator, 68.7 GB; the search forms no state at all.
    rng = random.Random(num_players)
    scenario = generic_scenario(rng, num_players, 2)
    player = rng.randint(1, num_players)
    angles, phases = strategies_of(scenario)
    gamma, pattern = scenario.gamma, scenario.sign_pattern
    steps = 5
    axis = np.linspace(0.0, HALF_PI, steps)

    def refuse(*args, **kwargs):
        raise AssertionError("the search formed a state vector or evaluated")

    with monkeypatch.context() as patched:
        for module, name in (
            (qblotto.engine, "entangle"),
            (qblotto.engine, "player_operator"),
            (qblotto.sweep, "evaluate_strategies"),
        ):
            patched.setattr(module, name, refuse)
        best = best_response_grid(scenario, player, steps)
        form = _phase_axis_strengths(angles, phases, gamma, pattern, player, axis)

    grids = []  # the reference's strengths at each axis value, in order

    def strengths(*args):
        grids.append(branch_strengths(*args))
        return grids[-1]

    assert best == direct_best_response(scenario, player, steps, strengths)
    assert np.abs(form - np.array(grids)).max() <= 1e-14
