import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qblotto import (
    Scenario,
    SweepResult,
    SweepSpec,
    ValidationError,
    best_response_grid,
    run_sweep,
)
from qblotto.engine import (
    QuantumStrategy,
    evaluate_strategies,
    strategies_of,
    validate_scenario,
)
from qblotto.sweep import SWEEP_PARAMETERS, BestResponse, check_phase_insensitivity

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

    def test_jobs_do_not_change_results(self, worked_example):
        spec = threshold_sweep_spec(worked_example, steps=11)
        assert run_sweep(spec) == run_sweep(spec, jobs=4)
        with pytest.raises(ValidationError):
            run_sweep(spec, jobs=0)

    def test_refinement_keeps_coarse_vectors(self, worked_example):
        coarse = run_sweep(threshold_sweep_spec(worked_example, steps=11), locate_transitions=False)
        fine = run_sweep(threshold_sweep_spec(worked_example, steps=21), locate_transitions=False)
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
        strategies = strategies_of(base)
        assert len(result.points) == spec.steps
        for point, value in zip(result.points, spec.grid()):
            moved = list(strategies)
            config = base.entangler_config
            if parameter == "phi":
                moved[1] = moved[1].with_phase(1, value)
            elif parameter == "lambda":
                moved[1] = moved[1].with_angle(1, value)
            else:
                config = replace(config, gamma=float(value))
            table = evaluate_strategies(moved, config, base.eps)
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

        lonely = Scenario.create(totals=(3.0,), allocations=((3.0,),), gamma=0.0)
        with pytest.raises(ValidationError, match="two players"):
            best_response_grid(lonely, 1, 5)
        spec = SweepSpec(lonely, 1, 1, "phi", 0.0, 1.0, 3)
        with pytest.raises(ValidationError, match="two players"):
            run_sweep(spec)

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


def exhaustive_best_response(base, player, steps):
    """Reference search: evaluate every point of the phase grid.

    Walks the grid in lexicographic order, most significant battlefield
    first, and keeps the first point reaching the best payoff.
    """
    scenario, _ = validate_scenario(base)
    strategies = list(strategies_of(scenario))
    config = scenario.entangler_config
    n = scenario.num_battlefields
    axis = [float(v) for v in np.linspace(0.0, HALF_PI, steps)]

    best_payoff = None
    best_phases = ()
    counters = [0] * n
    while True:
        phases = tuple(axis[c] for c in counters)
        moved = list(strategies)
        moved[player - 1] = QuantumStrategy(moved[player - 1].angles, phases)
        table = evaluate_strategies(moved, config, scenario.eps)
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
