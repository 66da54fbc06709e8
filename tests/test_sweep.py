import cmath
import dataclasses
import math
import random
import re
import sys
import time
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

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
    load_scenario,
    run_sweep,
)
from qblotto.classical import _payoff_terms
from qblotto.cli import _fmt, _sweep_csv
from qblotto.engine import evaluate_strategies, strategies_of
from qblotto.sweep import (
    MAX_SWEEP_STEPS,
    SWEEP_PARAMETERS,
    BestResponse,
    _leave_one_out,
    _phase_axis,
    _phase_axis_strengths,
)
from reference import branch_strengths, check_phase_insensitivity

HALF_PI = math.pi / 2
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            ("0", True, "^lo must be a number, got '0'"),
            (0.0, True, "^hi must be a number, got True"),
            (np.True_, 1.0, "^lo must be a number, got "),
            (0.0, 10**400, "^hi is too large for a float"),
        ],
        ids=["str-lo", "bool-hi", "numpy-bool-lo", "huge-hi"],
    )
    def test_range_follows_the_number_rule(self, worked_example, lo, hi, message):
        # not coerced to the range 0.0 to 1.0 by float()
        with pytest.raises(ValidationError, match=message):
            SweepSpec(worked_example, 3, 1, "phi", lo, hi, 5)

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (0.0, math.inf, "^battlefield 2 phase inf is not finite$"),
            (math.nan, 1.0, "^battlefield 2 phase nan is not finite$"),
            (-1e308, 1e308, "^sweep range -1e\\+308 to 1e\\+308 is wider than a float"),
        ],
        ids=["inf-hi", "nan-lo", "overflowing-width"],
    )
    def test_phi_range_must_be_finite(self, worked_example, lo, hi, message):
        # refused when built, not by a nan out of the grid or its width
        with pytest.raises(ValidationError, match=message):
            SweepSpec(worked_example, 3, 2, "phi", lo, hi, 3)

    def test_numeric_range_stored_as_floats(self, worked_example):
        # passes at the parent too: numbers are still accepted
        spec = SweepSpec(worked_example, 3, 1, "phi", 0, np.float32(0.5), 5)
        assert (spec.lo, spec.hi) == (0.0, 0.5)
        assert type(spec.lo) is float and type(spec.hi) is float

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

    def test_phi_sweep_reduces_as_evaluate_does(self):
        # The swept phase reached the engine unreduced, while evaluate
        # reduces a scenario's phases into [0, 2*pi): on this sweep 39 of
        # the 41 points' strengths differed from evaluate's in the last bits.
        base, _ = load_scenario(SCENARIOS / "quantum_move.json")
        result = run_sweep(SweepSpec(base, 2, 1, "phi", 20.0, 30.0, 41))
        for value, payoffs, cells in result.rows():
            phases = [list(row) for row in base.phases]
            phases[1][0] = value
            table = evaluate(replace(base, phases=phases))
            assert payoffs == table.payoffs
            expected = array("d", [v for row in table.values for v in row])
            assert array("d", cells).tobytes() == expected.tobytes()

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
            table = evaluate_strategies(base, angles, phases, gamma)
            assert _point_bits(point.value, point.payoffs, point.values) == (
                _point_bits(value, table.payoffs, table.values)
            )
            assert all(type(p) is int for p in point.payoffs)

    def test_rows_read_the_packed_fields(self, worked_example):
        base = replace(worked_example, phases=((0.0, 0.3), (0.2, 0.0), (1.0, 0.5)))
        result = run_sweep(SweepSpec(base, 2, 2, "lambda", 0.0, HALF_PI, 13))
        grid = result.spec.grid()
        payoffs = array("q", result.payoff_bytes)
        strengths = array("d", result.strength_bytes)
        rows = list(result.rows())
        assert len(rows) == len(grid) == 13
        for i, (value, point_payoffs, cells) in enumerate(rows):
            assert _point_bits(value, point_payoffs, [cells]) == _point_bits(
                grid[i], payoffs[3 * i : 3 * i + 3], [strengths[6 * i : 6 * i + 6]]
            )
            assert all(type(p) is int for p in point_payoffs)
            assert type(cells) is tuple and type(point_payoffs) is tuple
        assert [p.values for p in result.points] == [
            tuple(zip(cells[0::2], cells[1::2])) for _, _, cells in rows
        ]

    def test_round_trip_and_equality(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example, steps=11))
        packed = (result.payoff_bytes, result.strength_bytes)
        again = SweepResult(result.spec, result.transitions, *packed)
        assert again == result
        assert again.points == result.points
        fewer = replace(result, transitions=result.transitions[:1])
        assert fewer != result
        assert fewer.points == result.points
        packing = SweepResult(result.spec, result.transitions, points=result.points)
        assert packing == result
        assert replace(result, points=result.points[:-1]) != result
        # a point's value is not packed: the record's values are the spec's
        off_grid = replace(result.points[0], value=99.0)
        assert replace(result, points=(off_grid,) + result.points[1:]) == result

    def test_record_holds_no_grid_and_72_bytes_per_point(self, worked_example):
        # The parameter values are spec.grid(); only payoffs (3 x 8 B) and
        # strengths (6 x 8 B) are packed at three players on two battlefields.
        result = run_sweep(threshold_sweep_spec(worked_example))
        names = [f.name for f in dataclasses.fields(SweepResult)]
        assert names == ["spec", "transitions", "payoff_bytes", "strength_bytes"]
        packed = len(result.payoff_bytes) + len(result.strength_bytes)
        assert packed == 72 * 101

    def test_packed_result_is_much_smaller_than_points(self, worked_example):
        result = run_sweep(threshold_sweep_spec(worked_example))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            points = result.points
            unpacked = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        packed = (result.spec.grid(), result.payoff_bytes, result.strength_bytes)
        packed_size = sum(map(sys.getsizeof, packed))
        assert len(points) == 101
        assert packed_size * 3 < unpacked, (packed_size, unpacked)

    def test_peak_memory_per_grid_point(self, worked_example):
        # Evaluating the whole grid before packing it peaked at 755 B per
        # point; packing each point as it is evaluated peaks near 200 B.
        run_sweep(threshold_sweep_spec(worked_example, steps=2))
        spec = threshold_sweep_spec(worked_example, steps=4096)
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 300 * spec.steps, peak / spec.steps


def two_pass_sweep(spec):
    """Reference sweep: evaluate every grid value, then bisect changing cells.

    Returns the transitions, the grid values, and the payoffs and strengths
    packed as ``SweepResult`` holds them.
    """
    evaluate_at = qblotto.sweep._evaluator(spec)
    values = [float(v) for v in spec.grid()]
    tables = [evaluate_at(v) for v in values]
    transitions = []
    for i in range(len(values) - 1):
        below, above = tables[i].payoffs, tables[i + 1].payoffs
        if below != above:
            transitions += qblotto.sweep._bisect_transitions(
                evaluate_at, values[i], values[i + 1], below, above
            )
    payoffs = [p for t in tables for p in t.payoffs]
    strengths = [v for t in tables for row in t.values for v in row]
    return (
        transitions,
        values,
        array("q", payoffs).tobytes(),
        array("d", strengths).tobytes(),
    )


def random_sweep_spec(rng, max_steps=33):
    """A seeded sweep: N 3 or 5, n 1-3, any parameter, 2 to ``max_steps`` steps."""
    num_players, n = rng.choice((3, 5)), rng.randint(1, 3)
    scenario = random_grid_scenario(rng, num_players, n, rng.uniform(0.1, HALF_PI))
    parameter = rng.choice(SWEEP_PARAMETERS)
    if parameter == "phi":
        lo, hi = sorted(rng.uniform(-1.0, 7.0) for _ in range(2))
    else:
        lo, hi = sorted(rng.uniform(0.0, HALF_PI) for _ in range(2))
    return SweepSpec(
        scenario,
        rng.randint(1, num_players),
        rng.randint(1, n),
        parameter,
        lo,
        hi,
        rng.randint(2, max_steps),
    )


def test_one_pass_sweep_matches_two_pass_reference():
    rng = random.Random(17)
    changing = 0
    for _ in range(300):
        spec = random_sweep_spec(rng)
        result = run_sweep(spec)
        transitions, values, *packed = two_pass_sweep(spec)
        assert [value.hex() for value, _, _ in result.rows()] == [
            value.hex() for value in values
        ], spec
        assert [result.payoff_bytes, result.strength_bytes] == packed, spec
        bits = [(t.boundary.hex(), t.below, t.above) for t in result.transitions]
        assert bits == [(t.boundary.hex(), t.below, t.above) for t in transitions]
        changing += bool(transitions)
    assert changing >= 75, changing  # a quarter of the sweeps bisect


def points_sweep_csv(result):
    """``qblotto sweep``'s CSV as it was built before streaming: from ``points``."""
    num_players = result.spec.base.num_players
    num_battlefields = result.spec.base.num_battlefields
    payoff_cols = ",".join(f"payoff_p{j}" for j in range(1, num_players + 1))
    value_cols = ",".join(
        f"m_p{j}_b{k}"
        for j in range(1, num_players + 1)
        for k in range(1, num_battlefields + 1)
    )
    lines = [f"param_value,{payoff_cols},{value_cols}"]
    for point in result.points:
        payoffs = ",".join(str(p) for p in point.payoffs)
        cells = ",".join(_fmt(v) for row in point.values for v in row)
        lines.append(f"{_fmt(point.value)},{payoffs},{cells}")
    return "\n".join(lines) + "\n"


def test_streamed_csv_matches_points_reference():
    rng = random.Random(18)
    for _ in range(300):
        result = run_sweep(random_sweep_spec(rng, max_steps=101))
        streamed = "".join(_sweep_csv(result))
        assert streamed.encode() == points_sweep_csv(result).encode(), result.spec
        assert streamed.count("\n") == result.spec.steps + 1


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
        # 2 players on 5 battlefields hold 17 floats per step: 15,421
        # steps are over the 2**18 cap
        scenario = Scenario.create(
            totals=(5.0, 3.0),
            allocations=((1.0,) * 5, (0.6,) * 5),
            gamma=0.0,
        )
        with pytest.raises(ValidationError, match="cap"):
            best_response_grid(scenario, 2, 15421)

    def test_cap_is_the_floats_the_search_holds(self, monkeypatch):
        # 3 players on one battlefield hold 3 + 7 floats per step, so
        # 26,214 steps fit in 2**18 floats and 26,215 do not.
        scenario = Scenario.create(
            totals=(4.0, 3.0, 2.0), allocations=((4.0,), (3.0,), (2.0,)), gamma=1.1
        )
        assert best_response_grid(scenario, 2, 26214).player == 2

        def refuse(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(qblotto.sweep, "_phase_axis_strengths", refuse)
        with pytest.raises(ValidationError, match="^26215 phase grid steps on 1 "):
            best_response_grid(scenario, 2, 26215)

    def test_every_search_the_grid_rule_admitted_runs(self, monkeypatch):
        # The cap was steps**max(n, 2) <= 64**4. At each battlefield count
        # that rule admitted, its largest step count must still reach the
        # search with the most players a scenario admits (2**N * n <= 2**20).
        class Ran(Exception):
            pass

        def ran(*args):
            raise Ran

        monkeypatch.setattr(qblotto.sweep, "_phase_axis_strengths", ran)
        for n in range(1, 25):
            steps = max(s for s in range(2, 4097) if s ** max(n, 2) <= 64**4)
            players = max(p for p in range(2, 21) if 2**p * n <= 2**20)
            scenario = Scenario.create(
                totals=(2.0 * n,) + (1.0 * n,) * (players - 1),
                allocations=((2.0,) * n,) + ((1.0,) * n,) * (players - 1),
                gamma=0.0,
            )
            with pytest.raises(Ran):
                best_response_grid(scenario, 2, steps)

    def test_axis_is_linspace_bit_for_bit(self):
        # The axis is np.linspace's at every step count up to 4096, and
        # the basis rows are its harmonics.
        for steps in range(2, 4097):
            axis, basis = _phase_axis(steps)
            expected = np.linspace(0.0, HALF_PI, steps)
            assert np.array(axis).tobytes() == expected.tobytes(), steps
            harmonics = [np.ones(steps)]
            for p in (expected, 2.0 * expected):
                harmonics += [np.cos(p), np.sin(p)]
            assert basis.tobytes() == np.array(harmonics).tobytes(), steps

    def test_cached_axis_cannot_change_a_result(self, worked_example):
        # More step counts than the cache holds, so the first is evicted
        # and built again; the search must not tell the difference.
        counts = range(5, 17)
        first = [best_response_grid(worked_example, 3, steps) for steps in counts]
        assert _phase_axis.cache_info().currsize <= 8
        assert best_response_grid(worked_example, 3, counts[0]) == first[0]
        for steps, best in zip(counts, first):
            assert best_response_grid(worked_example, 3, steps) == best
        _, basis = _phase_axis(counts[0])
        with pytest.raises(ValueError, match="read-only"):
            basis[1, 0] = 0.5

    def test_cap_checked_before_the_power(self):
        # A grid rule once computed steps**max(n, 2) exactly before it
        # raised: tens of seconds for 10**1000 steps on 2**14 battlefields.
        # The cap is one product; 2 steps there hold 65,550 floats and run.
        n = 2**14
        scenario = Scenario.create(
            totals=(float(n), 1.0), allocations=((1.0,) * n, (1.0 / n,) * n), gamma=0.0
        )
        for steps in (10**1000, 4097):
            start = time.perf_counter()
            with pytest.raises(ValidationError, match=f"^{steps} phase grid steps on {n} "):
                best_response_grid(scenario, 2, steps)
            assert time.perf_counter() - start < 1.0
        assert len(best_response_grid(scenario, 2, 2).phases) == n


def exhaustive_best_response(scenario, player, steps):
    """Reference search: evaluate every point of the phase grid.

    Walks the grid in lexicographic order, most significant battlefield
    first, and keeps the first point reaching the best payoff.
    """
    angles, base_phases = strategies_of(scenario)
    n = scenario.num_battlefields
    axis = [float(v) for v in np.linspace(0.0, HALF_PI, steps)]

    best_payoff = None
    best_phases = ()
    counters = [0] * n
    while True:
        phases = tuple(axis[c] for c in counters)
        moved = list(base_phases)
        moved[player - 1] = phases
        table = evaluate_strategies(scenario, angles, moved, scenario.gamma)
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


def direct_best_response(scenario, player, steps, strengths=None):
    """Reference search: evaluate every value of the phase axis.

    One evaluation per axis value, with all of the player's phases at
    that value; the first index maximizing each battlefield's term wins.
    ``strengths(angles, phases, gamma, pattern)`` gives an evaluation's
    strength grid, by default the engine's with ``scenario`` as base.
    """
    if strengths is None:

        def strengths(angles, phases, gamma, pattern):
            return evaluate_strategies(scenario, angles, phases, gamma).values

    angles, phases = strategies_of(scenario)
    phases = list(phases)
    gamma, pattern, eps = scenario.gamma, scenario.sign_pattern, scenario.eps
    n = scenario.num_battlefields
    axis = [float(v) for v in np.linspace(0.0, HALF_PI, steps)]

    rows = []
    for phase in axis:
        phases[player - 1] = (phase,) * n
        values = strengths(angles, phases, gamma, pattern)
        rows.append(_payoff_terms(np.asarray(values).tolist(), eps)[player - 1])
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


# Bound on the steps**n grid a differential case stands for.
REFERENCE_GRID_POINTS = 64**4


def differential_case(rng, num_players):
    """A seeded search: scenario, player and steps, steps**n under the bound.

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
    while steps**n > REFERENCE_GRID_POINTS:
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


def cap_scenario(rng, n, eps, copied):
    """A seeded N=3 scenario whose splits are quarters, so eps = 0 builds.

    With ``copied``, enemy 2 holds enemy 1's budget and split at zero
    phase, so the two play the same move at enemy 1's first axis value.
    """
    totals = [6.0, rng.randint(8, 24) / 4, rng.randint(4, 24) / 4]
    allocations = [[x / 4 for x in _split(rng, int(4 * t), n, True)] for t in totals]
    phases = [[rng.uniform(0.0, 2 * math.pi) for _ in range(n)] for _ in totals]
    if copied:
        totals[2], allocations[2], phases[2] = totals[1], allocations[1], [0.0] * n
    gamma = rng.uniform(0.05, HALF_PI)
    return Scenario.create(totals, allocations, gamma, phases=phases, eps=eps)


@pytest.mark.parametrize(
    "seed, n, eps, steps, copied",
    [
        (1, 1, 0.0, 4096, False),
        (2, 1, 1e-9, 2048, False),
        (0, 2, 0.0, 2048, True),
        (4, 2, 1e-9, 4096, False),
        (5, 6, 1e-9, 64, False),
        (6, 6, 0.0, 64, True),
    ],
)
def test_search_at_the_step_cap_matches_direct_reference(
    monkeypatch, seed, n, eps, steps, copied
):
    # The coefficient matrix sums in its own order, so fitted values move
    # by ulps against an evaluation; at thousands of axis values, or on
    # six battlefields (64 steps at N = 3 hold 64 * 25 floats), the
    # search must still equal evaluating each one.
    rng = random.Random(seed)
    scenario = cap_scenario(rng, n, eps, copied)
    player = 2 if copied else rng.randint(1, 3)
    calls = counting_evaluations(monkeypatch)
    best = best_response_grid(scenario, player, steps)
    assert (len(calls) > 0) == copied  # the tie at zero phase sends one to the guard
    assert best == direct_best_response(scenario, player, steps)


def channel_leave_one_out(factors, scale):
    """One channel's prefix-times-suffix pass, in the search's order."""
    products = [scale]
    for factor in factors[:-1]:
        products.append(products[-1] * factor)
    suffix = 1.0
    for l in range(len(factors) - 1, 0, -1):
        suffix *= factors[l]
        products[l - 1] *= suffix
    return products


@pytest.mark.parametrize("count", [1, 2, 3, 5, 9])
def test_leave_one_out_matches_quadratic_products(count):
    # Four channels in one pass, each as a pass of its own would give it,
    # bit for bit, and within rounding of the quadratic products.
    rng = random.Random(count)
    for zeros in range(min(count, 3) + 1):
        draw = [rng.uniform(-2.0, 2.0) for _ in range(8 * count)]
        values = [complex(x, y) for x, y in zip(draw[::2], draw[1::2])]
        factors = [tuple(values[4 * l : 4 * l + 4]) for l in range(count)]
        for i in rng.sample(range(count), zeros):
            tau = -2j * 0.6 * 0.8 * math.sin(0.0)  # tau at zero phase
            factors[i] = (tau, *factors[i][1:3], -tau)
        scale = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        products = _leave_one_out(factors, scale)
        assert len(products) == count
        for channel in range(4):
            column = [factor[channel] for factor in factors]
            got = [p[channel] for p in products]
            assert got == channel_leave_one_out(column, scale[channel])
            for left_out, value in enumerate(got):
                want = scale[channel]
                for i, factor in enumerate(column):
                    if i != left_out:
                        want *= factor
                assert cmath.isclose(value, want, rel_tol=1e-14), (factors, scale)
                assert (value == 0) == (want == 0)  # a zero factor is exact, never 0/0


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
            # one call, on the axis value's norm^2 furthest from 1
            ((norm_sq,),) = norms
            assert abs(norm_sq - 1.0) <= 1e-14
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
        angles, phases = strategies_of(classical)
        table = evaluate_strategies(classical, angles, phases, classical.gamma)
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
        form = _phase_axis_strengths(angles, phases, gamma, pattern, player, steps)
        phases = list(phases)
        grids = []
        for phase in axis:
            phases[player - 1] = (phase,) * scenario.num_battlefields
            table = evaluate_strategies(scenario, angles, phases, gamma)
            grids.append(table.values)
        grids = np.array(grids)
        assert np.abs(form - grids).max() <= 1e-14, (scenario, player, steps)


def test_axis_norm_check_reports_the_worst_value(monkeypatch, worked_example):
    # Every battlefield's norm^2 gains 0.5 sin 2p: on the axis 0, pi/8,
    # ..., pi/2 only the inner values drift, pi/4 the furthest.
    form = qblotto.sweep._battlefield_form

    def drifting(*args):
        cells, norm = form(*args)
        return cells, (*norm[:4], norm[4] + 0.5)

    monkeypatch.setattr(qblotto.sweep, "_battlefield_form", drifting)
    with pytest.raises(NumericalIntegrityError, match=r"norm\^2 = 1\.(5|49999)"):
        best_response_grid(worked_example, 3, 5)


@pytest.mark.parametrize("rise", [4.0, math.nan], ids=["above-one", "nan"])
def test_axis_range_check_names_the_first_bad_cell(monkeypatch, worked_example, rise):
    # Enemy 1's constant coefficient on battlefield 2 rises by 2n = 4
    # (the form is n times the strength), so that strength lies above 1,
    # or is NaN, at every axis value; no other cell moves.
    form = qblotto.sweep._battlefield_form
    battlefields = []

    def rising(*args):
        cells, norm = form(*args)
        battlefields.append(args)
        if len(battlefields) == 2:
            cells[1] = (cells[1][0] + rise, *cells[1][1:])
        return cells, norm

    monkeypatch.setattr(qblotto.sweep, "_battlefield_form", rising)
    message = r"^measurement for player 2, battlefield 2 outside \[0, 1\]: "
    with pytest.raises(NumericalIntegrityError, match=message):
        best_response_grid(worked_example, 3, 5)


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
        form = _phase_axis_strengths(angles, phases, gamma, pattern, player, steps)

    grids = []  # the reference's strengths at each axis value, in order

    def strengths(*args):
        grids.append(branch_strengths(*args))
        return grids[-1]

    assert best == direct_best_response(scenario, player, steps, strengths)
    assert np.abs(form - np.array(grids)).max() <= 1e-14
