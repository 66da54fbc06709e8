"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qblotto import NumericalIntegrityError, evaluate, run_sweep
from qblotto.classical import PlayerRoster, classical_payoffs
from qblotto.engine import (
    Scenario,
    measurements,
    player_operator,
    rotation_angle,
    strategies_of,
)
from qblotto.selfcheck import (
    random_classical_scenario,
    random_quantum_scenario,
    golden_scenario,
    golden_measurement_grid,
)
from qblotto.sweep import SweepSpec
from reference import (
    check_phase_insensitivity,
    dagger,
    density_matrix,
    entangler,
    entangler_generator,
    final_state,
    final_state_in_order,
    game_factors,
    partial_trace,
)

QUARTER_PI = math.pi / 4


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS {text}")


def test_criterion_1_golden_measurements():
    scenario = golden_scenario()
    start = time.perf_counter()
    table = evaluate(scenario)
    elapsed = time.perf_counter() - start
    expected = golden_measurement_grid()
    worst = max(
        abs(table.values[j][k] - expected[j][k]) for j in range(3) for k in range(2)
    )
    assert worst <= 1e-10, f"measurement grid off by {worst:.3e}"
    assert elapsed < 1.0, f"golden evaluation took {elapsed:.3f}s"
    _report(1, f"golden measurements within {worst:.2e} in {elapsed * 1e3:.1f} ms")


def test_criterion_2_golden_payoffs():
    scenario = golden_scenario()
    table = evaluate(scenario)
    classical = classical_payoffs(scenario.allocations, PlayerRoster(scenario.totals))
    assert table.payoffs == (0, -1, -1)
    assert classical == (0, -1, -1)
    assert table.payoffs == classical
    _report(2, f"quantum and classical payoffs both {table.payoffs}")


def test_criterion_3_classical_correspondence():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    for trial in range(500):
        scenario = random_classical_scenario(rng)
        table = evaluate(scenario)
        classical = classical_payoffs(
            scenario.allocations, PlayerRoster(scenario.totals), scenario.eps
        )
        assert table.payoffs == classical, (
            f"trial {trial}: {table.payoffs} != {classical} "
            f"for {scenario.allocations}, gamma={scenario.gamma}"
        )
        n = scenario.num_battlefields
        for j in range(3):
            for k in range(n):
                angle = rotation_angle(
                    scenario.allocations[j][k], scenario.blotto_total
                )
                closed = math.sin(angle) ** 2 / n
                assert abs(table.values[j][k] - closed) <= 1e-10, (
                    f"trial {trial}: closed form off by "
                    f"{abs(table.values[j][k] - closed):.3e}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"500 scenarios took {elapsed:.1f}s"
    _report(3, f"500 randomized scenarios agree with the oracle in {elapsed:.1f} s")


def test_criterion_4_phase_sweep_reproduction():
    spec = SweepSpec(
        base=golden_scenario(),
        target_player=3,
        target_battlefield=1,
        parameter="phi",
        lo=0.0,
        hi=math.pi / 2,
        steps=101,
    )
    result = run_sweep(spec)
    assert result.points[0].payoffs == (0, -1, -1)
    assert result.points[0].payoffs[2] == -1

    # The payoff threshold is read at the sweep's stated 1e-6rad
    # resolution: the grid point one ulp above pi/4 is a tie by the
    # 1e-9 measurement tie band and counts as sitting on the threshold.
    margin = 1e-6
    above = [p for p in result.points if p.value > QUARTER_PI + margin]
    assert above, "grid has no points above the threshold"
    assert all(p.payoffs[2] > 0 for p in above)
    below = [p for p in result.points if p.value < QUARTER_PI - margin]
    assert all(p.payoffs[2] == -1 for p in below)

    boundaries = [t.boundary for t in result.transitions]
    closest = min(abs(b - QUARTER_PI) for b in boundaries)
    assert closest <= 1e-6, f"transition localized {closest:.2e} from pi/4"
    _report(
        4,
        f"enemy 2 positive above the threshold, transition within "
        f"{closest:.1e} of pi/4",
    )


def test_criterion_5_interior_phase_insensitivity():
    base = replace(
        golden_scenario(), phases=((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    )
    samples = (0.1, 0.5, 1.0, 1.5)
    report = check_phase_insensitivity(base, player=3, battlefield=2, samples=samples)
    assert report.interior_uniform, f"interior payoffs vary: {report.samples}"
    interior = report.samples[0][1]
    assert interior[2] == 2, f"enemy 2 interior payoff {interior[2]}, expected +2"
    assert report.differs_at_zero
    assert report.zero_payoffs != interior
    _report(
        5,
        f"interior payoffs constant at {interior}, zero-phase point jumps "
        f"to {report.zero_payoffs}",
    )


def test_criterion_6_order_invariance():
    rng = np.random.default_rng(31337)
    worst_residue = 0.0
    for trial in range(100):
        scenario = random_quantum_scenario(rng)
        angles, phases = strategies_of(scenario)
        operators = [
            player_operator(j, angles[j - 1], phases[j - 1], scenario.num_players)
            for j in range(1, scenario.num_players + 1)
        ]
        for a in range(len(operators)):
            for b in range(a + 1, len(operators)):
                residue = float(
                    np.abs(operators[a] @ operators[b] - operators[b] @ operators[a]).max()
                )
                worst_residue = max(worst_residue, residue)
                assert residue < 1e-10, f"trial {trial}: commutator {residue:.3e}"
        baseline = evaluate(scenario).payoffs
        for _ in range(5):
            order = [int(j) for j in rng.permutation(scenario.num_players) + 1]
            psi = final_state_in_order(
                operators, order, scenario.gamma, scenario.sign_pattern
            )
            payoffs = measurements(psi, scenario.num_players, scenario.eps).payoffs
            assert payoffs == baseline, (
                f"trial {trial}: order {order} gave {payoffs}, expected {baseline}"
            )
    _report(
        6,
        f"100 scenarios order-invariant, worst commutator residue "
        f"{worst_residue:.1e}",
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(777)
    scenarios = [golden_scenario()]
    scenarios += [random_classical_scenario(rng) for _ in range(15)]
    scenarios += [random_quantum_scenario(rng) for _ in range(15)]
    for scenario in scenarios:
        count = scenario.num_players
        factors = game_factors(count, scenario.num_battlefields)
        psi = final_state(scenario)
        rho = density_matrix(psi)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert float(np.abs(rho - dagger(rho)).max()) <= 1e-12
        for j in range(1, count + 1):
            reduced = partial_trace(rho, factors, keep={j, count + 1})
            assert abs(np.trace(reduced).real - 1.0) <= 1e-10
            assert float(np.abs(reduced - dagger(reduced)).max()) <= 1e-12

        angles, phases = strategies_of(scenario)
        eye = np.eye(psi.size)
        for j in range(1, count + 1):
            op = player_operator(j, angles[j - 1], phases[j - 1], count)
            assert float(np.abs(dagger(op) @ op - eye).max()) <= 1e-10
        generator = entangler_generator(count, scenario.sign_pattern)
        entangle = entangler(scenario.gamma, generator, count)
        assert float(np.abs(dagger(entangle) @ entangle - eye).max()) <= 1e-10
        for j in range(1, count + 1):
            row = angles[j - 1]
            classical_op = player_operator(j, row, (0.0,) * len(row), count)
            residue = float(
                np.abs(entangle @ classical_op - classical_op @ entangle).max()
            )
            assert residue <= 1e-10
    _report(7, f"{len(scenarios)} scenarios satisfy all structural invariants")


def test_criterion_8_defect_regressions(own_battlefield_excluded):
    scenario = golden_scenario()
    table = evaluate(scenario)
    variant = own_battlefield_excluded(table, scenario.eps)
    assert variant[1] == 0, f"variant enemy 1 payoff {variant[1]}, expected 0"
    assert variant != (0, -1, -1)

    even = Scenario.create(
        totals=(4.0, 4.0, 4.0, 4.0),
        allocations=((2.0, 2.0),) * 4,
        gamma=math.pi / 2,
    )
    with pytest.raises(NumericalIntegrityError, match="even"):
        evaluate(even)
    _report(
        8,
        "own-index payoff variant breaks the golden payoffs and even "
        "player counts are rejected",
    )
