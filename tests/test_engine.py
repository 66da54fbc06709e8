import cmath
import itertools
import math
import random
import re
from array import array
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qblotto.classical
import qblotto.engine
import qblotto.sweep
from qblotto import (
    DimensionError,
    NumericalIntegrityError,
    Scenario,
    SweepSpec,
    ValidationError,
    evaluate,
    run_sweep,
)
from qblotto.classical import sgn_eps
from qblotto.engine import (
    disentangle,
    entangle,
    evaluate_strategies,
    evolve_strategies,
    measurements,
    player_operator,
    reduced_phase,
    rotation_angle,
    scenario_notices,
    strategies_of,
)
from reference import (
    allclose,
    dagger,
    density_matrix,
    entangler,
    entangler_generator,
    expectation,
    final_state,
    final_state_in_order,
    game_factors,
    initial_state,
    kron,
    kron_all,
    partial_trace,
    strategy_gate,
)
from test_classical import brute_force_payoffs, brute_force_terms

HALF_PI = math.pi / 2
GOLDEN_GRID = (
    (0.25, 0.25),
    (0.25, 0.5 * math.sin(math.pi / 12) ** 2),
    (0.0, 0.25),
)
# The worked example's allocations with Blotto over budget on battlefield
# 1; the row still sums to 6 within the default eps.
OVER_BUDGET = ((6.0000000001, 0.0), (3.0, 1.0), (0.0, 3.0))


def grid_bits(grid):
    """A float grid's bytes, so equal grids are equal bit for bit."""
    return array("d", [v for row in grid for v in row]).tobytes()


# ---------------------------------------------------------------------------
# independent amplitude-level oracle: explicit basis-state loops, no matrices
# ---------------------------------------------------------------------------

def hand_evolve(allocations, phases, blotto_total, gamma, sign_pattern):
    num_players = len(allocations)
    n = len(allocations[0])
    keys = [
        spins + (k,)
        for spins in itertools.product((0, 1), repeat=num_players)
        for k in range(n)
    ]
    state = {key: 0j for key in keys}
    for k in range(n):
        state[(0,) * num_players + (k,)] = 1.0 / math.sqrt(n)

    def generator_applied(source):
        out = {key: 0j for key in keys}
        for key, amp in source.items():
            spins, k = key[:-1], key[-1]
            coeff = (-1.0) ** num_players * (1j * sign_pattern[k]) * amp
            flipped = []
            for s in spins:
                if s == 0:
                    coeff = -coeff  # flip block sends state 0 to -(state 1)
                    flipped.append(1)
                else:
                    flipped.append(0)
            out[tuple(flipped) + (k,)] += coeff
        return out

    def entangler_applied(source, sign):
        rotated = generator_applied(source)
        c, s = math.cos(gamma / 2), math.sin(gamma / 2)
        return {key: c * source[key] + sign * 1j * s * rotated[key] for key in keys}

    def player_applied(source, player):
        out = {key: 0j for key in keys}
        for key, amp in source.items():
            spins, k = key[:-1], key[-1]
            lam = HALF_PI * allocations[player - 1][k] / blotto_total
            phi = phases[player - 1][k]
            gate = {
                (0, 0): cmath.exp(1j * phi) * math.cos(lam),
                (0, 1): -math.sin(lam),
                (1, 0): math.sin(lam),
                (1, 1): cmath.exp(-1j * phi) * math.cos(lam),
            }
            s = spins[player - 1]
            for target in (0, 1):
                new = spins[: player - 1] + (target,) + spins[player:]
                out[new + (k,)] += gate[(target, s)] * amp
        return out

    state = entangler_applied(state, +1.0)
    for player in range(1, num_players + 1):
        state = player_applied(state, player)
    state = entangler_applied(state, -1.0)
    return state


def hand_vector(state, num_players, n):
    vec = np.zeros(2**num_players * n, dtype=complex)
    for key, amp in state.items():
        spins, k = key[:-1], key[-1]
        index = 0
        for s in spins:
            index = index * 2 + s
        vec[index * n + k] = amp
    return vec


def hand_measurements(state, num_players, n):
    grid = np.zeros((num_players, n))
    for key, amp in state.items():
        spins, k = key[:-1], key[-1]
        for j in range(num_players):
            if spins[j] == 1:
                grid[j, k] += abs(amp) ** 2
    return grid


# ---------------------------------------------------------------------------
# dense reference: full operators, the checked entangler and partial traces
# ---------------------------------------------------------------------------

def register_projector(k, n):
    projector = np.zeros((n, n), dtype=complex)
    projector[k, k] = 1.0
    return projector


def dense_player_operator(player, angles, phases, num_players):
    """Sum over battlefields of one Kronecker chain per battlefield."""
    n = len(angles)
    dim = 2**num_players * n
    op = np.zeros((dim, dim), dtype=complex)
    identity = np.eye(2, dtype=complex)
    for k in range(n):
        factors = [identity] * num_players
        factors[player - 1] = strategy_gate(angles[k], phases[k])
        factors.append(register_projector(k, n))
        op += kron_all(factors)
    return op


def dense_evaluate(angles, phases, gamma, sign_pattern, eps, order):
    """Strengths and payoffs with every operator and the density matrix formed."""
    count = len(angles)
    n = len(angles[0])
    generator = entangler_generator(count, sign_pattern)
    entangle = entangler(gamma, generator, count)
    psi = entangle @ initial_state(count, n)
    for j in order:
        psi = dense_player_operator(j, angles[j - 1], phases[j - 1], count) @ psi
    psi = dagger(entangle) @ psi

    rho = density_matrix(psi)
    committed = np.diag([0.0, 1.0]).astype(complex)
    grid = np.empty((count, n))
    for j in range(count):
        reduced = partial_trace(rho, game_factors(count, n), keep={j + 1, count + 1})
        for k in range(n):
            grid[j, k] = expectation(kron(committed, register_projector(k, n)), reduced)
    payoffs = tuple(
        sum(
            sgn_eps(grid[j, k] - np.delete(grid[:, k], j).max(), eps)
            for k in range(n)
        )
        for j in range(count)
    )
    return grid, payoffs


def dense_generator_evaluate(scenario):
    """evaluate() with the entangler applied through the dense generator."""
    count, n = scenario.num_players, scenario.num_battlefields
    generator = entangler_generator(count, scenario.sign_pattern)
    c, s = math.cos(scenario.gamma / 2.0), math.sin(scenario.gamma / 2.0)
    psi = initial_state(count, n)
    psi = c * psi + (1j * s) * (generator @ psi)
    angles, phases = strategies_of(scenario)
    for player in range(1, count + 1):
        op = player_operator(player, angles[player - 1], phases[player - 1], count)
        psi = op @ psi
    psi = c * psi - (1j * s) * np.conj(np.conj(psi) @ generator)
    return measurements(scenario, psi)


def random_strategy(rng, n):
    """One player's random ``(angles, phases)`` rows; 20% of phases zero."""
    phases = rng.uniform(0.0, 2 * math.pi, n) * (rng.random(n) < 0.8)
    return tuple(rng.uniform(0.0, HALF_PI, n)), tuple(phases)


def grid_base(count, pattern, **options):
    """A scenario with ``count`` players and sign pattern ``pattern``.

    Random strategy grids of that shape are evaluated with it, which
    gives them its sign pattern and its tie tolerance: ``options`` go to
    :meth:`Scenario.create`.
    """
    allocations = [(1.0,) + (0.0,) * (len(pattern) - 1)] * count
    return Scenario.create(
        (1.0,) * count, allocations, 0.0, sign_pattern=pattern, **options
    )


def random_scenario(rng, count, n, gamma):
    blotto = float(rng.uniform(1.0, 20.0))
    totals = [blotto] + [float(rng.uniform(0.1, blotto)) for _ in range(count - 1)]
    phases = rng.uniform(0.0, 2 * math.pi, (count, n)) * (rng.random((count, n)) < 0.8)
    return Scenario.create(
        totals=totals,
        allocations=[rng.dirichlet(np.ones(n)) * t for t in totals],
        gamma=gamma,
        phases=phases,
        sign_pattern=[int(s) for s in rng.choice((-1, 1), n)],
    )


# ---------------------------------------------------------------------------


class TestRotationAngle:
    def test_worked_values(self):
        assert rotation_angle(3, 6) == pytest.approx(math.pi / 4, abs=1e-15)
        assert rotation_angle(0, 6) == 0.0
        assert rotation_angle(1, 6) == pytest.approx(math.pi / 12, abs=1e-15)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.5, 100.0, allow_nan=False),
    )
    def test_monotone_in_commitment(self, a, b, total):
        lo, hi = sorted((a * total, b * total))
        assert rotation_angle(lo, total) <= rotation_angle(hi, total)
        assert 0.0 <= rotation_angle(hi, total) <= HALF_PI


class TestStrategyGate:
    def test_identity(self):
        assert allclose(strategy_gate(0.0, 0.0), np.eye(2), 0.0)

    def test_plain_rotation(self):
        r = math.sqrt(2) / 2
        expected = np.array([[r, -r], [r, r]])
        assert allclose(strategy_gate(math.pi / 4), expected, 1e-15)

    def test_phase_gate_unitary_unit_det(self):
        gate = strategy_gate(math.pi / 4, math.pi / 3)
        assert allclose(gate @ dagger(gate), np.eye(2), 1e-12)
        assert np.linalg.det(gate) == pytest.approx(1.0, abs=1e-12)

    def test_zero_phase_recovers_rotation(self):
        for angle in (0.0, 0.3, HALF_PI):
            plain = np.array(
                [
                    [math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)],
                ]
            )
            assert allclose(strategy_gate(angle, 0.0), plain, 0.0)


class TestStrategiesOf:
    def test_grids_of_allocations_and_phases(self, worked_example):
        from dataclasses import replace

        scenario = replace(worked_example, phases=((0.0, -0.5), (7.0, 0.0), (1.0, 0.3)))
        angles, phases = strategies_of(scenario)
        assert angles == tuple(
            tuple(rotation_angle(x, 6.0) for x in row) for row in scenario.allocations
        )
        assert angles[1] == (math.pi / 4, rotation_angle(1, 6))
        assert phases == (
            (0.0, -0.5 % (2 * math.pi)),
            (7.0 - 2 * math.pi, 0.0),
            (1.0, 0.3),
        )

    # One input rule at a time raises, where it lives and where the engine
    # and sweeps import it: evaluating and sweeping a built scenario run
    # none of them, and the build that reads that input does.
    @pytest.mark.parametrize(
        "rule, build",
        [
            ("_real", "scenario"),
            ("_real_grid", "scenario"),
            ("_real_budgets", "scenario"),
            ("_sequence", "scenario"),
            ("_is_sign", "scenario"),
            ("check_tie_eps", "scenario"),
            ("_integer", "spec"),
        ],
        ids=[
            "_real", "_real_grid", "_real_budgets", "_sequence", "_is_sign",
            "check_tie_eps", "_integer",
        ],
    )
    def test_built_scenario_is_not_checked_again(
        self, worked_example, monkeypatch, rule, build
    ):
        spec = SweepSpec(worked_example, 3, 1, "phi", 0.0, HALF_PI, 9)
        expected = evaluate(worked_example), run_sweep(spec)

        def refuse(*args):
            raise AssertionError("input rule called after the build")

        patched = [
            module
            for module in (qblotto.classical, qblotto.engine, qblotto.sweep)
            if hasattr(module, rule)
        ]
        assert patched
        for module in patched:
            monkeypatch.setattr(module, rule, refuse)
        assert (evaluate(worked_example), run_sweep(spec)) == expected
        with pytest.raises(AssertionError, match="input rule called after the build"):
            if build == "scenario":
                Scenario.create((6, 4, 3), ((3, 3), (3, 1), (0, 3)), HALF_PI)
            else:
                SweepSpec(worked_example, 3, 1, "phi", 0.0, HALF_PI, 9)


class TestPlayerOperator:
    def test_zero_strategy_is_identity(self):
        op = player_operator(2, (0.0, 0.0), (0.0, 0.0), 3)
        assert allclose(op, np.eye(16), 0.0)

    def test_single_player_block_structure(self):
        # direct 4x4 expansion: block diagonal over the battlefield index
        angles = (rotation_angle(3, 6), rotation_angle(1, 6))
        op = player_operator(1, angles, (0.0, 0.0), 1).reshape(2, 2, 2, 2)
        for k, angle in enumerate((math.pi / 4, math.pi / 12)):
            assert allclose(op[:, k, :, k], strategy_gate(angle), 1e-15)
        assert allclose(op[:, 0, :, 1], np.zeros((2, 2)), 0.0)
        assert allclose(op[:, 1, :, 0], np.zeros((2, 2)), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        count = int(rng.integers(2, 5))
        angles = tuple(rng.uniform(0, HALF_PI, n))
        phases = tuple(rng.uniform(0, 2 * math.pi, n))
        player = int(rng.integers(1, count + 1))
        op = player_operator(player, angles, phases, count)
        assert allclose(dagger(op) @ op, np.eye(op.shape[0]), 1e-12)

    def test_matches_kronecker_reference_exactly(self):
        rng = np.random.default_rng(0x0B5)
        for count in range(2, 7):
            for n in range(1, 5):
                angles, phases = random_strategy(rng, n)
                for player in range(1, count + 1):
                    op = player_operator(player, angles, phases, count)
                    reference = dense_player_operator(player, angles, phases, count)
                    assert np.array_equal(op, reference), (count, n, player)

    def test_blotto_row_without_entanglement(self, worked_example):
        from dataclasses import replace

        table = evaluate(replace(worked_example, gamma=0.0))
        assert table.values[0] == pytest.approx((0.25, 0.25), abs=1e-12)


class TestEntanglerGenerator:
    def test_minimal_case(self):
        generator = entangler_generator(1, (1,))
        expected = np.array([[0.0, -1j], [1j, 0.0]])
        assert allclose(generator, expected, 0.0)
        assert allclose(generator, dagger(generator), 0.0)

    def test_three_player_generator(self):
        generator = entangler_generator(3, (1, -1))
        assert generator.shape == (16, 16)
        assert allclose(generator, dagger(generator), 0.0)
        assert allclose(generator @ generator, np.eye(16), 1e-12)

    def test_even_player_generator_squares_to_minus_identity(self):
        generator = entangler_generator(2, (1, -1))
        assert allclose(generator @ generator, -np.eye(8), 1e-12)
        assert allclose(dagger(generator), -generator, 0.0)

    @pytest.mark.parametrize("count", range(1, 10))
    def test_matrix_free_matches_dense_exactly(self, count):
        # disentangle against c psi - i s (G^+ psi) with G dense. At gamma =
        # pi, J^+ is -i G^+ up to c ~ 6e-17, norm-preserving at any count.
        rng = np.random.default_rng(0x6E4 + count)
        for n in range(1, 5):
            pattern = tuple(int(s) for s in rng.choice((-1, 1), n))
            dense = entangler_generator(count, pattern)
            dim = 2**count * n
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            gammas = (math.pi, float(rng.uniform(0.0, HALF_PI)))
            for gamma in gammas if count % 2 else gammas[:1]:
                c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
                expected = c * psi - (1j * s) * (dense.conj().T @ psi)
                assert np.array_equal(
                    disentangle(psi, count, gamma, pattern), expected
                ), (count, n, gamma)


class TestEntangler:
    @pytest.mark.parametrize("count", range(1, 8))
    def test_start_state_equals_dense_generator_exactly(self, count):
        # J|0...0> written directly, against J applied through dense G
        rng = np.random.default_rng(0x57A7 + count)
        for n in range(1, 5):
            pattern = tuple(int(s) for s in rng.choice((-1, 1), n))
            gamma = float(rng.uniform(0.0, HALF_PI)) if count % 2 else 0.0
            c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
            psi = initial_state(count, n)
            dense = c * psi + (1j * s) * (entangler_generator(count, pattern) @ psi)
            assert np.array_equal(entangle(count, gamma, pattern), dense), (count, n)

    def test_zero_gamma_is_exact_identity(self):
        generator = entangler_generator(3, (1, -1))
        op = entangler(0.0, generator)
        assert np.array_equal(op, np.eye(16, dtype=complex))

    def test_unitary_at_full_entanglement(self):
        generator = entangler_generator(3, (1, -1))
        op = entangler(HALF_PI, generator, 3)
        assert allclose(dagger(op) @ op, np.eye(16), 1e-12)

    def test_commutes_with_classical_strategies(self, worked_example):
        generator = entangler_generator(3, (1, -1))
        op = entangler(HALF_PI, generator, 3)
        angles, phases = strategies_of(worked_example)
        for player in range(1, 4):
            probe = player_operator(player, angles[player - 1], phases[player - 1], 3)
            assert float(np.abs(op @ probe - probe @ op).max()) < 1e-12

    def test_even_player_count_rejected(self):
        generator = entangler_generator(4, (1, -1))
        with pytest.raises(NumericalIntegrityError, match="even"):
            entangler(HALF_PI, generator)

    def test_even_player_count_fine_at_zero_gamma(self):
        generator = entangler_generator(4, (1, -1))
        op = entangler(0.0, generator)
        assert np.array_equal(op, np.eye(32, dtype=complex))

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    @pytest.mark.parametrize("gamma", [1e-11, 5e-11, 2e-10, 1e-3, HALF_PI])
    def test_evaluate_rejects_exactly_when_dense_entangler_does(self, count, gamma):
        # evaluation decides unitarity by |sin(gamma)| for even counts;
        # the dense reference measures max|J^+ J - I| itself
        try:
            entangler(gamma, entangler_generator(count, (1, -1)))
            dense_rejects = False
        except NumericalIntegrityError:
            dense_rejects = True
        assert dense_rejects == (count % 2 == 0 and gamma > 1e-10)
        scenario = Scenario.create(
            totals=(4.0,) * count, allocations=((3.0, 1.0),) * count, gamma=gamma
        )
        if dense_rejects:
            with pytest.raises(NumericalIntegrityError, match="even"):
                evaluate(scenario)
        else:
            evaluate(scenario)


class TestEvolve:
    def test_zero_strategies_leave_initial_state(self):
        # budget rules forbid an all-zero scenario (Blotto must spend a
        # positive budget), so the degenerate case lives at strategy level
        idle = ((0.0, 0.0),) * 3
        psi = evolve_strategies(idle, idle, 0.0, (1, -1))
        assert allclose(psi, initial_state(3, 2), 0.0)

    def test_dense_limit_admits_its_own_dimension(self, worked_example, monkeypatch):
        # the worked example's composite dimension is 2**3 * 2 = 16
        monkeypatch.setattr(qblotto.engine, "MAX_DENSE_DIM", 16)
        assert evaluate(worked_example).payoffs == (0, -1, -1)
        monkeypatch.setattr(qblotto.engine, "MAX_DENSE_DIM", 15)
        # refused before any operator is built
        monkeypatch.setattr(qblotto.engine, "player_operator", None)
        with pytest.raises(ValidationError, match="^composite dimension 16 is over 15,"):
            evaluate(worked_example)

    def test_matches_amplitude_oracle(self, worked_example):
        # a quantum move on the worked example, checked amplitude by amplitude
        from dataclasses import replace

        phases = ((0.0, 0.0), (0.0, 0.0), (math.pi / 3, 0.0))
        scenario = replace(worked_example, phases=phases)
        psi = final_state(scenario)

        state = hand_evolve(
            scenario.allocations, phases, 6.0, HALF_PI, scenario.sign_pattern
        )
        assert allclose(psi, hand_vector(state, 3, 2), 1e-12)

        table = measurements(scenario, psi)
        assert np.abs(
            np.array(table.values) - hand_measurements(state, 3, 2)
        ).max() < 1e-12

    def test_oracle_also_agrees_with_phases_everywhere(self):
        allocations = ((2.0, 1.0, 1.0), (1.0, 1.0, 0.0), (0.5, 1.0, 1.5))
        phases = ((0.3, 0.0, 1.2), (0.0, 2.1, 0.4), (5.9, 0.7, 0.0))
        scenario = Scenario.create(
            totals=(4.0, 2.0, 3.0),
            allocations=allocations,
            gamma=0.9,
            phases=phases,
        )
        psi = final_state(scenario)
        state = hand_evolve(allocations, phases, 4.0, 0.9, scenario.sign_pattern)
        assert allclose(psi, hand_vector(state, 3, 3), 1e-12)

    def test_matches_dense_reference(self):
        # odd counts with entanglement, even counts without; the engine's
        # ascending order against a random order in the dense reference
        rng = np.random.default_rng(0xDE45E)
        cases = [(count, n) for count in (3, 5) for n in (1, 2, 3, 4)] * 3
        cases += [(7, n) for n in (1, 2, 3, 4)]
        cases += [(count, n) for count in (2, 4, 6) for n in (1, 2, 3)]
        for count, n in cases:
            rows = [random_strategy(rng, n) for _ in range(count)]
            if rng.random() < 0.25:
                rows[1] = rows[0]  # exact ties on every battlefield
            angles, phases = (tuple(grid) for grid in zip(*rows))
            gamma = float(rng.uniform(0.0, HALF_PI)) if count % 2 else 0.0
            pattern = tuple(int(s) for s in rng.choice((-1, 1), n))
            order = [int(j) for j in rng.permutation(count) + 1]
            base = grid_base(count, pattern, eps=1e-9)
            table = evaluate_strategies(base, angles, phases, gamma)
            grid, payoffs = dense_evaluate(angles, phases, gamma, pattern, 1e-9, order)
            worst = np.abs(np.array(table.values) - grid).max()
            assert worst <= 1e-12, (count, n, worst)
            assert table.payoffs == payoffs, (count, n)

    def test_evaluate_equals_dense_generator_exactly(self):
        # odd counts with entanglement; even counts at the two gammas the
        # unitarity rule admits
        rng = np.random.default_rng(0x6E40)
        cases = [(count, n, None) for count in (3, 5, 7) for n in (1, 2, 3, 4)] * 2
        cases += [(9, 1, None), (9, 2, None)]
        cases += [
            (count, n, gamma)
            for count in (2, 4, 6)
            for n in (1, 2, 3)
            for gamma in (0.0, 1e-11)
        ]
        for count, n, gamma in cases:
            if gamma is None:
                gamma = float(rng.uniform(0.0, HALF_PI))
            scenario = random_scenario(rng, count, n, gamma)
            assert evaluate(scenario) == dense_generator_evaluate(scenario), (
                count, n, gamma
            )

    def test_order_permutations_agree(self, worked_example):
        from dataclasses import replace

        scenario = replace(worked_example, phases=((0.0, 1.0), (0.2, 0.0), (1.1, 0.3)))
        angles, phases = strategies_of(scenario)
        operators = [
            player_operator(j, angles[j - 1], phases[j - 1], 3) for j in (1, 2, 3)
        ]
        baseline = final_state(scenario)
        for order in ((3, 1, 2), (2, 3, 1), (3, 2, 1)):
            psi = final_state_in_order(
                operators, order, scenario.gamma, scenario.sign_pattern
            )
            assert allclose(psi, baseline, 1e-12)


class TestMeasurements:
    def test_worked_example_grid(self, worked_example):
        table = evaluate(worked_example)
        for j in range(3):
            assert table.values[j] == pytest.approx(GOLDEN_GRID[j], abs=1e-10)

    def test_all_zero_strategies(self):
        idle = ((0.0, 0.0),) * 3
        table = evaluate_strategies(grid_base(3, (1, -1)), idle, idle, HALF_PI)
        assert all(v == pytest.approx(0.0, abs=1e-12) for row in table.values for v in row)

    def test_classical_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.choice((2, 3)))
            blotto = float(rng.uniform(1, 8))
            totals = (blotto, rng.uniform(0, blotto), rng.uniform(0, blotto))
            allocations = tuple(
                tuple(float(x) for x in rng.dirichlet(np.ones(n)) * t) for t in totals
            )
            scenario = Scenario.create(
                totals, allocations, gamma=float(rng.uniform(0, HALF_PI))
            )
            table = evaluate(scenario)
            for j in range(3):
                for k in range(n):
                    angle = rotation_angle(allocations[j][k], blotto)
                    assert table.values[j][k] == pytest.approx(
                        math.sin(angle) ** 2 / n, abs=1e-12
                    )

    def test_reduced_state_matches_enemy2_row(self, worked_example):
        # keep player 3's qubit and the register, then contract by hand
        psi = final_state(worked_example)
        rho = density_matrix(psi)
        reduced = partial_trace(rho, game_factors(3, 2), keep={3, 4})
        assert reduced.shape == (4, 4)
        committed_bf1 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        committed_bf2 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        assert np.trace(committed_bf1 @ reduced).real == pytest.approx(0.0, abs=1e-10)
        assert np.trace(committed_bf2 @ reduced).real == pytest.approx(0.25, abs=1e-10)

    def test_nan_state_fails_range_check(self, worked_example):
        psi = np.full(16, math.nan, dtype=complex)
        with pytest.raises(NumericalIntegrityError, match="outside"):
            measurements(worked_example, psi)

    def test_density_matrix_properties(self, worked_example):
        psi = final_state(worked_example)
        rho = density_matrix(psi)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert allclose(rho, dagger(rho), 1e-12)
        for j in (1, 2, 3):
            reduced = partial_trace(rho, game_factors(3, 2), keep={j, 4})
            assert abs(np.trace(reduced) - 1.0) < 1e-10
            assert allclose(reduced, dagger(reduced), 1e-12)


class TestQuantumPayoffs:
    def test_worked_example(self, worked_example):
        table = evaluate(worked_example)
        assert table.payoffs == (0, -1, -1)

    def test_identical_strategies_tie_everywhere(self):
        scenario = Scenario.create(
            totals=(4.0, 4.0, 4.0),
            allocations=((2.0, 2.0), (2.0, 2.0), (2.0, 2.0)),
            gamma=HALF_PI,
        )
        assert evaluate(scenario).payoffs == (0, 0, 0)

    def test_phase_past_quarter_turn_pays_enemy2(self, worked_example):
        from dataclasses import replace

        scenario = replace(worked_example, phases=((0.0, 0.0), (0.0, 0.0), (0.9, 0.0)))
        table = evaluate(scenario)
        assert table.payoffs[2] > 0

    def test_relabelling_rivals_relabels_payoffs(self):
        # The paper's symmetry at the default tie band; the quantum
        # counterpart of test_classical.py's test_opponent_anonymity.
        # Whole-number allocations, random phases, and on half the draws
        # one rival copies another's budget, allocations and phases.
        rng = np.random.default_rng(0xB1077)
        for _ in range(300):
            count, n = int(rng.choice((3, 5, 7))), int(rng.integers(1, 5))
            blotto = int(rng.integers(1, 4 * n + 1))
            rivals = rng.integers(1, blotto + 1, count - 1).tolist()
            totals = [blotto, *rivals]
            rows = [rng.multinomial(t, np.full(n, 1.0 / n)).tolist() for t in totals]
            phases = rng.uniform(0.0, 2 * math.pi, (count, n)).tolist()
            if rng.random() < 0.5:
                source, copy = rng.choice(np.arange(1, count), 2, replace=False)
                totals[copy], rows[copy] = totals[source], rows[source]
                phases[copy] = phases[source]
            gamma = float(rng.uniform(0.0, HALF_PI))
            pattern = [int(s) for s in rng.choice((-1, 1), n)]
            order = [0, *(1 + rng.permutation(count - 1)).tolist()]
            games = [
                Scenario.create(
                    [totals[j] for j in players],
                    [rows[j] for j in players],
                    gamma,
                    phases=[phases[j] for j in players],
                    sign_pattern=pattern,
                    eps=1e-9,
                )
                for players in (range(count), order)
            ]
            base, relabelled = (evaluate(game).payoffs for game in games)
            assert relabelled == tuple(base[j] for j in order), (totals, rows, order)

    def test_exclude_own_battlefield_variant_breaks_golden(
        self, worked_example, own_battlefield_excluded
    ):
        table = evaluate(worked_example)
        variant = own_battlefield_excluded(table)
        assert variant == (0, 0, -1)
        assert variant != table.payoffs

    def test_rival_best_grid(self, worked_example):
        table = evaluate(worked_example)
        assert table.rival_best[0] == pytest.approx((0.25, 0.25), abs=1e-10)
        assert table.rival_best[2] == pytest.approx((0.25, 0.25), abs=1e-10)

    def test_derived_rival_best_is_payoff_terms_grid_bit_for_bit(self):
        # The derived property against test_classical's straight-line rival
        # best, the grid the payoff rule compares. A fifth of the scenarios
        # have zero phases, and about half copy one player's strategy to a
        # rival, so columns tie exactly.
        rng = np.random.default_rng(1414)
        shapes = [(N, n) for N in range(2, 10) for n in range(1, 5) if 2**N * n <= 1024]
        tied_tops = 0
        for case in range(320):
            N, n = shapes[case % len(shapes)]
            totals = [float(rng.uniform(1.0, 8.0))]
            totals += [float(rng.uniform(0.0, totals[0])) for _ in range(N - 1)]
            allocations = [list(rng.dirichlet(np.ones(n)) * t) for t in totals]
            phases = rng.uniform(-20.0, 20.0, (N, n)).tolist()
            if case % 5 == 0:
                phases = [[0.0] * n for _ in range(N)]
            if case % 2 == 0:
                # the twin is an enemy, so Blotto keeps the largest budget
                source, twin = sorted(rng.choice(N, 2, replace=False))
                totals[twin] = totals[source]
                allocations[twin] = list(allocations[source])
                phases[twin] = list(phases[source])
            gamma = 0.0 if N % 2 == 0 else float(rng.uniform(0.0, HALF_PI))
            scenario = Scenario.create(totals, allocations, gamma, phases=phases)
            table = evaluate(scenario)
            expected, _ = brute_force_terms([list(row) for row in table.values], 0.0)
            derived = np.array(table.rival_best)
            assert derived.shape == (N, n)
            assert all(type(v) is float for row in table.rival_best for v in row)
            expected = np.array(expected)
            assert np.array_equal(derived.view(np.uint64), expected.view(np.uint64))
            ranked = np.sort(table.values, axis=0)
            tied_tops += int((ranked[-1] == ranked[-2]).sum())
        assert tied_tops >= 40  # the tie branch is exercised (87 column tops)

    def test_payoffs_and_rival_best_follow_the_straight_line_rule(self):
        # 306 evaluations against test_classical's straight-line rule, bit
        # for bit. N 9 costs about 100 ms an evaluation, so it runs fewer
        # cases. Budgets are the row sums, so eps 0 admits them; a quarter
        # of the cases have zero phases, and half copy one player's move
        # to a rival, so columns tie exactly.
        rng = random.Random(19)
        counts = {5: 24, 7: 8, 9: 2}
        shapes = [(N, n) for N in counts for n in (2, 3, 4) for _ in range(counts[N])]
        tied_tops = 0
        for case, ((N, n), eps) in enumerate(
            itertools.product(shapes, (0.0, 1e-9, 1e-3))
        ):
            allocations = [[rng.uniform(0.0, 2.0) for _ in range(n)] for _ in range(N)]
            phases = [[rng.uniform(-20.0, 20.0) for _ in range(n)] for _ in range(N)]
            if case % 4 == 0:
                phases = [[0.0] * n for _ in range(N)]
            if case % 2 == 0:
                source, twin = rng.sample(range(N), 2)
                allocations[twin] = list(allocations[source])
                phases[twin] = list(phases[source])
            lead = max(range(N), key=lambda j: sum(allocations[j]))
            for grid in (allocations, phases):  # Blotto holds the largest budget
                grid[0], grid[lead] = grid[lead], grid[0]
            totals = [sum(row) for row in allocations]
            gamma = rng.uniform(0.0, HALF_PI)
            scenario = Scenario.create(totals, allocations, gamma, phases=phases, eps=eps)
            table = evaluate(scenario)
            rows = [list(row) for row in table.values]
            expected_best, _ = brute_force_terms(rows, eps)
            assert table.payoffs == brute_force_payoffs(rows, eps)
            assert grid_bits(table.rival_best) == grid_bits(expected_best)
            tied_tops += sum(
                sorted(column)[-1] == sorted(column)[-2] for column in zip(*rows)
            )
        assert case + 1 == 306
        assert tied_tops >= 40  # the tie branch is exercised (58 column tops)


class TestScenarioValidation:
    def test_single_player_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.create(totals=(3.0,), allocations=((3.0,),), gamma=0.0)

    def test_two_player_notice(self):
        scenario = Scenario.create(
            totals=(3.0, 2.0), allocations=((1.0, 2.0), (1.0, 1.0)), gamma=0.0
        )
        notices = scenario_notices(scenario)
        assert any("two-player" in note for note in notices)

    def test_budget_mismatch_names_player(self, worked_example):
        from dataclasses import replace

        with pytest.raises(ValidationError, match="player 2"):
            replace(worked_example, allocations=((3.0, 3.0), (3.0, 2.0), (0.0, 3.0)))

    def test_phase_reduction_notice(self, worked_example):
        from dataclasses import replace

        scenario = replace(worked_example, phases=((0.0, 0.0), (0.0, 0.0), (7.0, 0.0)))
        notices = scenario_notices(scenario)
        assert strategies_of(scenario)[1][2][0] == pytest.approx(7.0 - 2 * math.pi)
        assert any("reduced" in note for note in notices)

    def test_reduced_phase_stays_below_the_period(self, worked_example):
        from dataclasses import replace

        # a remainder within half an ulp of 2*pi rounds up to 2*pi itself
        rng = np.random.default_rng(11)
        tiny = [-float(x) for x in 10.0 ** rng.uniform(-320, -15, 200)]
        for phase in [*tiny, -2 * math.pi, 2 * math.pi, -0.0, 7.0, -7.0]:
            assert 0.0 <= reduced_phase(phase) < 2 * math.pi, phase
        scenario = replace(
            worked_example, phases=((0.0, 0.0), (0.0, 0.0), (-1e-20, 0.0))
        )
        assert strategies_of(scenario)[1][2][0] == 0.0
        assert scenario_notices(scenario) == [
            "phase for player 3, battlefield 1 reduced from -1e-20 to 0.0 "
            "(period 2*pi)"
        ]

    def test_non_finite_phase_rejected(self, worked_example):
        from dataclasses import replace

        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="not finite"):
                replace(worked_example, phases=((0.0, 0.0), (0.0, 0.0), (bad, 0.0)))

    def test_non_finite_eps_rejected(self, worked_example):
        from dataclasses import replace

        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="tie tolerance"):
                replace(worked_example, eps=bad)

    def test_uniform_sign_pattern_notice(self, worked_example):
        from dataclasses import replace

        scenario = replace(worked_example, sign_pattern=(1, 1))
        notices = scenario_notices(scenario)
        assert any("uniform sign pattern" in note for note in notices)

    def test_gamma_domain(self, worked_example):
        from dataclasses import replace

        for gamma in (-1e-12, 0.0, HALF_PI, HALF_PI + 1e-12):
            assert replace(worked_example, gamma=gamma).gamma == gamma
        for gamma in (-3e-12, HALF_PI + 3e-12, 2.0, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="entanglement parameter"):
                replace(worked_example, gamma=gamma)

    @pytest.mark.parametrize("pattern", [(1, 0), (-2, 1), (1, 3)])
    def test_sign_entries_must_be_plus_or_minus_one(self, worked_example, pattern):
        from dataclasses import replace

        with pytest.raises(ValidationError, match=r"must be \+1 or -1"):
            replace(worked_example, sign_pattern=pattern)

    @pytest.mark.parametrize(
        "pattern, shown",
        [
            ((1.9, -1.5), "(1.9, -1.5)"),
            ((1, -1.0000001), "(1, -1.0000001)"),
            ((True, -1), "(True, -1)"),
            ((1, False), "(1, False)"),
            ((np.True_, -1), repr((np.True_, -1))),
            (("1", -1), "('1', -1)"),
        ],
    )
    def test_sign_entries_are_exactly_plus_or_minus_one(
        self, worked_example, pattern, shown
    ):
        from dataclasses import replace

        message = f"sign pattern entries must be +1 or -1, got {shown}"
        with pytest.raises(ValidationError) as raised:
            Scenario.create(
                (6.0, 4.0, 3.0), ((3, 3), (3, 1), (0, 3)), HALF_PI, sign_pattern=pattern
            )
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as raised:
            replace(worked_example, sign_pattern=pattern)
        assert str(raised.value) == message

    def test_whole_valued_signs_are_stored_as_ints(self, worked_example):
        from dataclasses import replace

        for pattern in ((1.0, -1.0), (np.int64(1), np.float64(-1.0))):
            stored = replace(worked_example, sign_pattern=pattern).sign_pattern
            assert stored == (1, -1)
            assert all(type(s) is int for s in stored)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gamma", True, "entanglement parameter must be a number, got True"),
            ("gamma", False, "entanglement parameter must be a number, got False"),
            ("eps", True, "tie tolerance must be a number, got True"),
            ("eps", np.False_, f"tie tolerance must be a number, got {np.False_!r}"),
        ],
    )
    def test_bool_gamma_and_eps_rejected(self, worked_example, field, value, message):
        from dataclasses import replace

        fields = dict(
            totals=(6.0, 4.0, 3.0),
            allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
            gamma=HALF_PI,
        )
        with pytest.raises(ValidationError) as raised:
            Scenario.create(**{**fields, field: value})
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as raised:
            replace(worked_example, **{field: value})
        assert str(raised.value) == message

    # A build runs the number rule on the budgets once, then the roster
    # rule on its result; it makes no PlayerRoster, which would run the
    # number rule again. A roster built on its own still runs it.
    def test_build_runs_the_budget_number_rule_once(self, monkeypatch):
        from qblotto.classical import PlayerRoster

        real_budgets = qblotto.classical._real_budgets
        calls = []

        def counted(totals):
            calls.append(totals)
            return real_budgets(totals)

        for module in (qblotto.classical, qblotto.engine):
            monkeypatch.setattr(module, "_real_budgets", counted)
        Scenario.create((6, 4, 3), ((3, 3), (3, 1), (0, 3)), HALF_PI)
        assert calls == [(6, 4, 3)]
        roster = PlayerRoster((6, 4, 3))
        assert calls == [(6, 4, 3)] * 2
        assert roster.totals == (6.0, 4.0, 3.0)
        assert all(type(total) is float for total in roster.totals)

    def test_guardrail(self):
        # 2^19 * 2 == 2^20 is the largest composite dimension allowed
        # (never evaluated here: its operators would not fit in memory)
        Scenario.create(totals=(2.0,) * 19, allocations=((1.0, 1.0),) * 19, gamma=0.0)
        with pytest.raises(ValidationError, match="guardrail"):
            Scenario.create(
                totals=(3.0,) * 19, allocations=((1.0, 1.0, 1.0),) * 19, gamma=0.0
            )

    # The rule lives in the constructor, so every way of building meets it.
    @pytest.mark.parametrize("entry", ["create", "replace", "constructor"])
    def test_commitment_above_blottos_budget_rejected_at_build(
        self, worked_example, entry
    ):
        from dataclasses import replace

        message = (
            "troop commitment 6.0000000001 exceeds Blotto's budget 6.0; "
            "no valid allocation can reach this"
        )
        with pytest.raises(ValidationError) as raised:
            if entry == "create":
                Scenario.create((6.0, 4.0, 3.0), OVER_BUDGET, HALF_PI)
            elif entry == "replace":
                replace(worked_example, allocations=OVER_BUDGET)
            else:
                Scenario(
                    worked_example.player_names,
                    worked_example.totals,
                    OVER_BUDGET,
                    worked_example.phases,
                    worked_example.gamma,
                    worked_example.sign_pattern,
                )
        assert str(raised.value) == message

    # Each built, its names split into characters or keys; replace meets
    # the same rule in test_shape_rules.
    @pytest.mark.parametrize("entry", ["create", "constructor"])
    @pytest.mark.parametrize(
        "names, shown",
        [("AB", "'AB'"), (b"AB", "b'AB'"), ({"A": 1, "B": 2}, "{'A': 1, 'B': 2}")],
        ids=["str", "bytes", "dict"],
    )
    def test_names_must_be_a_sequence_of_names(self, names, shown, entry):
        message = f"player names must be a sequence of names, got {shown}"
        with pytest.raises(ValidationError) as raised:
            if entry == "create":
                Scenario.create((6.0, 4.0), [[3.0, 3.0], [2.0, 2.0]], 0.0, names=names)
            else:
                Scenario(
                    names, (6.0, 4.0), ((3.0, 3.0), (2.0, 2.0)),
                    ((0.0, 0.0), (0.0, 0.0)), 0.0, (1, -1),
                )
        assert str(raised.value) == message

    # Each was read in hash order (a set, which PYTHONHASHSEED reorders) or
    # as its keys (a mapping): built, or refused by a later rule.
    @pytest.mark.parametrize("entry", ["create", "constructor", "replace"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("player_names", {"A", "B"}, "player names must be a sequence of names"),
            (
                "player_names",
                MappingProxyType({"A": 1, "B": 2}),
                "player names must be a sequence of names",
            ),
            ("totals", frozenset((6.0, 4.0)), "budgets must be an ordered sequence"),
            ("totals", {6.0: 0, 4.0: 1}, "budgets must be an ordered sequence"),
            (
                "allocations",
                {(3.0, 3.0), (2.0, 2.0)},
                "allocations must be an ordered sequence",
            ),
            (
                "allocations",
                ((3.0, 3.0), {1.0, 3.0}),
                "player 2 allocation row must be an ordered sequence",
            ),
            (
                "phases",
                {0: (0.0, 0.0), 1: (0.0, 0.0)},
                "phases must be an ordered sequence",
            ),
            (
                "phases",
                ((0.0, 0.0), {0.0: 1, 0.5: 2}),
                "player 2 phase row must be an ordered sequence",
            ),
            ("sign_pattern", {1, -1}, "sign pattern must be an ordered sequence"),
        ],
        ids=[
            "names-set", "names-mapping", "budgets-set", "budgets-mapping",
            "allocation-grid", "allocation-row", "phase-grid", "phase-row", "signs",
        ],
    )
    def test_unordered_collections_are_refused(self, entry, field, value, message):
        from dataclasses import replace

        base = Scenario.create((6.0, 4.0), ((3.0, 3.0), (2.0, 2.0)), 0.0)
        with pytest.raises(ValidationError) as raised:
            if entry == "replace":
                replace(base, **{field: value})
            else:
                fields = {
                    name: getattr(base, name)
                    for name in ("player_names", "totals", "allocations", "phases",
                                 "gamma", "sign_pattern")
                }
                fields[field] = value
                if entry == "constructor":
                    Scenario(**fields)
                else:
                    Scenario.create(names=fields.pop("player_names"), **fields)
        shown = value[-1] if " row " in message else value  # a row names itself
        assert str(raised.value) == f"{message}, got {shown!r}"

    # Each build raises the message that loading or evaluating the same
    # scenario gave when validation ran there; the last case keeps the
    # eps rule ahead of the budget sums.
    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                dict(phases=((0.0, 0.0), (0.0,), (0.0, 0.0))),
                "player 2 phases: expected dims 2, got 1",
            ),
            (
                dict(allocations=((3.0, 3.0), (5.0, -1.0), (0.0, 3.0))),
                "player 2 (enemy 1): battlefield 2 allocation is negative (-1.0)",
            ),
            (
                dict(
                    totals=(6.0, 4.0, math.inf),
                    allocations=((3.0, 3.0), (3.0, 1.0), (math.inf, 0.0)),
                ),
                "player 3 budget inf is not finite",
            ),
            (
                dict(
                    totals=(6.0, 7.0, 3.0),
                    allocations=((3.0, 3.0), (4.0, 3.0), (0.0, 3.0)),
                ),
                "player 2 budget 7.0 exceeds Blotto's 6.0; player 1 must hold "
                "the largest budget",
            ),
            (
                dict(allocations=((3.0, 3.0), (3.0, 2.0), (0.0, 3.0))),
                "player 2 (enemy 1): allocations sum to 5.0, budget is 4.0",
            ),
            (dict(gamma=2.0), "entanglement parameter 2.0 outside [0, pi/2]"),
            (
                dict(sign_pattern=(1, 2)),
                "sign pattern entries must be +1 or -1, got (1, 2)",
            ),
            (
                dict(gamma=2.0, allocations=OVER_BUDGET),
                "entanglement parameter 2.0 outside [0, pi/2]",
            ),
            (
                dict(sign_pattern=(1, 0), allocations=OVER_BUDGET),
                "sign pattern entries must be +1 or -1, got (1, 0)",
            ),
            (
                dict(totals=(1.0,) * 21, allocations=((1.0,),) * 21),
                "composite dimension 2097152 exceeds the guardrail 1048576; "
                "reduce the player count or battlefield count",
            ),
            (
                dict(eps=-1e-9),
                "tie tolerance must be finite and non-negative, got -1e-09",
            ),
            (
                dict(eps=math.nan, allocations=((3.0, 3.0), (3.0, 2.0), (0.0, 3.0))),
                "tie tolerance must be finite and non-negative, got nan",
            ),
            # the row sums to Blotto's budget within eps
            (
                dict(allocations=((7.0, 0.0), (3.0, 1.0), (0.0, 3.0)), eps=1.0),
                "troop commitment 7.0 exceeds Blotto's budget 6.0; "
                "no valid allocation can reach this",
            ),
            (
                dict(totals=(0.0, 0.0, 0.0), allocations=((0.0, 0.0),) * 3),
                "Blotto's budget must be positive, got 0.0",
            ),
        ],
    )
    def test_build_raises_the_first_broken_rule(self, changes, message):
        fields = {
            "totals": (6.0, 4.0, 3.0),
            "allocations": ((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
            "gamma": HALF_PI,
            **changes,
        }
        with pytest.raises(ValidationError) as raised:
            Scenario.create(**fields)
        assert str(raised.value) == message

    # Each case is valid once coerced with float(), so only the number
    # rule rejects it.
    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(totals=("6", 4.0, 3.0)), "player 1 budget must be a number, got '6'"),
            (
                dict(
                    totals=(6.0, 4.0, True),
                    allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 1.0)),
                ),
                "player 3 budget must be a number, got True",
            ),
            (
                dict(
                    totals=(6.0, 4.0, np.True_),
                    allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 1.0)),
                ),
                f"player 3 budget must be a number, got {np.True_!r}",
            ),
            (
                dict(allocations=(("3", 3.0), (3.0, 1.0), (0.0, 3.0))),
                "allocation for player 1, battlefield 1 must be a number, got '3'",
            ),
            (
                dict(allocations=((3.0, 3.0), (3.0, True), (0.0, 3.0))),
                "allocation for player 2, battlefield 2 must be a number, got True",
            ),
            (
                dict(allocations=((3.0, 3.0), (3.0, np.True_), (0.0, 3.0))),
                "allocation for player 2, battlefield 2 must be a number, "
                f"got {np.True_!r}",
            ),
            (
                dict(phases=((0.0, 0.0), (0.0, 0.0), ("1.0", 0.0))),
                "phase for player 3, battlefield 1 must be a number, got '1.0'",
            ),
            (
                dict(phases=((0.0, 0.0), (0.0, 0.0), (True, 0.0))),
                "phase for player 3, battlefield 1 must be a number, got True",
            ),
            (
                dict(phases=((0.0, np.True_), (0.0, 0.0), (0.0, 0.0))),
                f"phase for player 1, battlefield 2 must be a number, got {np.True_!r}",
            ),
        ],
    )
    def test_grid_entries_follow_the_number_rule(
        self, worked_example, changes, message
    ):
        from dataclasses import replace

        fields = {
            "totals": (6.0, 4.0, 3.0),
            "allocations": ((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
            "gamma": HALF_PI,
            **changes,
        }
        with pytest.raises(ValidationError) as raised:
            Scenario.create(**fields)
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as raised:
            replace(worked_example, **changes)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                dict(player_names=(), totals=(), allocations=(), phases=(),
                     sign_pattern=()),
                "scenario has no players",
            ),
            (dict(player_names=("a", "b")), "player names: expected dims 3, got 2"),
            (
                dict(allocations=((3.0, 3.0), (3.0, 1.0))),
                "allocation rows: expected dims 3, got 2",
            ),
            (dict(phases=((0.0, 0.0),)), "phase rows: expected dims 3, got 1"),
            (
                dict(allocations=((),) * 3, phases=((),) * 3),
                "scenario has no battlefields",
            ),
            (
                dict(allocations=((3.0, 3.0), (4.0,), (0.0, 3.0))),
                "player 2 allocations: expected dims 2, got 1",
            ),
            (dict(sign_pattern=(1, -1, 1)), "sign pattern: expected dims 2, got 3"),
            # each of these raised a bare TypeError: not iterable
            (dict(player_names=5), "player names must form a sequence, got 5"),
            (dict(totals=5.0), "budgets must form a sequence, got 5.0"),
            (dict(allocations=5.0), "allocations must form a grid, got 5.0"),
            (
                dict(allocations=(1.0, 2.0)),
                "player 1 allocation row 1.0: expected dims 1, got 0",
            ),
            (dict(sign_pattern=1), "sign pattern must form a sequence, got 1"),
            # each of these built, its names split into characters or keys
            (
                dict(player_names="ABC"),
                "player names must be a sequence of names, got 'ABC'",
            ),
            (
                dict(player_names=b"ABC"),
                "player names must be a sequence of names, got b'ABC'",
            ),
            (
                dict(player_names={"A": 1, "B": 2, "C": 3}),
                "player names must be a sequence of names, "
                "got {'A': 1, 'B': 2, 'C': 3}",
            ),
        ],
    )
    def test_shape_rules(self, worked_example, changes, message):
        from dataclasses import replace

        with pytest.raises(ValidationError) as raised:
            replace(worked_example, **changes)
        assert str(raised.value) == message

    @pytest.mark.parametrize("allocations", [(), ((),)])
    def test_create_rejects_an_empty_grid(self, allocations):
        with pytest.raises(ValidationError) as raised:
            Scenario.create((6.0,), allocations, 0.0)
        assert str(raised.value) == "allocations must be a non-empty N x n grid"

    @pytest.mark.parametrize(
        "totals, allocations, changes, error, message",
        [
            (
                (6.0, 4.0), 5.0, {}, ValidationError,
                "allocations must form a grid, got 5.0",
            ),
            (
                (6.0, 4.0), [1.0, 2.0], {}, DimensionError,
                "player 1 allocation row 1.0: expected dims 1, got 0",
            ),
            (
                (6.0, 4.0), [[3.0, 3.0], 4.0], {}, DimensionError,
                "player 2 allocation row 4.0: expected dims 1, got 0",
            ),
            (
                5.0, [[3.0, 3.0], [2.0, 2.0]], {}, ValidationError,
                "budgets must form a sequence, got 5.0",
            ),
            (
                (6.0, 4.0), [[3.0, 3.0], [2.0, 2.0]], dict(sign_pattern=1),
                ValidationError, "sign pattern must form a sequence, got 1",
            ),
            (
                (6.0, 4.0), [[3.0, 3.0], [2.0, 2.0]], dict(names=5),
                ValidationError, "player names must form a sequence, got 5",
            ),
        ],
        ids=["scalar-grid", "flat-grid", "scalar-row", "budgets", "signs", "names"],
    )
    def test_create_reports_a_value_that_is_not_iterable(
        self, totals, allocations, changes, error, message
    ):
        # each raised a bare TypeError: 'float' (or 'int') object is not iterable
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Scenario.create(totals, allocations, 0.0, **changes)

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError) as raised:
            Scenario.create((10**400, 4, 3), ((3, 3), (3, 1), (0, 3)), HALF_PI)
        assert str(raised.value) == "player 1 budget is too large for a float"

    def test_numpy_numbers_build_as_floats(self, worked_example):
        from dataclasses import replace

        built = (
            Scenario.create(
                totals=np.array([6.0, 4.0, 3.0]),
                allocations=np.array([[3, 3], [3, 1], [0, 3]]),
                gamma=np.float64(HALF_PI),
                phases=np.zeros((3, 2), dtype=np.int64),
                eps=np.float64(1e-9),
            ),
            replace(
                worked_example,
                totals=(np.int64(6), np.float64(4.0), 3),
                allocations=((np.int64(3), 3.0), (3.0, np.float64(1.0)), (0, 3)),
                phases=((np.float64(0.0), np.int64(0)),) * 3,
                gamma=np.float64(HALF_PI),
            ),
        )
        for scenario in built:
            assert scenario == worked_example
            numbers = [
                *scenario.totals,
                *(x for row in scenario.allocations for x in row),
                *(p for row in scenario.phases for p in row),
                scenario.gamma,
                scenario.eps,
            ]
            assert all(type(x) is float for x in numbers)

    def test_default_pattern_and_names(self):
        scenario = Scenario.create(
            totals=(2.0, 1.0, 1.0),
            allocations=((1.0, 0.5, 0.5), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5)),
            gamma=0.0,
        )
        assert scenario.sign_pattern == (1, 1, -1)
        assert scenario.player_names == ("Blotto", "enemy 1", "enemy 2")
        one_battlefield = Scenario.create((2.0, 1.0), ((2.0,), (1.0,)), 0.0)
        assert one_battlefield.sign_pattern == (-1,)


class TestAllocationRule:
    """Each player's allocations: finite, non-negative, summing to the budget."""

    TOTALS = (6.0, 4.0, 3.0)

    def test_sum_off_by_more_than_eps_rejected(self):
        with pytest.raises(ValidationError) as raised:
            Scenario.create(
                self.TOTALS, ((4.0, 3.0), (3.0, 1.0), (0.0, 3.0)), HALF_PI
            )
        assert str(raised.value) == (
            "player 1 (Blotto): allocations sum to 7.0, budget is 6.0"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ((4.5, -0.5), "battlefield 2 allocation is negative (-0.5)"),
            ((math.nan, 4.0), "battlefield 1 allocation is not finite (nan)"),
            ((math.inf, 0.0), "battlefield 1 allocation is not finite (inf)"),
        ],
    )
    def test_negative_or_non_finite_entry_rejected(self, row, message):
        with pytest.raises(ValidationError) as raised:
            Scenario.create(self.TOTALS, ((3.0, 3.0), row, (0.0, 3.0)), HALF_PI)
        assert str(raised.value) == f"player 2 (enemy 1): {message}"

    def test_sum_within_eps_accepted(self):
        allocations = ((3.0, 3.0 + 5e-10), (3.0, 1.0), (0.0, 3.0))
        scenario = Scenario.create(self.TOTALS, allocations, HALF_PI, eps=1e-9)
        assert scenario.allocations == allocations

    def test_enemy_with_zero_budget_and_zero_row_builds(self):
        scenario = Scenario.create(
            (6.0, 0.0, 3.0), ((3.0, 3.0), (0.0, 0.0), (0.0, 3.0)), HALF_PI
        )
        assert scenario.totals[1] == 0.0
        assert scenario.allocations[1] == (0.0, 0.0)


class TestClassicalCorrespondence:
    def test_sign_pattern_irrelevant_without_entanglement(self, worked_example):
        from dataclasses import replace

        base = evaluate(replace(worked_example, gamma=0.0))
        flipped = evaluate(replace(worked_example, gamma=0.0, sign_pattern=(-1, 1)))
        assert base.values == flipped.values
        assert base.payoffs == flipped.payoffs

    def test_payoffs_match_oracle_for_any_entanglement(self, worked_example):
        from dataclasses import replace

        from qblotto.classical import PlayerRoster, classical_payoffs

        roster = PlayerRoster(worked_example.totals)
        expected = classical_payoffs(worked_example.allocations, roster)
        for gamma in (0.0, 0.4, 1.0, HALF_PI):
            assert evaluate(replace(worked_example, gamma=gamma)).payoffs == expected
