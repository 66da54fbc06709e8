"""Built-in verification suite behind the CLI's verify command.

Runs the golden three-player example, a tie-absorption regression, the
classical-correspondence property on randomized scenarios and the
operator-order invariance check, which applies every player's operator
between the entangler and its inverse in random orders. Randomness is
drawn from a fixed seed so a verification run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    DEFAULT_TIE_EPS,
    PlayerRoster,
    classical_payoffs,
    payoff_terms,
)
from .engine import (
    Scenario,
    disentangle,
    entangle,
    evaluate,
    measurements,
    player_operator,
    rotation_angle,
    strategies_of,
)

VERIFY_SEED = 0xB10770
CORRESPONDENCE_TRIALS = 100
ORDER_TRIALS = 20

GOLDEN_PAYOFFS = (0, -1, -1)


def golden_scenario(eps: float = DEFAULT_TIE_EPS) -> Scenario:
    """The worked three-player example: budgets 6/4/3 over two battlefields."""
    return Scenario.create(
        totals=(6.0, 4.0, 3.0),
        allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
        gamma=math.pi / 2,
        eps=eps,
    )


def golden_measurement_grid() -> tuple[tuple[float, ...], ...]:
    """Closed-form measurement grid of the worked example."""
    half_sin_sq = 0.5 * math.sin(math.pi / 12) ** 2
    return (
        (0.25, 0.25),
        (0.25, half_sin_sq),
        (0.0, 0.25),
    )


def random_classical_scenario(rng: np.random.Generator) -> Scenario:
    """Three players, 2 or 3 battlefields, zero phases, random entanglement."""
    n = int(rng.choice((2, 3)))
    blotto_total = float(rng.uniform(1.0, 10.0))
    totals = (blotto_total,) + tuple(rng.uniform(0.0, blotto_total) for _ in range(2))
    allocations = tuple(
        tuple(float(x) for x in rng.dirichlet(np.ones(n)) * total)
        for total in totals
    )
    gamma = float(rng.uniform(0.0, math.pi / 2))
    return Scenario.create(totals, allocations, gamma)


def random_quantum_scenario(rng: np.random.Generator) -> Scenario:
    """Like the classical draw, but with nonzero phases on every battlefield."""
    base = random_classical_scenario(rng)
    phases = tuple(
        tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, base.num_battlefields))
        for _ in range(base.num_players)
    )
    return replace(base, phases=phases)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_verification(eps: float = DEFAULT_TIE_EPS) -> list[CheckResult]:
    """Run every self-check at tie tolerance ``eps``, one result per check.

    The checks are the golden measurements and payoffs, tie absorption,
    classical correspondence on CORRESPONDENCE_TRIALS and operator-order
    invariance on ORDER_TRIALS seeded random scenarios.
    """
    rng = np.random.default_rng(VERIFY_SEED)
    return [
        _check_golden_measurements(eps),
        _check_golden_payoffs(eps),
        _check_tie_absorption(eps),
        _check_classical_correspondence(rng, eps, CORRESPONDENCE_TRIALS),
        _check_order_invariance(rng, ORDER_TRIALS),
    ]


def _check_golden_measurements(eps: float) -> CheckResult:
    name = "golden-measurements"
    scenario = golden_scenario(eps)
    table = evaluate(scenario)
    expected = golden_measurement_grid()
    worst = max(
        abs(table.values[j][k] - expected[j][k])
        for j in range(3)
        for k in range(2)
    )
    if worst > 1e-10:
        return CheckResult(
            name, False, f"measurement grid off by {worst:.3e} (limit 1e-10)"
        )
    return CheckResult(name, True, f"max deviation {worst:.3e}")


def _check_golden_payoffs(eps: float) -> CheckResult:
    name = "golden-payoffs"
    scenario = golden_scenario(eps)
    quantum = evaluate(scenario).payoffs
    roster = PlayerRoster(scenario.totals)
    classical = classical_payoffs(scenario.allocations, roster, eps)
    if quantum != GOLDEN_PAYOFFS:
        return CheckResult(
            name, False, f"quantum payoffs {quantum}, expected {GOLDEN_PAYOFFS}"
        )
    if classical != GOLDEN_PAYOFFS:
        return CheckResult(
            name, False, f"classical payoffs {classical}, expected {GOLDEN_PAYOFFS}"
        )
    return CheckResult(name, True, f"both oracles give {GOLDEN_PAYOFFS}")


def _check_tie_absorption(eps: float) -> CheckResult:
    """Ties perturbed by 1e-12 troops must still land in the tie band."""
    name = "tie-absorption"
    nudge = 1e-12
    allocations = ((3.0 + nudge, 3.0 - nudge), (3.0, 1.0), (0.0, 3.0))
    totals = (sum(allocations[0]), 4.0, 3.0)
    scenario = Scenario.create(totals, allocations, math.pi / 2, eps=eps)
    quantum = evaluate(scenario).payoffs
    roster = PlayerRoster(scenario.totals)
    classical = classical_payoffs(scenario.allocations, roster, eps)
    if quantum != GOLDEN_PAYOFFS or classical != GOLDEN_PAYOFFS:
        return CheckResult(
            name,
            False,
            f"near-tie payoffs changed: quantum {quantum}, classical "
            f"{classical}, expected {GOLDEN_PAYOFFS}",
        )
    return CheckResult(name, True, "1e-12 perturbation absorbed")


def _check_classical_correspondence(
    rng: np.random.Generator, eps: float, trials: int
) -> CheckResult:
    """Zero-phase scenarios must match the classical oracle and closed form."""
    name = "classical-correspondence"
    for trial in range(trials):
        scenario = random_classical_scenario(rng)
        table = evaluate(scenario)
        _, terms = payoff_terms(table.values, eps)  # the eps under check
        quantum = tuple(int(p) for p in terms.sum(axis=1))
        roster = PlayerRoster(scenario.totals)
        classical = classical_payoffs(scenario.allocations, roster, eps)
        if quantum != classical:
            return CheckResult(
                name,
                False,
                f"trial {trial}: quantum {quantum} != classical {classical} "
                f"for {scenario.allocations}",
            )
        n = scenario.num_battlefields
        for j in range(scenario.num_players):
            for k in range(n):
                angle = rotation_angle(
                    scenario.allocations[j][k], scenario.blotto_total
                )
                closed = math.sin(angle) ** 2 / n
                if abs(table.values[j][k] - closed) > 1e-10:
                    return CheckResult(
                        name,
                        False,
                        f"trial {trial}: measurement {table.values[j][k]!r} "
                        f"deviates from closed form {closed!r}",
                    )
    return CheckResult(name, True, f"{trials} randomized scenarios")


def _check_order_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    """Strategy operators commute, and every order gives evaluate's payoffs."""
    name = "order-invariance"
    for trial in range(trials):
        scenario = random_quantum_scenario(rng)
        angles, phases = strategies_of(scenario)
        count = scenario.num_players
        operators = [
            player_operator(j, angles[j - 1], phases[j - 1], count)
            for j in range(1, count + 1)
        ]
        for a in range(count):
            for b in range(a + 1, count):
                residue = float(
                    np.abs(
                        operators[a] @ operators[b] - operators[b] @ operators[a]
                    ).max()
                )
                if residue > 1e-10:
                    return CheckResult(
                        name,
                        False,
                        f"trial {trial}: players {a + 1},{b + 1} commutator "
                        f"residue {residue:.3e}",
                    )
        baseline = evaluate(scenario).payoffs
        for _ in range(5):
            order = [int(j) for j in rng.permutation(count) + 1]
            psi = entangle(count, scenario.gamma, scenario.sign_pattern)
            for j in order:
                psi = operators[j - 1] @ psi
            psi = disentangle(psi, count, scenario.gamma, scenario.sign_pattern)
            table = measurements(psi, count, scenario.eps)
            if table.payoffs != baseline:
                return CheckResult(
                    name,
                    False,
                    f"trial {trial}: order {order} gave {table.payoffs}, "
                    f"ascending gave {baseline}",
                )
    return CheckResult(name, True, f"{trials} randomized scenarios")
