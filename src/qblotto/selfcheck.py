"""Built-in verification suite behind the CLI's verify command.

Runs the golden three-player example, a tie-absorption regression, the
classical-correspondence property on randomized scenarios and the
operator-order invariance check, which applies every player's operator
between the entangler and its inverse in random orders. Scenarios and
orders are drawn from the standard library's ``random.Random(VERIFY_SEED)``,
so a verification run is reproducible and needs no numpy generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .classical import DEFAULT_TIE_EPS, _payoff_vector
from .engine import (
    HALF_PI,
    Scenario,
    disentangle,
    entangle,
    evaluate,
    measurements,
    player_operator,
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
        gamma=HALF_PI,
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


def _split(rng: random.Random, total: float, n: int) -> tuple[float, ...]:
    """``total`` split over ``n`` battlefields, uniformly on the simplex.

    Normalised i.i.d. unit exponentials are a uniform Dirichlet draw.
    """
    weights = [rng.expovariate(1.0) for _ in range(n)]
    scale = total / sum(weights)
    return tuple(w * scale for w in weights)


def random_classical_scenario(
    rng: random.Random, eps: float = DEFAULT_TIE_EPS
) -> Scenario:
    """Three players, 2 or 3 battlefields, zero phases, random entanglement.

    Each budget is the float sum of its drawn row, so the scenario builds
    at any valid tie tolerance ``eps``, 0 included.
    """
    n = rng.choice((2, 3))
    blotto_total = rng.uniform(1.0, 10.0)
    totals = (blotto_total,) + tuple(rng.uniform(0.0, blotto_total) for _ in range(2))
    allocations = tuple(_split(rng, total, n) for total in totals)
    gamma = rng.uniform(0.0, HALF_PI)
    return Scenario.create(tuple(map(sum, allocations)), allocations, gamma, eps=eps)


def random_quantum_scenario(
    rng: random.Random, eps: float = DEFAULT_TIE_EPS
) -> Scenario:
    """Like the classical draw, but with nonzero phases on every battlefield."""
    base = random_classical_scenario(rng, eps)
    phases = tuple(
        tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(base.num_battlefields))
        for _ in range(base.num_players)
    )
    return replace(base, phases=phases)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def classical_limit(scenario: Scenario) -> tuple:
    """A built scenario's classical payoffs, ``evaluate``'s payoffs and its table.

    Both payoff vectors are at the scenario's own ``eps``.
    """
    table = evaluate(scenario)
    return _payoff_vector(scenario.allocations, scenario.eps), table.payoffs, table


def run_verification(eps: float = DEFAULT_TIE_EPS) -> list[CheckResult]:
    """Run every self-check at tie tolerance ``eps``, one result per check.

    The checks are the golden measurements and payoffs, tie absorption,
    classical correspondence on CORRESPONDENCE_TRIALS and operator-order
    invariance on ORDER_TRIALS seeded random scenarios, each built at ``eps``.
    """
    rng = random.Random(VERIFY_SEED)
    return [
        _check_golden_measurements(eps),
        _check_golden_payoffs(eps),
        _check_tie_absorption(eps),
        _check_classical_correspondence(rng, eps),
        _check_order_invariance(rng, eps),
    ]


def _check_golden_measurements(eps: float) -> CheckResult:
    name = "golden-measurements"
    scenario = golden_scenario(eps)
    table = evaluate(scenario)
    expected = golden_measurement_grid()
    worst = max(
        abs(v - e)
        for row, expected_row in zip(table.values, expected)
        for v, e in zip(row, expected_row)
    )
    if worst > 1e-10:
        return CheckResult(
            name, False, f"measurement grid off by {worst:.3e} (limit 1e-10)"
        )
    return CheckResult(name, True, f"max deviation {worst:.3e}")


def _check_golden_payoffs(eps: float) -> CheckResult:
    name = "golden-payoffs"
    classical, quantum, _ = classical_limit(golden_scenario(eps))
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
    scenario = Scenario.create(totals, allocations, HALF_PI, eps=eps)
    classical, quantum, _ = classical_limit(scenario)
    if quantum != GOLDEN_PAYOFFS or classical != GOLDEN_PAYOFFS:
        return CheckResult(
            name,
            False,
            f"near-tie payoffs changed: quantum {quantum}, classical "
            f"{classical}, expected {GOLDEN_PAYOFFS}",
        )
    return CheckResult(name, True, f"{nudge!r} perturbation absorbed")


def _check_classical_correspondence(rng: random.Random, eps: float) -> CheckResult:
    """Zero-phase scenarios must match the classical oracle and closed form."""
    name = "classical-correspondence"
    for trial in range(CORRESPONDENCE_TRIALS):
        scenario = random_classical_scenario(rng, eps)
        classical, quantum, table = classical_limit(scenario)
        if quantum != classical:
            return CheckResult(
                name,
                False,
                f"trial {trial}: quantum {quantum} != classical {classical} "
                f"for {scenario.allocations}",
            )
        n = scenario.num_battlefields
        for row, angles in zip(table.values, strategies_of(scenario)[0]):
            for value, angle in zip(row, angles):
                closed = math.sin(angle) ** 2 / n
                if abs(value - closed) > 1e-10:
                    return CheckResult(
                        name,
                        False,
                        f"trial {trial}: measurement {value!r} "
                        f"deviates from closed form {closed!r}",
                    )
    return CheckResult(name, True, f"{CORRESPONDENCE_TRIALS} randomized scenarios")


def _check_order_invariance(rng: random.Random, eps: float) -> CheckResult:
    """Strategy operators commute, and every order gives evaluate's results.

    Each drawn order's payoffs must equal evaluate's, and its strengths
    lie within 1e-12 of them (orders differ by rounding, about 1e-16). A
    changed payoff is reported ahead of strengths that stray.
    """
    name = "order-invariance"
    drift = ""  # the first order whose strengths stray
    for trial in range(ORDER_TRIALS):
        scenario = random_quantum_scenario(rng, eps)
        angles, phases = strategies_of(scenario)
        count = scenario.num_players
        operators = [
            player_operator(j, angles[j - 1], phases[j - 1], count)
            for j in range(1, count + 1)
        ]
        for a in range(count):
            for b in range(a + 1, count):
                commutator = operators[a] @ operators[b] - operators[b] @ operators[a]
                residue = float(abs(commutator).max())
                if residue > 1e-10:
                    return CheckResult(
                        name,
                        False,
                        f"trial {trial}: players {a + 1},{b + 1} commutator "
                        f"residue {residue:.3e}",
                    )
        baseline = evaluate(scenario)
        for _ in range(5):
            order = rng.sample(range(1, count + 1), count)
            psi = entangle(count, scenario.gamma, scenario.sign_pattern)
            for j in order:
                psi = operators[j - 1] @ psi
            psi = disentangle(psi, count, scenario.gamma, scenario.sign_pattern)
            table = measurements(scenario, psi)
            if table.payoffs != baseline.payoffs:
                return CheckResult(
                    name,
                    False,
                    f"trial {trial}: order {order} gave {table.payoffs}, "
                    f"ascending gave {baseline.payoffs}",
                )
            cells = zip(sum(table.values, ()), sum(baseline.values, ()))
            worst = max(abs(v - w) for v, w in cells)
            if worst > 1e-12 and not drift:
                drift = f"trial {trial}: order {order} strengths off by {worst:.3e}"
    if drift:
        return CheckResult(name, False, f"{drift} (limit 1e-12)")
    return CheckResult(name, True, f"{ORDER_TRIALS} randomized scenarios")
