"""The paper's advantage claim on its worked example, through ``evaluate``.

Budgets (6, 4, 3) over two battlefields. With full entanglement, a
player with phases wins both battlefields against every whole-number
classical allocation of its two rivals, where the classical game's pure
maxmin gives player 1 only 0; without entanglement the phases do
nothing and player 1's worst case is that classical value again.
"""

import itertools
import math

from qblotto import Scenario, evaluate
from qblotto.classical import PlayerRoster, classical_payoffs

TOTALS = (6, 4, 3)


def splits(total):
    """Every whole-number allocation of ``total`` over two battlefields."""
    return [(a, total - a) for a in range(total + 1)]


def quantum_payoffs(player, allocation, phases, gamma):
    """``player``'s payoff against each pair of classical rival allocations."""
    rivals = [j for j in range(3) if j != player]
    payoffs = []
    for pair in itertools.product(*(splits(TOTALS[j]) for j in rivals)):
        allocations = [None] * 3
        grid = [(0.0, 0.0)] * 3
        allocations[player], grid[player] = allocation, phases
        for j, row in zip(rivals, pair):
            allocations[j] = row
        scenario = Scenario.create(TOTALS, allocations, gamma, phases=grid)
        payoffs.append(evaluate(scenario).payoffs[player])
    return payoffs


def test_blotto_wins_both_battlefields_against_every_classical_pair():
    payoffs = quantum_payoffs(0, (1, 5), (math.pi / 4, 0.0), math.pi / 2)
    assert payoffs == [2] * 20


def test_enemy_2_wins_both_battlefields_against_every_classical_pair():
    phases = (5 * math.pi / 16,) * 2
    assert quantum_payoffs(2, (1, 2), phases, math.pi / 2) == [2] * 35


def test_without_entanglement_the_worst_case_is_the_classical_maxmin():
    worst = min(quantum_payoffs(0, (1, 5), (math.pi / 4, 0.0), 0.0))
    roster = PlayerRoster(TOTALS)
    maxmin = max(
        min(
            classical_payoffs((own, b, c), roster)[0]
            for b, c in itertools.product(splits(4), splits(3))
        )
        for own in splits(6)
    )
    assert worst == maxmin == 0
