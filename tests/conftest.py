import math

import pytest

from qblotto import Scenario
from qblotto.classical import DEFAULT_TIE_EPS, sgn_eps


@pytest.fixture
def worked_example() -> Scenario:
    """Worked three-player example: budgets 6/4/3 over two battlefields."""
    return Scenario.create(
        totals=(6.0, 4.0, 3.0),
        allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
        gamma=math.pi / 2,
    )


@pytest.fixture
def own_battlefield_excluded():
    """A misreading of the payoff sum: player j skips battlefield j."""

    def payoffs(table, eps=DEFAULT_TIE_EPS):
        return tuple(
            sum(
                sgn_eps(v - table.rival_best[j][k], eps)
                for k, v in enumerate(row)
                if k != j
            )
            for j, row in enumerate(table.values)
        )

    return payoffs
