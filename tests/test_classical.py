import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblotto import DimensionError, Scenario, ValidationError
from qblotto.classical import (
    PlayerRoster,
    _payoff_terms,
    classical_payoffs,
    rival_best,
    sgn_eps,
)


def brute_force_payoffs(rows, eps):
    # independent straight-line recomputation, one battlefield at a time
    scores = [0] * len(rows)
    for k in range(len(rows[0])):
        column = [row[k] for row in rows]
        for j, own in enumerate(column):
            rival = max(column[:j] + column[j + 1:])
            diff = own - rival
            if diff > eps:
                scores[j] += 1
            elif diff < -eps:
                scores[j] -= 1
    return tuple(scores)


def brute_force_terms(rows, eps):
    # straight-line rival best and sign per cell, for the payoff rule
    rival_best, terms = [], []
    for j, row in enumerate(rows):
        rivals = rows[:j] + rows[j + 1:]
        best = [max(other[k] for other in rivals) for k in range(len(row))]
        rival_best.append(best)
        signs = []
        for own, rival in zip(row, best):
            diff = own - rival
            signs.append(1 if diff > eps else -1 if diff < -eps else 0)
        terms.append(signs)
    return rival_best, terms


def tied_grid(rng, num_players, n, eps):
    # values drawn from a few levels, some nudged by less than eps, so
    # exact ties and sub-eps gaps are common
    levels = rng.choice((0.0, 0.25, 0.5, 1.0, 3.0), size=(num_players, n))
    nudges = rng.choice((0.0, 0.0, 0.5, -0.5, 1.0, 2.0), size=(num_players, n))
    return levels + nudges * eps


def random_instance(seed, num_players=3, n=3):
    rng = np.random.default_rng(seed)
    blotto = rng.uniform(1.0, 20.0)
    totals = [blotto] + [rng.uniform(0.0, blotto) for _ in range(num_players - 1)]
    rows = [tuple(rng.dirichlet(np.ones(n)) * t) for t in totals]
    return totals, rows


class TestSgnEps:
    def test_cases(self):
        assert sgn_eps(0.0, 1e-9) == 0
        assert sgn_eps(2.0, 1e-9) == 1
        assert sgn_eps(-2.0, 1e-9) == -1
        assert sgn_eps(-1e-12, 1e-9) == 0  # tie absorption

    def test_negative_eps_rejected(self):
        with pytest.raises(ValidationError):
            sgn_eps(1.0, -1e-3)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="finite"):
            sgn_eps(1.0, eps)

    # nan gave -1, inf and True gave 1, and a string raised a bare TypeError
    @pytest.mark.parametrize(
        "x, message",
        [
            (math.nan, "signed value nan is not finite"),
            (math.inf, "signed value inf is not finite"),
            (-math.inf, "signed value -inf is not finite"),
            (True, "signed value must be a number, got True"),
            ("1", "signed value must be a number, got '1'"),
            (10**400, "signed value is too large for a float"),
        ],
        ids=["nan", "inf", "-inf", "bool", "str", "huge"],
    )
    def test_value_follows_the_number_rule(self, x, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sgn_eps(x)

    def test_numeric_values_still_pass(self):
        assert sgn_eps(np.float64(2.0)) == 1
        assert sgn_eps(-3) == -1
        assert type(sgn_eps(np.float32(-0.5))) is int

    @given(st.floats(-1e6, 1e6), st.floats(0, 1.0))
    def test_range_and_oddness(self, x, eps):
        value = sgn_eps(x, eps)
        assert value in (-1, 0, 1)
        assert sgn_eps(-x, eps) == -value


class TestPlayerRoster:
    def test_blotto_must_lead(self):
        with pytest.raises(ValidationError, match="largest"):
            PlayerRoster((3.0, 5.0))

    def test_blotto_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            PlayerRoster((0.0, 0.0))

    def test_single_player_rejected(self):
        with pytest.raises(ValidationError):
            PlayerRoster((5.0,))

    def test_two_players_accepted_without_warning(self):
        # scenario_notices gives the only two-player report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PlayerRoster((5.0, 3.0)).num_players == 2

    @pytest.mark.parametrize(
        "totals, player", [((6.0, 4.0, math.nan), 3), ((math.inf, 4.0, 3.0), 1)]
    )
    def test_non_finite_budget_rejected(self, totals, player):
        with pytest.raises(ValidationError, match=f"player {player} budget .* finite"):
            PlayerRoster(totals)


    @pytest.mark.parametrize(
        "totals, message",
        [
            (("6", True), "^player 1 budget must be a number, got '6'"),
            ((6.0, True), "^player 2 budget must be a number, got True"),
            ((6.0, np.True_), "^player 2 budget must be a number"),
            ((10**400, 1.0), "^player 1 budget is too large for a float"),
            # a bare TypeError: 'float' object is not iterable
            (5.0, "^budgets must form a sequence, got 5.0$"),
            # read in hash order: Blotto was whichever budget came first
            ({4.0, 6.0}, "^budgets must be an ordered sequence, got "),
        ],
        ids=["str", "bool", "numpy-bool", "huge", "scalar", "set"],
    )
    def test_budgets_follow_the_number_rule(self, totals, message):
        # not coerced to (6.0, 1.0) by float()
        with pytest.raises(ValidationError, match=message):
            PlayerRoster(totals)

    def test_numeric_budgets_stored_as_floats(self):
        # passes at the parent too: numbers are still accepted
        roster = PlayerRoster((6, np.float32(4.0), np.int64(3)))
        assert roster.totals == (6.0, 4.0, 3.0)
        assert all(type(t) is float for t in roster.totals)


class TestClassicalPayoffs:
    def test_worked_example(self, worked_example):
        roster = PlayerRoster(worked_example.totals)
        payoffs = classical_payoffs(worked_example.allocations, roster)
        assert payoffs == (0, -1, -1)

    def test_identical_allocations_all_tie(self):
        roster = PlayerRoster((4.0, 4.0))
        assert classical_payoffs(((2.0, 2.0), (2.0, 2.0)), roster) == (0, 0)

    @pytest.mark.parametrize(
        "rows, cell, got",
        [
            ((("3", True), (True, 0)), "player 1, battlefield 1", "'3'"),
            (((3.0, True), (1.0, 0)), "player 1, battlefield 2", "True"),
            (((3.0, 1.0), (np.True_, 0)), "player 2, battlefield 1", "(np\\.)?True_?"),
            (
                np.array([[True, False], [False, False]]),
                "player 1, battlefield 1",
                re.escape(repr(np.True_)),
            ),
            (
                np.array([["1", "2"], ["0", "0"]]),
                "player 1, battlefield 1",
                re.escape(repr(np.str_("1"))),
            ),
            (
                np.array([[[3.0, 1.0]] * 2, [[1.0, 2.0]] * 2]),  # [player, step, k]
                "player 1, battlefield 1",
                re.escape("array([3., 1.])"),
            ),
        ],
        ids=["str", "bool", "numpy-bool", "bool-array", "string-array", "3d-stack"],
    )
    def test_allocations_follow_the_number_rule(self, rows, cell, got):
        # not scored as (2, -2) after float() made True 1.0
        roster = PlayerRoster((4.0, 1.0))
        message = f"^allocation for {cell} must be a number, got {got}$"
        with pytest.raises(ValidationError, match=message):
            classical_payoffs(rows, roster)

    def test_row_count_must_match_the_roster(self):
        message = "allocation rows: expected dims 3, got 2"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            classical_payoffs([[3, 3], [3, 1]], PlayerRoster((6, 4, 3)))

    def test_dimension_error_survives_pickling(self):
        # an error raised in a worker process reaches its parent pickled
        with pytest.raises(DimensionError) as raised:
            classical_payoffs([[3, 3], [3, 1]], PlayerRoster((6, 4, 3)))
        copy = pickle.loads(pickle.dumps(raised.value))
        assert type(copy) is DimensionError
        assert copy.args == ("allocation rows: expected dims 3, got 2",)

    def test_length_mismatch(self):
        roster = PlayerRoster((4.0, 3.0, 2.0))
        with pytest.raises(DimensionError):
            classical_payoffs(((1.0, 3.0), (3.0,), (1.0, 1.0)), roster)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        totals, rows = random_instance(seed)
        roster = PlayerRoster(totals)
        assert classical_payoffs(rows, roster) == brute_force_payoffs(rows, 1e-9)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
    def test_matches_brute_force_with_ties(self, eps):
        # exact ties and gaps inside the tie band, which Dirichlet rows miss
        rng = np.random.default_rng(0x71E5)
        for _ in range(300):
            num_players = int(rng.integers(2, 10))
            n = int(rng.integers(1, 6))
            rows = tied_grid(rng, num_players, n, eps).tolist()
            expected_best, expected_terms = brute_force_terms(rows, eps)
            assert rival_best(rows) == tuple(map(tuple, expected_best))
            assert _payoff_terms(rows, eps) == tuple(map(tuple, expected_terms))
            roster = PlayerRoster((1.0,) * num_players)  # shape only
            assert classical_payoffs(rows, roster, eps) == brute_force_payoffs(rows, eps)

    def test_tolerance_and_finiteness_are_checked(self):
        roster = PlayerRoster((4.0, 1.0))
        with pytest.raises(ValidationError, match="tie tolerance"):
            classical_payoffs([[1.0], [0.0]], roster, -1.0)
        with pytest.raises(ValidationError, match="^payoff grid has a non-finite"):
            classical_payoffs([[1.0], [math.nan]], roster)

    # A string tolerance raised a bare TypeError and True counted as 1.0.
    # The payoff rule trusts a scenario's eps, so its build checks it too.
    @pytest.mark.parametrize("eps", ["1e-9", True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda eps: classical_payoffs(
                [[3.0, 3.0], [2.0, 2.0]], PlayerRoster((6.0, 4.0)), eps
            ),
            lambda eps: sgn_eps(1.0, eps),
            lambda eps: Scenario.create(
                (6.0, 4.0), [[3.0, 3.0], [2.0, 2.0]], 0.0, eps=eps
            ),
        ],
        ids=["classical_payoffs", "sgn_eps", "Scenario.create"],
    )
    def test_tie_tolerance_follows_the_number_rule(self, call, eps):
        message = f"tie tolerance must be a number, got {eps!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(eps)

    @pytest.mark.parametrize(
        "allocations, error, message",
        [
            (
                [1.0, 2.0],
                DimensionError,
                "player 1 allocation row 1.0: expected dims 1, got 0",
            ),
            (5.0, ValidationError, "allocations must form a grid, got 5.0"),
            (
                [[1.0, 2.0], 0.5],
                DimensionError,
                "player 2 allocation row 0.5: expected dims 1, got 0",
            ),
            (
                [[1.0, 2.0], [1.0]],
                DimensionError,
                "player 2 allocation length: expected dims 2, got 1",
            ),
        ],
        ids=["flat", "scalar", "scalar-row", "ragged"],
    )
    def test_allocation_grid_shape_is_checked(self, allocations, error, message):
        # the first three raised a bare TypeError: 'float' object is not iterable
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            classical_payoffs(allocations, PlayerRoster((6.0, 4.0)))

    def test_numeric_grids_still_pass(self):
        roster = PlayerRoster((4.0, 3.0))
        for grid in (
            [[3, 1.0], [np.float64(1.0), 2]],
            np.array([[3, 1], [1, 2]]),
            np.array([[3, 1], [1, 2]], dtype=np.uint8),
            np.array([[3.0, 1.0], [1.0, 2.0]]),
        ):
            payoffs = classical_payoffs(grid, roster)
            assert payoffs == (0, 0)
            assert all(type(p) is int for p in payoffs)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4))
    def test_payoff_bounds(self, seed, num_players, n):
        totals, rows = random_instance(seed, num_players, n)
        payoffs = classical_payoffs(rows, PlayerRoster(totals))
        assert all(-n <= p <= n for p in payoffs)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_opponent_anonymity(self, seed):
        # permuting players 2..N permutes their payoffs and fixes Blotto's
        totals, rows = random_instance(seed, num_players=4)
        base = classical_payoffs(rows, PlayerRoster(totals))
        perm = [0, 2, 3, 1]
        swapped_rows = [rows[i] for i in perm]
        swapped_totals = [totals[i] for i in perm]
        swapped = classical_payoffs(swapped_rows, PlayerRoster(swapped_totals))
        assert swapped == tuple(base[i] for i in perm)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_battlefield_permutation_equivariance(self, seed):
        totals, rows = random_instance(seed, n=4)
        roster = PlayerRoster(totals)
        base = classical_payoffs(rows, roster)
        perm = [2, 0, 3, 1]
        shuffled = [tuple(row[k] for k in perm) for row in rows]
        assert classical_payoffs(shuffled, roster) == base

    def test_dominance(self):
        roster = PlayerRoster((10.0, 3.0, 3.0))
        rows = ((5.0, 5.0), (2.0, 1.0), (1.0, 2.0))
        assert classical_payoffs(rows, roster)[0] == 2
