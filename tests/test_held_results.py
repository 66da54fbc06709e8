"""What a held result costs: slotted value classes and a lean table."""

import copy
import gc
import importlib
import math
import pickle
import pkgutil
import tracemalloc
from array import array
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import qblotto
from qblotto import (
    DimensionError,
    MeasurementTable,
    Scenario,
    SweepSpec,
    ValidationError,
    best_response_grid,
    engine,
    evaluate,
    run_sweep,
)
from qblotto.classical import PlayerRoster, _payoff_vector, rival_best
from qblotto.engine import (
    check_strengths,
    evolve_strategies,
    measurements,
    strategies_of,
)
from qblotto.selfcheck import CheckResult

# Bytes that 1000 held (7, 3) scenarios and their tables may take under
# tracemalloc, inputs excluded. Measured at 1.68 MB with Python 3.11: a
# table packs its strengths as float64 bytes, and a scenario shares its
# default names and sign pattern. Tables that held a tuple grid took
# 2.56 MB, and a table that also stored its rival bests, beside classes
# with a per-instance dict and fresh default names per scenario, 4.0 MB.
HELD_BUDGET = 2_000_000


def worked_scenario() -> Scenario:
    """The worked three-player example (budgets 6/4/3, two battlefields)."""
    allocations = ((3.0, 3.0), (3.0, 1.0), (0.0, 3.0))
    return Scenario.create((6.0, 4.0, 3.0), allocations, math.pi / 2)


def held_inputs(count: int):
    """Seeded (7, 3) scenario inputs as lists, as a caller would pass them."""
    rng = np.random.default_rng(7)
    inputs = []
    for _ in range(count):
        totals = [6.0] + rng.uniform(1.0, 6.0, 6).tolist()
        allocations = [(rng.dirichlet(np.ones(3)) * t).tolist() for t in totals]
        phases = rng.uniform(0.0, 2.0 * math.pi, (7, 3)).tolist()
        gamma = float(rng.uniform(0.1, 1.5))
        inputs.append(([sum(row) for row in allocations], allocations, gamma, phases))
    return inputs


def test_held_scenarios_and_tables_fit_the_budget():
    # Final states are computed untraced; the traced part builds each
    # scenario and measures its state, which is how evaluate ends.
    inputs = held_inputs(1000)
    built = [Scenario.create(t, a, g, phases=p) for t, a, g, p in inputs]
    states = [
        evolve_strategies(*strategies_of(s), s.gamma, s.sign_pattern) for s in built
    ]
    assert measurements(built[0], states[0]) == evaluate(built[0])
    del built
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held = []
        for (totals, allocations, gamma, phases), psi in zip(inputs, states):
            scenario = Scenario.create(totals, allocations, gamma, phases=phases)
            held.append((scenario, measurements(scenario, psi)))
        size = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(held) == 1000
    assert size <= HELD_BUDGET, size


# Bytes that each built (7, 3) scenario and its evaluate table keep alive
# under tracemalloc, the input floats the scenario holds included, over 100
# held at once so that one-off allocations average out. A full gc.collect()
# empties the float and tuple free lists, which would otherwise count freed
# temporaries as held. Measured at 1,400 B per scenario, which shares its
# default names, sign pattern and zero phases, and 346 B per table, which
# packs its 21 strengths as float64 bytes (Python 3.11, numpy 2.4); a fresh
# name tuple, pattern and phase grid per scenario took 2,104 B, and a
# tuple grid per table 1,193 B. A bench run holds every op's scenario and
# result, so its peak RSS grows by these bytes per op; storing the angle
# grid at build (about 1 KB more) fails here first.
SCENARIO_BYTES = 1_500
TABLE_BYTES = 400


def held_bytes(count: int = 100) -> tuple[float, float]:
    """Bytes that each of ``count`` built (7, 3) scenarios and its table keep.

    CI's line-count step prints them, so each change's log shows them.
    """

    def build():
        totals = [float(t) for t in range(9, 2, -1)]
        allocations = [[0.5 * t, 0.3 * t, 0.2 * t] for t in totals]
        return Scenario.create(totals, allocations, 0.7)

    scenarios, tables = [None] * count, [None] * count
    # warm once after numpy has loaded: its ABC registrations reset the
    # caches a build's type checks fill
    evaluate(build())
    build()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            scenarios[i] = build()
        gc.collect()
        built = tracemalloc.get_traced_memory()[0] - start
        for i, scenario in enumerate(scenarios):
            tables[i] = evaluate(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start - built
    finally:
        tracemalloc.stop()
    assert tables[-1] == tables[0] and len(tables[0].values) == 7
    return built / count, held / count


def test_built_scenarios_and_tables_hold_their_measured_bytes():
    scenario_bytes, table_bytes = held_bytes()
    assert scenario_bytes <= SCENARIO_BYTES, scenario_bytes
    assert table_bytes <= TABLE_BYTES, table_bytes


# Bytes that each held replace(s, gamma=0.5) of a built (7, 3) scenario
# takes under tracemalloc, over 100 held copies. Every stored field is
# already in stored form, which the build keeps, so a copy is its own
# object and shares every tuple with s. Measured at 97 B per copy (Python
# 3.11); rebuilding the names, totals, pattern and outer grids took 545 B,
# and rebuilding every row too 1,449 B.
REPLACED_BYTES = 150

KEPT_FIELDS = ("player_names", "totals", "allocations", "phases", "sign_pattern")


def seeded_scenario() -> Scenario:
    """A (7, 3) scenario with seeded budgets, allocations and phases."""
    rng = np.random.default_rng(7)
    totals = [6.0] + rng.uniform(1.0, 6.0, 6).tolist()
    allocations = [(rng.dirichlet(np.ones(3)) * t).tolist() for t in totals]
    phases = rng.uniform(0.0, 2.0 * math.pi, (7, 3)).tolist()
    return Scenario.create(
        [sum(r) for r in allocations], allocations, 1.1, phases=phases
    )


def test_replace_shares_the_unchanged_rows():
    s = seeded_scenario()
    moved = replace(s, gamma=0.5)
    for name in KEPT_FIELDS:
        assert getattr(moved, name) is getattr(s, name), name
    assert moved.allocations[0] is s.allocations[0]
    assert moved.phases[-1] is s.phases[-1]
    count = 100
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held = [replace(s, gamma=0.5) for _ in range(count)]
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held[-1] == moved
    assert size / count <= REPLACED_BYTES, size / count


def slotted_values(scenario):
    """One instance of every frozen value class the package hands out."""
    spec = SweepSpec(scenario, 3, 1, "phi", 0.0, math.pi / 2, 101)
    result = run_sweep(spec)
    assert result.transitions
    return [
        scenario,
        evaluate(scenario),
        spec,
        result,
        result.points[0],
        result.transitions[0],
        best_response_grid(scenario, 3, 5),
        PlayerRoster(scenario.totals),
        CheckResult("golden-payoffs", True, "detail"),
    ]


@pytest.fixture(scope="module")
def values():
    return slotted_values(worked_scenario())


def test_every_value_class_is_covered(values):
    # passes at the parent too: it keeps the round-trip test complete
    modules = [
        importlib.import_module(f"qblotto.{info.name}")
        for info in pkgutil.iter_modules(qblotto.__path__)
    ]
    declared = {
        cls
        for module in modules
        for cls in vars(module).values()
        if is_dataclass(cls) and cls.__module__ == module.__name__
    }
    covered = {type(value) for value in values}
    assert declared == covered


@pytest.mark.parametrize("index", range(9))
def test_slotted_value_round_trips(values, index):
    value = values[index]
    assert not hasattr(value, "__dict__")
    assert "__slots__" in type(value).__dict__
    again = pickle.loads(pickle.dumps(value))
    assert again == value and type(again) is type(value)
    assert copy.deepcopy(value) == value
    assert replace(value) == value


def test_derived_rival_best_survives_round_trips():
    table = evaluate(worked_scenario())
    for again in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert again.rival_best == table.rival_best
    # halving every strength halves every rival best: none is kept stale
    halved = tuple(tuple(v / 2 for v in row) for row in table.values)
    expected = tuple(tuple(v / 2 for v in row) for row in table.rival_best)
    assert replace(table, values=halved).rival_best == expected


def test_default_names_are_shared():
    first = worked_scenario()
    allocations = ((4.0, 1.0), (2.0, 2.0), (1.0, 1.0))
    second = Scenario.create((5.0, 4.0, 2.0), allocations, 0.3)
    assert first.player_names == ("Blotto", "enemy 1", "enemy 2")
    assert all(a is b for a, b in zip(first.player_names, second.player_names))


def test_same_size_defaults_are_shared():
    first = worked_scenario()
    allocations = [[4.0, 1.0], [2.0, 2.0], [1.0, 1.0]]
    second = Scenario.create([5.0, 4.0, 2.0], allocations, 0.3)
    assert first.sign_pattern == (1, -1) and first.phases == ((0.0, 0.0),) * 3
    for name in ("player_names", "sign_pattern", "phases"):
        assert getattr(first, name) is getattr(second, name), name
    row = first.phases[0]
    assert all(r is row for r in first.phases)  # one zero row, not N copies


def test_refused_size_keeps_no_defaults():
    engine._defaults.cache_clear()
    count = engine.MAX_DIM.bit_length()  # 2**count over MAX_DIM on one battlefield
    with pytest.raises(ValidationError, match="composite dimension"):
        Scenario.create([1.0] * count, [[1.0]] * count, 0.0)
    assert engine._defaults.cache_info().currsize == 0
    # one player on 2**19 battlefields: 2**20 is within MAX_DIM, one player is not
    with pytest.raises(ValidationError, match="need at least two players"):
        Scenario.create([1.0], [[2.0**-19] * 2**19], 0.0)
    assert engine._defaults.cache_info().currsize == 0


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("totals", (6.0, 7.0, 4.0), "exceeds Blotto's"),
        ("totals", (6.0, 4.0, math.inf), "is not finite"),
        ("sign_pattern", (1, 2), r"\+1 or -1"),
        ("allocations", ((3.0, 3.0), (5.0, -1.0), (0.0, 3.0)), "is negative"),
        ("phases", ((0.0, 0.0), (0.0, math.nan), (0.0, 0.0)), "not finite"),
        ("player_names", ("a", "b"), "player names"),
    ],
)
def test_kept_fields_still_pass_every_rule(name, value, message):
    # each value is already in stored form, so the build keeps it as is
    with pytest.raises(ValidationError, match=message):
        replace(worked_scenario(), **{name: value})


def measured(scenario, monkeypatch):
    """``evaluate``'s table and the strength grid it measured, as a tuple grid."""
    grids = []

    def recording(grid):
        grids.append(grid.copy())
        return check_strengths(grid)

    monkeypatch.setattr(engine, "check_strengths", recording)
    table = evaluate(scenario)
    (grid,) = grids
    return table, tuple(map(tuple, grid.tolist()))


@pytest.mark.parametrize("build", [worked_scenario, seeded_scenario])
def test_packed_table_reads_back_the_measured_grid(build, monkeypatch):
    scenario = build()
    table, grid = measured(scenario, monkeypatch)
    assert [f.name for f in fields(table)] == ["payoffs", "strength_bytes"]
    assert type(table.strength_bytes) is bytes
    assert array("d", table.strength_bytes).tolist() == [v for row in grid for v in row]
    # what a table that stored this tuple grid gave
    assert table.values == grid
    assert table.rival_best == rival_best(grid)
    assert table.payoffs == _payoff_vector(grid, scenario.eps)
    assert repr(table) == f"MeasurementTable(values={grid!r}, payoffs={table.payoffs!r})"
    assert MeasurementTable(grid, table.payoffs) == table
    assert MeasurementTable(values=grid, payoffs=table.payoffs) == table
    assert hash(MeasurementTable(grid, table.payoffs)) == hash(table)


def test_table_needs_its_payoffs():
    with pytest.raises(TypeError, match="payoffs"):
        MeasurementTable()


def test_table_grid_needs_its_payoffs():
    with pytest.raises(TypeError, match="payoffs"):
        MeasurementTable(values=((0.1, 0.2), (0.3, 0.4)))


def test_table_refuses_a_row_count_off_its_payoffs():
    # one payoff for two rows read back as one row of four before
    with pytest.raises(DimensionError, match="strength rows: expected dims 1, got 2"):
        MeasurementTable(((0.1, 0.2), (0.3, 0.4)), (1,))


def test_table_refuses_rows_of_two_lengths():
    with pytest.raises(DimensionError, match="strength row 2: expected dims 2, got 3"):
        MeasurementTable(((0.1, 0.2), (0.3, 0.4, 0.5)), (1, -1))


@pytest.mark.parametrize("build", [worked_scenario, seeded_scenario])
def test_packed_table_round_trips(build):
    table = evaluate(build())
    copies = (
        pickle.loads(pickle.dumps(table)),
        copy.copy(table),
        copy.deepcopy(table),
        replace(table),
    )
    for again in copies:
        assert again == table and hash(again) == hash(table)
        assert again.values == table.values and repr(again) == repr(table)
        assert again.rival_best == table.rival_best
    moved = replace(table, payoffs=tuple(p + 1 for p in table.payoffs))
    assert moved != table and moved.strength_bytes is table.strength_bytes
    assert moved.values == table.values
    assert moved.payoffs == tuple(p + 1 for p in table.payoffs)
