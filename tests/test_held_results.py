"""What a held result costs: slotted value classes and a lean table."""

import copy
import gc
import importlib
import math
import pickle
import pkgutil
import tracemalloc
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

import qblotto
from qblotto import (
    Scenario,
    SweepSpec,
    best_response_grid,
    evaluate,
    run_sweep,
)
from qblotto.classical import PlayerRoster
from qblotto.engine import evolve_strategies, measurements, strategies_of
from qblotto.selfcheck import CheckResult

# Bytes that 1000 held (7, 3) scenarios and their tables may take under
# tracemalloc, inputs excluded. Measured at 2.52-2.55 MB (about 1440 B
# per scenario and 1070 B per table) with Python 3.11; a table that
# also stored its rival bests, beside classes with a per-instance dict
# and fresh default names per scenario, took 4.0 MB.
HELD_BUDGET = 3_000_000


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
# temporaries as held. Measured at 2,104 B per scenario (Python 3.10-3.13)
# and 1,193 B per table (Python 3.11, numpy 2.4). A bench run holds every
# op's scenario and result, so its peak RSS grows by these bytes per op;
# storing the angle grid at build (about 1 KB more) fails here first.
SCENARIO_BYTES = 2_200
TABLE_BYTES = 1_250


def test_built_scenarios_and_tables_hold_their_measured_bytes():
    def build():
        totals = [float(t) for t in range(9, 2, -1)]
        allocations = [[0.5 * t, 0.3 * t, 0.2 * t] for t in totals]
        return Scenario.create(totals, allocations, 0.7)

    count = 100
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
    assert built / count <= SCENARIO_BYTES, built / count
    assert held / count <= TABLE_BYTES, held / count


# Bytes that each held replace(s, gamma=0.5) of a built (7, 3) scenario
# takes under tracemalloc, over 100 held copies. Every allocation and phase
# row is a tuple of floats, which the build keeps, so a copy shares them
# with s. Measured at 553 B per copy (Python 3.11); rebuilding each row
# took 1,449 B.
REPLACED_BYTES = 800


def test_replace_shares_the_unchanged_rows():
    rng = np.random.default_rng(7)
    totals = [6.0] + rng.uniform(1.0, 6.0, 6).tolist()
    allocations = [(rng.dirichlet(np.ones(3)) * t).tolist() for t in totals]
    phases = rng.uniform(0.0, 2.0 * math.pi, (7, 3)).tolist()
    s = Scenario.create([sum(r) for r in allocations], allocations, 1.1, phases=phases)
    moved = replace(s, gamma=0.5)
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
