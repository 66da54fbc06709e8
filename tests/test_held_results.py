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
    dump_scenario,
    engine,
    evaluate,
    load_scenario,
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
# tracemalloc, inputs excluded. Measured at 1.31 MB with Python 3.11: a
# scenario packs its budgets, allocations and phases as float64 bytes, a
# table its strengths, and a scenario shares its default names and sign
# pattern. Scenarios that held tuple grids took 1.68 MB, tables that held
# a tuple grid too 2.56 MB, and a table that also stored its rival bests,
# beside classes with a per-instance dict and fresh default names per
# scenario, 4.0 MB.
HELD_BUDGET = 1_500_000


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
# temporaries as held. A scenario packs its budgets, allocations and phases
# as float64 bytes. Measured at 378 B per zero-phase scenario, which shares
# its default names, sign pattern and zero phase bytes, 579 B per phased
# one, and 346 B per table, which packs its 21 strengths as float64 bytes
# (Python 3.11, numpy 2.4). Tuple grids took 1,400 B per zero-phase
# scenario and 2,448 B per phased one, and a fresh name tuple, pattern and
# phase grid 2,104 B; a tuple grid per table took 1,193 B. A bench run
# holds every op's scenario and result, so its peak RSS grows by these
# bytes per op; storing the angle grid at build (209 B more, packed) fails
# here first.
SCENARIO_BYTES = 450
PHASED_SCENARIO_BYTES = 650
TABLE_BYTES = 400


def held_bytes(count: int = 100) -> tuple[float, float, float]:
    """Bytes that each of ``count`` built (7, 3) scenarios and its table keep.

    The three figures are a zero-phase scenario's, a phased one's and the
    zero-phase scenario's table's. CI's line-count step prints them, so
    each change's log shows them.
    """

    def build(phased=False):
        totals = [float(t) for t in range(9, 2, -1)]
        allocations = [[0.5 * t, 0.3 * t, 0.2 * t] for t in totals]
        phases = [[0.1 * t, 0.2 * t, 0.3 * t] for t in totals] if phased else None
        return Scenario.create(totals, allocations, 0.7, phases=phases)

    def traced(make):
        """Bytes per held result of ``make(i)``, after a full collection."""
        held = [None] * count
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                held[i] = make(i)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        return held, size / count

    # warm once after numpy has loaded: its ABC registrations reset the
    # caches a build's type checks fill
    evaluate(build())
    build(phased=True)
    scenarios, scenario_bytes = traced(lambda i: build())
    phased, phased_bytes = traced(lambda i: build(phased=True))
    tables, table_bytes = traced(lambda i: evaluate(scenarios[i]))
    assert tables[-1] == tables[0] and len(tables[0].values) == 7
    assert phased[-1] == phased[0] and min(map(min, phased[0].phases)) > 0.0
    return scenario_bytes, phased_bytes, table_bytes


def test_built_scenarios_and_tables_hold_their_measured_bytes():
    scenario_bytes, phased_bytes, table_bytes = held_bytes()
    assert scenario_bytes <= SCENARIO_BYTES, scenario_bytes
    assert phased_bytes <= PHASED_SCENARIO_BYTES, phased_bytes
    assert table_bytes <= TABLE_BYTES, table_bytes


# Bytes that each held replace(s, gamma=0.5) of a built (7, 3) scenario
# takes under tracemalloc, over 100 held copies. The build reads every
# unchanged byte field back for its rules and keeps it, and keeps names and
# a pattern already in stored form, so a copy is its own object and shares
# every stored field but gamma with s. Measured at 97 B per copy (Python
# 3.11); repacking the three grids on each copy took 596 B, rebuilding the
# names, totals, pattern and outer tuple grids 545 B, and rebuilding every
# row too 1,449 B.
REPLACED_BYTES = 150

KEPT_FIELDS = (
    "player_names", "total_bytes", "allocation_bytes", "phase_bytes", "sign_pattern"
)


def seeded_inputs(seed: int = 7, players: int = 7, battlefields: int = 3):
    """Seeded budgets, allocations and phases as lists, budgets the row sums."""
    rng = np.random.default_rng(seed)
    totals = [6.0] + rng.uniform(1.0, 6.0, players - 1).tolist()
    allocations = [(rng.dirichlet(np.ones(battlefields)) * t).tolist() for t in totals]
    phases = rng.uniform(0.0, 2.0 * math.pi, (players, battlefields)).tolist()
    return [sum(r) for r in allocations], allocations, phases


def seeded_scenario() -> Scenario:
    """A (7, 3) scenario with seeded budgets, allocations and phases."""
    totals, allocations, phases = seeded_inputs()
    return Scenario.create(totals, allocations, 1.1, phases=phases)


def test_replace_shares_the_unchanged_rows():
    s = seeded_scenario()
    moved = replace(s, gamma=0.5)
    for name in KEPT_FIELDS:
        assert getattr(moved, name) is getattr(s, name), name
    assert moved.allocations == s.allocations and moved.phases == s.phases
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
    for name in ("player_names", "sign_pattern", "phase_bytes"):
        assert getattr(first, name) is getattr(second, name), name
    assert first.phase_bytes == bytes(8 * 3 * 2)  # one zero block per size


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


def packed(*rows) -> bytes:
    """Rows of floats as a scenario stores them: row-major float64 bytes."""
    return array("d", [x for row in rows for x in row]).tobytes()


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("totals", (6.0, 7.0, 4.0), "exceeds Blotto's"),
        ("totals", (6.0, 4.0, math.inf), "is not finite"),
        ("sign_pattern", (1, 2), r"\+1 or -1"),
        ("allocations", ((3.0, 3.0), (5.0, -1.0), (0.0, 3.0)), "is negative"),
        ("phases", ((0.0, 0.0), (0.0, math.nan), (0.0, 0.0)), "not finite"),
        ("player_names", ("a", "b"), "player names"),
        # a field given as bytes meets the same rules as its grid
        pytest.param(
            "total_bytes", packed((6.0, 7.0, 4.0)), "exceeds Blotto's",
            id="total_bytes-exceeds Blotto's",
        ),
        pytest.param(
            "allocation_bytes",
            packed((3.0, 3.0), (5.0, -1.0), (0.0, 3.0)),
            "is negative",
            id="allocation_bytes-is negative",
        ),
        pytest.param(
            "phase_bytes",
            packed((0.0, 0.0), (0.0, math.nan), (0.0, 0.0)),
            "not finite",
            id="phase_bytes-not finite",
        ),
        # an unchanged byte field meets the rules again, beside the changed one
        ("totals", (6.0, 4.0, 2.0), "allocations sum to 3.0, budget is 2.0"),
        (
            "allocations",
            ((3.0, 3.0), (3.0, 2.0), (0.0, 3.0)),
            "sum to 5.0, budget is 4.0",
        ),
        ("phases", ((0.0, 0.0),) * 2, "phase rows: expected dims 3, got 2"),
        ("sign_pattern", (1, -1, 1), "sign pattern: expected dims 2, got 3"),
        ("gamma", 2.0, r"outside \[0, pi/2\]"),
        ("eps", -1.0, "tie tolerance must be finite and non-negative"),
    ],
)
def test_kept_fields_still_pass_every_rule(name, value, message):
    # the changed field and every kept one, read back from its bytes, meet
    # every rule before anything is packed
    with pytest.raises(ValidationError, match=message):
        replace(worked_scenario(), **{name: value})


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            dict(total_bytes=bytes(20)),
            "total bytes: expected dims a positive multiple of 8, got 20",
        ),
        (
            dict(total_bytes=b""),
            "total bytes: expected dims a positive multiple of 8, got 0",
        ),
        (
            dict(allocation_bytes=bytes(40)),
            "allocation bytes: expected dims a positive multiple of 24, got 40",
        ),
        (
            dict(allocation_bytes=b""),
            "allocation bytes: expected dims a positive multiple of 24, got 0",
        ),
        (
            dict(phase_bytes=bytes(56)),
            "phase bytes: expected dims a positive multiple of 24, got 56",
        ),
        # a changed budget count reads the kept grids with the stored layout
        (dict(totals=(6.0, 4.0, 3.0, 1.0)), "player names: expected dims 4, got 3"),
    ],
    ids=["totals", "no-totals", "allocations", "no-allocations", "phases", "roster"],
)
def test_scenario_refuses_bytes_off_its_rows(changes, message):
    with pytest.raises(DimensionError) as raised:
        replace(worked_scenario(), **changes)
    assert str(raised.value) == message


def test_scenario_reports_a_missing_grid():
    with pytest.raises(TypeError, match="missing required argument: 'phases'"):
        Scenario(("a", "b"), (2.0, 1.0), ((1.0, 1.0), (1.0, 0.0)))


# Budgets, allocations and phases: seeded ones, and cells of -0.0, 1e308
# and the smallest subnormal, 5e-324.
STORED_INPUTS = {
    "worked": (
        (6.0, 4.0, 3.0), ((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)), ((0.0, 0.0),) * 3
    ),
    **{
        f"seed-{seed}": seeded_inputs(seed, players, battlefields)
        for seed, players, battlefields in [(7, 7, 3), (11, 5, 2), (13, 3, 4)]
    },
    "special": (
        (1e308, 5e-324, -0.0),
        ((1e308, 0.0), (5e-324, -0.0), (-0.0, -0.0)),
        ((-0.0, 5e-324), (1e308, -1e308), (0.0, 6.0)),
    ),
}


def hex_cells(*grids) -> list[str]:
    """Every float of the given rows, in order, as ``float.hex`` text."""
    return [float(x).hex() for rows in grids for row in rows for x in row]


@pytest.mark.parametrize("inputs", STORED_INPUTS.values(), ids=STORED_INPUTS)
def test_packed_scenario_reads_back_its_floats(inputs, tmp_path):
    totals, allocations, phases = inputs
    s = Scenario.create(totals, allocations, 0.5, phases=phases)
    assert [f.name for f in fields(s)] == [
        "player_names", "total_bytes", "allocation_bytes", "phase_bytes",
        "gamma", "sign_pattern", "eps",
    ]
    # the floats a scenario that stored tuple grids held: each input as float
    grids = (s.totals, s.allocations, s.phases)
    assert hex_cells([grids[0]], *grids[1:]) == hex_cells([totals], allocations, phases)
    assert all(type(x) is float for x in s.totals + sum(grids[1] + grids[2], ()))
    assert s.num_players == len(totals) and s.blotto_total == totals[0]
    assert s.num_battlefields == len(allocations[0])
    # what the dataclass repr of the tuple-grid fields gave
    assert repr(s) == (
        f"Scenario(player_names={s.player_names!r}, totals={grids[0]!r}, "
        f"allocations={grids[1]!r}, phases={grids[2]!r}, gamma={s.gamma!r}, "
        f"sign_pattern={s.sign_pattern!r}, eps={s.eps!r})"
    )
    rebuilt = Scenario(s.player_names, *grids, s.gamma, s.sign_pattern, s.eps)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    for again in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert again == s and hash(again) == hash(s) and repr(again) == repr(s)
    path = tmp_path / "scenario.json"
    dump_scenario(s, path)
    loaded, _ = load_scenario(path)
    assert loaded == s and repr(loaded) == repr(s)


def test_equality_compares_the_stored_bits():
    # equal as floats, stored as different bits: a tuple grid found them equal
    s = worked_scenario()
    zero = replace(s, phases=((0.0, 0.0),) * 3)
    negative = replace(s, phases=((0.0, -0.0), (0.0, 0.0), (0.0, 0.0)))
    assert zero == s and negative.phases == zero.phases
    assert negative != zero and negative.phase_bytes != zero.phase_bytes


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


def test_table_refuses_no_rows():
    # constructed, and its values raised ZeroDivisionError before
    with pytest.raises(DimensionError) as raised:
        MeasurementTable((), ())
    assert str(raised.value) == "strength rows: expected dims 1 or more, got 0"


def test_table_refuses_rows_of_no_strengths():
    # constructed, and its values read back () before
    with pytest.raises(DimensionError) as raised:
        MeasurementTable(((),), (0,))
    expected = "strength bytes: expected dims a positive multiple of 8, got 0"
    assert str(raised.value) == expected


@pytest.mark.parametrize("size", [20, 24], ids=["partial-float", "partial-row"])
def test_table_refuses_bytes_off_its_rows(size):
    # 20 bytes raised a bare TypeError on values; 24 read back one strength
    # per payoff and dropped the third
    with pytest.raises(DimensionError) as raised:
        MeasurementTable(payoffs=(1, -1), strength_bytes=bytes(size))
    expected = f"strength bytes: expected dims a positive multiple of 16, got {size}"
    assert str(raised.value) == expected


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
