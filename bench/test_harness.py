"""Self-tests for the benchmark harness.

    python3 -m pytest bench -q

Run from the repository root; the package is imported from ``src/``.
"""

import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    def draws(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = workloads.WORKLOADS[name](seed, workdir)
        setup = workload.setup_inputs()
        workload.build_setup(setup)
        return repr(setup) + repr(workload.raw_cycle()).replace(str(workdir), "")

    assert draws(7, "a") == draws(7, "b")
    assert draws(7, "c") != draws(8, "d")


def test_cycles_keep_the_stated_mix():
    workload = workloads.EvalLarge(1, Path("."))
    for _ in range(3):
        sizes = sorted(
            (len(r["totals"]), len(r["allocations"][0])) for r in workload.raw_cycle()
        )
        assert sizes == sorted(workloads.EVAL_SIZES)
    zero = [r for r in workload.raw_cycle() if r["phases"] is None]
    assert len(zero) == workloads.EVAL_ZERO_PHASE


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_percentiles_sit_at_the_fast_edge_of_a_tier(name):
    tiers = workloads.WORKLOADS[name].tiers
    per_cycle = sum(tiers)
    for cycles in range(1, 2 * run.MIN_OPS // per_cycle + 2):
        n = per_cycle * cycles
        for p in (0.5, 0.9):
            position = (n - 1) * p  # statistics.quantiles, inclusive method
            start = 0
            for size in (t * cycles for t in tiers):
                if position < start + size - 1:
                    break
                start += size
            assert start <= position <= start + size - 1
            assert (position - start) / size <= 1 / 3 + 1e-9, (name, cycles, p)


def test_size_guards_refuse_what_dense_cannot_finish():
    for num_players, n in workloads.EVAL_SIZES:
        workloads.guard_size(num_players, n, workloads.MAX_EVAL_DIM)
    with pytest.raises(ValueError):
        workloads.guard_size(19, 2, workloads.MAX_EVAL_DIM)
    sweep_ops = [op for tier in workloads.SWEEP_MIX for op in tier]
    assert max(num for _, num, *_ in sweep_ops) <= workloads.MAX_SWEEP_PLAYERS
    assert max(
        how**n for kind, _, n, how in sweep_ops if kind == "best"
    ) <= workloads.MAX_BEST_RESPONSE_POINTS


def test_latency_summary_uses_every_sample():
    summary = harness.latency_summary([i / 1e3 for i in range(1, 101)])
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p90_ms"] == pytest.approx(90.1)
    assert summary["beyond_p90"] == 10
    assert harness.latency_summary([i / 1e3 for i in range(1, 301)])["beyond_p90"] == 30
    with pytest.raises(ValueError):
        harness.latency_summary([0.1])


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert harness.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(harness.self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [span("op", 0.0, 10.0), span("a", 1.0, 6.0, 0), span("b", 4.0, 12.0, 0)]
    assert harness.self_times(spans)[0] == pytest.approx(1.0)


def test_busy_time_counts_a_reentered_layer_once():
    spans = [span("op", 0.0, 10.0), span("a", 1.0, 8.0, 0), span("a", 2.0, 5.0, 1)]
    totals = harness.aggregate(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["busy_s"] == pytest.approx(7.0)
    assert totals["a"]["self_s"] == pytest.approx(7.0)


def test_tracer_wraps_every_reference_and_marks_absent_targets(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    core.work = lambda x: x + 1
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    user.call = lambda x: user.work(x)
    for module in (types.ModuleType("fakepkg"), core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    original = core.work

    tracer = harness.Tracer()
    targets = (
        ("core.work", "fakepkg.core", "work"),
        ("core.gone", "fakepkg.core", "removed"),
        ("missing.module", "fakepkg.missing", "work"),
    )
    with tracer.installed(targets, package="fakepkg"):
        with tracer.span("op.call", op_id=3):
            assert user.call(1) == 2
    assert core.work is original and user.work is original
    assert tracer.absent == ["core.gone", "missing.module"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("op.call", None, 3), ("core.work", 0, 3)]


def test_adopted_child_spans_hang_under_the_op():
    tracer = harness.Tracer()
    with tracer.span("op.cli.play", op_id=5):
        pass
    tracer.adopt([span("import", 1.0, 2.0), span("engine", 2.0, 3.0, 0)], 0, 5)
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    assert all(s[4] == 5 for s in tracer.spans)


def test_eval_check_catches_a_wrong_payoff():
    workload = workloads.EvalLarge(3, Path("."))
    op = next(op for op in workload.build_cycle(workload.raw_cycle())
              if op.args["scenario"].num_players == 5)
    table = workload.run(op)
    assert workload.check(op, table) is None
    bad = replace(table, payoffs=tuple(p + 1 for p in table.payoffs))
    assert workload.check(op, bad) is not None


def test_sweep_check_catches_a_payoff_change_without_transition():
    workload = workloads.Sweep(1, Path("."))
    op = next(
        op
        for op in workload.build_cycle(workload.raw_cycle())
        if op.kind == "op.run_sweep" and op.args["scenario"].num_players == 3
    )
    result = workload.run(op)
    assert workload.check(op, result) is None
    last = result.points[-1]
    moved = replace(last, payoffs=tuple(p + 5 for p in last.payoffs))
    assert workload.check(op, replace(result, points=result.points[:-1] + (moved,))) is not None


def test_cli_check_compares_readme_output_byte_for_byte(tmp_path):
    workload = workloads.Cli(1, tmp_path)
    workload.build_setup(workload.setup_inputs())
    op = workloads.Op("op.cli.play", {"argv": ["play", workloads.README_FILE]})
    good = subprocess.CompletedProcess([], 0, workloads.README_PLAY, "")
    assert workload.check(op, good) is None
    bad = subprocess.CompletedProcess([], 0, workloads.README_PLAY.replace("+0", "0"), "")
    assert workload.check(op, bad) is not None
    assert workload.check(op, subprocess.CompletedProcess([], 2, "", "error")) is not None
