"""qblotto benchmark.

    python3 bench/run.py --workload {eval-large,sweep,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a qblotto checkout; the package is imported from
``src/`` and the CLI runs as ``python3 -m qblotto.cli`` with
``PYTHONPATH=src``. BLAS is pinned to one thread in this process and
every child.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
(median of fresh processes), ops per second (median over cycles),
p50/p90 latency and peak memory, over whole workload cycles until
``--seconds`` of op time and at least 100 ops have been spent. With ``--trace 1`` it spends half the time
untraced and half with layer spans installed, and reports per-layer
calls, busy and self time per op, dense bytes, sweep counts and the
tracing overhead. Every op's output is checked after the timed loop.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import harness

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

SETUP_PROBES = 15  # fresh-process set-up samples per run, spread over its cycles
MIN_OPS = 100  # at least ten samples beyond p90
MAX_TIME_FACTOR = 3  # hard stop at this multiple of --seconds of op time
CLI_COMMANDS = ("play", "oracle", "sweep", "verify")

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_sample(workload: str, seed: int, workdir: Path, index: int) -> dict:
    """Import-and-build timings from one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
         str(workdir / f"probe-{index}")],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """One measured stream of ops and its outcomes."""

    def __init__(self):
        self.records = []  # [op, result, latency_s, error, op_id]
        self.timed = 0.0
        self.cycle_rates = []  # ops per second of op time, one per cycle

    @property
    def rate(self) -> float:
        """Median over cycles, so one cycle the host slowed counts once."""
        return statistics.median(self.cycle_rates)


def measure(
    workload, seconds, min_ops, op_ids, tracer=None, child_spans=None, between=None
) -> Run:
    """Run whole cycles until ``seconds`` of op time and ``min_ops`` ops.

    ``between(share)`` runs after each cycle, outside the timed ops, with
    the share of ``seconds`` spent so far.
    """
    run = Run()
    limit = seconds * MAX_TIME_FACTOR
    while not (run.timed >= seconds and len(run.records) >= min_ops) and run.timed < limit:
        cycle = workload.next_cycle()
        cycle_start = run.timed
        for op in cycle:
            op_id = next(op_ids)
            root = len(tracer.spans) if tracer else None
            result, error = None, None
            start = time.perf_counter()
            try:
                with tracer.span(op.kind, op_id) if tracer else nullcontext():
                    result = workload.run(op)
            except Exception as exc:  # one failed op must not end the run
                error = f"{op.kind} raised {type(exc).__name__}: {exc}"
                if not any(r[3] for r in run.records):
                    traceback.print_exc(file=sys.stderr)
            latency = time.perf_counter() - start
            run.timed += latency
            run.records.append([op, result, latency, error, op_id])
            if child_spans is not None and child_spans.exists():
                doc = json.loads(child_spans.read_text(encoding="utf-8"))
                tracer.adopt(doc["spans"], root, op_id)
                tracer.absent.extend(a for a in doc["absent"] if a not in tracer.absent)
                child_spans.unlink()
        run.cycle_rates.append(len(cycle) / (run.timed - cycle_start))
        if between is not None:
            between(min(1.0, run.timed / seconds))
    return run


def check(workload, runs) -> list[str]:
    """Check every op outside the timed loop; one message per failed op."""
    errors = []
    for run in runs:
        for record in run.records:
            op, result, _, error, _ = record
            if error is None:
                try:
                    error = workload.check(op, result)
                except Exception as exc:  # a crashing check is a failed op
                    error = f"{op.kind} check raised {type(exc).__name__}: {exc}"
            record[3] = error
            if error is not None:
                errors.append(error)
    return errors


def end_to_end(run: Run, setup_s: float, cli: bool) -> dict:
    summary = harness.latency_summary([r[2] for r in run.records])
    print(
        f"  latency samples {summary['n']}, {summary['beyond_p90']} beyond p90",
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": run.rate,
        "latency_p50_ms": summary["p50_ms"],
        "latency_p90_ms": summary["p90_ms"],
        "peak_rss_mb": harness.peak_rss_mb(include_children=cli),
    }


def per_layer(tracer, plain: Run, traced: Run, import_ms: float) -> dict:
    spans = tracer.spans
    ops = len(traced.records)
    totals = harness.aggregate(spans)
    selfs = harness.self_times(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0}
    out = {}
    for name in harness.SPAN_NAMES:
        entry = totals.get(name, empty)
        out[f"{name}.calls"] = entry["calls"] / ops
        out[f"{name}.busy_ms"] = entry["busy_s"] * 1e3 / ops
        out[f"{name}.self_ms"] = entry["self_s"] * 1e3 / ops

    roots = [i for i, s in enumerate(spans) if s[3] is None]
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    root_self = sum(selfs[i] for i in roots)
    out["op.wall_ms"] = wall * 1e3 / ops
    out["op.self_ms"] = root_self * 1e3 / ops

    evals = totals.get("engine.evolve", empty)["calls"]
    dense = sum(totals.get(name, empty)["bytes"] for name in harness.DENSE_RESULTS)
    out["engine.dense_bytes_computed"] = dense / evals if evals else 0.0

    evals_by_op: dict[int, int] = {}
    for name, _, _, _, op_id, _ in spans:
        if name == "sweep.evaluate":
            evals_by_op[op_id] = evals_by_op.get(op_id, 0) + 1
    grid, bisect, transitions, best = [], [], [], []
    for op, result, _, error, op_id in traced.records:
        if error is not None:
            continue
        count = evals_by_op.get(op_id, 0)
        if op.kind == "op.run_sweep":
            grid.append(len(result.points))
            bisect.append(count - len(result.points))
            transitions.append(len(result.transitions))
        elif op.kind == "op.best_response_grid":
            best.append(count)
    out["sweep.grid_evals"] = mean(grid)
    out["sweep.bisect_evals"] = mean(bisect)
    out["sweep.best_response_evals"] = mean(best)
    out["sweep.transitions"] = mean(transitions)
    out["import.qblotto_ms"] = import_ms

    for command in CLI_COMMANDS:
        times = [r[2] for r in plain.records if r[0].kind == f"op.cli.{command}"]
        out[f"cli.{command}_ms"] = statistics.median(times) * 1e3 if times else 0.0

    out["tracing.overhead_ratio"] = traced.rate / plain.rate
    out["tracing.layer_self_share"] = (wall - root_self) / wall
    out["tracing.absent_spans"] = len(tracer.absent)
    return out


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "qblotto" / "__init__.py").is_file() or not (
        ROOT / "scenarios" / "three_players.json"
    ).is_file():
        fail(f"{ROOT} is not a qblotto checkout (need src/qblotto and scenarios/)")

    # children (set-up probes, CLI processes) inherit both settings
    harness.pin_blas_threads(os.environ)  # before numpy loads
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, spec: dict, workdir: Path) -> None:
    # Set-up is sampled in fresh processes between cycles, so that the
    # samples spread over the whole run instead of one moment of it.
    samples = []

    def probe(share: float) -> None:
        while len(samples) < math.ceil(SETUP_PROBES * share):
            samples.append(setup_sample(args.workload, args.seed, workdir, len(samples)))

    import qblotto
    from workloads import WORKLOADS

    if Path(qblotto.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        fail(f"qblotto was imported from {qblotto.__file__}, not from {ROOT / 'src'}")

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.build_setup(workload.setup_inputs())
    op_ids = itertools.count()
    cli = args.workload == "cli"

    if not args.trace:
        runs = [measure(workload, args.seconds, MIN_OPS, op_ids, between=probe)]
    else:
        half = args.seconds / 2
        plain = measure(workload, half, 1, op_ids, between=probe)
        tracer = harness.Tracer()
        child_spans = None
        if cli:
            child_spans = workdir / "child-spans.json"
            workload.command = [sys.executable, str(BENCH / "cli_shim.py"), str(child_spans)]
        with tracer.installed():
            traced = measure(workload, half, 1, op_ids, tracer, child_spans)
        runs = [plain, traced]
        for label, run in (("untraced", plain), ("traced", traced)):
            print(f"  {label} half: {len(run.records)} ops in {run.timed:.2f} s of op time")

    probe(1.0)
    setup_s = statistics.median(s["import_s"] + s["build_s"] for s in samples)
    import_ms = statistics.median(s["import_s"] for s in samples) * 1e3

    errors = check(workload, runs)
    attempted = sum(len(run.records) for run in runs)
    timed = sum(run.timed for run in runs)
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, "
        f"{timed:.1f} s of op time, {len(errors)} failed"
    )
    for error in errors[:10]:
        print(f"  FAILED {error}", file=sys.stderr)
    print(f"  failed_ratio {len(errors) / attempted:.6g} ({len(errors)}/{attempted})")

    if not args.trace:
        values = end_to_end(runs[0], setup_s, cli)
    else:
        values = per_layer(tracer, plain, traced, import_ms)
        if tracer.absent:
            print(f"  absent spans: {', '.join(tracer.absent)}")
        WORK.mkdir(exist_ok=True)
        harness.dump_spans(tracer, WORK / f"spans-{args.workload}.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        fail(f"measured metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:14.6g} {unit}")
    print("env " + json.dumps(harness.environment(ROOT)))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
