"""Seeded workloads that drive qblotto from outside.

Each workload draws its inputs from ``random.Random(seed)`` in fixed
cycles of ops (80 for eval-large, 20 for the others). A cycle always
holds the same mix of op kinds and sizes in a seeded order, and runs
stop only between cycles, so every run sees the same proportions and
the latency percentiles fall at the fast edge of one op class. Only the
README-documented API is called: ``Scenario.create``, ``evaluate``,
``SweepSpec``/``run_sweep``, ``best_response_grid``, ``load_scenario``,
``dump_scenario``, ``qblotto.classical`` and the ``qblotto`` CLI.

Every op is checked after the timed loop; a check returns an error
message, or None when the output is correct.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import qblotto
from qblotto import classical

HALF_PI = math.pi / 2

# Size guards. The dense engine builds several (2^N * n)^2 complex
# matrices per evaluation, and the package's own cap (MAX_DIM = 2^20)
# still admits N=19, n=2, which would need about 16 TiB per operator.
# The generators therefore stop well below it: dim <= 1024 (about 0.7 s
# per evaluate on one core) for eval-large, and N <= 5 for sweep, whose
# ops run hundreds of evaluations each.
MAX_EVAL_DIM = 1024
MAX_SWEEP_PLAYERS = 5

# Each mix lists its op classes in tiers of rising cost. Shared virtual
# machines can run everything ~1.4x slower for seconds to minutes, so a
# percentile in the middle of a class moves whenever about half of that
# class ran slow. The tier sizes put p50 and p90 (inclusive method, over
# any whole number of cycles that reaches 100 ops) at or below a third
# of the way into a tier: there a percentile moves only when most of its
# tier ran slow, and it reads the tier's fast edge.
#
# eval-large: ((N, n), count) per 80-op cycle. p50 sits 1/32 into (7, 3),
# p90 1/7 into (7, 4).
EVAL_MIX = (
    ((5, 2), 10),
    ((5, 3), 10),
    ((5, 4), 9),
    ((7, 2), 10),
    ((7, 3), 32),
    ((7, 4), 7),
    ((9, 2), 2),
)
EVAL_SIZES = tuple(size for size, count in EVAL_MIX for _ in range(count))
EVAL_ZERO_PHASE = 16  # zero-phase scenarios per cycle, checked against the oracle

# sweep: (kind, N, n, parameter or phase-grid steps per battlefield) per
# 20-op cycle. Cheap N=3 ops first; p50 sits 1/8 into the 256-point N=3
# grids, p90 1/3 into the 196-point N=5 ones.
SWEEP_MIX = (
    (
        ("best", 3, 2, 8),
        ("best", 3, 3, 4),
        ("sweep", 3, 2, "phi"),
        ("sweep", 3, 2, "phi"),
        ("sweep", 3, 2, "phi"),
        ("sweep", 3, 2, "gamma"),
        ("sweep", 3, 2, "gamma"),
        ("sweep", 3, 2, "lambda"),
        ("sweep", 3, 2, "lambda"),
    ),
    (("best", 3, 2, 16),) * 8,
    (("best", 5, 2, 14),) * 3,
)
SWEEP_STEPS = 101
MAX_BEST_RESPONSE_POINTS = 256

# cli: (subcommand, count) per 20-op cycle. p50 sits 1/8 into the sweeps,
# p90 1/3 into the verifies. One play and one oracle per cycle run on
# the README's example file and must reproduce its output exactly.
CLI_MIX = ((("play", 5), ("oracle", 4)), (("sweep", 8),), (("verify", 3),))
CLI_SEEDED_FILES = 6  # N=3 files written at set-up, the first half zero-phase
CLI_TIMEOUT_S = 60

README_FILE = "scenarios/three_players.json"
README_PLAY = """\
players: 3  battlefields: 2  composite dim: 16
gamma: 1.57079632679  sign pattern: +1 -1  tie eps: 1e-09
player   b1    b2               payoff
Blotto   0.25  0.25             +0
enemy 1  0.25  0.0334936490539  -1
enemy 2  0     0.25             -1
"""
README_ORACLE = """\
classical payoffs: (0, -1, -1)
quantum payoffs:   (0, -1, -1)
PASS
"""
COMMITTED_FILES = (
    # path, battlefields, zero phases
    ("scenarios/three_players.json", 2, True),
    ("scenarios/quantum_move.json", 2, False),
)


def guard_size(num_players: int, num_battlefields: int, max_dim: int) -> None:
    if num_players > 1 and 2**num_players * num_battlefields > max_dim:
        raise ValueError(
            f"N={num_players}, n={num_battlefields} exceeds the dense "
            f"size guard {max_dim}"
        )


def raw_scenario(rng, num_players, num_battlefields, *, phase_hi=None) -> dict:
    """Scenario.create arguments; zero phases when ``phase_hi`` is None.

    Blotto's budget is drawn largest, and each budget is the exact sum of
    its allocation row.
    """
    blotto = rng.uniform(6.0, 10.0)
    budgets = [blotto] + [rng.uniform(1.0, blotto) for _ in range(num_players - 1)]
    allocations = []
    for budget in budgets:
        weights = [rng.random() for _ in range(num_battlefields)]
        allocations.append([budget * w / sum(weights) for w in weights])
    phases = None
    if phase_hi is not None:
        phases = [
            [rng.uniform(0.0, phase_hi) for _ in range(num_battlefields)]
            for _ in range(num_players)
        ]
    return {
        "totals": [sum(row) for row in allocations],
        "allocations": allocations,
        "gamma": HALF_PI * (1.0 - rng.random()),  # (0, pi/2]
        "phases": phases,
    }


def create(raw: dict) -> qblotto.Scenario:
    return qblotto.Scenario.create(
        raw["totals"], raw["allocations"], raw["gamma"], phases=raw["phases"]
    )


def sign_rule_error(table, eps) -> str | None:
    """Strengths in [0, 1]; rival bests and payoffs match the sign rule."""
    values = table.values
    for j, row in enumerate(values):
        for k, v in enumerate(row):
            if not 0.0 <= v <= 1.0:
                return f"strength ({j + 1},{k + 1}) = {v!r} outside [0, 1]"
            rival = max(values[i][k] for i in range(len(values)) if i != j)
            if table.rival_best[j][k] != rival:
                return f"rival best ({j + 1},{k + 1}) is not the rivals' maximum"
    payoffs = tuple(
        sum(
            classical.sgn_eps(v - table.rival_best[j][k], eps)
            for k, v in enumerate(row)
        )
        for j, row in enumerate(values)
    )
    if payoffs != table.payoffs:
        return f"payoffs {table.payoffs} differ from the sign rule {payoffs}"
    return None


@dataclass
class Op:
    kind: str  # root span name, e.g. "op.evaluate" or "op.cli.play"
    args: dict


class Workload:
    """Seeded op stream: set-up inputs, cycles, one op, one check."""

    name = ""
    tiers: tuple[int, ...] = ()  # ops per cycle in each cost tier, cheapest first

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.pending = None

    def setup_inputs(self):
        """Raw inputs built at set-up (drawn by the benchmark, not timed)."""
        return self.raw_cycle()

    def build_setup(self, raw):
        """Package work done at set-up; part of setup_s."""
        self.pending = self.build_cycle(raw)

    def next_cycle(self) -> list[Op]:
        ops, self.pending = self.pending, None
        return ops if ops is not None else self.build_cycle(self.raw_cycle())

    def raw_cycle(self):
        raise NotImplementedError

    def build_cycle(self, raw) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError


class EvalLarge(Workload):
    """Distinct dense-size scenarios through ``evaluate``."""

    name = "eval-large"
    tiers = tuple(count for _, count in EVAL_MIX)

    def raw_cycle(self):
        for num_players, n in EVAL_SIZES:
            guard_size(num_players, n, MAX_EVAL_DIM)
        sizes = list(EVAL_SIZES)
        self.rng.shuffle(sizes)
        zero = set(self.rng.sample(range(len(sizes)), EVAL_ZERO_PHASE))
        return [
            raw_scenario(
                self.rng, num_players, n, phase_hi=None if i in zero else 2 * math.pi
            )
            for i, (num_players, n) in enumerate(sizes)
        ]

    def build_cycle(self, raw):
        return [Op("op.evaluate", {"scenario": create(r)}) for r in raw]

    def run(self, op):
        return qblotto.evaluate(op.args["scenario"])

    def check(self, op, table):
        scenario = op.args["scenario"]
        error = sign_rule_error(table, scenario.eps)
        if error is not None or any(p != 0.0 for row in scenario.phases for p in row):
            return error
        roster = classical.PlayerRoster(scenario.totals)
        expected = classical.classical_payoffs(scenario.allocations, roster, scenario.eps)
        if table.payoffs != expected:
            return f"zero-phase payoffs {table.payoffs} != classical {expected}"
        n = scenario.num_battlefields
        for j, row in enumerate(scenario.allocations):
            for k, troops in enumerate(row):
                closed = math.sin(HALF_PI * troops / scenario.totals[0]) ** 2 / n
                if abs(table.values[j][k] - closed) > 1e-10:
                    return (
                        f"strength ({j + 1},{k + 1}) = {table.values[j][k]!r}, "
                        f"closed form sin^2/n = {closed!r}"
                    )
        return None


class Sweep(Workload):
    """101-step sweeps with bisection, and phase best-response searches."""

    name = "sweep"
    tiers = tuple(len(tier) for tier in SWEEP_MIX)

    def raw_cycle(self):
        mix = [op for tier in SWEEP_MIX for op in tier]
        self.rng.shuffle(mix)
        raw = []
        for kind, num_players, n, how in mix:
            if num_players > MAX_SWEEP_PLAYERS:
                raise ValueError(f"sweep scenarios are capped at N={MAX_SWEEP_PLAYERS}")
            if kind == "best" and how**n > MAX_BEST_RESPONSE_POINTS:
                raise ValueError(f"best-response grid {how}^{n} is too large")
            op = {
                "kind": kind,
                "scenario": raw_scenario(self.rng, num_players, n, phase_hi=HALF_PI),
                # lambda sweeps leave Blotto, whose budget sets the angle scale
                "player": self.rng.randint(2 if how == "lambda" else 1, num_players),
                "battlefield": self.rng.randint(1, n),
                "how": how,
                "pick": self.rng.random(),  # which grid point the check recomputes
            }
            raw.append(op)
        return raw

    def build_cycle(self, raw):
        ops = []
        for r in raw:
            scenario = create(r["scenario"])
            if r["kind"] == "sweep":
                spec = qblotto.SweepSpec(
                    scenario, r["player"], r["battlefield"], r["how"],
                    0.0, HALF_PI, SWEEP_STEPS,
                )
                ops.append(Op("op.run_sweep", {**r, "scenario": scenario, "spec": spec}))
            else:
                ops.append(Op("op.best_response_grid", {**r, "scenario": scenario}))
        return ops

    def run(self, op):
        if op.kind == "op.run_sweep":
            return qblotto.run_sweep(op.args["spec"])
        return qblotto.best_response_grid(
            op.args["scenario"], op.args["player"], op.args["how"]
        )

    def check(self, op, result):
        if op.kind == "op.run_sweep":
            return self._check_sweep(op, result)
        return self._check_best(op, result)

    def _check_sweep(self, op, result):
        spec, points = op.args["spec"], result.points
        if len(points) != SWEEP_STEPS:
            return f"{len(points)} grid points, expected {SWEEP_STEPS}"
        differing = {
            i for i in range(len(points) - 1) if points[i].payoffs != points[i + 1].payoffs
        }
        located = set()
        for t in result.transitions:
            cells = [
                i for i in differing
                if points[i].value <= t.boundary <= points[i + 1].value
            ]
            if not cells:
                return f"transition at {t.boundary!r} is not inside a changing grid cell"
            located.update(cells)
        if located != differing:
            return f"grid cells {sorted(differing - located)} change payoff without a transition"

        base, j, k = spec.base, spec.target_player - 1, spec.target_battlefield - 1
        candidates = list(range(len(points)))
        if spec.parameter == "lambda":
            # the check scenario moves one allocation cell, so player j's
            # budget follows and must stay within Blotto's
            candidates = [
                i for i in candidates
                if self._lambda_row(base, j, k, points[i].value)[1] <= base.totals[0]
            ]
        index = candidates[int(op.args["pick"] * len(candidates))]
        value = points[index].value
        if spec.parameter == "phi":
            phases = [list(row) for row in base.phases]
            phases[j][k] = value
            check = replace(base, phases=tuple(map(tuple, phases)))
        elif spec.parameter == "gamma":
            check = replace(base, gamma=value)
        else:
            row, total = self._lambda_row(base, j, k, value)
            allocations = list(base.allocations)
            allocations[j] = row
            totals = list(base.totals)
            totals[j] = total
            check = replace(base, allocations=tuple(allocations), totals=tuple(totals))
        table = qblotto.evaluate(check)
        error = sign_rule_error(table, base.eps)
        if error is not None:
            return error
        payoffs = table.payoffs
        if payoffs != points[index].payoffs:
            return (
                f"grid point {spec.parameter} = {value!r}: sweep payoffs "
                f"{points[index].payoffs}, evaluate gives {payoffs}"
            )
        return None

    @staticmethod
    def _lambda_row(base, j, k, angle):
        row = list(base.allocations[j])
        row[k] = angle * base.totals[0] / HALF_PI
        return tuple(row), sum(row)

    def _check_best(self, op, best):
        scenario, player, steps = op.args["scenario"], op.args["player"], op.args["how"]
        n = scenario.num_battlefields

        def table_at(phase_row):
            phases = list(scenario.phases)
            phases[player - 1] = tuple(phase_row)
            return qblotto.evaluate(replace(scenario, phases=tuple(phases)))

        table = table_at(best.phases)
        error = sign_rule_error(table, scenario.eps)
        if error is not None:
            return error
        if table.payoffs[player - 1] != best.payoff:
            return f"best phases {best.phases} do not give payoff {best.payoff}"
        axis = np.linspace(0.0, HALF_PI, steps)
        point = int(op.args["pick"] * steps**n)
        probe = [float(axis[(point // steps**(n - 1 - k)) % steps]) for k in range(n)]
        if table_at(probe).payoffs[player - 1] > best.payoff:
            return f"grid point {probe} beats the reported best {best.payoff}"
        return None


class Cli(Workload):
    """One ``qblotto`` subprocess at a time: play, oracle, sweep, verify."""

    name = "cli"
    tiers = tuple(sum(count for _, count in tier) for tier in CLI_MIX)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Children inherit PYTHONPATH and the BLAS pin from the runner,
        # which swaps in a shim that records spans for the traced half.
        self.command = [sys.executable, "-m", "qblotto.cli"]

    def setup_inputs(self):
        return [
            raw_scenario(
                self.rng,
                3,
                self.rng.choice((2, 3)),
                phase_hi=None if i < CLI_SEEDED_FILES // 2 else 2 * math.pi,
            )
            for i in range(CLI_SEEDED_FILES)
        ]

    def build_setup(self, raw):
        self.files = list(COMMITTED_FILES)
        for i, r in enumerate(raw):
            path = self.workdir / f"scenario-{i}.json"
            qblotto.dump_scenario(create(r), path)
            self.files.append((str(path), len(r["allocations"][0]), r["phases"] is None))
        self.expected = {}
        self.sweeps = 0

    def _expected(self, path):
        """In-process payoffs and classical payoffs of a scenario file."""
        if path not in self.expected:
            scenario, _ = qblotto.load_scenario(path)
            roster = classical.PlayerRoster(scenario.totals)
            self.expected[path] = (
                qblotto.evaluate(scenario).payoffs,
                classical.classical_payoffs(scenario.allocations, roster, scenario.eps),
            )
        return self.expected[path]

    def raw_cycle(self):
        zero_files = [f for f in self.files if f[2]]
        ops = [("play", self.files[0]), ("oracle", self.files[0])]
        for command, count in (entry for tier in CLI_MIX for entry in tier):
            pool = zero_files if command == "oracle" else self.files
            fixed = 1 if command in ("play", "oracle") else 0
            ops += [(command, self.rng.choice(pool)) for _ in range(count - fixed)]
        self.rng.shuffle(ops)
        raw = []
        for command, (path, n, _) in ops:
            argv = [command]
            if command != "verify":
                argv.append(path)
            if command == "sweep":
                argv += [
                    "--player", str(self.rng.randint(1, 3)),
                    "--battlefield", str(self.rng.randint(1, n)),
                    "--param", self.rng.choice(("phi", "lambda", "gamma")),
                    "--from", "0", "--to", repr(HALF_PI),
                    "--steps", str(SWEEP_STEPS),
                    "--out", str(self.workdir / f"sweep-{self.sweeps}.csv"),
                ]
                self.sweeps += 1
            raw.append(argv)
        return raw

    def build_cycle(self, raw):
        return [Op(f"op.cli.{argv[0]}", {"argv": argv}) for argv in raw]

    def run(self, op):
        return subprocess.run(
            self.command + op.args["argv"],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def check(self, op, proc):
        argv = op.args["argv"]
        if proc.returncode != 0:
            return f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        out = proc.stdout
        command = argv[0]
        if command == "verify":
            lines = out.splitlines()
            if not lines or not all(line.startswith("PASS ") for line in lines):
                return f"verify printed a non-PASS line:\n{out}"
            return None
        path = argv[1]
        payoffs, oracle = self._expected(path)
        if command == "play":
            if path == README_FILE:
                return None if out == README_PLAY else f"play output differs:\n{out}"
            lines = out.splitlines()
            header = next(i for i, line in enumerate(lines) if line.startswith("player "))
            printed = tuple(int(line.split()[-1]) for line in lines[header + 1:])
            return None if printed == payoffs else f"play payoffs {printed} != {payoffs}"
        if command == "oracle":
            expected = (
                README_ORACLE
                if path == README_FILE
                else f"classical payoffs: {oracle}\nquantum payoffs:   {payoffs}\nPASS\n"
            )
            return None if out == expected else f"oracle output differs:\n{out}"
        out_path = argv[argv.index("--out") + 1]
        lines = out.splitlines()
        if lines[0] != f"wrote {out_path}":
            return f"sweep did not report its CSV: {lines[0]!r}"
        csv_rows = Path(out_path).read_text(encoding="utf-8").count("\n")
        if csv_rows != SWEEP_STEPS + 1:
            return f"sweep CSV has {csv_rows} lines, expected {SWEEP_STEPS + 1}"
        return None


WORKLOADS = {w.name: w for w in (EvalLarge, Sweep, Cli)}
