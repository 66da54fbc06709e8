import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qblotto.cli
import qblotto.selfcheck
from qblotto import (
    Scenario,
    SweepSpec,
    ValidationError,
    best_response_grid,
    dump_scenario,
    evaluate,
    load_scenario,
    run_sweep,
)
from qblotto.scenario_io import scenario_from_dict
from qblotto.cli import main
from test_held_results import hex_cells, table_of

GOLDEN_DOC = {
    "players": [
        {"name": "Blotto", "total": 6},
        {"name": "enemy 1", "total": 4},
        {"name": "enemy 2", "total": 3},
    ],
    "battlefields": 2,
    "allocations": [[3, 3], [3, 1], [0, 3]],
    "gamma": math.pi / 2,
}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_DOC), encoding="utf-8")
    return str(path)


ROOT = Path(__file__).resolve().parents[1]


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_python(*args, timeout=None):
    """Run ``python -c``/``-m`` arguments in a fresh interpreter on src/.

    A run still going after ``timeout`` seconds raises
    ``subprocess.TimeoutExpired``, so a hang fails the test.
    """
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_cli(*argv, timeout=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    return run_python("-m", "qblotto.cli", *argv, timeout=timeout)


class TestPlay:
    def test_worked_example(self, golden_file, capsys):
        assert main(["play", golden_file]) == 0
        out = capsys.readouterr().out
        assert "Blotto" in out
        assert "+0" in out and "-1" in out

    def test_csv_output(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        assert main(["play", golden_file, "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "player,m_b1,m_b2,payoff"
        assert lines[1].startswith("Blotto,0.25,0.25,0")

    def test_budget_mismatch_exit_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, allocations=[[4, 3], [3, 1], [0, 3]])
        path = write_doc(tmp_path, doc)
        assert main(["play", path]) == 2
        err = capsys.readouterr().err
        assert "Blotto" in err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, phi_1_3=0.3)
        path = write_doc(tmp_path, doc)
        assert main(["play", path]) == 2
        assert "phi_1_3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "repeated, key",
        [('"gamma": 0.0, "gamma"', "gamma"), ('"total": 9, "total"', "total")],
        ids=["document", "player"],
    )
    def test_repeated_key_exit_2(self, tmp_path, capsys, repeated, key):
        # JSON lets the last copy of a key win, which would run the file's
        # real value after a stray one; the loader refuses the file.
        text = json.dumps(GOLDEN_DOC).replace(f'"{key}"', repeated, 1)  # first object
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert main(["play", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: duplicate key {key!r}\n"
        assert captured.out == ""

    def test_json_syntax_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "players": [,]\n}', encoding="utf-8")
        assert main(["play", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_even_player_count_exit_3(self, tmp_path, capsys):
        doc = {
            "players": [
                {"name": "Blotto", "total": 4},
                {"name": "enemy 1", "total": 4},
                {"name": "enemy 2", "total": 4},
                {"name": "enemy 3", "total": 4},
            ],
            "battlefields": 2,
            "allocations": [[2, 2]] * 4,
            "gamma": math.pi / 2,
        }
        path = write_doc(tmp_path, doc)
        assert main(["play", path]) == 3
        assert "even" in capsys.readouterr().err

    def test_degrees_flag(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, gamma=90.0)
        path = write_doc(tmp_path, doc)
        assert main(["play", path, "--degrees"]) == 0
        out = capsys.readouterr().out
        assert "gamma: 1.57079632679" in out  # echoed in radians, 12 digits

    def test_eps_override(self, golden_file, capsys):
        assert main(["play", golden_file, "--eps", "1e-6"]) == 0
        assert "1e-06" in capsys.readouterr().out

    def test_eps_flag_sets_budget_tolerance(self, tmp_path, capsys):
        # Blotto's allocations sum to 6.0 against a budget of 6.000001
        blotto = dict(GOLDEN_DOC["players"][0], total=6.000001)
        doc = dict(GOLDEN_DOC, players=[blotto, *GOLDEN_DOC["players"][1:]])
        flagged = write_doc(tmp_path, doc, "flagged.json")
        in_file = write_doc(tmp_path, dict(doc, eps=1e-3), "in_file.json")
        assert main(["play", flagged, "--eps", "1e-3"]) == 0
        flagged_out = capsys.readouterr().out
        assert main(["play", in_file]) == 0
        assert flagged_out == capsys.readouterr().out
        assert main(["play", in_file, "--eps", "1e-12"]) == 2
        assert "budget is 6.000001" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.csv"
        assert main(["play", golden_file, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert str(out_path) in err

    def test_nan_phase_exit_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, phases=[[0, 0], [0, 0], [math.nan, 0]])
        path = write_doc(tmp_path, doc)
        assert main(["play", path]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exit_2(self, golden_file, capsys, eps):
        assert main(["play", golden_file, "--eps", eps]) == 2
        assert "tie tolerance" in capsys.readouterr().err

    def test_negative_eps_in_exponent_form(self, golden_file, capsys):
        # argparse's negative-number pattern has no exponent, so a bare
        # "-1e-3" was taken for an option and --eps lacked its value.
        for argv in (["play", golden_file], ["verify"]):
            assert main([*argv, "--eps", "-1e-3"]) == 2
            assert capsys.readouterr().err == (
                "error: tie tolerance must be finite and non-negative, got -0.001\n"
            )
        with pytest.raises(SystemExit) as exit_info:
            main(["play", golden_file, "--eps", "-x"])
        assert exit_info.value.code == 2
        assert "argument --eps: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--e", "--ep"])
    def test_abbreviated_eps_in_exponent_form(self, golden_file, capsys, flag):
        # argparse reads the prefix as --eps, but "-1e-3" was joined only
        # to the whole flag, so argparse's usage exited 2 instead
        assert main(["play", golden_file, flag, "-1e-3"]) == 2
        assert capsys.readouterr().err == (
            "error: tie tolerance must be finite and non-negative, got -0.001\n"
        )

    @pytest.mark.parametrize("command", ["play", "oracle"])
    @pytest.mark.parametrize(
        "totals, allocations, message",
        [
            ((6, 4, 3), [[math.nan, 6], [3, 1], [0, 3]],
             "player 1 (Blotto): battlefield 1 allocation is not finite"),
            ((6, 4, math.nan), [[3, 3], [3, 1], [math.nan, 0]],
             "player 3 budget nan is not finite"),
            ((math.inf, 4, 3), [[math.inf, 0], [3, 1], [0, 3]],
             "player 1 budget inf is not finite"),
        ],
    )
    def test_non_finite_budget_or_allocation_exit_2(
        self, tmp_path, capsys, command, totals, allocations, message
    ):
        players = [
            {"name": p["name"], "total": t}
            for p, t in zip(GOLDEN_DOC["players"], totals)
        ]
        doc = dict(GOLDEN_DOC, players=players, allocations=allocations)
        assert main([command, write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""


    def test_total_too_large_for_float_exit_2(self, tmp_path):
        players = [dict(GOLDEN_DOC["players"][0], total=10**400)]
        doc = dict(GOLDEN_DOC, players=players + GOLDEN_DOC["players"][1:])
        done = run_cli("play", write_doc(tmp_path, doc))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == "error: player 1 budget is too large for a float\n"

    def test_integer_literal_past_digit_limit_exit_2(self, tmp_path):
        path = tmp_path / "scenario.json"
        text = json.dumps(GOLDEN_DOC).replace('"total": 6', '"total": 1' + "0" * 5000)
        path.write_text(text, encoding="utf-8")
        done = run_cli("play", str(path))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["play"],
            ["oracle"],
            ["sweep", "--player", "1", "--battlefield", "1", "--param", "phi",
             "--from", "0", "--to", "1", "--steps", "3"],
        ],
        ids=["play", "oracle", "sweep"],
    )
    @pytest.mark.parametrize(
        "content, message",
        [
            (json.dumps(GOLDEN_DOC).encode("utf-8").replace(b"enemy", b"\xffnemy"),
             "not UTF-8 text"),
            (b"[" * 100000, "invalid JSON: nested too deeply"),
        ],
        ids=["not-utf8", "nested-too-deeply"],
    )
    def test_undecodable_file_exit_2(self, tmp_path, argv, content, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        done = run_cli(argv[0], str(path), *argv[1:])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {path}: {message}")
        assert done.stderr.count("\n") == 1 and done.stdout == ""


def counting_validations(monkeypatch):
    """Record the tie tolerance of every validation pass, one per build.

    The constructor, which ``Scenario.create`` and ``dataclasses.replace``
    call, runs the rules once and then packs the grids.
    """
    calls = []
    real = Scenario.__init__

    def counted(scenario, *args, **kwargs):
        real(scenario, *args, **kwargs)
        calls.append(scenario.eps)

    monkeypatch.setattr(Scenario, "__init__", counted)
    return calls


class TestSingleValidation:
    THREE_PLAYERS = str(
        Path(__file__).resolve().parents[1] / "scenarios" / "three_players.json"
    )

    @pytest.mark.parametrize(
        "argv, eps",
        [
            (["play"], 1e-9),
            (["play", "--eps", "1e-6"], 1e-6),
            (["oracle"], 1e-9),
            (
                ["sweep", "--player", "3", "--battlefield", "1", "--param", "phi",
                 "--from", "0", "--to", "1.5", "--steps", "11"],
                1e-9,
            ),
        ],
    )
    def test_each_command_validates_once(self, monkeypatch, capsys, argv, eps):
        calls = counting_validations(monkeypatch)
        assert main([argv[0], self.THREE_PLAYERS, *argv[1:]]) == 0
        assert calls == [eps]

    def test_built_scenario_is_not_validated_again(self, monkeypatch, worked_example):
        spec = SweepSpec(worked_example, 3, 1, "phi", 0.0, math.pi / 2, 11)
        calls = counting_validations(monkeypatch)
        evaluate(worked_example)
        run_sweep(spec)
        best_response_grid(worked_example, 3, 9)
        assert calls == []


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--out", "x"],
            ["verify", "--jobs", "3"],
            ["verify", "--degrees"],
            ["oracle", "{golden}", "--out", "o.csv"],
            ["oracle", "{golden}", "--jobs", "0"],
            ["play", "{golden}", "--jobs", "2"],
            ["sweep", "{golden}", "--player", "3", "--battlefield", "1",
             "--param", "phi", "--from", "0", "--to", "1", "--jobs", "2"],
        ],
    )
    def test_unread_flag_exit_2(self, golden_file, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(golden=golden_file) for arg in argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMemoryError:
    @staticmethod
    def exhausted(*args, **kwargs):
        raise MemoryError

    def assert_one_line_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_play(self, golden_file, monkeypatch, capsys):
        monkeypatch.setattr("qblotto.cli.evaluate", self.exhausted)
        self.assert_one_line_exit_2(["play", golden_file], capsys)

    def test_sweep(self, golden_file, monkeypatch, capsys):
        # cmd_sweep imports run_sweep when it runs, so the patch goes on its module
        monkeypatch.setattr("qblotto.sweep.run_sweep", self.exhausted)
        argv = ["sweep", golden_file, "--player", "3", "--battlefield", "1",
                "--param", "phi", "--from", "0", "--to", "1"]
        self.assert_one_line_exit_2(argv, capsys)


# A child that would build a dense operator too large for the machine
# gets a MemoryError at once under this address-space cap, instead of
# exhausting memory; one BLAS thread keeps numpy's own reservation small.
CHILD_ADDRESS_SPACE = 2 * 2**30
CAPPED = (
    "import os, resource, sys\n"
    "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
)

DENSE_LIMIT_MESSAGE = (
    "composite dimension {dim} is over 4096, the largest an evaluation "
    "holds; reduce the player count or battlefield count"
)


class TestDenseLimit:
    """Valid scenarios too large for a dense evaluation are refused."""

    def test_search_fallback_raises_validation_error(self):
        # Generic axis values take the closed form; a margin at the
        # tie-band edge (eps = 0) needs an evaluation at N=15, n=2.
        code = CAPPED + (
            "from qblotto import Scenario, ValidationError, best_response_grid\n"
            "s = Scenario.create([6.0] + [4.0] * 14,"
            " [[3.0, 3.0]] + [[3.0, 1.0]] * 14, 0.0, eps=0.0)\n"
            "try:\n"
            "    best_response_grid(s, 2, 9)\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n"
        )
        done = run_python("-c", code, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == DENSE_LIMIT_MESSAGE.format(dim=65536) + "\n"

    def test_play_exit_2(self, tmp_path):
        doc = {
            "players": [{"name": "Blotto", "total": 6}]
            + [{"name": f"enemy {j}", "total": 4} for j in range(1, 13)],
            "battlefields": 2,
            "allocations": [[3, 3]] + [[3, 1]] * 12,
            "gamma": 0,
        }
        code = CAPPED + "from qblotto.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        done = run_python("-c", code, "play", write_doc(tmp_path, doc), timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        message = DENSE_LIMIT_MESSAGE.format(dim=16384)
        assert done.stderr == f"error: {message}\n"


class TestSweep:
    def sweep_args(self, scenario_file, out_path, steps="101"):
        return [
            "sweep",
            scenario_file,
            "--player",
            "3",
            "--battlefield",
            "1",
            "--param",
            "phi",
            "--from",
            "0",
            "--to",
            str(math.pi / 2),
            "--steps",
            steps,
            "--out",
            str(out_path),
        ]

    def test_phase_sweep_csv(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(self.sweep_args(golden_file, out_path)) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "param_value,payoff_p1,payoff_p2,payoff_p3,"
            "m_p1_b1,m_p1_b2,m_p2_b1,m_p2_b2,m_p3_b1,m_p3_b2"
        )
        assert len(lines) == 102
        margin = 1e-6
        for line in lines[1:]:
            cells = line.split(",")
            value = float(cells[0])
            enemy2 = int(cells[3])
            if value > math.pi / 4 + margin:
                assert enemy2 > 0
            elif value < math.pi / 4 - margin:
                assert enemy2 == -1
        stdout = capsys.readouterr().out
        assert "payoff transition near phi" in stdout

    def test_csv_byte_identical(self, golden_file, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(self.sweep_args(golden_file, first, steps="11")) == 0
        assert main(self.sweep_args(golden_file, second, steps="11")) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_minimal_two_row_sweep(self, golden_file, tmp_path):
        out_path = tmp_path / "two.csv"
        args = self.sweep_args(golden_file, out_path, steps="2")
        assert main(args) == 0
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 3

    def test_interior_phase_sweep_is_constant(self, tmp_path):
        # second-battlefield phase: interior values all map to one vector
        doc = dict(GOLDEN_DOC, phases=[[0, 0], [0, 0], [1.0, 0]])
        path = write_doc(tmp_path, doc)
        out_path = tmp_path / "interior.csv"
        args = [
            "sweep", path,
            "--player", "3", "--battlefield", "2", "--param", "phi",
            "--from", "0.01", "--to", "1.56", "--steps", "25",
            "--out", str(out_path),
        ]
        assert main(args) == 0
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
        vectors = {tuple(row.split(",")[1:4]) for row in rows}
        assert len(vectors) == 1

    def test_bad_arguments_exit_2(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "bad.csv"
        args = self.sweep_args(golden_file, out_path)
        args[args.index("--param") + 1] = "phi"
        args[args.index("--steps") + 1] = "1"
        assert main(args) == 2

    def test_bisection_ends_where_floats_are_coarse(self, golden_file):
        # Near 1e17 adjacent floats are 16 rad apart, far above the
        # bisection resolution, so narrowing stops at adjacent floats.
        done = run_cli(
            "sweep", golden_file, "--player", "3", "--battlefield", "1",
            "--param", "phi", "--from", "0", "--to", "1e17", "--steps", "5",
            timeout=60,
        )
        # With the CSV on stdout, the transitions go to stderr.
        assert done.returncode == 0, done.stderr
        # Each phi is reduced by 2*pi before it is evaluated, as evaluate
        # reduces a scenario's phases.
        assert done.stderr.splitlines() == [
            "payoff transition near phi = 6.14950590043e+16: "
            "(0, -1, -1) -> (-1, -2, 1)",
        ]

    def test_infinite_phi_range_refused_before_the_grid(self, golden_file):
        # not a numpy RuntimeWarning and a phase nan the user never gave
        done = run_cli(
            "sweep", golden_file, "--player", "1", "--battlefield", "1",
            "--param", "phi", "--from", "0", "--to", "inf", "--steps", "3",
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: battlefield 1 phase inf is not finite\n"

    def test_degrees_sweep_matches_radians_sweep(self, tmp_path, monkeypatch, capsys):
        three = ROOT / "scenarios" / "three_players.json"
        degrees_doc = dict(json.loads(three.read_text(encoding="utf-8")), gamma=90)
        runs = {
            "radians": [str(three), "--from", "0", "--to", "1.5707963267948966"],
            "degrees": [
                write_doc(tmp_path, degrees_doc, "three_degrees.json"),
                "--degrees", "--from", "0", "--to", "90",
            ],
        }
        outputs = {}
        for label, args in runs.items():
            (tmp_path / label).mkdir()
            monkeypatch.chdir(tmp_path / label)
            argv = ["sweep", args[0], "--player", "3", "--battlefield", "1",
                    "--param", "phi", *args[1:], "--steps", "101", "--out", "sweep.csv"]
            assert main(argv) == 0
            csv = (tmp_path / label / "sweep.csv").read_bytes()
            outputs[label] = (csv, capsys.readouterr())
        assert outputs["degrees"] == outputs["radians"]
        assert outputs["radians"][1].out.startswith("wrote sweep.csv\n")

    def test_negative_range_in_exponent_form(self, golden_file, capsys):
        # argparse's negative-number pattern has no exponent, so a bare
        # "-1e-3" was taken for an option and --from lacked its value.
        argv = ["sweep", golden_file, "--player", "3", "--battlefield", "1",
                "--param", "phi", "--steps", "5"]
        outputs = []
        for bounds in (
            ["--from", "-1e-3", "--to", "-1e-4"],
            ["--from=-1e-3", "--to=-1e-4"],
            ["--from", "-0.001", "--to", "-0.0001"],
        ):
            assert main([*argv, *bounds]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].out.splitlines()[1].startswith("-0.001,")

    @pytest.mark.parametrize("lo, hi", [("--fro", "--t"), ("--f", "--to")])
    def test_abbreviated_range_flags_in_exponent_form(
        self, golden_file, capsys, lo, hi
    ):
        # argparse reads an unambiguous prefix as its flag, but "-1e-3" was
        # joined only to whole flags, so these exited 2 with argparse's usage
        argv = ["sweep", golden_file, "--player", "3", "--battlefield", "1",
                "--param", "phi", "--steps", "5"]
        assert main([*argv, "--from", "-1e-3", "--to", "-1e-4"]) == 0
        whole = capsys.readouterr()
        assert main([*argv, lo, "-1e-3", hi, "-1e-4"]) == 0
        assert capsys.readouterr() == whole

    # Traced peak per grid point of a 4096-step sweep. Formatting the CSV
    # from ``points`` and joining it peaked at 740-749 B with --out and 686 B
    # on stdout; streaming it from ``SweepResult.rows()`` stays near the
    # sweep's own ~200 B with --out, and one joined copy on stdout.
    @pytest.mark.parametrize("to_file, limit", [(True, 300), (False, 400)])
    def test_peak_memory_per_grid_point(
        self, golden_file, tmp_path, monkeypatch, to_file, limit
    ):
        args = self.sweep_args(golden_file, tmp_path / "sweep.csv", steps="4096")
        if not to_file:
            del args[-2:]
        assert main(self.sweep_args(golden_file, tmp_path / "warm.csv", "2")) == 0
        with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        csv = tmp_path / ("sweep.csv" if to_file else "stdout.txt")
        assert len(csv.read_text(encoding="utf-8").splitlines()) == 4097
        assert peak <= limit * 4096, peak / 4096

    def test_unwritable_out_exit_2(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "sweep.csv"
        assert main(self.sweep_args(golden_file, out_path, steps="5")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert str(out_path) in err


# What a default ``run_verification()`` draws from VERIFY_SEED, as
# ``verify_draws()`` records it: every scenario it evaluates, in order (the
# golden, golden, tie-absorption, 100 classical and 20 quantum ones), and
# the 100 operator orders of its order check.
VERIFY_DRAWS = Path(__file__).with_name("verify_draws.json")


def verify_draws() -> dict:
    """Every scenario ``run_verification()`` evaluates and every order it draws.

    Scenarios are caught at ``selfcheck.evaluate`` and orders at
    ``random.Random.sample``, as plain JSON data. Run
    ``write_verify_draws()`` to record them again.
    """
    scenarios, orders = [], []
    evaluate, sample = qblotto.selfcheck.evaluate, random.Random.sample

    def recording_evaluate(scenario):
        scenarios.append(scenario)
        return evaluate(scenario)

    def recording_sample(rng, *args, **kwargs):
        orders.append(sample(rng, *args, **kwargs))
        return orders[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qblotto.selfcheck, "evaluate", recording_evaluate)
        patch.setattr(random.Random, "sample", recording_sample)
        assert all(check.passed for check in qblotto.selfcheck.run_verification())
    drawn = [
        {
            "battlefields": s.num_battlefields,
            "totals": s.totals,
            "allocations": s.allocations,
            "gamma": s.gamma,
            "phases": s.phases,
        }
        for s in scenarios
    ]
    return json.loads(json.dumps({"scenarios": drawn, "orders": orders}))


def write_verify_draws():
    """Record ``verify_draws()`` in VERIFY_DRAWS, one scenario or order a line."""
    body = ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, items)) + "\n]"
        for key, items in verify_draws().items()
    )
    VERIFY_DRAWS.write_text("{\n" + body + "\n}\n", encoding="utf-8")


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_zero_tolerance_fails_tie_cases(self, capsys):
        assert main(["verify", "--eps", "0"]) == 1
        captured = capsys.readouterr()
        assert "FAIL tie-absorption" in captured.out
        assert "verification failed" in captured.err

    def test_every_check_evaluates_at_the_given_tolerance(self, monkeypatch):
        # each check, the randomized draws' included, must read the payoffs
        # that evaluate returns at the tolerance verify was given
        selfcheck = qblotto.selfcheck
        seen = []
        for name in ("evaluate", "measurements"):
            built = getattr(selfcheck, name)

            def recorded(scenario, *args, built=built):
                seen.append(scenario.eps)
                return built(scenario, *args)

            monkeypatch.setattr(selfcheck, name, recorded)
        assert main(["verify", "--eps", "0"]) == 1  # tie absorption fails there
        golden = 3  # measurements, payoffs and tie absorption
        orders = selfcheck.ORDER_TRIALS * (1 + 5)  # evaluate, then five orders
        assert len(seen) == golden + selfcheck.CORRESPONDENCE_TRIALS + orders
        assert set(seen) == {0.0}

    def test_non_commuting_operators_fail_order_check(self, monkeypatch, capsys):
        built = qblotto.selfcheck.player_operator

        def shifted(player, angles, phases, count):
            # a cyclic row shift moves amplitude between basis states, so
            # the operators no longer commute
            return np.roll(built(player, angles, phases, count), 1, axis=0)

        monkeypatch.setattr(qblotto.selfcheck, "player_operator", shifted)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert re.search(
            r"^FAIL order-invariance: trial 0: players 1,2 commutator residue ",
            out,
            re.M,
        )
        assert out.count("PASS") == 4

    @pytest.mark.parametrize("scale, code", [(1 - 1e-3, 0), (1 + 1e-3, 1)])
    def test_commutator_residue_limit_is_1e_10(self, monkeypatch, capsys, scale, code):
        # player 1's operator times player 2's gains scale * 1e-10 in one
        # corner, so only the commutator moves: a product with a state
        # vector is the operator's own
        residue = scale * 1e-10
        built = qblotto.selfcheck.player_operator

        class Skewed(np.ndarray):
            def __matmul__(self, other):
                product = np.asarray(self) @ np.asarray(other)
                if self.player == 1 and getattr(other, "player", None) == 2:
                    product[0, -1] += residue
                return product

        def skewed(player, angles, phases, count):
            operator = built(player, angles, phases, count).view(Skewed)
            operator.player = player
            return operator

        monkeypatch.setattr(qblotto.selfcheck, "player_operator", skewed)
        if code:
            self._fails_once(
                capsys,
                r"^FAIL order-invariance: trial 0: players 1,2 commutator "
                r"residue 1\.001e-10$",
            )
        else:
            assert main(["verify"]) == 0

    @pytest.mark.parametrize("eps, passed", [(1.001e-12, True), (0.999e-12, False)])
    def test_tie_absorption_nudge_is_1e_12(self, eps, passed):
        # the nudge moves Blotto's split by 1e-12 troops, so a tie band
        # just wider than that absorbs it and one just narrower does not
        check = qblotto.selfcheck._check_tie_absorption(eps)
        assert check.passed == passed
        if passed:
            assert check.detail == "1e-12 perturbation absorbed"

    def test_unentangled_orders_fail_order_check(self, monkeypatch, capsys):
        entangle = qblotto.selfcheck.entangle
        monkeypatch.setattr(
            qblotto.selfcheck,
            "entangle",
            lambda count, gamma, pattern: entangle(count, 0.0, pattern),
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert re.search(
            r"^FAIL order-invariance: trial \d+: order \[[1-3, ]+\] gave "
            r"\([-\d, ]+\), ascending gave \([-\d, ]+\)$",
            out,
            re.M,
        )
        assert out.count("PASS") == 4

    def test_order_strength_drift_fails_order_check(self, monkeypatch, capsys):
        # one order's strengths all move by 1e-9, which leaves each margin
        # to its rivals, and so the payoffs, as they were
        built = qblotto.selfcheck.measurements
        calls = []

        def drifted(scenario, psi):
            table = built(scenario, psi)
            calls.append(scenario)
            if len(calls) > 1:
                return table
            values = tuple(tuple(v + 1e-9 for v in row) for row in table.values)
            return table_of(values, table.payoffs)

        monkeypatch.setattr(qblotto.selfcheck, "measurements", drifted)
        self._fails_once(
            capsys,
            r"^FAIL order-invariance: trial 0: order \[[1-3, ]+\] strengths off "
            r"by 1\.000e-09 \(limit 1e-12\)$",
        )

    @staticmethod
    def _drawn(allocations):
        """Whether allocations come from a random draw, not a fixed example.

        The golden and tie-absorption scenarios share the worked
        example's two enemy rows.
        """
        return allocations[1:] != ((3.0, 1.0), (0.0, 3.0))

    def _patch_evaluate(self, monkeypatch, change, golden):
        """Route verify's ``evaluate`` through ``change(table)`` for either
        the golden scenario or the drawn classical (zero-phase) ones."""
        built = qblotto.selfcheck.evaluate
        target = qblotto.selfcheck.golden_scenario()

        def patched(scenario):
            table = built(scenario)
            if golden:
                hit = scenario == target
            else:
                classical = not any(map(any, scenario.phases))
                hit = classical and self._drawn(scenario.allocations)
            return change(table) if hit else table

        monkeypatch.setattr(qblotto.selfcheck, "evaluate", patched)

    def _patch_classical(self, monkeypatch, golden):
        """Raise every classical payoff by one for the golden allocations or
        the drawn ones."""
        built = qblotto.selfcheck.classical_limit
        target = qblotto.selfcheck.golden_scenario().allocations

        def patched(scenario):
            payoffs, quantum, table = built(scenario)
            allocations = scenario.allocations
            hit = allocations == target if golden else self._drawn(allocations)
            if hit:
                payoffs = tuple(p + 1 for p in payoffs)
            return payoffs, quantum, table

        monkeypatch.setattr(qblotto.selfcheck, "classical_limit", patched)

    def _fails_once(self, capsys, pattern):
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert re.search(pattern, captured.out, re.M), captured.out
        assert captured.out.count("FAIL") == 1
        assert captured.out.count("PASS") == 4
        assert "verification failed (1 of 5 checks)" in captured.err

    def test_off_grid_golden_measurement_fails(self, monkeypatch, capsys):
        def shifted(table):
            rows = [list(row) for row in table.values]
            rows[0][0] += 2e-10
            return table_of(rows, table.payoffs)

        self._patch_evaluate(monkeypatch, shifted, golden=True)
        self._fails_once(
            capsys,
            r"^FAIL golden-measurements: measurement grid off by 2\.\d{3}e-10 "
            r"\(limit 1e-10\)$",
        )

    def test_wrong_golden_quantum_payoffs_fail(self, monkeypatch, capsys):
        self._patch_evaluate(
            monkeypatch,
            lambda table: replace(table, payoffs=(1, -1, -2)),
            golden=True,
        )
        self._fails_once(
            capsys,
            r"^FAIL golden-payoffs: quantum payoffs \(1, -1, -2\), "
            r"expected \(0, -1, -1\)$",
        )

    def test_wrong_golden_classical_payoffs_fail(self, monkeypatch, capsys):
        self._patch_classical(monkeypatch, golden=True)
        self._fails_once(
            capsys,
            r"^FAIL golden-payoffs: classical payoffs \(1, 0, 0\), "
            r"expected \(0, -1, -1\)$",
        )

    def test_classical_mismatch_fails_correspondence(self, monkeypatch, capsys):
        self._patch_classical(monkeypatch, golden=False)
        self._fails_once(
            capsys,
            r"^FAIL classical-correspondence: trial 0: quantum \([-\d, ]+\) "
            r"!= classical \([-\d, ]+\) for \(\(",
        )

    def test_off_closed_form_fails_correspondence(self, monkeypatch, capsys):
        # one shift for every cell leaves each strength's margin to its
        # rivals, and so the payoffs, as they were
        def shifted(table):
            values = tuple(tuple(v + 1e-9 for v in row) for row in table.values)
            return table_of(values, table.payoffs)

        self._patch_evaluate(monkeypatch, shifted, golden=False)
        self._fails_once(
            capsys,
            r"^FAIL classical-correspondence: trial 0: measurement \S+ "
            r"deviates from closed form \S+$",
        )

    def test_draw_contract(self):
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            for draw in (
                qblotto.selfcheck.random_classical_scenario,
                qblotto.selfcheck.random_quantum_scenario,
            ):
                scenario = draw(rng)
                seen.add(scenario.num_battlefields)
                assert scenario.num_players == 3
                assert scenario.totals[0] == max(scenario.totals)
                for row, total in zip(scenario.allocations, scenario.totals):
                    assert abs(sum(row) - total) <= scenario.eps
                assert all(
                    0.0 <= p < 2 * math.pi for row in scenario.phases for p in row
                )
                assert 0.0 <= scenario.gamma <= math.pi / 2
        assert seen == {2, 3}

    def test_draws_are_seeded(self):
        for draw in (
            qblotto.selfcheck.random_classical_scenario,
            qblotto.selfcheck.random_quantum_scenario,
        ):
            assert draw(random.Random(5)) == draw(random.Random(5))
        run = qblotto.selfcheck.run_verification
        assert run() == run()

    def test_draws_are_pinned(self):
        # Counts, gammas, phases and orders are uniform draws and sampled
        # indices, pinned bit for bit. Allocations pass through
        # ``expovariate``'s libm ``log``, and each budget is its row's float
        # sum, so both are pinned within 1e-12.
        drawn = verify_draws()
        pinned = json.loads(VERIFY_DRAWS.read_text(encoding="utf-8"))
        assert drawn["orders"] == pinned["orders"] and len(drawn["orders"]) == 100
        assert len(drawn["scenarios"]) == len(pinned["scenarios"]) == 123
        for got, want in zip(drawn["scenarios"], pinned["scenarios"]):
            assert got["battlefields"] == want["battlefields"]
            assert got["gamma"].hex() == want["gamma"].hex()
            assert hex_cells(got["phases"]) == hex_cells(want["phases"])
            for key in ("totals", "allocations"):
                assert np.shape(got[key]) == np.shape(want[key])
                assert np.max(np.abs(np.subtract(got[key], want[key]))) <= 1e-12
            assert got["totals"] == [sum(row) for row in got["allocations"]]

    def test_does_not_load_numpy_random(self):
        # numpy 1.x imports numpy.random with numpy itself; from 2.0 it
        # loads on first use, so only verify's own draws could load it
        done = run_python(
            "-c",
            "import sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from qblotto.cli import main\n"
            "code = main(['verify'])\n"
            "print(code, eager, 'numpy.random' in sys.modules)\n",
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, eager, loaded = done.stdout.splitlines()[-1].split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert (code, loaded) == ("0", "False")


class TestOracle:
    def test_worked_example_passes(self, golden_file, capsys):
        assert main(["oracle", golden_file]) == 0
        out = capsys.readouterr().out
        assert "classical payoffs: (0, -1, -1)" in out
        assert "quantum payoffs:   (0, -1, -1)" in out
        assert "PASS" in out

    def test_random_classical_scenario_passes(self, tmp_path):
        doc = {
            "players": [
                {"name": "Blotto", "total": 7.5},
                {"name": "enemy 1", "total": 5.25},
                {"name": "enemy 2", "total": 1.0},
            ],
            "battlefields": 3,
            "allocations": [[3.0, 2.5, 2.0], [1.25, 2.0, 2.0], [0.25, 0.5, 0.25]],
            "gamma": 0.8,
        }
        path = write_doc(tmp_path, doc)
        assert main(["oracle", path]) == 0

    def test_differing_payoffs_fail(self, monkeypatch, capsys):
        def other_payoffs(scenario):
            table = evaluate(scenario)
            return replace(table, payoffs=(1, 0, -2))

        # oracle's comparison is verify's, so its evaluate is patched
        monkeypatch.setattr(qblotto.selfcheck, "evaluate", other_payoffs)
        three = str(ROOT / "scenarios" / "three_players.json")
        assert main(["oracle", three]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "classical payoffs: (0, -1, -1)\nquantum payoffs:   (1, 0, -2)\n"
        )
        assert captured.err == "FAIL: payoff vectors differ\n"

    def test_scores_the_built_scenario_without_a_second_budget_check(
        self, golden_file, monkeypatch
    ):
        import qblotto.classical
        import qblotto.engine

        real_budgets = qblotto.classical._real_budgets
        calls = []

        def counted(totals):
            calls.append(totals)
            return real_budgets(totals)

        for module in (qblotto.classical, qblotto.engine):
            monkeypatch.setattr(module, "_real_budgets", counted)
        assert main(["oracle", golden_file]) == 0
        assert len(calls) == 1  # the load's build, not a roster beside it

    def test_nonzero_phase_exit_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, phases=[[0, 0], [0, 0], [0.3, 0]])
        path = write_doc(tmp_path, doc)
        assert main(["oracle", path]) == 2
        assert "classical limit" in capsys.readouterr().err

    def test_phase_reducing_to_zero_passes(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, phases=[[-1e-20, 0], [0, 2 * math.pi], [0, 0]])
        assert main(["oracle", write_doc(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")


class TestScenarioIO:
    def test_round_trip_identity(self, golden_file, tmp_path):
        scenario, _ = load_scenario(golden_file)
        out_path = tmp_path / "round.json"
        dump_scenario(scenario, out_path)
        reloaded, _ = load_scenario(out_path)
        assert reloaded == scenario

    def test_defaults_applied(self):
        scenario = scenario_from_dict(GOLDEN_DOC)
        assert scenario.phases == ((0.0, 0.0),) * 3
        assert scenario.sign_pattern == (1, -1)
        assert scenario.eps == 1e-9

    def test_unknown_player_key_rejected(self):
        doc = dict(GOLDEN_DOC)
        doc["players"] = [dict(p, troops=1) for p in GOLDEN_DOC["players"]]
        with pytest.raises(Exception, match="troops"):
            scenario_from_dict(doc)

    def test_sign_pattern_values_checked(self):
        doc = dict(GOLDEN_DOC, sign_pattern=[1, 0])
        with pytest.raises(Exception, match="sign_pattern"):
            scenario_from_dict(doc)

    def test_shape_errors_name_player(self):
        doc = dict(GOLDEN_DOC, allocations=[[3, 3], [3], [0, 3]])
        with pytest.raises(Exception, match="player 2"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, kwargs, message",
        [
            ([], {}, "scenario document must be a JSON object"),
            (
                {k: v for k, v in GOLDEN_DOC.items() if k != "gamma"},
                {},
                "missing required scenario keys: ['gamma']",
            ),
            (
                dict(GOLDEN_DOC, players=[]),
                {},
                "players: expected a non-empty list of objects",
            ),
            (
                dict(GOLDEN_DOC, players={"name": "Blotto", "total": 6}),
                {},
                "players: expected a non-empty list of objects",
            ),
            (
                dict(GOLDEN_DOC, players=["Blotto", *GOLDEN_DOC["players"][1:]]),
                {},
                "players[1]: expected an object",
            ),
            (
                dict(GOLDEN_DOC, players=[
                    GOLDEN_DOC["players"][0], {"name": "enemy 1"},
                    GOLDEN_DOC["players"][2],
                ]),
                {},
                "players[2]: needs 'name' and 'total'",
            ),
            (
                dict(GOLDEN_DOC, players=[
                    *GOLDEN_DOC["players"][:2], {"total": 3},
                ]),
                {},
                "players[3]: needs 'name' and 'total'",
            ),
            (
                dict(GOLDEN_DOC, players=[
                    {"name": 1, "total": 6}, *GOLDEN_DOC["players"][1:],
                ]),
                {},
                "players[1].name: expected a string",
            ),
            (dict(GOLDEN_DOC, battlefields=0), {}, "battlefields: must be >= 1, got 0"),
            (
                dict(GOLDEN_DOC, allocations=[[3, 3], [3, 1]]),
                {},
                "allocations: expected 3 rows (one per player)",
            ),
            (
                dict(GOLDEN_DOC, phases=[[0, 0], [0], [0, 0]]),
                {},
                "phases: player 2 row must list 2 battlefield values",
            ),
            (
                dict(GOLDEN_DOC, sign_pattern=[1, -1, 1]),
                {},
                "sign_pattern: expected 2 entries of +1 or -1",
            ),
            # A file's numbers meet the library's number, integer and sign rules.
            (
                dict(GOLDEN_DOC, battlefields=2.0),
                {},
                "battlefields must be an integer, got 2.0",
            ),
            (
                dict(GOLDEN_DOC, battlefields=True),
                {},
                "battlefields must be an integer, got True",
            ),
            (
                dict(GOLDEN_DOC, players=[
                    {"name": "Blotto", "total": "6"}, *GOLDEN_DOC["players"][1:],
                ]),
                {},
                "player 1 budget must be a number, got '6'",
            ),
            (
                dict(GOLDEN_DOC, allocations=[[3, 3], ["3", 1], [0, 3]]),
                {},
                "allocation for player 2, battlefield 1 must be a number, got '3'",
            ),
            (
                dict(GOLDEN_DOC, allocations=[[3, 3], [3, 1], [0, True]]),
                {},
                "allocation for player 3, battlefield 2 must be a number, got True",
            ),
            (
                dict(GOLDEN_DOC, phases=[[0, 0], [0, None], [0, 0]]),
                {},
                "phase for player 2, battlefield 2 must be a number, got None",
            ),
            (
                dict(GOLDEN_DOC, phases=[[0, 0], [0, 10**400], [0, 0]]),
                {},
                "phase for player 2, battlefield 2 is too large for a float",
            ),
            (
                dict(GOLDEN_DOC, gamma="90"),
                {},
                "entanglement parameter must be a number, got '90'",
            ),
            (
                dict(GOLDEN_DOC, gamma="90"),
                {"degrees": True},
                "entanglement parameter must be a number, got '90'",
            ),
            (
                dict(GOLDEN_DOC, phases=[[0, 0], [0, 0], [False, 0]]),
                {"degrees": True},
                "phase for player 3, battlefield 1 must be a number, got False",
            ),
            (
                dict(GOLDEN_DOC, sign_pattern=[1, "-1"]),
                {},
                "sign_pattern[2]: entries must be +1 or -1, got '-1'",
            ),
            (
                dict(GOLDEN_DOC, sign_pattern=[True, -1]),
                {},
                "sign_pattern[1]: entries must be +1 or -1, got True",
            ),
            (
                dict(GOLDEN_DOC, eps="1e-9"),
                {},
                "tie tolerance must be a number, got '1e-9'",
            ),
            (
                dict(GOLDEN_DOC, eps="1e-9"),
                {"eps": 1e-6},
                "tie tolerance must be a number, got '1e-9'",
            ),
            (
                dict(GOLDEN_DOC, eps=-1.0),
                {"eps": 1e-6},
                "tie tolerance must be finite and non-negative, got -1.0",
            ),
        ],
    )
    def test_document_rules_and_messages(self, doc, kwargs, message):
        with pytest.raises(ValidationError) as raised:
            scenario_from_dict(doc, **kwargs)
        assert str(raised.value) == message

    def test_bad_file_number_gets_the_library_message(self, tmp_path, capsys):
        allocations = [[3, 3], ["3", 1], [0, 3]]
        message = "allocation for player 2, battlefield 1 must be a number, got '3'"
        path = write_doc(tmp_path, dict(GOLDEN_DOC, allocations=allocations))
        assert main(["play", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        with pytest.raises(ValidationError) as raised:
            Scenario.create((6, 4, 3), allocations, math.pi / 2)
        assert str(raised.value) == message

    def test_degrees_ingestion(self):
        doc = dict(GOLDEN_DOC, gamma=90.0, phases=[[0, 0], [0, 0], [45.0, 0]])
        scenario = scenario_from_dict(doc, degrees=True)
        assert scenario.gamma == pytest.approx(math.pi / 2)
        assert scenario.phases[2][0] == pytest.approx(math.pi / 4)

    def test_dump_is_canonical_json(self, tmp_path):
        scenario = Scenario.create(
            totals=(6.0, 4.0, 3.0),
            allocations=((3.0, 3.0), (3.0, 1.0), (0.0, 3.0)),
            gamma=math.pi / 2,
        )
        path = tmp_path / "canon.json"
        dump_scenario(scenario, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc) == [
            "players",
            "battlefields",
            "allocations",
            "phases",
            "gamma",
            "sign_pattern",
            "eps",
        ]
