import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qblotto.selfcheck
from qblotto import (
    Scenario,
    SweepSpec,
    best_response_grid,
    dump_scenario,
    evaluate,
    load_scenario,
    run_sweep,
)
from qblotto.scenario_io import scenario_from_dict
from qblotto.cli import main

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


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "qblotto.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


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
        assert done.stderr == "error: players[1].total: integer too large for a float\n"

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
    """Record the tie tolerance of every validation pass, one per build."""
    calls = []
    real = Scenario.__post_init__

    def counted(scenario):
        calls.append(scenario.eps)
        real(scenario)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
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
        monkeypatch.setattr("qblotto.cli.run_sweep", self.exhausted)
        argv = ["sweep", golden_file, "--player", "3", "--battlefield", "1",
                "--param", "phi", "--from", "0", "--to", "1"]
        self.assert_one_line_exit_2(argv, capsys)


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

    def test_unwritable_out_exit_2(self, golden_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "sweep.csv"
        assert main(self.sweep_args(golden_file, out_path, steps="5")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert str(out_path) in err


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

    def test_nonzero_phase_exit_2(self, tmp_path, capsys):
        doc = dict(GOLDEN_DOC, phases=[[0, 0], [0, 0], [0.3, 0]])
        path = write_doc(tmp_path, doc)
        assert main(["oracle", path]) == 2
        assert "classical limit" in capsys.readouterr().err


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
