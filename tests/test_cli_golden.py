"""Golden CLI transcripts: stdout, stderr, exit code and written files.

Each case runs ``qblotto.cli.main`` in-process, in a temporary working
directory that holds copies of ``scenarios/*.json`` and the invalid
files below, so every path in a transcript is relative. The rendered
transcript must equal ``tests/golden/<case>.txt`` byte for byte.

Run ``python tests/test_cli_golden.py`` with ``src`` on ``PYTHONPATH``
to record the transcripts again.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from qblotto.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

THREE = "scenarios/three_players.json"
QUANTUM = "scenarios/quantum_move.json"
HALF_PI = repr(math.pi / 2)

WORKED = {
    "players": [
        {"name": "Blotto", "total": 6},
        {"name": "enemy 1", "total": 4},
        {"name": "enemy 2", "total": 3},
    ],
    "battlefields": 2,
    "allocations": [[3, 3], [3, 1], [0, 3]],
    "gamma": math.pi / 2,
}

# Scenario files written next to the copies of scenarios/*.json; all but
# the last are invalid, each rejected with exit code 2.
INPUTS = {
    # Within eps of Blotto's budget in sum, above it on battlefield 1.
    "over_budget.json": {**WORKED, "allocations": [[6.0000000001, 0], [3, 1], [0, 3]]},
    # 2^19 * 3 exceeds the 2^20 composite-dimension guard.
    "guard.json": {
        "players": [{"name": f"p{j}", "total": 3} for j in range(1, 20)],
        "battlefields": 3,
        "allocations": [[1, 1, 1]] * 19,
        "gamma": 0,
    },
    "gamma_2.json": {**WORKED, "gamma": 2},
    "sign_zero.json": {**WORKED, "sign_pattern": [1, 0]},
    # Valid, with all three notices: two players, a uniform sign pattern
    # and a phase outside [0, 2*pi).
    "notices.json": {
        **WORKED,
        "players": WORKED["players"][:2],
        "allocations": [[3, 3], [3, 1]],
        "phases": [[0, 0], [7.0, 0]],
        "gamma": 0,
        "sign_pattern": [1, 1],
    },
}

SWEEP = ["--from", "0", "--to", HALF_PI, "--steps", "101"]

CASES = {
    **{
        f"{command}-{label}{suffix}": [command, path, *flags]
        for command in ("play", "oracle")
        for label, path in (("three", THREE), ("quantum", QUANTUM))
        for suffix, flags in (("", []), ("-eps1e-6", ["--eps", "1e-6"]),
                              ("-eps0", ["--eps", "0"]))
    },
    "play-three-out": ["play", THREE, "--out", "play.csv"],
    "play-quantum-out": ["play", QUANTUM, "--out", "play.csv"],
    "verify": ["verify"],
    "verify-eps0": ["verify", "--eps", "0"],
    "sweep-three-phi-out": [
        "sweep", THREE, "--player", "3", "--battlefield", "1", "--param", "phi",
        "--from", "0", "--to", "1.5707963267948966", "--steps", "101",
        "--out", "sweep.csv",
    ],
    "sweep-quantum-lambda": [
        "sweep", QUANTUM, "--player", "3", "--battlefield", "1",
        "--param", "lambda", *SWEEP,
    ],
    "sweep-quantum-gamma": [
        "sweep", QUANTUM, "--player", "1", "--battlefield", "1",
        "--param", "gamma", *SWEEP,
    ],
    "sweep-three-phi-nan": [
        "sweep", THREE, "--player", "3", "--battlefield", "1", "--param", "phi",
        "--from", "nan", "--to", "1", "--steps", "5",
    ],
    # Near the largest float: the sum 1e308 + 1.35e308 overflows, so the
    # bisection's midpoints halve each bound before adding.
    "sweep-three-phi-overflow": [
        "sweep", THREE, "--player", "3", "--battlefield", "1", "--param", "phi",
        "--from", "1e308", "--to", "1.7e308", "--steps", "3",
    ],
    "play-over-budget": ["play", "over_budget.json"],
    "oracle-over-budget": ["oracle", "over_budget.json"],
    "sweep-over-budget": [
        "sweep", "over_budget.json", "--player", "3", "--battlefield", "1",
        "--param", "phi", *SWEEP,
    ],
    "play-guard": ["play", "guard.json"],
    "play-gamma-2": ["play", "gamma_2.json"],
    "play-sign-zero": ["play", "sign_zero.json"],
    "play-notices": ["play", "notices.json"],
}


def transcript(argv: list[str]) -> str:
    """Run the CLI on ``argv`` in a fresh directory and render the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scenarios").mkdir()
        for path in (ROOT / "scenarios").glob("*.json"):
            shutil.copy(path, work / "scenarios" / path.name)
        for name, doc in INPUTS.items():
            (work / name).write_text(json.dumps(doc), encoding="utf-8")
        before = set(os.listdir(work))
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        parts = [
            f"$ qblotto {' '.join(argv)}\n",
            f"--- exit {code}\n",
            f"--- stdout\n{stdout.getvalue()}",
            f"--- stderr\n{stderr.getvalue()}",
        ]
        for name in sorted(set(os.listdir(work)) - before):
            text = (work / name).read_text(encoding="utf-8")
            parts.append(f"--- file {name}\n{text}")
        return "".join(parts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_bytes()
    assert transcript(CASES[case]).encode("utf-8") == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_bytes(transcript(argv).encode("utf-8"))
        print(f"recorded {case}", file=sys.stderr)
