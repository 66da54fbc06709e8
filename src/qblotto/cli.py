"""Command-line front door.

Subcommands: ``play`` evaluates one scenario file, ``sweep`` grids one
parameter and emits CSV, ``verify`` runs the built-in golden suite and
``oracle`` cross-checks the classical limit against the classical game.
Exit codes: 0 success, 1 check failure, 2 input or validation error
(including a scenario too large for memory), 3 numerical-integrity error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .classical import DEFAULT_TIE_EPS
from .engine import MeasurementTable, Scenario, evaluate, strategies_of
from .errors import NumericalIntegrityError, ValidationError

if TYPE_CHECKING:
    from .sweep import SweepResult

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
DEFAULT_SWEEP_STEPS = 101


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _load(args) -> tuple[Scenario, list[str]]:
    from .scenario_io import load_scenario

    return load_scenario(args.scenario, degrees=args.degrees, eps=args.eps)


def _print_report(
    scenario: Scenario, table: MeasurementTable, notices: list[str]
) -> None:
    dim = 2**scenario.num_players * scenario.num_battlefields
    print(
        f"players: {scenario.num_players}  battlefields: "
        f"{scenario.num_battlefields}  composite dim: {dim}"
    )
    pattern = " ".join(f"{s:+d}" for s in scenario.sign_pattern)
    print(
        f"gamma: {_fmt(scenario.gamma)}  sign pattern: {pattern}  "
        f"tie eps: {_fmt(scenario.eps)}"
    )
    for notice in notices:
        print(f"notice: {notice}")
    headers = ["player"] + [
        f"b{k}" for k in range(1, scenario.num_battlefields + 1)
    ] + ["payoff"]
    rows = [
        [name] + [_fmt(v) for v in values] + [f"{payoff:+d}"]
        for name, values, payoff in zip(
            scenario.player_names, table.values, table.payoffs
        )
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    for row in [headers] + rows:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        print(line.rstrip())


def _play_csv(scenario: Scenario, table: MeasurementTable) -> Iterator[str]:
    n = scenario.num_battlefields
    yield "player," + ",".join(f"m_b{k}" for k in range(1, n + 1)) + ",payoff\n"
    players = zip(scenario.player_names, table.values, table.payoffs)
    for name, values, payoff in players:
        cells = ",".join(_fmt(v) for v in values)
        yield f"{name},{cells},{payoff}\n"


def _write_out(path: str, lines: Iterable[str]) -> None:
    """Write ``--out`` line by line; an unwritable path is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from exc


def cmd_play(args) -> int:
    scenario, notices = _load(args)
    table = evaluate(scenario)
    _print_report(scenario, table, notices)
    if args.out:
        _write_out(args.out, _play_csv(scenario, table))
        print(f"wrote {args.out}")
    return EXIT_OK


def _sweep_csv(result: SweepResult) -> Iterator[str]:
    """The sweep's CSV lines, streamed from :meth:`SweepResult.rows`."""
    players = range(1, result.spec.base.num_players + 1)
    battlefields = range(1, result.spec.base.num_battlefields + 1)
    payoff_cols = ",".join(f"payoff_p{j}" for j in players)
    value_cols = ",".join(f"m_p{j}_b{k}" for j in players for k in battlefields)
    yield f"param_value,{payoff_cols},{value_cols}\n"
    for value, payoffs, cells in result.rows():
        yield ",".join([_fmt(value), *map(str, payoffs), *map(_fmt, cells)]) + "\n"


def cmd_sweep(args) -> int:
    from .sweep import SweepSpec, run_sweep

    scenario, _ = _load(args)
    lo, hi = args.lo, args.hi
    if args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    spec = SweepSpec(
        base=scenario,
        target_player=args.player,
        target_battlefield=args.battlefield,
        parameter=args.param,
        lo=lo,
        hi=hi,
        steps=args.steps,
    )
    result = run_sweep(spec)
    if args.out:
        _write_out(args.out, _sweep_csv(result))
        boundary_stream = sys.stdout
        print(f"wrote {args.out}")
    else:
        # One write: a reader that closes the pipe early then costs no
        # BrokenPipeError traceback.
        sys.stdout.write("".join(_sweep_csv(result)))
        boundary_stream = sys.stderr
    for transition in result.transitions:
        print(
            f"payoff transition near {args.param} = {_fmt(transition.boundary)}: "
            f"{transition.below} -> {transition.above}",
            file=boundary_stream,
        )
    if not result.transitions:
        print("no payoff transitions on the grid", file=boundary_stream)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .selfcheck import run_verification

    eps = args.eps if args.eps is not None else DEFAULT_TIE_EPS
    results = run_verification(eps)
    failures = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = f": {result.detail}" if result.detail else ""
        print(f"{status} {result.name}{detail}")
    if failures:
        print(
            f"verification failed ({len(failures)} of {len(results)} checks)",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .selfcheck import classical_limit

    scenario, _ = _load(args)
    nonzero = [
        (j + 1, k + 1)
        for j, row in enumerate(strategies_of(scenario)[1])  # reduced phases
        for k, phase in enumerate(row)
        if phase != 0.0
    ]
    if nonzero:
        raise ValidationError(
            f"oracle compares the classical limit only; scenario has nonzero "
            f"phases at (player, battlefield) {nonzero}"
        )
    classical, quantum, _ = classical_limit(scenario)
    print(f"classical payoffs: {classical}")
    print(f"quantum payoffs:   {quantum}")
    if quantum == classical:
        print("PASS")
        return EXIT_OK
    print("FAIL: payoff vectors differ", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """Parent parser holding one flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    eps = _flag("--eps", type=float, default=None, help="override the tie tolerance")
    out = _flag("--out", default=None, help="write CSV output to this file")
    degrees = _flag(
        "--degrees",
        action="store_true",
        help="treat file and range angles as degrees",
    )

    parser = argparse.ArgumentParser(
        prog="qblotto",
        description="Quantum multiplayer Colonel Blotto simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser(
        "play", parents=[eps, degrees, out], help="evaluate a scenario file"
    )
    play.add_argument("scenario", help="path to a scenario JSON file")
    play.set_defaults(handler=cmd_play)

    swp = sub.add_parser(
        "sweep", parents=[eps, degrees, out], help="sweep one parameter and emit CSV"
    )
    swp.add_argument("scenario", help="path to a scenario JSON file")
    swp.add_argument("--player", type=int, required=True, help="1-based player")
    swp.add_argument(
        "--battlefield", type=int, required=True, help="1-based battlefield"
    )
    swp.add_argument(
        "--param",
        choices=["phi", "lambda", "gamma"],
        required=True,
        help="which parameter to sweep",
    )
    swp.add_argument(
        "--from", dest="lo", type=float, required=True, help="range start (radians)"
    )
    swp.add_argument(
        "--to", dest="hi", type=float, required=True, help="range end (radians)"
    )
    swp.add_argument(
        "--steps", type=int, default=DEFAULT_SWEEP_STEPS, help="grid points"
    )
    swp.set_defaults(handler=cmd_sweep)

    ver = sub.add_parser("verify", parents=[eps], help="run the built-in golden checks")
    ver.set_defaults(handler=cmd_verify)

    orc = sub.add_parser(
        "oracle",
        parents=[eps, degrees],
        help="compare quantum and classical payoffs on a zero-phase scenario",
    )
    orc.add_argument("scenario", help="path to a scenario JSON file")
    orc.set_defaults(handler=cmd_oracle)
    return parser


def _join_range_values(argv: list[str]) -> list[str]:
    """A number X after ``--from``, ``--to`` or ``--eps`` joined to it: ``--eps=X``.

    argparse's negative-number pattern has no exponent, so it takes a
    bare ``-1e-3`` for an option; joined to its flag, it is a value. A
    flag may be abbreviated, as argparse reads it: no other option of a
    subcommand starts ``--f``, ``--t`` or ``--e``.
    """
    flags = ("--from", "--to", "--eps")
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if len(flag) > 2 and any(f.startswith(flag) for f in flags):
            try:
                float(token)
            except ValueError:
                pass
            else:
                token = f"{joined.pop()}={token}"
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print(
            "error: out of memory; reduce the player count or battlefield count",
            file=sys.stderr,
        )
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
