"""Scenario file loading and canonical serialization.

Scenario files are UTF-8 JSON documents with strict key checking, so a
typo like "phases_" or a repeated key fails loudly instead of silently
running a different experiment. The checks here cover the document's
form, each message naming where in the document it failed: its keys,
lists and names, an integer ``battlefields`` of at least 1, grid shapes
and sign entries of +1 or -1. Every number reaches :meth:`Scenario.create` as parsed, so it
meets the library's number rule (:mod:`qblotto.classical`) once and a
bad one gets the library's message; the scenario fills in the omitted
phases and sign pattern and checks the game's rules. Angles are radians
unless the caller asks for degree conversion on ingestion, which puts
``gamma`` and the phases through the number rule first.

Schema::

    {
      "players": [{"name": "Blotto", "total": 6}, ...],
      "battlefields": 2,
      "allocations": [[3, 3], [3, 1], [0, 3]],
      "phases": [[0, 0], [0, 0], [0, 0]],      # optional, default all 0
      "gamma": 1.5707963267948966,
      "sign_pattern": [1, -1],                 # optional, default last flipped
      "eps": 1e-9                              # optional
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .engine import Scenario, scenario_notices
from .classical import DEFAULT_TIE_EPS, check_tie_eps
from .classical import _integer, _is_sign, _real, _real_grid  # the input rules
from .errors import ValidationError

TOP_KEYS = {
    "players",
    "battlefields",
    "allocations",
    "phases",
    "gamma",
    "sign_pattern",
    "eps",
}
REQUIRED_KEYS = {"players", "battlefields", "allocations", "gamma"}
PLAYER_KEYS = {"name", "total"}


def _require_grid(
    value: Any, num_players: int, num_battlefields: int, where: str
) -> None:
    """Raise unless ``value`` is a list of N lists of n entries."""
    if not isinstance(value, list) or len(value) != num_players:
        raise ValidationError(
            f"{where}: expected {num_players} rows (one per player)"
        )
    for j, row in enumerate(value, start=1):
        if not isinstance(row, list) or len(row) != num_battlefields:
            raise ValidationError(
                f"{where}: player {j} row must list {num_battlefields} "
                f"battlefield values"
            )


def scenario_from_dict(
    doc: Any, *, degrees: bool = False, eps: float | None = None
) -> Scenario:
    """Build a Scenario from a parsed JSON document, strictly.

    A given ``eps`` replaces the document's tie tolerance, which must
    still be valid, before the scenario is built.
    """
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    unknown = set(doc) - TOP_KEYS
    if unknown:
        raise ValidationError(
            f"unknown scenario keys: {sorted(unknown)}; allowed keys are "
            f"{sorted(TOP_KEYS)}"
        )
    missing = REQUIRED_KEYS - set(doc)
    if missing:
        raise ValidationError(f"missing required scenario keys: {sorted(missing)}")

    players = doc["players"]
    if not isinstance(players, list) or not players:
        raise ValidationError("players: expected a non-empty list of objects")
    names: list[str] = []
    totals: list = []
    for j, entry in enumerate(players, start=1):
        if not isinstance(entry, dict):
            raise ValidationError(f"players[{j}]: expected an object")
        unknown = set(entry) - PLAYER_KEYS
        if unknown:
            raise ValidationError(
                f"players[{j}]: unknown keys {sorted(unknown)}; allowed keys "
                f"are {sorted(PLAYER_KEYS)}"
            )
        if "name" not in entry or "total" not in entry:
            raise ValidationError(f"players[{j}]: needs 'name' and 'total'")
        if not isinstance(entry["name"], str):
            raise ValidationError(f"players[{j}].name: expected a string")
        names.append(entry["name"])
        totals.append(entry["total"])

    battlefields = _integer(doc["battlefields"], "battlefields")
    if battlefields < 1:
        raise ValidationError(f"battlefields: must be >= 1, got {battlefields}")

    allocations = doc["allocations"]
    _require_grid(allocations, len(players), battlefields, "allocations")
    phases = doc.get("phases")
    if "phases" in doc:
        _require_grid(phases, len(players), battlefields, "phases")

    gamma = doc["gamma"]

    sign_pattern = doc.get("sign_pattern")
    if "sign_pattern" in doc:
        if not isinstance(sign_pattern, list) or len(sign_pattern) != battlefields:
            raise ValidationError(
                f"sign_pattern: expected {battlefields} entries of +1 or -1"
            )
        for k, s in enumerate(sign_pattern, start=1):
            if not _is_sign(s):
                raise ValidationError(
                    f"sign_pattern[{k}]: entries must be +1 or -1, got {s!r}"
                )

    tie_eps = doc.get("eps", DEFAULT_TIE_EPS)
    if eps is not None:
        check_tie_eps(tie_eps)
        tie_eps = eps

    if degrees:
        gamma = math.radians(_real(gamma, "entanglement parameter"))
        if phases is not None:
            rows = _real_grid(phases, "phase")
            phases = [[math.radians(p) for p in row] for row in rows]

    return Scenario.create(
        totals,
        allocations,
        gamma,
        phases=phases,
        sign_pattern=sign_pattern,
        names=names,
        eps=tie_eps,
    )


def load_scenario(
    path: str | Path, *, degrees: bool = False, eps: float | None = None
) -> tuple[Scenario, list[str]]:
    """Load, schema-check and build a scenario file.

    A given ``eps`` replaces the file's tie tolerance before the
    scenario is built, so it also sets the tolerance of the budget sums.
    Returns the scenario, validated once when it was built, and its
    :func:`~qblotto.engine.scenario_notices`. JSON
    syntax errors surface as :class:`ValidationError` with the line and
    column of the parse failure. A key repeated in one object, which
    JSON would let the last copy win, a file that is not UTF-8, a
    document nested past the decoder's recursion limit, and an integer
    literal too long to parse or too large for a float raise
    :class:`ValidationError` as well.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValidationError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ValidationError(
            f"{path}: invalid JSON: integer literal too long"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from exc
    scenario = scenario_from_dict(doc, degrees=degrees, eps=eps)
    return scenario, scenario_notices(scenario)


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the canonical serialization (round-trips to an equal Scenario)."""
    doc = {
        "players": [
            {"name": name, "total": total}
            for name, total in zip(scenario.player_names, scenario.totals)
        ],
        "battlefields": scenario.num_battlefields,
        "allocations": [list(row) for row in scenario.allocations],
        "phases": [list(row) for row in scenario.phases],
        "gamma": scenario.gamma,
        "sign_pattern": list(scenario.sign_pattern),
        "eps": scenario.eps,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
