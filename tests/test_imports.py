"""What the package modules import, and when numpy and each module load.

numpy is needed only to evolve a state vector or to evaluate a search
axis, so no module imports it when the package is imported: ``engine``
and ``sweep`` import it inside the functions that build arrays, and no
other module imports it at all. ``import qblotto`` loads the engine and
what it imports; the sweep and file modules load when one of their
names is first read, and each CLI subcommand loads only the modules it
calls. Fresh interpreters show the effect: building, storing and
checking scenarios, the classical oracle and the CLI's refusals load no
numpy, and the first evaluation does. And no module keeps an import it
no longer uses, as a deletion can leave behind.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qblotto"

# The modules allowed to import numpy, and only inside a function.
NUMPY_MODULES = {"engine.py", "sweep.py"}


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name.split(".")[0] == "numpy" for name in names)


def numpy_imports(path: Path) -> list[str]:
    """Where each numpy import in ``path`` runs: ``"module"`` or ``"function"``.

    A module-level import, a class body's included, runs when the module
    is imported; one inside a function runs when it is called. One under
    ``if TYPE_CHECKING:`` never runs and is not listed.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = "function"
        if _imports_numpy(node):
            found.append(scope)
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            children = node.orelse
        for child in children:
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "module")
    return found


def test_only_the_vectorized_modules_import_numpy():
    modules = {path.name: numpy_imports(path) for path in PACKAGE.glob("*.py")}
    assert {"classical.py", "selfcheck.py", "cli.py"} <= set(modules)
    assert {name for name, scopes in modules.items() if "module" in scopes} == set()
    assert {name for name, scopes in modules.items() if scopes} == NUMPY_MODULES


def test_the_scan_sees_numpy_imports(tmp_path):
    cases = {
        "import numpy as np\n": ["module"],
        "from numpy import linalg\n": ["module"],
        "try:\n    import numpy\nexcept ImportError:\n    pass\n": ["module"],
        "class C:\n    import numpy\n": ["module"],
        "def f():\n    import numpy.linalg\n": ["function"],
        "class C:\n    def f(self):\n        from numpy import linalg\n": ["function"],
        "if TYPE_CHECKING:\n    import numpy as np\n": [],
        "if TYPE_CHECKING:\n    pass\nelse:\n    import numpy\n": ["module"],
        "import numbers\nfrom . import numpy_free\n": [],
    }
    for source, expected in cases.items():
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        assert numpy_imports(path) == expected, source


def modules_loaded_by_steps(script: str) -> dict[str, list[str]]:
    """Run ``script``'s steps in a fresh interpreter on src/.

    ``script`` defines ``STEPS``, a list of ``(label, callable)``; each
    runs in order. Each label comes back with the modules its step loaded
    first, among ``numpy`` and the ``qblotto`` package's, sorted.
    """
    runner = textwrap.dedent(script) + textwrap.dedent(
        """
        import json, sys

        def watched():
            return {
                m for m in sys.modules
                if m == "numpy" or m.partition(".")[0] == "qblotto"
            }

        seen, loaded = watched(), {}
        for label, step in STEPS:
            step()
            loaded[label] = sorted(watched() - seen)
            seen |= set(loaded[label])
        print(json.dumps(loaded))
        """
    )
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", runner],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# What ``import qblotto`` loads: the sweep and file modules wait for
# their names.
PACKAGE_IMPORT = ["qblotto", "qblotto.classical", "qblotto.engine", "qblotto.errors"]


def test_only_an_evaluation_loads_numpy(tmp_path):
    loaded = modules_loaded_by_steps(
        f"""
        import math
        from pathlib import Path

        PATH = Path({str(tmp_path / "scenario.json")!r})
        made = {{}}

        def refused(call, *args):
            from qblotto import ValidationError
            try:
                call(*args)
            except ValidationError:
                return
            raise AssertionError("not refused")

        def build():
            import qblotto
            made["s"] = qblotto.Scenario.create(
                [6.0, 4.0, 3.0], [[3.0, 3.0], [3.0, 1.0], [0.0, 3.0]], math.pi / 2
            )

        def store():
            from qblotto import dump_scenario, load_scenario
            dump_scenario(made["s"], PATH)
            assert load_scenario(PATH)[0] == made["s"]

        def oracle():
            from qblotto.classical import PlayerRoster, classical_payoffs
            s = made["s"]
            roster = PlayerRoster(s.totals)
            assert classical_payoffs(s.allocations, roster) == (0, -1, -1)

        def spec():
            from qblotto import SweepSpec
            SweepSpec(made["s"], 3, 1, "phi", 0.0, 1.0, 101)

        def refused_spec():
            from qblotto import SweepSpec
            refused(SweepSpec, made["s"], 3, 1, "phi", 0.0, math.inf, 3)

        def refused_search():
            from qblotto import best_response_grid
            from qblotto.sweep import MAX_SEARCH_FLOATS
            refused(best_response_grid, made["s"], 2, MAX_SEARCH_FLOATS)

        def evaluate():
            from qblotto import evaluate
            evaluate(made["s"])

        STEPS = [
            ("import", lambda: __import__("qblotto")),
            ("build", build),
            ("store", store),
            ("oracle", oracle),
            ("spec", spec),
            ("refused spec", refused_spec),
            ("refused search", refused_search),
            ("evaluate", evaluate),
        ]
        """
    )
    assert loaded == {
        "import": PACKAGE_IMPORT,
        "build": [],
        "store": ["qblotto.scenario_io"],
        "oracle": [],
        "spec": ["qblotto.sweep"],
        "refused spec": [],
        "refused search": [],
        "evaluate": ["numpy"],
    }


# Script head for the CLI steps: ``run`` calls ``qblotto.cli.main``
# in-process, output muted, and checks the exit code.
CLI_RUNNER = """
import contextlib, io
from qblotto.cli import main

def run(*argv, code):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
    assert got == code, (argv, got)
"""


def test_the_cli_refuses_without_loading_numpy(tmp_path):
    guard = {  # 2^19 * 3 is over MAX_DIM: refused when the scenario is built
        "players": [{"name": f"p{j}", "total": 3} for j in range(1, 20)],
        "battlefields": 3,
        "allocations": [[1, 1, 1]] * 19,
        "gamma": 0,
    }
    dense = {  # valid, but 2^13 is over MAX_DENSE_DIM: refused by the evaluation
        "players": [{"name": f"p{j}", "total": 1} for j in range(1, 14)],
        "battlefields": 1,
        "allocations": [[1]] * 13,
        "gamma": 0,
    }
    for name, doc in (("guard.json", guard), ("dense.json", dense)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    loaded = modules_loaded_by_steps(
        CLI_RUNNER
        + textwrap.dedent(f"""
        TMP = {str(tmp_path)!r}
        STEPS = [
            ("help", lambda: run("--help", code=0)),
            ("unreadable", lambda: run("play", TMP + "/missing.json", code=2)),
            ("guard", lambda: run("play", TMP + "/guard.json", code=2)),
            ("dense", lambda: run("play", TMP + "/dense.json", code=2)),
            ("oracle dense", lambda: run("oracle", TMP + "/dense.json", code=2)),
        ]
        """)
    )
    assert loaded == {
        "help": [],
        "unreadable": ["qblotto.scenario_io"],
        "guard": [],
        "dense": [],
        "oracle dense": ["qblotto.selfcheck"],
    }


@pytest.mark.parametrize(
    "loaded",
    [
        {
            "play": ["numpy", "qblotto.scenario_io"],
            "oracle": ["qblotto.selfcheck"],
            "sweep": ["qblotto.sweep"],
        },
        {"verify": ["numpy", "qblotto.selfcheck"]},
    ],
    ids=["play-oracle-sweep", "verify"],
)
def test_each_subcommand_loads_only_its_modules(loaded):
    # Subcommands run in order in one interpreter, each listed with what
    # it loads: play loads neither sweep nor selfcheck, oracle loads the
    # selfcheck whose classical-limit comparison verify runs too, and
    # verify, in an interpreter of its own, neither sweep nor scenario_io.
    scenario = str(ROOT / "scenarios" / "three_players.json")
    argv = {
        "play": ["play", scenario],
        "oracle": ["oracle", scenario],
        "sweep": ["sweep", scenario, "--player", "3", "--battlefield", "1",
                  "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"],
        "verify": ["verify"],
    }
    steps = [(c, argv[c]) for c in loaded]
    got = modules_loaded_by_steps(
        CLI_RUNNER + f"STEPS = [(c, lambda a=a: run(*a, code=0)) for c, a in {steps!r}]\n"
    )
    assert got == loaded


def test_lazy_names_are_their_submodules_objects():
    import qblotto
    import qblotto.scenario_io
    import qblotto.sweep

    lazy = {
        qblotto.scenario_io: ["dump_scenario", "load_scenario"],
        qblotto.sweep: ["SweepResult", "SweepSpec", "best_response_grid", "run_sweep"],
    }
    for module, names in lazy.items():
        for name in names:
            assert name in qblotto.__all__
            assert getattr(qblotto, name) is getattr(module, name), name
    assert set(qblotto.__all__) <= set(dir(qblotto))
    namespace = {}
    exec("from qblotto import *", namespace)
    assert {name: namespace[name] for name in qblotto.__all__} == {
        name: getattr(qblotto, name) for name in qblotto.__all__
    }
    with pytest.raises(AttributeError, match="^module 'qblotto' has no attribute 'nope'$"):
        qblotto.nope


def unused_imports(path: Path) -> set[str]:
    """Names imported at module level that ``path`` neither uses nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - exported


def test_every_import_is_used_or_exported():
    unused = {path.name: unused_imports(path) for path in PACKAGE.glob("*.py")}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_scan_sees_unused_imports(tmp_path):
    cases = {
        "from __future__ import annotations\nimport math\nmath.pi\n": set(),
        "import numpy as np\nfrom .classical import _real, sgn_eps\n_real(1)\n":
            {"np", "sgn_eps"},
        "import os.path\n": {"os"},
        "from .engine import Scenario\n__all__ = ['Scenario']\n": set(),
        "import json\ndef f():\n    return json.dumps(1)\n": set(),
    }
    for source, expected in cases.items():
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        assert unused_imports(path) == expected, source
