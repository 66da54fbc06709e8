"""What the package modules import.

numpy is meant to stay only where a state vector or a search axis is
vectorized; the allowed set shrinks as modules move to plain floats.
And no module keeps an import it no longer uses, as a deletion can
leave behind.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qblotto"

NUMPY_MODULES = {"engine.py", "sweep.py"}


def imports_numpy(path: Path) -> bool:
    """Whether any import statement in ``path``, at any depth, loads numpy."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_vectorized_modules_import_numpy():
    modules = {path.name: imports_numpy(path) for path in PACKAGE.glob("*.py")}
    assert {"classical.py", "selfcheck.py", "cli.py"} <= set(modules)
    assert {name for name, uses in modules.items() if uses} <= NUMPY_MODULES


def test_the_scan_sees_numpy_imports(tmp_path):
    cases = {
        "import numpy as np\n": True,
        "from numpy import linalg\n": True,
        "def f():\n    import numpy.linalg\n": True,
        "import numbers\nfrom . import numpy_free\n": False,
    }
    for source, expected in cases.items():
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        assert imports_numpy(path) is expected, source


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
