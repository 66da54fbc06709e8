"""Which package modules import numpy.

numpy is meant to stay only where a state vector or a search axis is
vectorized; the allowed set shrinks as modules move to plain floats.
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
