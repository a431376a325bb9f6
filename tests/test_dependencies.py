"""numpy is the package's only runtime dependency.

Every module under ``src/morreylab`` is parsed, and each import must name
the standard library, numpy or the package itself (relative imports
included).  The group geometry sits below the quadrature: ``groups``
imports no module of the package but ``errors``.  Importing the report
module loads no process pool.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morreylab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "morreylab"}


def imported_roots(tree):
    """The top-level name of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


MODULES = sorted(PACKAGE.glob("**/*.py"))


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_groups_imports_only_errors():
    # parsed, not imported: importing any module runs the package
    # __init__, which loads every module, and a lazy import inside a
    # function body would not show in sys.modules until it runs
    tree = ast.parse((PACKAGE / "groups.py").read_text())
    relative = sorted({"." * node.level + (node.module or "") for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level > 0})
    assert relative == [".errors"], relative


def test_report_loads_no_process_pool():
    # every bench set-up imports the report module, and only runs with
    # more than one worker start a pool: multiprocessing stays unloaded
    code = "import sys, morreylab.report; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"
