"""numpy is the package's only runtime dependency.

Every module under ``src/morreylab`` is parsed, and each import must name
the standard library, numpy or the package itself (relative imports
included).  The group geometry sits below the quadrature: ``groups``
imports no module of the package but ``errors``.  Importing the report
module loads no process pool.  One function decides what a non-finite
sample does: ``IntegrandError`` is raised in ``quadrature.finite_samples``
alone, and no ``except`` clause names it.
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


def named(node):
    """Every name and attribute name in the expression ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_integrand_errors_are_raised_by_finite_samples_alone():
    # a second place that raised, or a handler that turned the error into a
    # value, would be a second rule for non-finite samples
    raisers, handlers = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                scope[child] = node.name if fn else scope.get(node, "<module>")
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and "IntegrandError" in named(node.exc):
                raisers.add(f"{path.stem}.{scope[node]}")
            if isinstance(node, ast.ExceptHandler) and node.type is not None and "IntegrandError" in named(node.type):
                handlers.append(f"{path.name}:{node.lineno}")
    assert raisers == {"quadrature.finite_samples"}
    assert handlers == []
