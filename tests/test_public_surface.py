"""Every top-level definition in ``src/`` has a caller.

A name that a module of ``src/morreylab`` binds at top level, exported or
not, must be read somewhere in ``src/`` outside its own definition, in
an acceptance criterion (``tests/test_acceptance.py``), or in a
``tests/conftest.py`` fixture that a criterion takes.  A function that
only its own tests and the demos call is code without a purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "morreylab"
TESTS = ROOT / "tests"


def parse(path):
    return ast.parse(path.read_text())


def defined():
    """``module.name`` of every name a top-level statement of ``src/`` binds."""
    return sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py")
                  for stmt in parse(path).body for name in defines(stmt))


def reads(node):
    """Every name ``node`` reads: bare, as an attribute, or as a string that is one name (a dispatch table's)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def defines(stmt):
    """The names a top-level statement binds: a def or class, or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def read_in_src():
    """Names read by some top-level statement of ``src/`` that does not define them."""
    out = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for stmt in parse(path).body:
                out |= reads(stmt) - defines(stmt)
    return out


def read_by_criteria():
    """Names read by the acceptance criteria and by the fixtures they take, transitively."""
    fixtures = {f.name: f for f in parse(TESTS / "conftest.py").body if isinstance(f, ast.FunctionDef)}
    criteria = parse(TESTS / "test_acceptance.py")
    out = reads(criteria)
    wanted = [a.arg for f in ast.walk(criteria) if isinstance(f, ast.FunctionDef)
              and f.name.startswith("test_") for a in f.args.args]
    seen = set()
    while wanted:
        name = wanted.pop()
        if name in fixtures and name not in seen:
            seen.add(name)
            out |= reads(fixtures[name])
            wanted += [a.arg for a in fixtures[name].args.args]
    return out


def test_every_top_level_definition_has_a_caller():
    # the exported names are defined in the modules, so they are among these
    callers = read_in_src() | read_by_criteria()
    assert [name for name in defined() if name.split(".")[1] not in callers] == []


def test_the_guard_sees_a_name_read_only_by_its_own_definition():
    # recursion is no caller, nor is prose that names a function; a
    # string that is exactly its name is (a getattr dispatch table)
    stmt = ast.parse('def f(n):\n    """Calls f and g."""\n    return f(n - 1) + TABLE["h"]\n').body[0]
    assert reads(stmt) - defines(stmt) == {"n", "TABLE", "h"}
