"""The public API is sized to its callers.

Every public module-level name of the package must be read somewhere
other than its own definition: in the package, the scripts, the benchmark
or ``pyproject.toml``.  Paths that only the tests use belong in
``tests/oracles.py``.  The package ``__init__`` re-exports nothing, so a
re-export cannot stand in for a caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edgereg"
CALLERS = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "edgebench").glob("*.py")]
)


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read(node: ast.AST) -> set[str]:
    """The names and attributes read anywhere inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_name_has_a_caller():
    public = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        for name in _defined(node)
        if not name.startswith("_")
    }
    referenced = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in CALLERS:
        for node in ast.parse(path.read_text()).body:
            # a name read only inside its own definition has no caller
            referenced |= _read(node) - set(_defined(node))
    unused = sorted(f"{module}.{name}" for module, name in public if name not in referenced)
    assert not unused, f"public names without a caller outside tests/: {unused}"


def test_the_package_re_exports_nothing():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert not [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {name for node in body for name in _defined(node)} <= {"__version__"}
