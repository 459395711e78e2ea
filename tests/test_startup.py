"""Importing the engine only defines things.

The command line must not load the verification harness, ``dataclasses``
or ``csv`` unless a subcommand needs them, and no module generates classes
at import time: the records are plain ``__slots__`` classes.
``verify.ReferenceExample`` stays a dataclass, because callers rebuild it
with ``dataclasses.replace``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_harness_dataclasses_or_csv():
    # -S keeps site-packages out, so only the engine's own imports count
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import edgereg.cli; "
        "print(sorted(m for m in ('edgereg.verify', 'dataclasses', 'csv') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_only_the_reference_example_is_a_dataclass():
    decorated = {
        f"{path.stem}.{node.name}"
        for path in (SRC / "edgereg").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
    }
    assert decorated == {"verify.ReferenceExample"}
