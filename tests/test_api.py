"""The public API is sized to its callers.

Every public module-level name of the package must be read somewhere
other than its own definition: in the package, the scripts, the benchmark
or ``pyproject.toml``.  So must every method and property of a package
class and every ``__slots__`` field, and every constructor it defines must
be called.  Every defaulted parameter must be passed by some call.  Paths
that only the tests use belong in ``tests/oracles.py``.  The package
``__init__`` re-exports nothing, so a re-export cannot stand in for a
caller.

The guards match names, not objects: a field, member or parameter passes
when any attribute, call or keyword of the same name appears in a caller.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edgereg"
CALLERS = sorted(
    path for path in
    [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "edgebench").glob("*.py")]
    # the benchmark's self-test is a test, and the mutation script is test tooling
    if not path.name.startswith("test_") and path.name != "mutants.py"
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


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _overrides(module: str, cls: str, name: str) -> bool:
    """Does the class override a member of a base outside the package, which
    the base's own code calls (``argparse.ArgumentParser.error``, say)?"""
    runtime = getattr(importlib.import_module(f"edgereg.{module}"), cls)
    return any(
        name in vars(base) for base in runtime.__mro__[1:]
        if not base.__module__.startswith("edgereg")
    )


def _package_classes(trees: dict) -> list[tuple[str, ast.ClassDef]]:
    return [
        (path.stem, node) for path, tree in trees.items() if path.parent == PACKAGE
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]


# both run when the class is called, with the arguments of the call
_CONSTRUCTORS = ("__init__", "__new__")


def _constructor_callees(klass: ast.ClassDef, classes, name: str) -> set[str]:
    """A constructor runs when its class is called, or a subclass that keeps it."""
    return {klass.name} | {
        sub.name for _, sub in classes
        if klass.name in {getattr(b, "id", None) for b in sub.bases}
        and not any(getattr(f, "name", None) == name for f in sub.body)
    }


def test_every_class_member_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    reads = Counter(
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    )
    called = {
        _callee(node) for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    classes = _package_classes(trees)
    unused = []
    for module, klass in classes:
        own_calls = {_callee(n) for n in ast.walk(klass) if isinstance(n, ast.Call)}
        for member in klass.body:
            if not isinstance(member, ast.FunctionDef):
                continue
            name = member.name
            if name in _CONSTRUCTORS:
                # a constructor may also run through cls(...) in a classmethod
                constructs = _constructor_callees(klass, classes, name)
                used = bool(constructs & called) or "cls" in own_calls
            elif name.startswith("__") and name.endswith("__"):
                continue  # dunders run through syntax: ==, len, str, *
            else:
                # a read inside the member's own body is not a caller
                own = sum(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(member))
                used = reads[name] > own or _overrides(module, klass.name, name)
            if not used:
                unused.append(f"{module}.{klass.name}.{name}")
    assert not unused, f"class members without a caller outside tests/: {sorted(unused)}"


def _slots(klass: ast.ClassDef) -> list[str]:
    for node in klass.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                 for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def test_every_slot_is_read():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    loads = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = _package_classes(trees)
    # a class that serializes by walking __slots__ reads every field it declares
    walkers = {
        klass.name for _, klass in classes
        if any(isinstance(n, ast.Attribute) and n.attr == "__slots__" for n in ast.walk(klass))
    }
    unread = []
    for module, klass in classes:
        runtime = getattr(importlib.import_module(f"edgereg.{module}"), klass.name)
        if {base.__name__ for base in runtime.__mro__} & walkers:
            continue
        unread += [f"{module}.{klass.name}.{name}" for name in _slots(klass) if name not in loads]
    assert not unread, f"slots never read outside tests/: {sorted(unread)}"


def _defaulted(fn: ast.FunctionDef, offset: int) -> list[tuple[int | None, str]]:
    """(position counted after self or cls, or None if keyword-only, name)
    of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(k - offset, a.arg) for k, a in enumerate(positional) if k >= first]
    return out + [
        (None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True  # by keyword or through **
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    classes = _package_classes(trees)
    methods = {id(f): klass for _, klass in classes for f in klass.body
               if isinstance(f, ast.FunctionDef)}
    unpassed = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            klass = methods.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            callees = {fn.name}
            if klass is not None and fn.name in _CONSTRUCTORS:
                callees = _constructor_callees(klass, classes, fn.name)
            offset = 1 if klass is not None and not static else 0
            for position, name in _defaulted(fn, offset):
                qualified = f"{path.stem}.{klass.name + '.' if klass else ''}{fn.name}({name}=)"
                if (qualified != "cli.main(argv=)"
                        and not any(_passes(call, position, name)
                                    for callee in callees for call in calls.get(callee, ()))):
                    unpassed.append(qualified)
    assert not unpassed, f"defaulted parameters never passed outside tests/: {sorted(unpassed)}"
