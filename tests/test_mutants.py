"""Every entry of scripts/mutants.py still applies to the tree.

Running the mutants takes minutes, so Tier-1 only checks that each entry's
old text occurs exactly once and that the tests it names exist; a change
that edits a mutated line updates its entry.  ``python scripts/mutants.py``
runs them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies_once(mutant):
    assert mutants.stale(mutant) is None


@pytest.mark.parametrize("old, tests, reason", [
    ("no such text", ("tests/test_ideals.py",), "occurs 0 times"),
    ("def power(", ("tests/test_gone.py",), "no test file"),
    ("def power(", ("tests/test_ideals.py::test_gone",), "no test test_gone"),
])
def test_a_stale_entry_is_named(old, tests, reason):
    entry = mutants.Mutant("stale", "src/edgereg/ideals.py", old, "", tests)
    assert reason in mutants.stale(entry)
