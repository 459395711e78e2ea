#!/usr/bin/env python3
"""Re-runnable mutation checks: each entry breaks one line the tests should guard.

An entry names a file of the repository, an exact text that occurs in it
once, the text that replaces it, and the tests that should then fail.  Each
mutant is applied alone to a temporary copy of the repository, and its
tests run there with pytest.  A mutant whose tests fail is caught; one
whose tests pass survived.  A mutant that keeps its tests running past
TIMEOUT_S (an elimination loop that never ends, say) is caught too: a
suite that does not finish does not pass.  Run from anywhere:

    python scripts/mutants.py

Exits 1 when a mutant survives or an entry is stale (its old text does not
occur exactly once, or a test it names is gone).  A line edited on purpose
needs its entry edited in the same change.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the tests of one entry take seconds on the unmutated tree
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_WALK = ("tests/test_betti.py",)
_COLON = ("tests/test_constructions.py", "tests/test_colon_parts.py")

MUTANTS = (
    # the Mayer-Vietoris tree walk of betti.regularity_witness
    Mutant("child bounded by |m_k|, not the prefix lcm", "src/edgereg/betti.py",
           "bound = prefix % mod - d - 1", "bound = m % mod - d - 1", _WALK),
    Mutant("stop at <=", "src/edgereg/betti.py",
           "if bound < best[0] + lift:", "if bound <= best[0] + lift:", _WALK),
    Mutant("value-only walk stops one bucket early", "src/edgereg/betti.py",
           "lift = 0 if ties else 1", "lift = 0 if ties else 2", _WALK),
    Mutant("emissions bucketed at depth d + 1", "src/edgereg/betti.py",
           "bound = m % mod - d  #", "bound = m % mod - d - 1  #", _WALK),
    Mutant("seen set skips every node met before", "src/edgereg/betti.py",
           "if seen.get(child, d + 1) > d:", "if child not in seen:", _WALK),
    Mutant("emission pushes pruned at <=", "src/edgereg/betti.py",
           "if bound >= floor:\n                    buckets[bound].append(m)",
           "if bound > floor:\n                    buckets[bound].append(m)", _WALK),
    Mutant("every tie skipped", "src/edgereg/betti.py",
           "not (tie and item % mod >= best[0] - best[1])", "not tie", _WALK),
    Mutant("tie emissions kept at |m| == w + reg", "src/edgereg/betti.py",
           "item % mod >= best[0] - best[1]", "item % mod > best[0] - best[1]", _WALK),
    Mutant("tie children built at depth w", "src/edgereg/betti.py",
           "if tie and d >= -best[1]:", "if tie and d > -best[1]:", _WALK),
    Mutant("walk reads the reduced degree as the homological index", "src/edgereg/betti.py",
           "best = max(best, (item % mod - h - 1, -h - 1))", "best = max(best, (item % mod - h, -h))",
           _WALK),
    # the lcm-lattice walk and the table loop of betti.betti_table
    Mutant("lattice walk skips the witness refresh", "src/edgereg/betti.py",
           "gone = seen[j] ^ kept", "gone = 0", _WALK),
    Mutant("lattice walk leaves a new exponent's attainment unchecked", "src/edgereg/betti.py",
           "if not d or e and not d & at:", "if not d:", _WALK),
    Mutant("lattice walk visits the exponents in descending order", "src/edgereg/betti.py",
           "sorted(le_row.items())", "sorted(le_row.items(), reverse=True)", _WALK),
    Mutant("table reads its leaf covers from le, not lt", "src/edgereg/betti.py",
           "~lt_row[e], lt_row[e])", "~lt_row[e], m)", _WALK),
    Mutant("table records ranks at the reduced degree", "src/edgereg/betti.py",
           "multigraded[(d + 1, bm)] = r", "multigraded[(d, bm)] = r", _WALK),
    # the slot joins that build each child of the regularity walk
    Mutant("slot join without replicated guards", "src/edgereg/ring.py",
           "self.guards * ones, g * ones", "self.guards, g * ones",
           ("tests/test_ring.py", *_WALK)),
    Mutant("slot window one generator off", "src/edgereg/ring.py",
           "slots & (1 << 8 * size * k) - 1", "slots & (1 << 8 * size * (k - 1)) - 1",
           ("tests/test_ring.py", *_WALK)),
    # the slot covers that slice each emission of the regularity walk
    Mutant("slice covers keep the generators that do not divide b", "src/edgereg/ring.py",
           " if divides[i:i + size] == full]", "]", ("tests/test_ring.py", *_WALK)),
    Mutant("slice covers read g_j < b_j as g_j <= b_j", "src/edgereg/ring.py",
           "below = (guards & ~((slots | guards) - h))", "below = (((h | guards) - slots) & guards)",
           ("tests/test_ring.py", *_WALK)),
    # the packed exponent vectors of ring._Packing
    Mutant("degree modulus 2**width", "src/edgereg/ring.py",
           "self.mod = (1 << width) - 1", "self.mod = 1 << width",
           ("tests/test_ideals.py", *_WALK)),
    Mutant("degree modulus 2**width - 2", "src/edgereg/ring.py",
           "self.mod = (1 << width) - 1", "self.mod = (1 << width) - 2",
           ("tests/test_ideals.py", *_WALK)),
    Mutant("packing cache keyed by n alone", "src/edgereg/ring.py",
           "cls._shapes.get((n, width))\n        if self is None:\n            self = cls._shapes[n, width]",
           "cls._shapes.get(n)\n        if self is None:\n            self = cls._shapes[n]",
           ("tests/test_ring.py",)),
    # the reduced homology of a union of simplices
    Mutant("apex weighted by cover count, not 2^|C|", "src/edgereg/homology.py",
           "w = 1 << cover.bit_count()", "w = 1", ("tests/test_homology.py",)),
    Mutant("star filter tests the cover inside the face", "src/edgereg/homology.py",
           "if f | c == c:", "if f & c == c:", ("tests/test_homology.py",)),
    Mutant("boundary without signs", "src/edgereg/homology.py",
           "sign = -sign", "sign = sign", ("tests/test_homology.py",)),
    Mutant("simplex-boundary nerve one degree too high", "src/edgereg/homology.py",
           "return {len(rows) - 2: 1}", "return {len(rows) - 1: 1}", ("tests/test_homology.py",)),
    Mutant("sphere test skips the meeting of all covers but the last", "src/edgereg/homology.py",
           "map(and_, pre, suf[1:])", "map(and_, pre[:-2], suf[1:])", ("tests/test_homology.py",)),
    Mutant("sphere test left to two covers or more", "src/edgereg/homology.py",
           "if all(map(and_, pre, suf[1:])):", "if len(rows) > 1 and all(map(and_, pre, suf[1:])):",
           ("tests/test_homology.py::TestSimplexBoundaryNerve",)),
    Mutant("memo keeps zero ranks", "src/edgereg/homology.py", "if h:", "if h >= 0:",
           ("tests/test_betti.py::test_every_rank_is_positive_and_each_generator_has_rank_one",)),
    # the reduce-against-pivots loops of the two rank kernels
    Mutant("integer row not scaled by p/g before the update", "src/edgereg/linalg.py",
           "row = {c: s * v for c, v in row.items()}", "row = {c: v for c, v in row.items()}",
           ("tests/test_linalg.py",)),
    Mutant("integer row reduced once at most", "src/edgereg/linalg.py",
           "        while row:\n", "        if row:\n", ("tests/test_linalg.py",)),
    Mutant("GF(2) row or-ed with its pivot row", "src/edgereg/linalg.py",
           "r ^= piv", "r |= piv", ("tests/test_linalg.py",)),
    Mutant("GF(2) row reduced once at most", "src/edgereg/linalg.py",
           "        while r:\n", "        if r:\n", ("tests/test_linalg.py",)),
    # the family of a graph
    Mutant("antiparallel pairs allowed", "src/edgereg/digraph.py",
           "if any((b, a) in edge_set for a, b in edge_set):", "if False:",
           ("tests/test_digraph.py",)),
    Mutant("forest vertices with in-degree 2", "src/edgereg/digraph.py",
           "len(graph.in_neighbors(v)) <= 1", "len(graph.in_neighbors(v)) <= 2",
           ("tests/test_digraph.py",)),
    Mutant("cycle when one vertex hangs off the cycle", "src/edgereg/digraph.py",
           "if len(core) == graph.n_vertices:", "if len(core) >= graph.n_vertices - 1:",
           ("tests/test_digraph.py",)),
    # what a graph computes once and keeps
    Mutant("classification kept in one slot shared by every graph", "src/edgereg/digraph.py",
           "    return graph._tag\n", "    return classify.__dict__.setdefault(\"tag\", graph._tag)\n",
           ("tests/test_constructions.py::test_each_graph_keeps_its_own_classification_and_edge_ideal",)),
    Mutant("edge ideal kept per vertex names", "src/edgereg/constructions.py",
           "    return graph._ideal\n",
           "    return edge_ideal.__dict__.setdefault(graph.vertex_names, graph._ideal)\n",
           ("tests/test_constructions.py::test_each_graph_keeps_its_own_classification_and_edge_ideal",)),
    # the paper's constructions and closed forms
    Mutant("descent depth ell one level too deep", "src/edgereg/constructions.py",
           "ell = min(t, n // 2) - 1", "ell = min(t, n // 2)", ("tests/test_colon_parts.py",)),
    Mutant("q part one term short", "src/edgereg/constructions.py",
           "for j in range(q + 1):", "for j in range(q):", _COLON),
    Mutant("k part one single short", "src/edgereg/constructions.py",
           "for j in range(p)]", "for j in range(p - 1)]", _COLON),
    Mutant("colon tail left in ascending order", "src/edgereg/constructions.py",
           "tuple(later[::-1])", "tuple(later)", _COLON),
    Mutant("closed form without its + 1", "src/edgereg/formulas.py",
           "sum_weights - n_edges + 1 + (t - 1)", "sum_weights - n_edges + (t - 1)",
           ("tests/test_formulas.py",)),
    Mutant("sources not exempt from the weight hypothesis", "src/edgereg/digraph.py",
           " and not graph.is_source(v)", "", ("tests/test_formulas.py",)),
    # checks that refuse work or input before it starts
    Mutant("a bool taken as a power", "src/edgereg/ring.py",
           "if type(t) is not int or t < 1:", "if not isinstance(t, int) or t < 1:",
           ("tests/test_formulas.py::test_a_power_is_a_plain_int_of_at_least_one",)),
    Mutant("unit ideal multiplied at every power", "src/edgereg/ideals.py",
           "if len(ideal) == 1:", "if False:", ("tests/test_ideals.py",)),
    Mutant("power squares once more than t has bits", "src/edgereg/ideals.py",
           "for bit in bin(t)[3:]:", "for bit in bin(t)[2:]:", ("tests/test_ideals.py",)),
    Mutant("power of a principal ideal left at the first power", "src/edgereg/ideals.py",
           "(tuple([t * e for e in ideal._exps[0]]),)", "ideal._exps",
           ("tests/test_ideals.py",)),
    Mutant("CampaignSpec takes any field", "src/edgereg/verify.py",
           "        _check_field(self.field)\n", "",
           ("tests/test_verify.py::TestSpecValidation",)),
    Mutant("CampaignSpec takes repeated entries", "src/edgereg/verify.py",
           "if len(set(values)) < len(values):", "if False:",
           ("tests/test_verify.py::TestSpecValidation",)),
)


def stale(mutant: Mutant) -> str | None:
    """Why the entry no longer applies to the repository, or None."""
    count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.path}"
    for test in mutant.tests:
        path, *names = test.split("::")
        if not (ROOT / path).is_file():
            return f"no test file {path}"
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            if f"def {name}(" not in text and f"class {name}" not in text:
                return f"no test {name} in {path}"
    return None


def run(mutant: Mutant, root: pathlib.Path) -> str:
    """Apply the mutant in the copy at ``root``, run its tests, undo it;
    the verdict: caught, caught (timed out) or SURVIVED."""
    source = root / mutant.path
    original = source.read_text(encoding="utf-8")
    source.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "caught (timed out)"
    finally:
        source.write_text(original, encoding="utf-8")
    # 1: a test failed; 2: collection failed, e.g. on a broken import
    if done.returncode not in (0, 1, 2):
        raise RuntimeError(f"pytest exited {done.returncode} on {mutant.tests}")
    return "caught" if done.returncode else "SURVIVED"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        reason = stale(mutant)
        if reason:
            print(f"stale     {mutant.name}: {reason}")
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        # the tests read the scripts and the benchmark too, as callers of the package
        for part in ("src", "tests", "scripts", "edgebench"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "results"))
        shutil.copy(ROOT / "pyproject.toml", root)
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdict = run(mutant, root)
            print(f"{verdict:<8}  {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            bad += verdict == "SURVIVED"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
