"""Spans around the calls one edgereg layer makes into another.

Only the traced run imports this module; the untraced run never loads it.

``install`` replaces module attributes through which layers call each
other (layers import each other's names, so each importing module holds
its own reference).  A wrapper records a span only inside an operation's
root span, so output checks run outside the trace.  Spans stay in memory
as lists ``[name, start, end, parent, op, info]`` and are written once,
after the pass.

Span times are CPU seconds of the process (see worker.py for why).  A
span's self time is its duration minus the durations of its children;
children run inside their parent and one after another, so the self
times of one root's tree add up to the root's duration.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from edgereg import betti, homology, verify

NAME, START, END, PARENT, OP, INFO = range(6)
_clock = time.process_time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def root(self, name: str, op: int, fn, *args):
        """Call fn(*args) as a root span of operation op; returns (result, span)."""
        span = [name, 0.0, 0.0, None, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op
        span[START] = _clock()
        try:
            return fn(*args), span
        finally:
            span[END] = _clock()
            self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        """fn recorded as span `name`; info(args, result) is stored on the span."""

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1], self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _clock()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _first_arg(args, _result):
    return args[0]


def _is_acyclic(_args, result):
    return not result


def _size(_args, result):
    return len(result)


def _shape(args, _result):
    return (len(args[0]), args[1])


# (module, attribute, span name, info) for every seam the trace wraps.
SEAMS = (
    (betti, "betti_table", "betti.table", _first_arg),
    (betti, "covered_homology", "homology.covered", _is_acyclic),
    (homology, "enumerate_union_faces", "homology.faces", _size),
    (homology, "rank_int", "linalg.rank_int", _shape),
    (homology, "rank_gf2", "linalg.rank_gf2", _shape),
    (verify, "betti_table", "betti.table", _first_arg),
    (verify, "regularity", "betti.regularity", None),
    (verify, "power", "ideals.power", None),
    (verify, "polarize", "ideals.polarize", None),
    (verify, "edge_ideal", "constructions.edge_ideal", None),
    (verify, "classify", "digraph.classify", None),
    (verify, "ordered_power_basis", "constructions.basis", None),
    (verify, "build_colon_structure", "constructions.colon", None),
    (verify, "formula_cycle", "formulas.formula", None),
    (verify, "formula_forest", "formulas.formula", None),
    (verify, "formula_unicyclic", "formulas.formula", None),
)

# span names of the benchmark's own calls into each layer
API_SPANS = {
    "edge_ideal": ("constructions.edge_ideal", None),
    "power": ("ideals.power", None),
    "regularity": ("betti.regularity", None),
    "betti_table": ("betti.table", _first_arg),
    "run_campaign": ("verify.run_campaign", None),
    "run_structure_checks": ("verify.run_structure_checks", None),
    "run_reference_examples": ("verify.run_reference_examples", None),
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every seam; returns (owner, attribute, original) for ``uninstall``."""
    undo = []
    wrapped = {}
    for module, attr, name, info in SEAMS:
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, info)
        wrapped[original] = wrapper
        undo.append((module, attr, original))
        setattr(module, attr, wrapper)
    # campaigns and reference examples hold their own formula references
    undo.append((verify, "_FORMULA_BY_FAMILY", verify._FORMULA_BY_FAMILY))
    verify._FORMULA_BY_FAMILY = {
        family: wrapped[fn] for family, fn in verify._FORMULA_BY_FAMILY.items()
    }
    undo.append((verify, "REFERENCE_EXAMPLES", verify.REFERENCE_EXAMPLES))
    verify.REFERENCE_EXAMPLES = tuple(
        dataclasses.replace(ex, formula=wrapped[ex.formula]) for ex in verify.REFERENCE_EXAMPLES
    )
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def traced_api(tracer: Tracer, api):
    """A copy of the benchmark's api namespace whose calls are spans."""
    out = type(api)(**vars(api))
    for attr, (name, info) in API_SPANS.items():
        setattr(out, attr, tracer.wrap(name, getattr(api, attr), info))
    return out


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def table_misses(spans: list[list], first: int, end: int) -> list[tuple[object, int]]:
    """(ideal, covered_homology calls) of each table span in spans[first:end]
    that missed the memo, i.e. computed its slices."""
    slices: dict[int, int] = defaultdict(int)
    for span in spans[first:end]:
        if span[NAME] == "homology.covered":
            slices[span[PARENT]] += 1
    return [
        (spans[k][INFO], slices[k])
        for k in range(first, end)
        if spans[k][NAME] == "betti.table" and slices[k]
    ]


def check_lattices(tracer: Tracer, op_spans: list[tuple[int, int]]) -> int:
    """Recompute the lcm lattice of every table that missed the memo.

    op_spans[k] is the range of operation k's spans.  The lcm_lattice calls
    are root spans of their own, outside the operation's span and the timed
    region.  Returns the number of tables whose covered_homology call count
    differs from their lattice size.
    """
    mismatches = 0
    for k, (first, end) in enumerate(op_spans):
        for ideal, slices in table_misses(tracer.spans, first, end):
            lattice, span = tracer.root("betti.lattice", k, betti.lcm_lattice, ideal)
            span[INFO] = lattice.size
            mismatches += lattice.size != slices
    return mismatches


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one pass's spans."""
    selfs = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    acyclic = faces = entries = max_rows = lattice_points = 0
    for span, s in zip(spans, selfs):
        name = span[NAME]
        count[name] += 1
        own[name] += s
        info = span[INFO]
        if name == "homology.covered":
            acyclic += bool(info)
        elif name == "homology.faces":
            faces += info
        elif name in ("linalg.rank_int", "linalg.rank_gf2"):
            entries += info[0] * info[1]
            max_rows = max(max_rows, info[0])
        elif name == "betti.lattice":
            lattice_points += info
    slices = count["homology.covered"]
    survivors = count["homology.faces"]
    return {
        "betti.tables": count["betti.table"],
        "betti.self_s": own["betti.table"] + own["betti.regularity"],
        "betti.lattice_s": own["betti.lattice"],
        "betti.lattice_points": lattice_points,
        "homology.slices": slices,
        "homology.acyclic": acyclic,
        "homology.survivors": survivors,
        "homology.survivor_ratio": survivors / slices if slices else 0.0,
        "homology.faces": faces,
        "homology.faces_s": own["homology.faces"],
        "homology.self_s": own["homology.covered"],
        "linalg.rank_int_calls": count["linalg.rank_int"],
        "linalg.rank_int_s": own["linalg.rank_int"],
        "linalg.rank_gf2_calls": count["linalg.rank_gf2"],
        "linalg.rank_gf2_s": own["linalg.rank_gf2"],
        "linalg.matrix_entries": entries,
        "linalg.max_rows": max_rows,
        "ideals.power_calls": count["ideals.power"],
        "ideals.power_s": own["ideals.power"],
        "ideals.polarize_s": own["ideals.polarize"],
        "constructions.edge_ideal_s": own["constructions.edge_ideal"],
        "constructions.basis_s": own["constructions.basis"],
        "constructions.colon_s": own["constructions.colon"],
        "digraph.classify_s": own["digraph.classify"],
        "formulas.calls": count["formulas.formula"],
        "formulas.formula_s": own["formulas.formula"],
        "verify.self_s": sum(t for name, t in own.items() if name.startswith("verify.")),
    }
