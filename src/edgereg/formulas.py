"""Closed-form regularity predictions with strict admissibility checking.

All three graph families share one formula shape:

    sum of vertex weights - number of edges + 1 + (t - 1) * (max weight + 1)

The hypotheses differ per family (weights >= 2 everywhere for cycles;
weights >= 2 off the leaves for forests and unicyclic graphs, sources
exempt; orientation per the family definition).  Inadmissible inputs
still get the predicted value, flagged with the exact violations, because
comparing the naive prediction against the exact engine on inadmissible
instances is the point of the verification harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .digraph import Family, FamilyTag, WeightedDigraph, classify, weight_violations
from .errors import FamilyMismatchError

# Formula arithmetic is exact integer math; the cap just keeps t sane.
MAX_POWER = 64


@dataclass(frozen=True)
class FormulaResult:
    value: int
    family: Family
    sum_weights: int
    n_edges: int
    max_weight: int
    t: int
    admissible: bool
    violations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "family": self.family.value,
            "sum_weights": self.sum_weights,
            "n_edges": self.n_edges,
            "max_weight": self.max_weight,
            "t": self.t,
            "admissible": self.admissible,
            "violations": list(self.violations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def closed_form_value(sum_weights: int, n_edges: int, max_weight: int, t: int) -> int:
    return sum_weights - n_edges + 1 + (t - 1) * (max_weight + 1)


def _check_t(t: int) -> None:
    if not 1 <= t <= MAX_POWER:
        raise ValueError(f"power t must be in 1..{MAX_POWER}, got {t}")


def _reject_isolated(graph: WeightedDigraph) -> None:
    isolated = graph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"closed forms reject graphs with isolated vertices: {', '.join(isolated)}"
        )


_SHAPE_MISMATCH = {
    "cycle": "underlying graph is not a single cycle (family: {})",
    "forest": "expected a rooted forest, got {}",
    "unicyclic": "underlying graph is not unicyclic (family: {})",
}


def _predict(
    graph: WeightedDigraph, t: int, form: str, tag: FamilyTag | None = None
) -> FormulaResult:
    """The closed form ``form`` applied to graph, flagged with every violation.

    ``tag`` is the graph's classification when the caller already has it.
    """
    _check_t(t)
    if form != "cycle":
        _reject_isolated(graph)
    if tag is None:
        tag = classify(graph)
    if tag.shape != form:
        actual = tag.kind.value
        raise FamilyMismatchError(_SHAPE_MISMATCH[form].format(actual), actual=actual)
    violations = tag.violations + weight_violations(graph, form)
    return FormulaResult(
        value=closed_form_value(graph.total_weight(), graph.n_edges, graph.max_weight(), t),
        family=tag.kind,
        sum_weights=graph.total_weight(),
        n_edges=graph.n_edges,
        max_weight=graph.max_weight(),
        t=t,
        admissible=not violations,
        violations=violations,
    )


def formula_cycle(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Prediction for a graph whose underlying graph is a single cycle.

    Admissible when the cycle is oriented head-to-tail and every weight
    is at least 2; otherwise the prediction is flagged with violations.
    """
    return _predict(graph, t, "cycle")


def formula_unicyclic(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Prediction for a connected graph with exactly one underlying cycle."""
    return _predict(graph, t, "unicyclic")


def formula_forest(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Prediction for a rooted forest (edges oriented away from the roots)."""
    return _predict(graph, t, "forest")


FORMULA_BY_FAMILY = {
    "cycle": formula_cycle,
    "forest": formula_forest,
    "unicyclic": formula_unicyclic,
}


def formula_for_family(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Dispatch on the graph's closed-form shape (a ``FORMULA_BY_FAMILY`` key).

    Graphs classified Other still get a flagged prediction when their
    underlying shape is a single cycle or unicyclic, so reoriented
    instances are compared too; anything else raises.
    """
    tag = classify(graph)
    if tag.shape is None:
        actual = tag.kind.value
        raise FamilyMismatchError(f"no closed form for family {actual}", actual=actual)
    return _predict(graph, t, tag.shape, tag)
