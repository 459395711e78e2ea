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

from .constructions import build_colon_structure
from .digraph import (
    Family,
    FamilyMismatchError,
    Theorem,
    WeightedDigraph,
    analyze_cycle,
    analyze_unicyclic,
    classify,
    weight_violations,
)

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


def _result(graph: WeightedDigraph, family: Family, t: int, violations: tuple[str, ...]) -> FormulaResult:
    return FormulaResult(
        value=closed_form_value(graph.total_weight(), graph.n_edges, graph.max_weight(), t),
        family=family,
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
    _check_t(t)
    analysis = analyze_cycle(graph)
    if analysis is None:
        actual = classify(graph).kind
        raise FamilyMismatchError(
            f"underlying graph is not a single cycle (family: {actual.value})",
            actual=actual.value,
        )
    violations = analysis.orientation_violations + weight_violations(graph, Theorem.CYCLE)
    family = Family.ORIENTED_CYCLE if analysis.oriented else Family.OTHER
    return _result(graph, family, t, violations)


def formula_unicyclic(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Prediction for a connected graph with exactly one underlying cycle."""
    _check_t(t)
    _reject_isolated(graph)
    analysis = analyze_unicyclic(graph)
    if analysis is None:
        actual = classify(graph).kind
        raise FamilyMismatchError(
            f"underlying graph is not unicyclic (family: {actual.value})",
            actual=actual.value,
        )
    violations = analysis.orientation_violations + weight_violations(graph, Theorem.UNICYCLIC)
    family = Family.UNICYCLIC if analysis.fully_oriented else Family.OTHER
    return _result(graph, family, t, violations)


def formula_forest(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Prediction for a rooted forest (edges oriented away from the roots)."""
    _check_t(t)
    _reject_isolated(graph)
    tag = classify(graph)
    if tag.kind != Family.ROOTED_FOREST:
        raise FamilyMismatchError(
            f"expected a rooted forest, got {tag.kind.value}", actual=tag.kind.value
        )
    return _result(graph, tag.kind, t, weight_violations(graph, Theorem.FOREST))


FORMULA_BY_FAMILY = {
    "cycle": formula_cycle,
    "forest": formula_forest,
    "unicyclic": formula_unicyclic,
}


def formula_for_family(graph: WeightedDigraph, t: int) -> FormulaResult:
    """Dispatch on the classified family.

    Graphs classified Other still get a flagged prediction when their
    underlying shape is a single cycle or unicyclic, so reoriented
    instances are compared too; anything else raises.
    """
    kind = classify(graph).kind
    if kind == Family.ROOTED_FOREST:
        return formula_forest(graph, t)
    if kind == Family.ORIENTED_CYCLE or analyze_cycle(graph) is not None:
        return formula_cycle(graph, t)
    if kind == Family.UNICYCLIC or analyze_unicyclic(graph) is not None:
        return formula_unicyclic(graph, t)
    raise FamilyMismatchError(f"no closed form for family {kind.value}", actual=kind.value)


@dataclass(frozen=True)
class ColonRegularityPrediction:
    """Predicted regularity of the colon past the i-th ordered generator.

    ``kind`` is "exact" when the leading edge index is not 1 or the
    descent depth q is 0, and "bound" (an upper bound) when the leading
    index is 1 with q >= 1.
    """

    index: int
    value: int
    kind: str


def colon_regularity_predictions(
    graph: WeightedDigraph, t: int, i: int
) -> ColonRegularityPrediction:
    _check_t(t)
    structure = build_colon_structure(graph, t, i)
    tag = classify(graph)
    order = tag.cycle
    n = len(order)
    weights = [graph.weight(v) for v in order]  # weights[j] = w_{j+1}

    i1 = structure.support_indices[0]
    if i1 >= 2:
        value = sum(weights[j] for j in range(i1, n)) - (n - i1) + 1
        kind = "exact"
    else:
        value = sum(weights[1:]) - n + 1
        kind = "exact" if structure.q == 0 else "bound"
    return ColonRegularityPrediction(index=i, value=value, kind=kind)
