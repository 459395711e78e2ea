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

from .digraph import Family, WeightedDigraph, classify, weight_violations
from .errors import FamilyMismatchError
from .ring import _check_power

# The closed form is exact integer math, but a campaign also takes the t-th
# power of each edge ideal, and nothing bounds the products that takes.
MAX_POWER = 64


class FormulaResult:
    __slots__ = ("value", "family", "sum_weights", "n_edges", "max_weight", "t", "admissible",
                 "violations")

    def __init__(self, value: int, family: Family, sum_weights: int, n_edges: int,
                 max_weight: int, t: int, admissible: bool, violations: tuple[str, ...]):
        self.value, self.family, self.sum_weights = value, family, sum_weights
        self.n_edges, self.max_weight, self.t = n_edges, max_weight, t
        self.admissible, self.violations = admissible, violations

    def to_json_dict(self) -> dict:
        """Every slot, the family as its value and the violations as a list."""
        out = {name: getattr(self, name) for name in self.__slots__}
        out["family"], out["violations"] = self.family.value, list(self.violations)
        return out


def closed_form_value(sum_weights: int, n_edges: int, max_weight: int, t: int) -> int:
    return sum_weights - n_edges + 1 + (t - 1) * (max_weight + 1)


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


def _predict(graph: WeightedDigraph, t: int, form: str) -> FormulaResult:
    """The closed form ``form`` applied to graph, flagged with every violation."""
    _check_power(t)
    if t > MAX_POWER:
        raise ValueError(f"power t must be at most {MAX_POWER}, got {t}")
    if form != "cycle":
        _reject_isolated(graph)
    tag = classify(graph)
    if tag.shape != form:
        raise FamilyMismatchError(_SHAPE_MISMATCH[form].format(tag.kind.value))
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
        raise FamilyMismatchError(f"no closed form for family {tag.kind.value}")
    return _predict(graph, t, tag.shape)
