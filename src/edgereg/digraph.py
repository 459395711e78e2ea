"""Vertex-weighted directed graphs and their family classification.

Families:

* ``OrientedCycle`` -- the underlying graph is a single cycle and every
  vertex has one in-edge and one out-edge (head-to-tail orientation).
* ``RootedForest`` -- the underlying graph is a forest and each component
  is oriented away from a single root.
* ``Unicyclic`` -- connected, exactly one cycle (head-to-tail oriented),
  and every attached tree oriented away from its attachment vertex on
  the cycle.
* ``Other`` -- anything else.

A source vertex (in-degree 0 with at least one out-edge) is normalized to
weight 1 on construction: the edge ideal never sees a source's weight, so
normalizing makes formula inputs canonical.  Normalizations are recorded
on the instance and reported by the JSON loader on a diagnostic stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import EmptyGraphError, FamilyMismatchError, GraphFormatError
from .ring import _NAME_RE, VariableSet


class Family(str, Enum):
    ORIENTED_CYCLE = "OrientedCycle"
    ROOTED_FOREST = "RootedForest"
    UNICYCLIC = "Unicyclic"
    OTHER = "Other"


class Theorem(str, Enum):
    """Which closed-form hypothesis set to check."""

    CYCLE = "CycleThm"
    FOREST = "ForestThm"
    UNICYCLIC = "UnicyclicThm"


_THEOREM_FAMILY = {
    Theorem.CYCLE: Family.ORIENTED_CYCLE,
    Theorem.FOREST: Family.ROOTED_FOREST,
    Theorem.UNICYCLIC: Family.UNICYCLIC,
}


class WeightedDigraph:
    """Immutable weighted digraph with named vertices."""

    __slots__ = (
        "_names", "_weights", "_edges", "_index",
        "_out", "_in", "_normalizations",
    )

    def __init__(
        self,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, str]],
    ):
        vnames: list[str] = []
        weights: dict[str, int] = {}
        for name, w in vertices:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise GraphFormatError(f"invalid vertex name {name!r}")
            if name in weights:
                raise GraphFormatError(f"duplicate vertex {name!r}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise GraphFormatError(f"weight of {name!r} must be a positive integer, got {w!r}")
            vnames.append(name)
            weights[name] = w
        edge_list: list[tuple[str, str]] = []
        seen = set()
        for tail, head in edges:
            if not isinstance(tail, str) or not isinstance(head, str):
                raise GraphFormatError(f"edge ({tail!r}, {head!r}) endpoints must be vertex names")
            if tail not in weights or head not in weights:
                raise GraphFormatError(f"edge ({tail!r}, {head!r}) references an undeclared vertex")
            if tail == head:
                raise GraphFormatError(f"self-loop at {tail!r}")
            if (tail, head) in seen:
                raise GraphFormatError(f"duplicate edge ({tail!r}, {head!r})")
            seen.add((tail, head))
            edge_list.append((tail, head))
        out_adj: dict[str, list[str]] = {v: [] for v in vnames}
        in_adj: dict[str, list[str]] = {v: [] for v in vnames}
        for tail, head in edge_list:
            out_adj[tail].append(head)
            in_adj[head].append(tail)
        normalizations: list[tuple[str, int]] = []
        for v in vnames:
            if not in_adj[v] and out_adj[v] and weights[v] != 1:
                normalizations.append((v, weights[v]))
                weights[v] = 1
        self._names = tuple(vnames)
        self._weights = weights
        self._edges = tuple(edge_list)
        self._index = {v: i for i, v in enumerate(vnames)}
        self._out = {v: tuple(hs) for v, hs in out_adj.items()}
        self._in = {v: tuple(ts) for v, ts in in_adj.items()}
        self._normalizations = tuple(normalizations)

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._names)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def normalization_report(self) -> tuple[tuple[str, int], ...]:
        """Vertices whose source weight was rewritten to 1 (name, old weight)."""
        return self._normalizations

    def weight(self, name: str) -> int:
        return self._weights[name]

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._weights)

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def max_weight(self) -> int:
        return max(self._weights.values())

    def out_neighbors(self, name: str) -> tuple[str, ...]:
        return self._out[name]

    def in_neighbors(self, name: str) -> tuple[str, ...]:
        return self._in[name]

    def degree(self, name: str) -> int:
        """Degree in the underlying graph (counting both directions)."""
        return len(self._out[name]) + len(self._in[name])

    def is_source(self, name: str) -> bool:
        return not self._in[name] and bool(self._out[name])

    def isolated_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self._names if self.degree(v) == 0)

    def variable_set(self) -> VariableSet:
        return VariableSet(self._names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self._names == other._names
            and self._weights == other._weights
            and set(self._edges) == set(other._edges)
        )

    def __hash__(self) -> int:
        return hash((self._names, tuple(sorted(self._weights.items())), tuple(sorted(self._edges))))

    def __repr__(self) -> str:
        return f"WeightedDigraph(|V|={self.n_vertices}, |E|={self.n_edges})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"name": v, "weight": self._weights[v]} for v in self._names],
            "edges": [[a, b] for a, b in self._edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedDigraph":
        try:
            vertices = [(v["name"], v["weight"]) for v in data["vertices"]]
            edges = [(a, b) for a, b in data["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"malformed graph JSON: {exc}") from exc
        return cls(vertices, edges)


def load_graph(path: str) -> WeightedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return WeightedDigraph.from_json_dict(data)


def save_graph(graph: WeightedDigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- family analysis ---------------------------------------------------


@dataclass(frozen=True)
class FamilyTag:
    kind: Family
    # Witness data, replayable against the graph:
    #   OrientedCycle: cycle = vertex order following the orientation.
    #   RootedForest:  trees = ((root, edges), ...) per component.
    #   Unicyclic:     cycle order plus trees oriented away from cycle roots.
    cycle: tuple[str, ...] = ()
    trees: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()


def _underlying_components(graph: WeightedDigraph) -> list[set[str]]:
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in graph.vertex_names:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.out_neighbors(v) + graph.in_neighbors(v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _has_antiparallel_pair(graph: WeightedDigraph) -> bool:
    edge_set = set(graph.edges)
    return any((b, a) in edge_set for a, b in edge_set)


def _trace_cycle(graph: WeightedDigraph, start: str) -> tuple[str, ...]:
    order = [start]
    v = graph.out_neighbors(start)[0]
    while v != start:
        order.append(v)
        v = graph.out_neighbors(v)[0]
    return tuple(order)


@dataclass(frozen=True)
class CycleAnalysis:
    """Structural report for a graph whose underlying graph is one cycle."""

    oriented: bool
    order: tuple[str, ...]
    orientation_violations: tuple[str, ...]


def analyze_cycle(graph: WeightedDigraph) -> CycleAnalysis | None:
    """If the underlying graph is one cycle on >= 3 vertices, report its
    orientation status; otherwise None."""
    if graph.n_vertices < 3 or graph.n_edges != graph.n_vertices:
        return None
    if _has_antiparallel_pair(graph):
        return None
    if len(_underlying_components(graph)) != 1:
        return None
    if any(graph.degree(v) != 2 for v in graph.vertex_names):
        return None
    oriented = all(
        len(graph.out_neighbors(v)) == 1 and len(graph.in_neighbors(v)) == 1
        for v in graph.vertex_names
    )
    order: tuple[str, ...] = ()
    violations: list[str] = []
    if oriented:
        order = _trace_cycle(graph, graph.vertex_names[0])
    else:
        for v in graph.vertex_names:
            if len(graph.out_neighbors(v)) != 1:
                violations.append(
                    f"vertex {v} has out-degree {len(graph.out_neighbors(v))}; "
                    f"a head-to-tail cycle needs exactly 1"
                )
    return CycleAnalysis(oriented, order, tuple(violations))


def _forest_witness(graph: WeightedDigraph):
    """Witness if every component is a tree oriented away from one root."""
    comps = _underlying_components(graph)
    if _has_antiparallel_pair(graph):
        return None
    edges_by_tail: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertex_names}
    for a, b in graph.edges:
        edges_by_tail[a].append((a, b))
    comp_edges = {id(c): 0 for c in comps}
    comp_of = {}
    for c in comps:
        for v in c:
            comp_of[v] = id(c)
    for a, _ in graph.edges:
        comp_edges[comp_of[a]] += 1
    trees = []
    for comp in comps:
        if comp_edges[id(comp)] != len(comp) - 1:
            return None  # component has a cycle
        roots = [v for v in comp if not graph.in_neighbors(v)]
        if len(roots) != 1:
            return None
        root = roots[0]
        # orientation away from the root means everything is reachable
        reached = {root}
        collected: list[tuple[str, str]] = []
        stack = [root]
        while stack:
            v = stack.pop()
            for w in graph.out_neighbors(v):
                if w in reached:
                    return None
                reached.add(w)
                collected.append((v, w))
                stack.append(w)
        if reached != comp:
            return None
        trees.append((root, tuple(sorted(collected))))
    trees.sort()
    return tuple(trees)


def _two_core(graph: WeightedDigraph) -> set[str]:
    deg = {v: graph.degree(v) for v in graph.vertex_names}
    alive = set(graph.vertex_names)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if deg[v] <= 1:
                alive.discard(v)
                for w in graph.out_neighbors(v) + graph.in_neighbors(v):
                    if w in alive:
                        deg[w] -= 1
                changed = True
    return alive


@dataclass(frozen=True)
class UnicyclicAnalysis:
    """Structural report for a connected graph with exactly one cycle."""

    cycle_vertices: frozenset[str]
    cycle_oriented: bool
    cycle_order: tuple[str, ...]
    trees_oriented: bool
    trees: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    orientation_violations: tuple[str, ...]

    @property
    def fully_oriented(self) -> bool:
        return self.cycle_oriented and self.trees_oriented


def analyze_unicyclic(graph: WeightedDigraph) -> UnicyclicAnalysis | None:
    """If connected with exactly one underlying cycle (length >= 3) and at
    least one tree vertex, report the orientation status; otherwise None.
    Bare cycles belong to the cycle family, not here."""
    if graph.n_edges != graph.n_vertices or graph.n_vertices < 3:
        return None
    if _has_antiparallel_pair(graph):
        return None
    if len(_underlying_components(graph)) != 1:
        return None
    core = _two_core(graph)
    if len(core) < 3 or len(core) == graph.n_vertices:
        return None
    if any(
        sum(1 for w in graph.out_neighbors(v) if w in core)
        + sum(1 for w in graph.in_neighbors(v) if w in core) != 2
        for v in core
    ):
        return None  # the 2-core is not a single cycle
    violations: list[str] = []
    cycle_oriented = all(
        sum(1 for w in graph.out_neighbors(v) if w in core) == 1
        and sum(1 for w in graph.in_neighbors(v) if w in core) == 1
        for v in core
    )
    order: tuple[str, ...] = ()
    if cycle_oriented:
        start = min(core, key=graph.vertex_names.index)
        order = [start]
        v = next(w for w in graph.out_neighbors(start) if w in core)
        while v != start:
            order.append(v)
            v = next(w for w in graph.out_neighbors(v) if w in core)
        order = tuple(order)
    else:
        violations.append("cycle is not oriented head-to-tail")
    # Trees must be oriented away from their attachment vertex on the cycle.
    trees_oriented = True
    reached = set(core)
    stack = list(core)
    tree_edges: dict[str, list[tuple[str, str]]] = {}
    parent_root: dict[str, str] = {v: v for v in core}
    while stack:
        v = stack.pop()
        for w in graph.out_neighbors(v):
            if w in reached:
                continue
            reached.add(w)
            root = parent_root[v]
            parent_root[w] = root
            tree_edges.setdefault(root, []).append((v, w))
            stack.append(w)
    if reached != set(graph.vertex_names):
        trees_oriented = False
        for v in sorted(set(graph.vertex_names) - reached):
            for w in graph.out_neighbors(v):
                violations.append(
                    f"edge ({v}, {w}) is not oriented away from the cycle"
                )
    else:
        for v in graph.vertex_names:
            if v not in core and len(graph.in_neighbors(v)) != 1:
                trees_oriented = False
                violations.append(
                    f"tree vertex {v} has in-degree {len(graph.in_neighbors(v))}"
                )
    trees = tuple(
        sorted((root, tuple(sorted(es))) for root, es in tree_edges.items())
    )
    return UnicyclicAnalysis(
        cycle_vertices=frozenset(core),
        cycle_oriented=cycle_oriented,
        cycle_order=order,
        trees_oriented=trees_oriented,
        trees=trees,
        orientation_violations=tuple(violations),
    )


def classify(graph: WeightedDigraph) -> FamilyTag:
    """Assign the graph to its family, with a replayable witness."""
    if graph.n_vertices == 0:
        raise EmptyGraphError("cannot classify an empty graph")
    cyc = analyze_cycle(graph)
    if cyc is not None:
        if cyc.oriented:
            return FamilyTag(kind=Family.ORIENTED_CYCLE, cycle=cyc.order)
        return FamilyTag(kind=Family.OTHER)
    forest = _forest_witness(graph)
    if forest is not None:
        return FamilyTag(kind=Family.ROOTED_FOREST, trees=forest)
    uni = analyze_unicyclic(graph)
    if uni is not None and uni.fully_oriented:
        return FamilyTag(kind=Family.UNICYCLIC, cycle=uni.cycle_order, trees=uni.trees)
    return FamilyTag(kind=Family.OTHER)


def replay_witness(graph: WeightedDigraph, tag: FamilyTag) -> bool:
    """Rebuild the edge set from the witness and compare with the graph."""
    if tag.kind == Family.OTHER:
        return True
    rebuilt: set[tuple[str, str]] = set()
    if tag.kind in (Family.ORIENTED_CYCLE, Family.UNICYCLIC):
        order = tag.cycle
        if len(order) < 3:
            return False
        rebuilt |= {(order[i], order[(i + 1) % len(order)]) for i in range(len(order))}
    if tag.kind in (Family.ROOTED_FOREST, Family.UNICYCLIC):
        for _root, edges in tag.trees:
            rebuilt |= set(edges)
    return rebuilt == set(graph.edges)


def make_cycle(weights: Sequence[int]) -> WeightedDigraph:
    """A head-to-tail cycle x1 -> x2 -> ... -> xn -> x1 with the given weights."""
    n = len(weights)
    if n < 3:
        raise GraphFormatError(f"a cycle needs at least 3 vertices, got {n}")
    names = [f"x{i}" for i in range(1, n + 1)]
    vertices = [(names[i], weights[i]) for i in range(n)]
    edges = [(names[i - 1], names[i]) for i in range(n)]  # i=0 wraps: xn -> x1
    return WeightedDigraph(vertices, edges)


@dataclass(frozen=True)
class HypothesesReport:
    theorem: Theorem
    family: Family
    violations: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return not self.violations


def weight_violations(graph: WeightedDigraph, theorem: Theorem) -> tuple[str, ...]:
    """Weight-hypothesis violations for the given closed form.

    The cycle form requires weight >= 2 everywhere.  The forest and
    unicyclic forms require weight >= 2 at vertices of underlying degree
    != 1, except sources: a source's weight is pinned to 1 by
    normalization and never enters the edge ideal.
    """
    out: list[str] = []
    if theorem == Theorem.CYCLE:
        for v in graph.vertex_names:
            if graph.weight(v) < 2:
                out.append(f"w({v})={graph.weight(v)}")
    else:
        for v in graph.vertex_names:
            if graph.degree(v) != 1 and not graph.is_source(v) and graph.weight(v) < 2:
                out.append(f"w({v})={graph.weight(v)} with d({v})={graph.degree(v)}")
    return tuple(out)


def check_hypotheses(graph: WeightedDigraph, theorem: Theorem) -> HypothesesReport:
    """Check a classified graph against a closed form's hypotheses."""
    tag = classify(graph)
    expected = _THEOREM_FAMILY[theorem]
    if tag.kind != expected:
        raise FamilyMismatchError(
            f"{theorem.value} expects family {expected.value}, "
            f"but the graph classifies as {tag.kind.value}",
            actual=tag.kind.value,
        )
    return HypothesesReport(
        theorem=theorem,
        family=tag.kind,
        violations=weight_violations(graph, theorem),
    )
