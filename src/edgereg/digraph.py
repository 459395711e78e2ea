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
from enum import Enum
from typing import Iterable, Sequence

from .errors import EmptyGraphError, GraphFormatError
from .ring import _NAME_RE, VariableSet


class Family(str, Enum):
    ORIENTED_CYCLE = "OrientedCycle"
    ROOTED_FOREST = "RootedForest"
    UNICYCLIC = "Unicyclic"
    OTHER = "Other"


class WeightedDigraph:
    """Immutable weighted digraph with named vertices.  It computes its
    classification and its edge ideal once: the first ``classify`` and
    ``constructions.edge_ideal`` fill ``_tag`` and ``_ideal``."""

    __slots__ = ("_names", "_weights", "_edges", "_out", "_in", "_normalizations", "_variables",
                 "_tag", "_ideal")

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
        self._out = {v: tuple(hs) for v, hs in out_adj.items()}
        self._in = {v: tuple(ts) for v, ts in in_adj.items()}
        self._normalizations = tuple(normalizations)
        self._variables = VariableSet(vnames)
        self._tag = self._ideal = None

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
        return self._variables

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


# -- family analysis ---------------------------------------------------


class FamilyTag:
    """The family, the closed form the underlying shape takes, and how the
    orientation breaks it.

    ``shape`` is "cycle", "forest", "unicyclic" or None (no closed form).
    ``cycle`` is the vertex order following the orientation for oriented
    cycles and unicyclic graphs.  ``violations`` are the orientation
    violations of the shape's closed form.
    """

    __slots__ = ("kind", "cycle", "shape", "violations")

    def __init__(self, kind: Family, cycle: tuple[str, ...] = (), shape: str | None = None,
                 violations: tuple[str, ...] = ()):
        self.kind, self.cycle, self.shape, self.violations = kind, cycle, shape, violations


def _count_components(graph: WeightedDigraph) -> int:
    seen: set[str] = set()
    count = 0
    for start in graph.vertex_names:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.out_neighbors(v) + graph.in_neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


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


def classify(graph: WeightedDigraph) -> FamilyTag:
    """The graph's family, computed on the first call and kept on the graph."""
    if graph._tag is None:
        graph._tag = _classify(graph)
    return graph._tag


def _classify(graph: WeightedDigraph) -> FamilyTag:
    """Assign the graph to its family in one pass.

    An antiparallel pair makes a graph Other.  Without one, a graph with |E| = |V| - #components is a
    forest, rooted when no in-degree exceeds 1.  A connected graph with
    |E| = |V| has exactly one underlying cycle, its 2-core: the shape is
    "cycle" when that is every vertex and "unicyclic" otherwise.
    """
    if graph.n_vertices == 0:
        raise EmptyGraphError("cannot classify an empty graph")
    names = graph.vertex_names
    edge_set = set(graph.edges)
    if any((b, a) in edge_set for a, b in edge_set):
        return FamilyTag(kind=Family.OTHER)
    components = _count_components(graph)
    if graph.n_edges == graph.n_vertices - components:
        if all(len(graph.in_neighbors(v)) <= 1 for v in names):
            return FamilyTag(kind=Family.ROOTED_FOREST, shape="forest")
        return FamilyTag(kind=Family.OTHER)
    if components != 1 or graph.n_edges != graph.n_vertices:
        return FamilyTag(kind=Family.OTHER)
    core = _two_core(graph)

    def core_out(v: str) -> list[str]:
        return [w for w in graph.out_neighbors(v) if w in core]

    order: tuple[str, ...] = ()
    if all(len(core_out(v)) == 1 for v in core):
        start = next(v for v in names if v in core)
        walk = [start]
        v = core_out(start)[0]
        while v != start:
            walk.append(v)
            v = core_out(v)[0]
        order = tuple(walk)
    violations: list[str] = []
    if len(core) == graph.n_vertices:
        shape, oriented_kind = "cycle", Family.ORIENTED_CYCLE
        for v in names:
            if len(graph.out_neighbors(v)) != 1:
                violations.append(
                    f"vertex {v} has out-degree {len(graph.out_neighbors(v))}; "
                    f"a head-to-tail cycle needs exactly 1"
                )
    else:
        shape, oriented_kind = "unicyclic", Family.UNICYCLIC
        if not order:
            violations.append("cycle is not oriented head-to-tail")
        # trees must be oriented away from their attachment vertex on the cycle
        reached = set(core)
        stack = list(core)
        while stack:
            for w in graph.out_neighbors(stack.pop()):
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        for v in sorted(set(names) - reached):
            for w in graph.out_neighbors(v):
                violations.append(f"edge ({v}, {w}) is not oriented away from the cycle")
    if violations:
        return FamilyTag(kind=Family.OTHER, shape=shape, violations=tuple(violations))
    return FamilyTag(kind=oriented_kind, cycle=order, shape=shape)


def make_cycle(weights: Sequence[int]) -> WeightedDigraph:
    """A head-to-tail cycle x1 -> x2 -> ... -> xn -> x1 with the given weights."""
    n = len(weights)
    if n < 3:
        raise GraphFormatError(f"a cycle needs at least 3 vertices, got {n}")
    names = [f"x{i}" for i in range(1, n + 1)]
    vertices = [(names[i], weights[i]) for i in range(n)]
    edges = [(names[i - 1], names[i]) for i in range(n)]  # i=0 wraps: xn -> x1
    return WeightedDigraph(vertices, edges)


def weight_violations(graph: WeightedDigraph, shape: str) -> tuple[str, ...]:
    """Weight-hypothesis violations for the closed form of the given shape.

    The cycle form requires weight >= 2 everywhere.  The forest and
    unicyclic forms require weight >= 2 at vertices of underlying degree
    != 1, except sources: a source's weight is pinned to 1 by
    normalization and never enters the edge ideal.
    """
    out: list[str] = []
    if shape == "cycle":
        for v in graph.vertex_names:
            if graph.weight(v) < 2:
                out.append(f"w({v})={graph.weight(v)}")
    else:
        for v in graph.vertex_names:
            if graph.degree(v) != 1 and not graph.is_source(v) and graph.weight(v) < 2:
                out.append(f"w({v})={graph.weight(v)} with d({v})={graph.degree(v)}")
    return tuple(out)
