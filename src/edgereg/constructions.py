"""Edge ideals and the ordered generator structure of cycle-ideal powers.

For a weighted head-to-tail cycle on x1..xn the edge generators are
``L_i = x_{i-1} * x_i^{w_i}`` (indices mod n, so ``L_1 = x_n * x_1^{w_1}``).
When every weight is at least 2, each minimal generator of the t-th power
is a product ``L_1^{a_1} ... L_n^{a_n}`` with a unique exponent vector of
total weight t, and sorting those vectors in descending lexicographic
order totally orders the generators.  The colon of the tail ideal past a
generator by that generator has an explicit finite presentation, built
here and cross-checked against direct colon computation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .digraph import Family, WeightedDigraph, classify
from .errors import EmptyGraphError, FamilyMismatchError, GeneratorMembershipError
from .ideals import MonomialIdeal, colon_by_monomial, ideal_sum
from .ring import Monomial, VariableSet


def edge_ideal(graph: WeightedDigraph) -> MonomialIdeal:
    """One generator ``x_tail * x_head^{w(head)}`` per directed edge."""
    if graph.n_vertices == 0:
        raise EmptyGraphError("edge ideal of an empty graph")
    if graph.n_edges == 0:
        raise EmptyGraphError("graph has no edges; its edge ideal is zero")
    variables = graph.variable_set()
    return MonomialIdeal(
        variables, [_edge_monomial(graph, variables, tail, head) for tail, head in graph.edges]
    )


def _edge_monomial(
    graph: WeightedDigraph, variables: VariableSet, tail: str, head: str
) -> Monomial:
    """``x_tail * x_head^{w(head)}``; tail != head since graphs have no self-loops."""
    exponents = {variables.index(tail): 1, variables.index(head): graph.weight(head)}
    return Monomial(variables, exponents)


@dataclass(frozen=True)
class EdgeGenerator:
    """The i-th cycle edge generator L_i = x_{i-1} * x_i^{w_i} (1-based)."""

    index: int
    monomial: Monomial


def _require_cycle(graph: WeightedDigraph) -> tuple[str, ...]:
    tag = classify(graph)
    if tag.kind != Family.ORIENTED_CYCLE:
        raise FamilyMismatchError(
            f"expected an oriented cycle, got {tag.kind.value}", actual=tag.kind.value
        )
    return tag.cycle


def cycle_edge_generators(graph: WeightedDigraph) -> list[EdgeGenerator]:
    """L_1..L_n in cycle order, starting from the first-declared vertex."""
    order = _require_cycle(graph)
    variables = graph.variable_set()
    n = len(order)
    return [
        EdgeGenerator(i, _edge_monomial(graph, variables, order[(i - 2) % n], order[i - 1]))
        for i in range(1, n + 1)
    ]


def _require_weights_at_least_two(graph: WeightedDigraph, order: tuple[str, ...]) -> list[int]:
    weights = [graph.weight(v) for v in order]
    low = [order[i] for i, w in enumerate(weights) if w < 2]
    if low:
        raise ValueError(
            f"the ordered power basis needs every weight >= 2 "
            f"(unique decomposition can fail otherwise); offending: {', '.join(low)}"
        )
    return weights


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` into `parts` parts, descending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class BasisEntry:
    vector: tuple[int, ...]
    monomial: Monomial


class OrderedPowerBasis:
    """The totally ordered minimal generators of a cycle-ideal power.

    Entries are indexed 1..r in strictly descending lex order of their
    exponent vectors over the edge generators.
    """

    __slots__ = ("graph", "t", "entries", "_by_monomial", "edge_generators")

    def __init__(self, graph: WeightedDigraph, t: int):
        if t < 1:
            raise ValueError(f"power must be >= 1, got {t}")
        order = _require_cycle(graph)
        _require_weights_at_least_two(graph, order)
        gens = cycle_edge_generators(graph)
        n = len(gens)
        unit = Monomial.unit(graph.variable_set())
        entries = []
        for vec in _compositions_desc(t, n):
            m = unit
            for i, a in enumerate(vec):
                if a:
                    m = m * (gens[i].monomial ** a)
            entries.append(BasisEntry(vector=vec, monomial=m))
        self.graph = graph
        self.t = t
        self.entries = tuple(entries)
        self.edge_generators = tuple(gens)
        self._by_monomial = {e.monomial: i + 1 for i, e in enumerate(entries)}
        if len(self._by_monomial) != len(entries):
            raise AssertionError(
                "edge-generator products collided; decomposition is not unique"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, i: int) -> BasisEntry:
        """1-based access, matching the order position."""
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"basis index {i} out of range 1..{len(self.entries)}")
        return self.entries[i - 1]

    def index_of(self, m: Monomial) -> int:
        try:
            return self._by_monomial[m]
        except KeyError:
            raise GeneratorMembershipError(
                f"{m} is not a minimal generator of the power ideal (t={self.t})"
            ) from None

    def vector_of(self, m: Monomial) -> tuple[int, ...]:
        return self.entries[self.index_of(m) - 1].vector


@lru_cache(maxsize=1024)
def ordered_power_basis(graph: WeightedDigraph, t: int) -> OrderedPowerBasis:
    return OrderedPowerBasis(graph, t)


def edge_divides(
    m1: Monomial, k: int, m2: Monomial, t: int, graph: WeightedDigraph
) -> bool:
    """Does m2 = m1 * m3 for some generator m3 of the (t-k)-th power?

    Decided on decomposition vectors: componentwise domination is
    equivalent because decompositions are unique and every complementary
    vector of weight t-k is realized by a generator.
    """
    if not k < t:
        raise ValueError(f"edge divisibility needs k < t, got k={k}, t={t}")
    v1 = ordered_power_basis(graph, k).vector_of(m1)
    v2 = ordered_power_basis(graph, t).vector_of(m2)
    return all(a <= b for a, b in zip(v1, v2))


@dataclass(frozen=True)
class ColonStructure:
    """Explicit form of the colon (J_i : L_i^(t)) past the i-th generator.

    ``support_indices`` lists the 1-based edge indices with positive
    exponent in the i-th basis entry; ``tail`` is J_i.  ``q`` is None
    when the leading index is not 1 (the Q part is then zero).
    """

    index: int
    entry: BasisEntry
    support_indices: tuple[int, ...]
    p: int
    q: int | None
    k_part: MonomialIdeal
    q_part: MonomialIdeal
    tail: MonomialIdeal

    @property
    def colon_form(self) -> MonomialIdeal:
        return ideal_sum(self.k_part, self.q_part)


def build_colon_structure(graph: WeightedDigraph, t: int, i: int) -> ColonStructure:
    basis = ordered_power_basis(graph, t)
    r = len(basis)
    if not 1 <= i <= r - 1:
        raise IndexError(f"colon structure index {i} out of range 1..{r - 1}")
    gens = [e.monomial for e in basis.edge_generators]
    n = len(gens)
    variables = graph.variable_set()

    def L(idx: int) -> Monomial:
        return gens[(idx - 1) % n]

    entry = basis.entry(i)
    support = tuple(j + 1 for j, a in enumerate(entry.vector) if a > 0)
    i1, ik = support[0], support[-1]
    p = len(support) - 1 if ik == n else len(support)

    head = colon_by_monomial(
        MonomialIdeal(variables, [L(j) for j in range(i1 + 1, n + 1)]), L(i1)
    )
    singles = [
        colon_by_monomial(MonomialIdeal(variables, [L(support[j] + 1)]), L(support[j]))
        for j in range(p)
    ]
    k_part = ideal_sum(head, *singles) if singles else head

    q = None
    q_part = MonomialIdeal.zero(variables)
    if i1 == 1:
        ell = min(t, n // 2) - 1
        q = 0
        for cand in range(ell + 1):
            if all(entry.vector[(n + 1 - 2 * s - 1) % n] > 0 for s in range(cand + 1)):
                q = cand
        terms = []
        for j in range(q + 1):
            top = Monomial.unit(variables)
            bottom = Monomial.unit(variables)
            for s in range(j + 1):
                top = top * L(n - 2 * s)
                bottom = bottom * L(n + 1 - 2 * s)
            terms.append(colon_by_monomial(MonomialIdeal(variables, [top]), bottom))
        q_part = ideal_sum(*terms)

    tail = MonomialIdeal(variables, [basis.entry(j).monomial for j in range(i + 1, r + 1)])
    return ColonStructure(
        index=i,
        entry=entry,
        support_indices=support,
        p=p,
        q=q,
        k_part=k_part,
        q_part=q_part,
        tail=tail,
    )


def betti_split_power(graph: WeightedDigraph, t: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Split the power's generators into (rest, principal-on-first-entry).

    The second part is generated by the top basis entry
    ``(x_n * x_1^{w_1})^t``; the first holds all other generators.
    """
    basis = ordered_power_basis(graph, t)
    variables = graph.variable_set()
    first = basis.entry(1).monomial
    rest = [e.monomial for e in basis.entries[1:]]
    return (
        MonomialIdeal(variables, rest),
        MonomialIdeal(variables, [first]),
    )
