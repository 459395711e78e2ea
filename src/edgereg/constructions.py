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

from functools import lru_cache
from operator import add, mul
from typing import Iterator

from .digraph import Family, WeightedDigraph, classify
from .errors import EmptyGraphError, FamilyMismatchError, GeneratorMembershipError
from .ideals import MonomialIdeal, _colon, _minimalize, ideal_sum
from .ring import Monomial, VariableSet, _check_degree, _check_power


def edge_ideal(graph: WeightedDigraph) -> MonomialIdeal:
    """One generator ``x_tail * x_head^{w(head)}`` per directed edge, built on
    the first call and kept on the graph."""
    if graph._ideal is None:
        if graph.n_vertices == 0:
            raise EmptyGraphError("edge ideal of an empty graph")
        if graph.n_edges == 0:
            raise EmptyGraphError("graph has no edges; its edge ideal is zero")
        variables = graph.variable_set()
        vectors = [_edge_vector(graph, variables, tail, head) for tail, head in graph.edges]
        graph._ideal = MonomialIdeal._of(variables, _minimalize(len(variables), vectors))
    return graph._ideal


def _edge_vector(
    graph: WeightedDigraph, variables: VariableSet, tail: str, head: str
) -> tuple[int, ...]:
    """Exponents of ``x_tail * x_head^{w(head)}``; tail != head since graphs have no self-loops."""
    weight = graph.weight(head)
    _check_degree(weight + 1)
    exps = [0] * len(variables)
    exps[variables.index(tail)], exps[variables.index(head)] = 1, weight
    return tuple(exps)


def cycle_edge_generators(graph: WeightedDigraph) -> list[Monomial]:
    """The edge generators L_1..L_n, L_i = x_{i-1} * x_i^{w_i}, in cycle
    order, starting from the first-declared vertex."""
    tag = classify(graph)
    if tag.kind != Family.ORIENTED_CYCLE:
        raise FamilyMismatchError(f"expected an oriented cycle, got {tag.kind.value}")
    order, variables = tag.cycle, graph.variable_set()
    return [
        Monomial._new(variables, _edge_vector(graph, variables, order[i - 1], order[i]))
        for i in range(len(order))
    ]


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` into `parts` parts, descending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


class BasisEntry:
    __slots__ = ("vector", "monomial")

    def __init__(self, vector: tuple[int, ...], monomial: Monomial):
        self.vector, self.monomial = vector, monomial


class OrderedPowerBasis:
    """The totally ordered minimal generators of a cycle-ideal power.

    Entries are indexed 1..r in strictly descending lex order of their
    exponent vectors over the edge generators.
    """

    __slots__ = ("t", "entries", "_by_monomial", "edge_generators")

    def __init__(self, graph: WeightedDigraph, t: int):
        _check_power(t)
        gens = cycle_edge_generators(graph)
        low = [v for v in graph.vertex_names if graph.weight(v) < 2]
        if low:
            raise ValueError(
                f"the ordered power basis needs every weight >= 2 "
                f"(unique decomposition can fail otherwise); offending: {', '.join(low)}"
            )
        variables = graph.variable_set()
        columns = list(zip(*[g.dense() for g in gens]))  # one variable's exponents in L_1..L_n
        entries = []
        for vec in _compositions_desc(t, len(gens)):
            exps = tuple([sum(map(mul, vec, column)) for column in columns])
            entries.append(BasisEntry(vec, Monomial._new(variables, exps)))
        self.t = t
        self.entries = tuple(entries)
        self.edge_generators = tuple(gens)
        self._by_monomial = {e.monomial: e.vector for e in entries}
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

    def vector_of(self, m: Monomial) -> tuple[int, ...]:
        try:
            return self._by_monomial[m]
        except KeyError:
            raise GeneratorMembershipError(
                f"{m} is not a minimal generator of the power ideal (t={self.t})"
            ) from None


@lru_cache(maxsize=1024, typed=True)  # typed, so 2.0 and True reach the check
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


class ColonStructure:
    """Explicit form of the colon (J_i : L_i^(t)) past the i-th generator.

    ``entry`` is the i-th basis entry and ``tail`` is J_i.  The Q part is
    zero when the leading edge index of the entry is not 1.
    """

    __slots__ = ("entry", "k_part", "q_part", "tail")

    def __init__(self, entry: BasisEntry, k_part: MonomialIdeal, q_part: MonomialIdeal,
                 tail: MonomialIdeal):
        self.entry, self.k_part, self.q_part, self.tail = entry, k_part, q_part, tail

    @property
    def colon_form(self) -> MonomialIdeal:
        return ideal_sum(self.k_part, self.q_part)


def build_colon_structure(graph: WeightedDigraph, t: int, i: int) -> ColonStructure:
    basis = ordered_power_basis(graph, t)
    r = len(basis)
    if not 1 <= i <= r - 1:
        raise IndexError(f"colon structure index {i} out of range 1..{r - 1}")
    gens = [g.dense() for g in basis.edge_generators]
    n = len(gens)
    variables = graph.variable_set()
    nv = len(variables)

    def L(idx: int) -> tuple[int, ...]:
        return gens[(idx - 1) % n]

    entry = basis.entry(i)
    support = tuple(j + 1 for j, a in enumerate(entry.vector) if a > 0)
    i1, ik = support[0], support[-1]
    p = len(support) - 1 if ik == n else len(support)

    head = [_colon(L(j), L(i1)) for j in range(i1 + 1, n + 1)]
    singles = [_colon(L(support[j] + 1), L(support[j])) for j in range(p)]
    k_part = MonomialIdeal._of(variables, _minimalize(nv, head + singles))

    terms = []
    if i1 == 1:
        ell = min(t, n // 2) - 1
        q = 0
        for cand in range(ell + 1):
            if all(entry.vector[(n + 1 - 2 * s - 1) % n] > 0 for s in range(cand + 1)):
                q = cand
        top = bottom = (0,) * nv
        for j in range(q + 1):  # top and bottom are the products over s <= j
            top = tuple(map(add, top, L(n - 2 * j)))
            bottom = tuple(map(add, bottom, L(n + 1 - 2 * j)))
            terms.append(_colon(top, bottom))
    q_part = MonomialIdeal._of(variables, _minimalize(nv, terms))

    # basis entries are minimal generators, so the tail is only put in the ideals' order
    later = sorted([e.monomial.dense() for e in basis.entries[i:]], key=lambda v: (sum(v), v))
    tail = MonomialIdeal._of(variables, tuple(later[::-1]))
    return ColonStructure(entry, k_part, q_part, tail)


def betti_split_power(graph: WeightedDigraph, t: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Split the power's generators into (rest, principal-on-first-entry).

    The second part is generated by the top basis entry
    ``(x_n * x_1^{w_1})^t``; the first holds all other generators.
    """
    basis = ordered_power_basis(graph, t)
    variables = graph.variable_set()
    first, *rest = [e.monomial.dense() for e in basis.entries]
    return (
        MonomialIdeal._of(variables, _minimalize(len(variables), rest)),
        MonomialIdeal._of(variables, (first,)),
    )
