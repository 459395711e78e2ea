"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense fraction arithmetic, full
subset enumeration, membership checked from definitions.  The production
engine is validated against these, so nothing in this module may import
the optimized paths it checks (the covered-complex pipeline, sparse
integer elimination, bit-packed GF(2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from edgereg.constructions import build_colon_structure, ordered_power_basis
from edgereg.digraph import WeightedDigraph, classify
from edgereg.errors import EdgeRegError, ZeroIdealError
from edgereg.ideals import MonomialIdeal, colon_by_monomial, intersect
from edgereg.ring import Monomial


class NotSquarefreeError(EdgeRegError, ValueError):
    """Operation requires a squarefree ideal."""


def fraction_rank(rows: list[list[int]]) -> int:
    """Dense Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / pv
                for c in range(col, ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def mod2_rank(rows: list[list[int]]) -> int:
    """Dense elimination over GF(2) on 0/1 lists (no bit packing)."""
    m = [[x & 1 for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [(a + b) & 1 for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def reduced_homology_of_face_sets(faces: set[frozenset], field: str) -> dict[int, int]:
    """Reduced homology from an explicit face list, including the empty face."""
    if not faces:
        return {}
    if faces == {frozenset()}:
        return {-1: 1}
    by_dim: dict[int, list[frozenset]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort(key=sorted)
    ranks: dict[int, int] = {}
    for d in sorted(by_dim):
        if d - 1 not in by_dim:
            continue
        index = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            row = [0] * len(by_dim[d - 1])
            for k, v in enumerate(sorted(f)):
                row[index[f - {v}]] = (-1) ** k
            rows.append(row)
        ranks[d] = fraction_rank(rows) if field == "Q" else mod2_rank(rows)
    out = {}
    for d, fs in by_dim.items():
        h = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            out[d] = h
    return out


def minimalize_reference(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Minimal generators in descending graded-lex order, by pairwise
    ``Monomial.divides`` on the monomial objects (no packing)."""
    pool = sorted(set(gens), key=Monomial.grlex_key)
    kept: list[Monomial] = []
    for g in pool:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    kept.sort(key=Monomial.grlex_key, reverse=True)
    return tuple(kept)


def subset_lcm_lattice(ideal: MonomialIdeal) -> set[Monomial]:
    """All lcms of nonempty generator subsets, by direct enumeration."""
    gens = ideal.generators
    out: set[Monomial] = set()
    for k in range(1, len(gens) + 1):
        for subset in combinations(gens, k):
            m = subset[0]
            for g in subset[1:]:
                m = m.lcm(g)
            out.add(m)
    return out


def slice_covers_reference(
    gens: list[tuple[int, ...]], b: tuple[int, ...]
) -> tuple[int, list[int]]:
    """Divisor-side covers of the slice at b, by a scan over exponent tuples.

    Vertex k is the k-th generator dividing b, in generator order; for each
    variable j in supp(b), the divisors with ``g_j < b_j`` form one cover.
    Returns (number of divisors, covers).
    """
    divisors = [g for g in gens if all(x <= y for x, y in zip(g, b))]
    covers = []
    for j, bj in enumerate(b):
        if bj == 0:
            continue
        mask = 0
        for idx, g in enumerate(divisors):
            if g[j] < bj:
                mask |= 1 << idx
        covers.append(mask)
    return len(divisors), covers


def koszul_slice_faces(ideal: MonomialIdeal, b: Monomial) -> set[frozenset]:
    """Faces of the slice at b straight from the membership definition."""
    support = sorted(b.support)
    faces: set[frozenset] = set()
    for k in range(len(support) + 1):
        for tau in combinations(support, k):
            quotient = b / Monomial(b.variables, {v: 1 for v in tau})
            if ideal.contains_monomial(quotient):
                faces.add(frozenset(tau))
    return faces


def multigraded_betti_reference(
    ideal: MonomialIdeal, field: str = "Q"
) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers {(i, b): rank} over the subset lattice."""
    table: dict[tuple[int, Monomial], int] = {}
    for b in subset_lcm_lattice(ideal):
        faces = koszul_slice_faces(ideal, b)
        for d, r in reduced_homology_of_face_sets(faces, field).items():
            table[(d + 1, b)] = r
    return table


def betti_table_reference(ideal: MonomialIdeal, field: str = "Q") -> dict[tuple[int, int], int]:
    """Graded Betti numbers, aggregated from the multigraded reference."""
    table: dict[tuple[int, int], int] = {}
    for (i, b), r in multigraded_betti_reference(ideal, field).items():
        table[(i, b.degree)] = table.get((i, b.degree), 0) + r
    return table


def regularity_reference(ideal: MonomialIdeal, field: str = "Q") -> int:
    table = betti_table_reference(ideal, field)
    return max(j - i for (i, j) in table)


def family_reference(graph) -> str:
    """The family name read straight from the definitions.

    Degree counting and union-find only: an antiparallel pair is Other; a
    connected graph on >= 3 vertices with every in- and out-degree 1 is an
    oriented cycle; |E| = |V| - #components with every in-degree <= 1 is a
    rooted forest; connected with |E| = |V| and every in-degree 1 is
    unicyclic; anything else is Other.
    """
    names, edges = graph.vertex_names, graph.edges
    edge_set = set(edges)
    if any((b, a) in edge_set for a, b in edges):
        return "Other"
    parent = {v: v for v in names}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    components = len({find(v) for v in names})
    indeg = {v: 0 for v in names}
    outdeg = {v: 0 for v in names}
    for a, b in edges:
        outdeg[a] += 1
        indeg[b] += 1
    n, m = len(names), len(edges)
    if components == 1 and n >= 3 and all(indeg[v] == outdeg[v] == 1 for v in names):
        return "OrientedCycle"
    if m == n - components and all(indeg[v] <= 1 for v in names):
        return "RootedForest"
    if components == 1 and m == n and all(indeg[v] == 1 for v in names):
        return "Unicyclic"
    return "Other"


# -- readings of a computed table ---------------------------------------------
# These read an engine BettiTable and compute nothing of their own.


def compare_tables(a, b) -> list[tuple[int, int, int, int]]:
    """Entrywise differences [(i, j, rank_a, rank_b)]; empty means equal."""
    keys = set(a.entries) | set(b.entries)
    out = []
    for i, j in sorted(keys):
        ra, rb = a.rank(i, j), b.rank(i, j)
        if ra != rb:
            out.append((i, j, ra, rb))
    return out


def has_linear_resolution(table) -> bool:
    """All generators in one degree d and beta_{i,j} = 0 unless j = d + i."""
    degs = table.generator_degrees()
    if len(degs) != 1:
        return False
    d = next(iter(degs))
    return all(j == d + i for (i, j), r in table.entries.items() if r)


def max_homological_index(table) -> int:
    return max(i for (i, _j), r in table.entries.items() if r)


def k_polynomial_reference(ideal: MonomialIdeal) -> dict[tuple[int, ...], int]:
    """The K-polynomial of S/I as {exponent vector: nonzero coefficient}.

    By the colon recursion K(S/(J + (m))) = K(S/J) - x^m K(S/(J : m))
    (Bigatti, JPAA 1997; Miller-Sturmfels, Combinatorial Commutative
    Algebra, ch. 1 and 5), adding one generator at a time, with
    K(S/(0)) = 1 and K(S/S) = 0.  No homology, rank or Mayer-Vietoris tree
    is involved.  Since K(S/I) = 1 - sum_{i,b} (-1)^i beta_{i,b}(I) x^b, it
    checks the alternating sum of each Betti column, and so cannot see an
    error that changes beta_{i,b} and beta_{i+1,b} by the same amount:
    errors that cancel across i go unnoticed.
    """
    n = len(ideal.variables)
    memo: dict[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]] = {}

    def minimal(gens) -> tuple[tuple[int, ...], ...]:
        pool = sorted(set(gens), key=lambda g: (sum(g), g))
        kept = []
        for g in pool:
            if not any(all(x <= y for x, y in zip(h, g)) for h in kept):
                kept.append(g)
        return tuple(kept)

    def k_poly(gens: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
        if not gens:
            return {(0,) * n: 1}
        if not any(gens[0]):
            return {}  # the unit ideal: S/S = 0
        if gens not in memo:
            *rest, m = gens
            out = dict(k_poly(tuple(rest)))
            colon = minimal(tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest)
            for e, c in k_poly(colon).items():
                shifted = tuple(x + y for x, y in zip(e, m))
                out[shifted] = out.get(shifted, 0) - c
                if not out[shifted]:
                    del out[shifted]
            memo[gens] = out
        return memo[gens]

    return k_poly(minimal(g.dense() for g in ideal.generators))


# -- ideal operations only the tests use ---------------------------------------
# Formerly public engine API with no caller outside the tests.


def contains_ideal(ideal: MonomialIdeal, other: MonomialIdeal) -> bool:
    return all(ideal.contains_monomial(g) for g in other.generators)


def colon_by_ideal(ideal: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(I : J) as the intersection of (I : g) over the generators of J."""
    if j.is_zero:
        raise ZeroIdealError("colon by the zero ideal is undefined")
    parts = [colon_by_monomial(ideal, g) for g in j.generators]
    out = parts[0]
    for p in parts[1:]:
        out = intersect(out, p)
    return out


def restrict_to_variables(ideal: MonomialIdeal, indices: Iterable[int]) -> MonomialIdeal:
    """Keep only the generators whose support lies inside `indices`."""
    allowed = frozenset(indices)
    return MonomialIdeal(
        ideal.variables,
        (g for g in ideal.generators if g.support <= allowed),
    )


def private_variable_regularity(ideal: MonomialIdeal) -> int | None:
    """Closed-form regularity of squarefree ideals whose generators all own a variable.

    If every minimal generator contains a variable dividing no other
    generator, the regularity is |supp(I)| - |G(I)| + 1.  Returns None
    when the fast path does not apply.
    """
    if ideal.is_zero:
        raise ZeroIdealError("regularity of the zero ideal is undefined")
    if not ideal.is_squarefree:
        raise NotSquarefreeError("private-variable regularity needs a squarefree ideal")
    gens = ideal.generators
    for g in gens:
        private = False
        for v in g.support:
            if all(other is g or v not in other.support for other in gens):
                private = True
                break
        if not private:
            return None
    return len(ideal.support) - len(gens) + 1


def decompose_cycle_generator(graph: WeightedDigraph, t: int, m: Monomial) -> tuple[int, ...]:
    """The unique exponent vector (a_1..a_n) with m = prod L_i^{a_i}."""
    return ordered_power_basis(graph, t).vector_of(m)


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
    structure = build_colon_structure(graph, t, i)
    order = classify(graph).cycle
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
