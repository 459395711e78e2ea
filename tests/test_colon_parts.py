"""The k part and the q part of each colon structure, each built apart.

``colon_form`` is their sum, so a generator that moves from one part to the
other, or that the other part already implies, leaves the sum, the direct
colon comparison and the structure check unchanged.  These tests rebuild
each part from its definition and compare the parts one by one.
"""

from __future__ import annotations

import pytest

from edgereg.constructions import build_colon_structure, cycle_edge_generators, ordered_power_basis
from edgereg.digraph import make_cycle
from edgereg.ideals import MonomialIdeal
from edgereg.ring import Monomial

from oracles import colon_lead_and_descent, monomial_product

WEIGHTS = {
    3: [(2, 2, 2), (3, 2, 4), (4, 3, 2)],
    4: [(2, 2, 2, 2), (2, 3, 2, 3), (4, 2, 3, 2)],
    5: [(2, 2, 2, 2, 2), (3, 2, 2, 4, 2), (2, 3, 4, 3, 2)],
    6: [(2, 2, 2, 2, 2, 2), (2, 3, 2, 3, 2, 3), (4, 2, 2, 3, 2, 2)],
}


def colon(a: Monomial, b: Monomial) -> Monomial:
    """The generator a / gcd(a, b) of the principal colon ((a) : b)."""
    return Monomial.from_dense(a.variables, [x - min(x, y) for x, y in zip(a.dense(), b.dense())])


def expected_parts(gens: list[Monomial], vector: tuple[int, ...], t: int):
    """(k part, q part) of the colon past the basis entry with this vector.

    With i1 the least edge index in the support, the k part is generated by
    ``L_j : L_{i1}`` for j = i1+1..n and by ``L_{s+1} : L_s`` for each s < n
    in the support.  The q part is zero unless i1 = 1; then, with q from
    ``colon_lead_and_descent``, it is generated by the colons
    ``prod_{s<=j} L_{n-2s} : prod_{s<=j} L_{n+1-2s}`` for j = 0..q.
    """
    n = len(gens)
    variables = gens[0].variables

    def L(idx: int) -> Monomial:
        return gens[(idx - 1) % n]

    supp = [j for j, a in enumerate(vector, 1) if a]
    i1, q = colon_lead_and_descent(vector, t)
    k_gens = [colon(L(j), L(i1)) for j in range(i1 + 1, n + 1)]
    k_gens += [colon(L(s + 1), L(s)) for s in supp if s < n]
    q_gens = []
    if q is not None:
        for j in range(q + 1):
            top = monomial_product(*(L(n - 2 * s) for s in range(j + 1)))
            bottom = monomial_product(*(L(n + 1 - 2 * s) for s in range(j + 1)))
            q_gens.append(colon(top, bottom))
    return MonomialIdeal(variables, k_gens), MonomialIdeal(variables, q_gens)


@pytest.mark.parametrize("n", sorted(WEIGHTS))
def test_k_and_q_parts_match_their_definitions(n):
    for weights in WEIGHTS[n]:
        g = make_cycle(list(weights))
        gens = cycle_edge_generators(g)
        for t in (1, 2, 3):
            for i in range(1, len(ordered_power_basis(g, t))):
                s = build_colon_structure(g, t, i)
                k_part, q_part = expected_parts(gens, s.entry.vector, t)
                assert (s.k_part, s.q_part) == (k_part, q_part), (weights, t, i)


def test_the_triangle_squared_keeps_one_descent_block():
    # past (1, 1, 0) the descent stops at q = 0: ell = min(t, n // 2) - 1 = 0
    g = make_cycle([2, 2, 2])
    s = build_colon_structure(g, 2, 2)
    assert s.entry.vector == (1, 1, 0)
    assert str(s.q_part) == "(x2*x3)"
