from __future__ import annotations

import pickle
from itertools import permutations
from itertools import product as iter_product

import pytest

from edgereg.constructions import (
    betti_split_power,
    build_colon_structure,
    cycle_edge_generators,
    edge_divides,
    edge_ideal,
    ordered_power_basis,
)
from edgereg.digraph import Family, WeightedDigraph, classify, make_cycle
from edgereg import constructions
from edgereg.errors import (
    DegreeCapError, EmptyGraphError, FamilyMismatchError, GeneratorMembershipError,
    ResourceCapError,
)
from edgereg.ideals import MonomialIdeal, colon_by_monomial, parse_ideal, power
from edgereg.ring import DEGREE_CAP, VariableSet, parse_monomial
from edgereg.verify import square_pendant_light_path

from oracles import colon_lead_and_descent, decompose_cycle_generator, divides, monomial_product


def I(text: str, n: int = 3) -> MonomialIdeal:
    return parse_ideal(text, VariableSet([f"x{i + 1}" for i in range(n)]))


def strip(a, b) -> tuple[int, ...]:
    """The exponents of a / gcd(a, b), the generator of ((a) : b)."""
    return tuple(x - min(x, y) for x, y in zip(a.dense(), b.dense()))


_RING = [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")]
# graphs on the same vertex names that differ in weights or orientation, each
# with its classification (kind, cycle, shape, violations) and its edge ideal
SAME_NAMES = [
    (make_cycle([2, 2, 2, 2]), (Family.ORIENTED_CYCLE, ("x1", "x2", "x3", "x4"), "cycle", ()),
     "(x4*x1^2, x1*x2^2, x2*x3^2, x3*x4^2)"),
    (make_cycle([3, 2, 2, 2]), (Family.ORIENTED_CYCLE, ("x1", "x2", "x3", "x4"), "cycle", ()),
     "(x4*x1^3, x1*x2^2, x2*x3^2, x3*x4^2)"),
    (WeightedDigraph([(f"x{i}", 2) for i in range(1, 5)], [(h, t) for t, h in _RING]),
     (Family.ORIENTED_CYCLE, ("x1", "x4", "x3", "x2"), "cycle", ()),
     "(x2*x1^2, x3*x2^2, x4*x3^2, x1*x4^2)"),
    (WeightedDigraph([(f"x{i}", 2) for i in range(1, 5)], _RING[:3]),
     (Family.ROOTED_FOREST, (), "forest", ()), "(x1*x2^2, x2*x3^2, x3*x4^2)"),
]


def _facts(tag) -> tuple:
    return tag.kind, tag.cycle, tag.shape, tag.violations


def _copy(graph: WeightedDigraph) -> WeightedDigraph:
    return WeightedDigraph([(v, graph.weight(v)) for v in graph.vertex_names], graph.edges)


@pytest.mark.parametrize("ideal_first", [False, True], ids=["classify-first", "ideal-first"])
@pytest.mark.parametrize("first, second", list(permutations(range(len(SAME_NAMES)), 2)))
def test_each_graph_keeps_its_own_classification_and_edge_ideal(first, second, ideal_first):
    # graphs keep both per instance; names alone, or one slot for all, would mix these up
    cases = [SAME_NAMES[first], SAME_NAMES[second]]
    pair = [_copy(graph) for graph, _, _ in cases]  # nothing computed on them yet
    steps = (edge_ideal, classify) if ideal_first else (classify, edge_ideal)
    got = {(step, k): step(graph) for step in steps for k, graph in enumerate(pair)}
    for k, (graph, (_, tag, text)) in enumerate(zip(pair, cases)):
        assert _facts(got[classify, k]) == tag
        assert got[edge_ideal, k] == I(text, 4)
        fresh = _copy(graph)
        assert _facts(classify(fresh)) == _facts(got[classify, k])
        assert edge_ideal(fresh) == got[edge_ideal, k]
        assert classify(graph) is got[classify, k] and edge_ideal(graph) is got[edge_ideal, k]
        # campaign workers get graphs pickled, with whatever they hold
        restored = pickle.loads(pickle.dumps(graph))
        assert _facts(classify(restored)) == tag and edge_ideal(restored) == I(text, 4)


class TestEdgeIdeal:
    def test_triangle(self):
        assert edge_ideal(make_cycle([2, 2, 2])) == I("(x1^2*x3, x1*x2^2, x2*x3^2)")

    def test_square_with_pendant_path(self):
        got = edge_ideal(square_pendant_light_path())
        expected = parse_ideal(
            "(x1*x2^2, x2*x3^2, x3*x4^2, x4*x1^2, x4*x5, x5*x6, x6*x7^2)",
            VariableSet([f"x{i + 1}" for i in range(7)]),
        )
        assert got == expected
        assert len(got) == 7

    def test_single_edge(self):
        g = WeightedDigraph([("x", 1), ("y", 3)], [("x", "y")])
        assert str(edge_ideal(g)) == "(x*y^3)"

    def test_weight_over_the_degree_cap_rejected(self):
        g = WeightedDigraph([("x", 1), ("y", DEGREE_CAP)], [("x", "y")])
        with pytest.raises(DegreeCapError, match="exceeds cap"):
            edge_ideal(g)

    def test_edgeless_rejected(self):
        with pytest.raises(EmptyGraphError):
            edge_ideal(WeightedDigraph([("x", 1)], []))

    def test_generator_count_equals_edge_count_on_families(self):
        for g in (make_cycle([2, 3, 2, 3]), square_pendant_light_path()):
            assert len(edge_ideal(g)) == g.n_edges


class TestEdgeGenerators:
    def test_triangle_generators_in_cycle_order(self):
        gens = cycle_edge_generators(make_cycle([2, 2, 2]))
        assert [str(g) for g in gens] == ["x1^2*x3", "x1*x2^2", "x2*x3^2"]

    def test_non_cycle_rejected(self):
        g = WeightedDigraph([("a", 1), ("b", 2)], [("a", "b")])
        with pytest.raises(FamilyMismatchError):
            cycle_edge_generators(g)


class TestOrderedBasis:
    def test_triangle_squared_order(self):
        basis = ordered_power_basis(make_cycle([2, 2, 2]), 2)
        assert [e.vector for e in basis] == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_first_power_is_generator_order(self):
        basis = ordered_power_basis(make_cycle([3, 2, 2, 3]), 1)
        gens = cycle_edge_generators(make_cycle([3, 2, 2, 3]))
        assert [e.monomial for e in basis] == gens

    def test_square_cycle_power_two(self):
        basis = ordered_power_basis(make_cycle([2, 2, 2, 2]), 2)
        assert len(basis) == 10
        first, last = basis.entry(1), basis.entry(len(basis))
        assert str(first.monomial) == "x1^4*x4^2"   # (x4*x1^2)^2
        assert str(last.monomial) == "x3^2*x4^4"    # (x3*x4^2)^2

    def test_weight_below_two_rejected(self):
        with pytest.raises(ValueError):
            ordered_power_basis(make_cycle([1, 2, 2]), 2)

    def test_entries_are_counted_against_the_cap_before_any_is_built(self, monkeypatch):
        # the class itself: ordered_power_basis keeps the bases it built
        triangle, basis = make_cycle([2, 2, 2]), constructions.OrderedPowerBasis
        monkeypatch.setattr(constructions, "MAX_BASIS_ENTRIES", 6)  # read at each call
        assert len(basis(triangle, 2)) == 6  # C(2 + 2, 2)
        with pytest.raises(ResourceCapError,
                           match=r"at t=3 has 10 entries, more than the cap MAX_BASIS_ENTRIES=6$"):
            basis(triangle, 3)
        with pytest.raises(ResourceCapError, match="has 4167083347916875001 entries"):
            basis(make_cycle([2] * 5), 100_000)  # C(t + 4, 4)

    def test_basis_matches_power_generators(self):
        for weights, t in [((2, 2, 2), 2), ((2, 3, 2, 3), 2), ((3, 2, 2, 2, 3), 2)]:
            g = make_cycle(list(weights))
            basis = ordered_power_basis(g, t)
            assert {e.monomial for e in basis} == set(power(edge_ideal(g), t).generators)


class TestDecompose:
    def test_product_of_two_generators(self):
        g = make_cycle([2, 2, 2])
        gens = cycle_edge_generators(g)
        m = monomial_product(gens[0], gens[1])
        assert decompose_cycle_generator(g, 2, m) == (1, 1, 0)

    def test_pure_power_of_lead_generator(self):
        g = make_cycle([2, 2, 2])
        lead = cycle_edge_generators(g)[0]
        for t in (1, 2, 3):
            assert decompose_cycle_generator(g, t, monomial_product(*[lead] * t)) == (t, 0, 0)

    def test_non_member_rejected(self):
        g = make_cycle([2, 2, 2])
        stray = parse_monomial("x1*x2*x3", g.variable_set())
        with pytest.raises(GeneratorMembershipError):
            decompose_cycle_generator(g, 2, stray)

    def test_round_trip_all_entries(self):
        for n, t in iter_product((3, 4, 5), (1, 2, 3)):
            g = make_cycle([2] * n)
            for entry in ordered_power_basis(g, t):
                assert decompose_cycle_generator(g, t, entry.monomial) == entry.vector


class TestUniqueDecomposition:
    def test_injectivity_small_ranges(self):
        # every two distinct exponent vectors give distinct monomials
        for n in (3, 4, 5, 6):
            for weights in (tuple([2] * n), tuple([3] * n), tuple([2, 3] * (n // 2) + [2] * (n % 2))):
                g = make_cycle(list(weights))
                for t in (1, 2, 3):
                    basis = ordered_power_basis(g, t)
                    monomials = [e.monomial for e in basis]
                    assert len(set(monomials)) == len(monomials)


class TestEdgeDivides:
    def test_generator_divides_its_square(self):
        g = make_cycle([2, 2, 2])
        lead = cycle_edge_generators(g)[0]
        assert edge_divides(lead, 1, monomial_product(lead, lead), 2, g)

    def test_second_generator_does_not_divide_lead_square(self):
        g = make_cycle([2, 2, 2])
        gens = cycle_edge_generators(g)
        assert not edge_divides(gens[1], 1, monomial_product(gens[0], gens[0]), 2, g)

    def test_lead_divides_mixed_product(self):
        g = make_cycle([2, 2, 2])
        gens = cycle_edge_generators(g)
        assert edge_divides(gens[0], 1, monomial_product(gens[0], gens[1]), 2, g)

    def test_membership_enforced(self):
        g = make_cycle([2, 2, 2])
        stray = parse_monomial("x1*x2*x3", g.variable_set())
        lead = cycle_edge_generators(g)[0]
        square = monomial_product(lead, lead)
        with pytest.raises(GeneratorMembershipError):
            edge_divides(stray, 1, square, 2, g)
        with pytest.raises(ValueError):
            edge_divides(lead, 2, square, 2, g)

    def test_agrees_with_product_definition(self):
        for n, t in ((3, 2), (4, 2), (4, 3)):
            g = make_cycle([2] * n)
            upper = ordered_power_basis(g, t)
            lower = ordered_power_basis(g, t - 1)
            singles = ordered_power_basis(g, 1)
            for e1 in singles:
                for e2 in upper:
                    fast = edge_divides(e1.monomial, 1, e2.monomial, t, g)
                    brute = any(monomial_product(e1.monomial, m.monomial) == e2.monomial
                                for m in lower)
                    assert fast == brute


class TestColonStructure:
    def test_triangle_first_index(self):
        g = make_cycle([2, 2, 2])
        s = build_colon_structure(g, 1, 1)
        assert s.k_part == I("(x2^2, x2*x3)")
        assert s.q_part == I("(x2*x3)")
        assert colon_lead_and_descent(s.entry.vector, 1) == (1, 0)
        direct = colon_by_monomial(s.tail, s.entry.monomial)
        assert direct == s.colon_form

    def test_last_index_tail_is_principal(self):
        g = make_cycle([2, 2, 2])
        basis = ordered_power_basis(g, 2)
        s = build_colon_structure(g, 2, len(basis) - 1)
        assert len(s.tail) == 1
        assert s.tail.generators[0] == basis.entry(len(basis)).monomial

    @pytest.mark.parametrize("weights", [(2, 2, 2), (2, 3, 2, 3), (3, 2, 2, 4, 2)])
    def test_tail_is_the_ideal_of_the_later_entries(self, weights):
        # the same generators in the same order as a minimalized ideal: equality compares both
        g = make_cycle(list(weights))
        for t in (1, 2, 3):
            basis = ordered_power_basis(g, t)
            for i in range(1, len(basis)):
                later = [e.monomial for e in basis.entries[i:]]
                assert build_colon_structure(g, t, i).tail == MonomialIdeal(g.variable_set(), later)

    def test_deep_descent_has_nonzero_q(self):
        # on a 5-cycle squared some generator keeps both the lead edge and
        # the next-to-last edge, forcing a second colon block
        g = make_cycle([2, 2, 2, 2, 2])
        found = False
        basis = ordered_power_basis(g, 2)
        for i in range(1, len(basis)):
            s = build_colon_structure(g, 2, i)
            _, q = colon_lead_and_descent(s.entry.vector, 2)
            if q is not None and q >= 1:
                found = True
                assert not s.q_part.is_zero
                assert colon_by_monomial(s.tail, s.entry.monomial) == s.colon_form
        assert found

    def test_q_part_zero_when_lead_absent(self):
        g = make_cycle([2, 2, 2, 2])
        basis = ordered_power_basis(g, 2)
        for i in range(1, len(basis)):
            s = build_colon_structure(g, 2, i)
            if colon_lead_and_descent(s.entry.vector, 2)[0] >= 2:
                assert s.q_part.is_zero

    def test_index_out_of_range(self):
        g = make_cycle([2, 2, 2])
        with pytest.raises(IndexError):
            build_colon_structure(g, 1, 3)
        with pytest.raises(IndexError):
            build_colon_structure(g, 1, 0)

    def test_colon_equality_sweep(self):
        for n in (3, 4, 5):
            for weights in iter_product((2, 3), repeat=n):
                g = make_cycle(list(weights))
                for t in (1, 2):
                    basis = ordered_power_basis(g, t)
                    for i in range(1, len(basis)):
                        s = build_colon_structure(g, t, i)
                        assert colon_by_monomial(s.tail, s.entry.monomial) == s.colon_form, (
                            weights, t, i,
                        )


class TestColonFormDichotomy:
    """Every colon past an earlier generator is trapped by one of the two
    catalogued principal colon forms."""

    @staticmethod
    def _forms(g, t, i_entry, k_entry, gens, n, ell):
        def nrm(idx):
            return (idx - 1) % n

        out = []
        for l1 in range(1, n + 1):
            if i_entry.vector[l1 - 1] == 0:
                continue
            for l2 in range(l1 + 1, n + 1):
                if k_entry.vector[l2 - 1] == 0:
                    continue
                a, b = gens[l2 - 1], gens[l1 - 1]
                out.append(strip(a, b))
        for q in range(ell + 1):
            if not all(k_entry.vector[nrm(n - 2 * s)] > 0 for s in range(q + 1)):
                continue
            if not all(i_entry.vector[nrm(n + 1 - 2 * s)] > 0 for s in range(q + 1)):
                continue
            top = monomial_product(*(gens[nrm(n - 2 * s)] for s in range(q + 1)))
            bottom = monomial_product(*(gens[nrm(n + 1 - 2 * s)] for s in range(q + 1)))
            out.append(strip(top, bottom))
        return out

    def test_exhaustive_small_cycles(self):
        for n in (3, 4, 5):
            for weights in iter_product((2, 3), repeat=n):
                g = make_cycle(list(weights))
                t = 2
                ell = min(t, n // 2) - 1
                basis = ordered_power_basis(g, t)
                gens = cycle_edge_generators(g)
                for i in range(1, len(basis)):
                    ei = basis.entry(i)
                    for j in range(i + 1, len(basis) + 1):
                        ej = basis.entry(j)
                        target = strip(ej.monomial, ei.monomial)
                        trapped = False
                        for k in range(i + 1, len(basis) + 1):
                            ek = basis.entry(k)
                            cand = strip(ek.monomial, ei.monomial)
                            if not divides(cand, target):
                                continue
                            if cand in self._forms(g, t, ei, ek, gens, n, ell):
                                trapped = True
                                break
                        assert trapped, (weights, i, j)


class TestBettiSplit:
    def test_triangle_squared(self):
        g = make_cycle([2, 2, 2])
        j_part, k_part = betti_split_power(g, 2)
        assert k_part == I("(x1^4*x3^2)")
        assert len(j_part) == 5

    def test_first_power_principal_part(self):
        g = make_cycle([2, 3, 4])
        _, k_part = betti_split_power(g, 1)
        assert str(k_part) == "(x1^2*x3)"

    def test_disjoint_union_matches_power(self):
        for n in (3, 4, 5):
            for t in (1, 2, 3):
                g = make_cycle([2] * n)
                j_part, k_part = betti_split_power(g, t)
                full = set(power(edge_ideal(g), t).generators)
                assert set(j_part.generators) | set(k_part.generators) == full
                assert not set(j_part.generators) & set(k_part.generators)
