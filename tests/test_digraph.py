from __future__ import annotations

import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereg.digraph import (
    Family,
    WeightedDigraph,
    classify,
    load_graph,
    make_cycle,
)
from edgereg.errors import EmptyGraphError, FamilyMismatchError, GraphFormatError
from edgereg.formulas import formula_cycle, formula_forest, formula_unicyclic
from edgereg.verify import (
    cycle5_two_light_vertices,
    square_pendant_inward_edge,
    square_pendant_light_path,
)

from conftest import write_graph
from oracles import family_reference


def path_graph(weights):
    names = [f"x{i + 1}" for i in range(len(weights))]
    return WeightedDigraph(
        list(zip(names, weights)),
        [(names[i], names[i + 1]) for i in range(len(weights) - 1)],
    )


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedDigraph([("a", 1)], [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedDigraph([("a", 1), ("b", 2)], [("a", "b"), ("a", "b")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedDigraph([("a", 1)], [("a", "b")])

    def test_bad_name_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedDigraph([("2x", 1)], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedDigraph([("a", 0)], [])

    def test_source_weight_normalized(self):
        g = WeightedDigraph([("a", 5), ("b", 2)], [("a", "b")])
        assert g.weight("a") == 1
        assert g.normalization_report == (("a", 5),)

    def test_nonsource_weight_kept(self):
        g = make_cycle([1, 3, 3, 1, 3])
        assert g.weight("x1") == 1 and g.weight("x2") == 3
        assert g.normalization_report == ()


class TestClassify:
    def test_triangle_is_oriented_cycle(self):
        tag = classify(make_cycle([2, 2, 2]))
        assert tag.kind == Family.ORIENTED_CYCLE
        assert tag.cycle == ("x1", "x2", "x3")

    def test_path_is_rooted_forest(self):
        tag = classify(path_graph([1, 2, 2]))
        assert tag.kind == Family.ROOTED_FOREST

    def test_pendant_path_graph_is_unicyclic(self):
        tag = classify(square_pendant_light_path())
        assert tag.kind == Family.UNICYCLIC
        assert set(tag.cycle) == {"x1", "x2", "x3", "x4"}

    def test_inward_pendant_edge_is_other(self):
        assert classify(square_pendant_inward_edge()).kind == Family.OTHER

    def test_reoriented_cycle_is_other(self):
        g = WeightedDigraph(
            [("x1", 1), ("x2", 3), ("x3", 3)],
            [("x1", "x2"), ("x1", "x3"), ("x2", "x3")],
        )
        assert classify(g).kind == Family.OTHER

    def test_two_cycle_is_other(self):
        g = WeightedDigraph([("a", 2), ("b", 2), ("c", 2)], [("a", "b"), ("b", "a"), ("b", "c")])
        assert classify(g).kind == Family.OTHER

    def test_forest_with_isolated_vertex(self):
        g = WeightedDigraph([("a", 1), ("b", 2), ("c", 7)], [("a", "b")])
        assert classify(g).kind == Family.ROOTED_FOREST

    def test_two_rooted_trees(self):
        g = WeightedDigraph(
            [("a", 1), ("b", 2), ("c", 1), ("d", 3)],
            [("a", "b"), ("c", "d")],
        )
        assert classify(g).kind == Family.ROOTED_FOREST

    def test_two_disjoint_cycles_are_other(self):
        names = ["a", "b", "c", "d", "e", "f"]
        g = WeightedDigraph(
            [(v, 2) for v in names],
            [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")],
        )
        tag = classify(g)
        assert tag.kind == Family.OTHER and tag.shape is None
        assert family_reference(g) == "Other"
        with pytest.raises(FamilyMismatchError):
            formula_cycle(g, 1)

    def test_inward_tree_is_other(self):
        g = WeightedDigraph([("a", 1), ("b", 2), ("c", 1)], [("a", "b"), ("c", "b")])
        assert classify(g).kind == Family.OTHER

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            classify(WeightedDigraph([], []))


@given(st.lists(st.integers(1, 5), min_size=3, max_size=7))
def test_make_cycle_always_classifies_as_cycle(weights):
    tag = classify(make_cycle(weights))
    assert tag.kind == Family.ORIENTED_CYCLE


def all_small_digraphs():
    """Every digraph without self-loops on 1..4 vertices (4,165 graphs)."""
    for n in range(1, 5):
        names = [f"v{i}" for i in range(n)]
        arcs = list(permutations(names, 2))
        for k in range(len(arcs) + 1):
            for edges in combinations(arcs, k):
                yield WeightedDigraph([(v, 2) for v in names], edges)


def test_classify_matches_the_definitions_on_every_small_digraph():
    graphs = list(all_small_digraphs())
    assert len(graphs) == 4165
    for g in graphs:
        assert classify(g).kind.value == family_reference(g), g.edges


@st.composite
def near_trees(draw):
    """A randomly oriented spanning tree on 5..7 vertices, give or take an arc."""
    n = draw(st.integers(5, 7))
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        p = names[draw(st.integers(0, i - 1))]
        edges.add((p, names[i]) if draw(st.booleans()) else (names[i], p))
    edges |= set(draw(st.lists(st.sampled_from(list(permutations(names, 2))), max_size=2)))
    edges -= set(draw(st.lists(st.sampled_from(sorted(edges)), max_size=1)))
    return WeightedDigraph([(v, 2) for v in names], sorted(edges))


@given(near_trees())
@settings(max_examples=300)
def test_classify_matches_the_definitions_on_near_trees(g):
    assert classify(g).kind.value == family_reference(g)


class TestMakeCycle:
    def test_edge_set(self):
        g = make_cycle([2, 2, 2])
        assert set(g.edges) == {("x3", "x1"), ("x1", "x2"), ("x2", "x3")}

    def test_degenerate_rejected(self):
        with pytest.raises(GraphFormatError):
            make_cycle([2])

    def test_weights_attach_to_heads(self):
        g = make_cycle([1, 3, 3, 1, 3])
        assert [g.weight(f"x{i}") for i in range(1, 6)] == [1, 3, 3, 1, 3]


class TestCheckHypotheses:
    """The closed forms' hypotheses, as the formula predictions report them."""

    def test_admissible_triangle(self):
        report = formula_cycle(make_cycle([2, 2, 2]), 1)
        assert report.admissible and report.violations == ()

    def test_light_cycle_violations(self):
        report = formula_cycle(cycle5_two_light_vertices(), 1)
        assert report.violations == ("w(x1)=1", "w(x4)=1")
        assert not report.admissible

    def test_light_pendant_path_violations(self):
        report = formula_unicyclic(square_pendant_light_path(), 1)
        assert report.violations == (
            "w(x5)=1 with d(x5)=2",
            "w(x6)=1 with d(x6)=2",
        )

    def test_family_mismatch_names_actual(self):
        with pytest.raises(FamilyMismatchError) as err:
            formula_cycle(path_graph([1, 2, 2]), 1)
        assert "(family: RootedForest)" in str(err.value)

    def test_source_exempt_from_weight_rule(self):
        # a branching root is a source; its weight is pinned to 1 and the
        # forest hypothesis does not count it as a violation
        star = WeightedDigraph(
            [("r", 1), ("a", 2), ("b", 2), ("c", 2)],
            [("r", "a"), ("r", "b"), ("r", "c")],
        )
        assert formula_forest(star, 1).admissible

    def test_leaf_weight_one_allowed(self):
        g = path_graph([1, 2, 1])
        assert formula_forest(g, 1).admissible

    def test_interior_weight_one_violates(self):
        g = path_graph([1, 1, 2])
        report = formula_forest(g, 1)
        assert report.violations == ("w(x2)=1 with d(x2)=2",)


@given(st.lists(st.integers(1, 3), min_size=3, max_size=6))
def test_raising_weights_is_monotone(weights):
    g = make_cycle(weights)
    base = set(formula_cycle(g, 1).violations)
    for i in range(len(weights)):
        raised = list(weights)
        raised[i] = max(raised[i], 2)
        after = set(formula_cycle(make_cycle(raised), 1).violations)
        assert after <= base


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        g = square_pendant_light_path()
        assert load_graph(write_graph(g, tmp_path / "g.json")) == g

    def test_loader_normalization_report(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"name": "a", "weight": 9}, {"name": "b", "weight": 2}],
                    "edges": [["a", "b"]],
                }
            )
        )
        g = load_graph(str(path))
        assert g.weight("a") == 1
        assert g.normalization_report == (("a", 9),)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [{"name": "a"}], "edges": []}))
        with pytest.raises(GraphFormatError):
            load_graph(str(path))

    def test_boolean_weight_rejected(self):
        data = json.loads(
            '{"vertices": [{"name": "a", "weight": 1}, {"name": "b", "weight": true}],'
            ' "edges": [["a", "b"]]}'
        )
        with pytest.raises(GraphFormatError):
            WeightedDigraph.from_json_dict(data)
