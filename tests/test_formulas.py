from __future__ import annotations

import pytest

from edgereg.betti import regularity
from edgereg.constructions import build_colon_structure, edge_ideal, ordered_power_basis
from edgereg.digraph import Family, WeightedDigraph, make_cycle
from edgereg.errors import FamilyMismatchError
from edgereg.formulas import (
    closed_form_value,
    formula_cycle,
    formula_for_family,
    formula_forest,
    formula_unicyclic,
)
from edgereg.ideals import power
from edgereg.verify import (
    cycle5_double_out,
    cycle5_two_light_vertices,
    pendant_path_graph,
    square_pendant_inward_edge,
    square_pendant_light_path,
)

from oracles import colon_regularity_predictions


def path_graph(weights):
    names = [f"x{i + 1}" for i in range(len(weights))]
    return WeightedDigraph(
        list(zip(names, weights)),
        [(names[i], names[i + 1]) for i in range(len(weights) - 1)],
    )


class TestCycleFormula:
    def test_triangle_first_power(self):
        r = formula_cycle(make_cycle([2, 2, 2]), 1)
        assert r.value == 4 and r.admissible

    def test_triangle_second_power(self):
        r = formula_cycle(make_cycle([2, 2, 2]), 2)
        assert r.value == 7
        assert regularity(power(edge_ideal(make_cycle([2, 2, 2])), 2)) == 7

    def test_light_pentagon_flagged(self):
        r = formula_cycle(cycle5_two_light_vertices(), 2)
        assert r.value == 11 and not r.admissible
        assert r.violations == ("w(x1)=1", "w(x4)=1")
        assert r.family == Family.ORIENTED_CYCLE

    def test_reoriented_pentagon_flagged_as_other(self):
        r = formula_cycle(cycle5_double_out(), 2)
        assert r.value == 13 and not r.admissible
        assert r.family == Family.OTHER
        assert any("out-degree" in v for v in r.violations)

    def test_wrong_family_names_actual(self):
        with pytest.raises(FamilyMismatchError) as err:
            formula_cycle(path_graph([1, 2, 2]), 1)
        assert str(err.value) == "underlying graph is not a single cycle (family: RootedForest)"

    def test_power_bounds(self):
        g = make_cycle([2, 2, 2])
        for bad in (0, -1, 65):
            with pytest.raises(ValueError):
                formula_cycle(g, bad)


class TestUnicyclicFormula:
    def test_light_path_flagged(self):
        r = formula_unicyclic(square_pendant_light_path(), 2)
        assert r.value == 9 and not r.admissible
        assert r.family == Family.UNICYCLIC
        assert set(r.violations) == {"w(x5)=1 with d(x5)=2", "w(x6)=1 with d(x6)=2"}

    def test_inward_edge_flagged(self):
        r = formula_unicyclic(square_pendant_inward_edge(), 2)
        assert r.value == 10 and not r.admissible
        assert r.family == Family.OTHER
        assert any("not oriented away" in v for v in r.violations)

    def test_admissible_first_power_matches_engine(self):
        g = pendant_path_graph(2, [2, 2, 2, 2, 3])
        r = formula_unicyclic(g, 1)
        assert r.admissible
        assert r.value == g.total_weight() - g.n_edges + 1
        assert regularity(edge_ideal(g)) == r.value

    def test_wrong_family(self):
        with pytest.raises(FamilyMismatchError):
            formula_unicyclic(make_cycle([2, 2, 2]), 1)


class TestForestFormula:
    def test_single_heavy_edge(self):
        g = WeightedDigraph([("x", 1), ("y", 3)], [("x", "y")])
        r = formula_forest(g, 1)
        assert r.value == 4 and r.admissible
        assert regularity(edge_ideal(g)) == 4

    def test_path_second_power(self):
        g = path_graph([1, 2, 2])
        r = formula_forest(g, 2)
        assert r.value == 7
        assert regularity(power(edge_ideal(g), 2)) == 7

    def test_star_with_three_leaves(self):
        g = WeightedDigraph(
            [("r", 1), ("a", 2), ("b", 2), ("c", 2)],
            [("r", "a"), ("r", "b"), ("r", "c")],
        )
        r = formula_forest(g, 1)
        assert r.value == 5 and r.admissible
        assert regularity(edge_ideal(g)) == 5

    def test_isolated_vertices_rejected(self):
        g = WeightedDigraph([("a", 1), ("b", 2), ("c", 4)], [("a", "b")])
        with pytest.raises(ValueError):
            formula_forest(g, 1)

    def test_wrong_family(self):
        with pytest.raises(FamilyMismatchError):
            formula_forest(make_cycle([2, 2, 2]), 1)


class TestPowerIncrement:
    """Each power step adds max weight + 1 to the first power's value."""

    def test_triangle_third_power(self):
        assert formula_cycle(make_cycle([2, 2, 2]), 3).value == 10

    def test_identity_at_first_power(self):
        g = make_cycle([2, 3, 2])
        assert formula_cycle(g, 1).value == g.total_weight() - g.n_edges + 1

    def test_matches_direct_formula_across_families(self):
        instances = [
            make_cycle([2, 3, 2, 3]),
            path_graph([1, 2, 3, 2]),
            pendant_path_graph(1, [2, 2, 3, 2]),
        ]
        for g in instances:
            base = formula_for_family(g, 1).value
            for t in (1, 2, 3, 4):
                increment = (t - 1) * (g.max_weight() + 1)
                assert formula_for_family(g, t).value == base + increment

    def test_increment_step_is_max_weight_plus_one(self):
        g = make_cycle([2, 3, 2])
        for t in (1, 2, 3):
            step = formula_for_family(g, t + 1).value - formula_for_family(g, t).value
            assert step == g.max_weight() + 1


class TestFormulaForFamily:
    def test_reoriented_shapes_get_flagged_predictions(self):
        for graph, fn in (
            (cycle5_double_out(), formula_cycle),
            (square_pendant_inward_edge(), formula_unicyclic),
        ):
            r = formula_for_family(graph, 2)
            # results are plain records without __eq__; compare every slot
            assert r.to_json_dict() == fn(graph, 2).to_json_dict()
            assert not r.admissible

    def test_no_closed_form_raises(self):
        names = ["x1", "x2", "x3", "x4"]
        g = WeightedDigraph(
            [(v, 2) for v in names],
            [("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("x1", "x4"), ("x4", "x2")],
        )
        with pytest.raises(FamilyMismatchError) as err:
            formula_for_family(g, 1)
        assert str(err.value) == "no closed form for family Other"


class TestClosedFormValue:
    def test_components(self):
        assert closed_form_value(6, 3, 2, 1) == 4
        assert closed_form_value(6, 3, 2, 2) == 7
        assert closed_form_value(11, 5, 3, 2) == 11


class TestColonPredictions:
    def test_prediction_kinds(self):
        g = make_cycle([2, 2, 2, 2, 2])
        basis = ordered_power_basis(g, 2)
        kinds = set()
        for i in range(1, len(basis)):
            pred = colon_regularity_predictions(g, 2, i)
            kinds.add(pred.kind)
        assert kinds == {"exact", "bound"}

    def test_exact_predictions_match_engine(self):
        for weights in ((2, 2, 2), (2, 3, 2), (3, 2, 2, 3)):
            g = make_cycle(list(weights))
            for t in (1, 2):
                basis = ordered_power_basis(g, t)
                for i in range(1, len(basis)):
                    pred = colon_regularity_predictions(g, t, i)
                    s = build_colon_structure(g, t, i)
                    actual = regularity(s.colon_form)
                    if pred.kind == "exact":
                        assert actual == pred.value, (weights, t, i)
                    else:
                        assert actual <= pred.value, (weights, t, i)

    def test_bound_holds_on_five_cycle(self):
        g = make_cycle([2, 2, 2, 2, 2])
        basis = ordered_power_basis(g, 2)
        for i in range(1, len(basis)):
            pred = colon_regularity_predictions(g, 2, i)
            actual = regularity(build_colon_structure(g, 2, i).colon_form)
            assert actual <= pred.value

    def test_leading_index_formula(self):
        # entry with leading edge index i1 >= 2 uses the truncated sums
        g = make_cycle([2, 3, 4])
        basis = ordered_power_basis(g, 1)
        # i = 2 -> entry L_2, i1 = 2: sum_{j=3}^{3} w_j - (3 - 2) + 1
        pred = colon_regularity_predictions(g, 1, 2)
        assert pred.value == 4 - 1 + 1 and pred.kind == "exact"


class TestViolationReporting:
    def test_every_flagged_instance_names_a_hypothesis(self):
        flagged = [
            formula_cycle(cycle5_two_light_vertices(), 2),
            formula_cycle(cycle5_double_out(), 2),
            formula_unicyclic(square_pendant_light_path(), 2),
            formula_unicyclic(square_pendant_inward_edge(), 2),
        ]
        for r in flagged:
            assert not r.admissible and r.violations


@pytest.mark.parametrize("t", [True, 2.0, 0], ids=repr)
@pytest.mark.parametrize("call", [
    lambda g, t: power(edge_ideal(g), t),
    formula_cycle,
    ordered_power_basis,
], ids=["power", "formula_cycle", "ordered_power_basis"])
def test_a_power_is_a_plain_int_of_at_least_one(call, t):
    g = make_cycle([2, 2, 2])
    # the bases at t = 1 and 2 are cached first, so True and 2.0 would hit them
    ordered_power_basis(g, 1), ordered_power_basis(g, 2)
    with pytest.raises(ValueError, match=f"power must be an int >= 1, got {t!r}$"):
        call(g, t)
