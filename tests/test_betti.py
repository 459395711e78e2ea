from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereg.betti import (
    DEFAULT_LATTICE_CAP,
    _betti_multidegrees,
    _divisor_masks,
    _mv_candidates,
    _regularity_search,
    _slice_betti,
    _slice_covers,
    betti_table,
    lcm_lattice,
    regularity,
    regularity_witness,
)
from edgereg.constructions import build_colon_structure, edge_ideal
from edgereg.digraph import make_cycle
from edgereg.errors import ResourceCapError, ZeroIdealError
from edgereg.ideals import (
    MonomialIdeal,
    parse_ideal,
    polarize,
    power,
)
from edgereg.ring import Monomial, VariableSet, parse_monomial
from edgereg.verify import REFERENCE_EXAMPLES, enumerate_instances

from conftest import ideals, seeded_random_ideal, variable_set
from oracles import (
    NotSquarefreeError,
    betti_table_reference,
    compare_tables,
    fraction_rank,
    has_linear_resolution,
    k_polynomial_reference,
    max_homological_index,
    multigraded_betti_reference,
    private_variable_regularity,
    regularity_reference,
    restrict_to_variables,
    slice_covers_reference,
    subset_lcm_lattice,
)

xy = VariableSet(["x", "y"])


def I(text: str, n: int = 3) -> MonomialIdeal:
    return parse_ideal(text, variable_set(n))


class TestLcmLattice:
    def test_two_variables(self):
        lat = lcm_lattice(parse_ideal("(x, y)", xy))
        assert set(lat.multidegrees) == {(1, 0), (0, 1), (1, 1)}

    def test_triangle_edge_ideal_has_seven(self):
        ideal = I("(x1*x2^2, x2*x3^2, x3*x1^2)")
        lat = lcm_lattice(ideal)
        assert lat.size == 7
        assert set(lat.multidegrees) == {m.dense() for m in subset_lcm_lattice(ideal)}

    def test_principal(self):
        assert lcm_lattice(I("(x1^3)")).size == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            lcm_lattice(MonomialIdeal.zero(xy))

    def test_cap_names_limit(self):
        ideal = I("(x1*x2^2, x2*x3^2, x3*x1^2)")
        with pytest.raises(ResourceCapError) as err:
            lcm_lattice(ideal, cap=3)
        assert "3" in str(err.value)


@given(ideals(n_vars=3, max_gens=4))
@settings(max_examples=60)
def test_lattice_matches_subset_enumeration(ideal):
    assert set(lcm_lattice(ideal).multidegrees) == {m.dense() for m in subset_lcm_lattice(ideal)}


@given(ideals(n_vars=3, max_gens=4))
@settings(max_examples=40)
def test_lattice_contains_generators_and_is_join_closed(ideal):
    lattice = set(lcm_lattice(ideal).multidegrees)
    assert {g.dense() for g in ideal.generators} <= lattice
    assert all(tuple(map(max, a, b)) in lattice for a in lattice for b in lattice)


# exponents at and around the field-width boundaries of the packed lattice
WIDE_EXPONENTS = sorted(
    {0, 1, 2, 3} | {2**k + d for k in (2, 3, 4, 7, 8, 15, 16) for d in (-1, 0, 1)}
)


@st.composite
def wide_ideals(draw):
    n = draw(st.integers(1, 8))
    exps = st.lists(st.sampled_from(WIDE_EXPONENTS), min_size=n, max_size=n).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=4))
    variables = variable_set(n)
    return MonomialIdeal(variables, [Monomial.from_dense(variables, g) for g in gens])


@given(wide_ideals())
@settings(max_examples=150, deadline=None)
def test_packed_lattice_matches_subset_enumeration_on_wide_exponents(ideal):
    points = lcm_lattice(ideal).multidegrees
    assert set(points) == {m.dense() for m in subset_lcm_lattice(ideal)}
    assert list(points) == sorted(points, key=lambda b: (sum(b), b))


@st.composite
def generators_and_points(draw):
    """Exponent vectors (not necessarily minimal) and a multidegree b.

    b is either the join of some of them, as the engine sees it, or any
    vector, possibly above every generator's exponent.
    """
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(vec, min_size=1, max_size=7))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens)))
        b = tuple(map(max, *chosen)) if len(chosen) > 1 else chosen[0]
    else:
        b = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).map(tuple))
    return gens, b


@given(generators_and_points())
@settings(max_examples=300, deadline=None)
def test_mask_covers_match_tuple_scan_up_to_relabelling(case):
    gens, b = case
    covers = _slice_covers(_divisor_masks(gens), b)
    nverts, expected = slice_covers_reference(gens, b)
    # the reference numbers the divisors 0.. in generator order
    divisors = [k for k, g in enumerate(gens) if all(x <= y for x, y in zip(g, b))]
    label = {k: 1 << i for i, k in enumerate(divisors)}
    relabelled = []
    for mask in covers:
        bits = [k for k in range(len(gens)) if mask >> k & 1]
        assert set(bits) <= set(label), "a cover holds a generator that does not divide b"
        relabelled.append(sum(label[k] for k in bits))
    assert len(divisors) == nverts
    assert relabelled == expected


@given(ideals(n_vars=3, max_gens=4, max_exp=3))
# beta_{1,b} != 0 at b = x1*x2^2*x3^2*x4^2, which the tree emits at depths 1 and 2
@example(I("(x2^2*x3^2*x4^2, x1*x2*x3^2*x4, x1^2*x2*x3, x1*x3*x4^2, x1*x2^2)", n=4))
@settings(max_examples=60, deadline=None)
def test_every_betti_multidegree_is_a_tree_candidate(ideal):
    candidates = _mv_candidates(tuple(g.dense() for g in ideal.generators), 10**6)
    for i, b in multigraded_betti_reference(ideal):
        assert b.dense() in candidates
        assert i >= candidates[b.dense()]  # the bound the regularity search stops at


@pytest.mark.parametrize(
    "ideal",
    [
        power(edge_ideal(make_cycle([2, 3, 2, 2])), 2),
        I("(x1^3*x2, x2^2*x3^2, x1*x3^3, x1^2*x2^2*x3)"),
    ],
    ids=["cycle-power", "raw-ideal"],
)
def test_one_covered_homology_call_per_lattice_point(monkeypatch, ideal):
    # benchmark traces count slices through this seam, one per lattice point
    import edgereg.betti as betti_module

    calls = []
    original = betti_module.covered_homology

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _betti_multidegrees.cache_clear()
    monkeypatch.setattr(betti_module, "covered_homology", counting)
    betti_table(ideal)
    assert len(calls) == lcm_lattice(ideal).size


def test_regularity_search_slices_only_tree_candidates(monkeypatch):
    import edgereg.betti as betti_module

    ideal = power(edge_ideal(make_cycle([2, 3, 2, 2])), 2)
    table = betti_table(ideal)
    slices = []
    original = betti_module._slice_betti

    def recording(le, b, field):
        slices.append(b)
        return original(le, b, field)

    _regularity_search.cache_clear()
    monkeypatch.setattr(betti_module, "_slice_betti", recording)
    assert regularity(ideal) == table.regularity()
    _regularity_search.cache_clear()
    candidates = _mv_candidates(tuple(g.dense() for g in ideal.generators), DEFAULT_LATTICE_CAP)
    assert len(slices) == len(set(slices))
    assert set(slices) < set(candidates)
    assert len(candidates) < lcm_lattice(ideal).size


def _candidate_table(ideal: MonomialIdeal, field: str = "Q") -> dict:
    """The multigraded table with one slice per Mayer-Vietoris tree candidate."""
    gens = tuple(g.dense() for g in ideal.generators)
    le = _divisor_masks(list(gens))
    table = {}
    for b in _mv_candidates(gens, DEFAULT_LATTICE_CAP):
        for i, r in _slice_betti(le, b, field).items():
            table[(i, Monomial.from_dense(ideal.variables, b))] = r
    return table


def _cycles_with_one_weight_3(n: int):
    for k in range(n):
        yield make_cycle([3 if v == k else 2 for v in range(n)])


@pytest.mark.parametrize(
    "ideal",
    [power(edge_ideal(g), t) for t in (2, 3) for g in _cycles_with_one_weight_3(5)]
    + [power(edge_ideal(ex.build()), ex.t) for ex in REFERENCE_EXAMPLES],
    ids=[f"C5-w3-at-{k}-t{t}" for t in (2, 3) for k in range(5)]
    + [ex.name for ex in REFERENCE_EXAMPLES],
)
def test_candidate_table_equals_lattice_table(ideal):
    assert _candidate_table(ideal) == betti_table(ideal).multigraded


def _squarefree_cubics(seed: int, nvars: int = 8, ngens: int = 14) -> MonomialIdeal:
    """Distinct squarefree cubic generators, as in the squarefree-rank benchmark."""
    rng = random.Random(f"squarefree-cubics:{seed}")
    supports: set[tuple[int, ...]] = set()
    while len(supports) < ngens:
        supports.add(tuple(sorted(rng.sample(range(nvars), 3))))
    variables = variable_set(nvars)
    return MonomialIdeal(
        variables,
        [Monomial.from_dense(variables, [int(j in s) for j in range(nvars)]) for s in sorted(supports)],
    )


@pytest.mark.parametrize("seed", range(5))
def test_q_table_matches_fraction_rank_engine(monkeypatch, seed):
    # the whole engine, run once more with the dense Q reference as its rank
    import edgereg.homology as homology_module

    ideal = _squarefree_cubics(seed)
    _betti_multidegrees.cache_clear()
    homology_module._covered_homology_cached.cache_clear()
    table = betti_table(ideal, "Q")

    ranks = []

    def reference_rank(rows, ncols):
        ranks.append(fraction_rank([[row.get(c, 0) for c in range(ncols)] for row in rows]))
        return ranks[-1]

    _betti_multidegrees.cache_clear()
    homology_module._covered_homology_cached.cache_clear()
    monkeypatch.setattr(homology_module, "rank_int", reference_rank)
    reference = betti_table(ideal, "Q")
    _betti_multidegrees.cache_clear()
    homology_module._covered_homology_cached.cache_clear()
    assert max(ranks) >= 2
    assert table.multigraded == reference.multigraded
    assert table.entries == reference.entries


@st.composite
def cycle_powers(draw):
    n = draw(st.integers(3, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return power(edge_ideal(make_cycle(weights)), draw(st.integers(1, 3)))


@given(st.one_of(ideals(n_vars=4, max_gens=5, max_exp=3), cycle_powers()), st.sampled_from(["Q", "GF2"]))
@settings(max_examples=80, deadline=None)
def test_alternating_betti_sums_match_the_k_polynomial(ideal, field):
    # sum_i (-1)^i beta_{i,b} is the coefficient of x^b in 1 - K(S/I)
    alternating: dict[tuple[int, ...], int] = {}
    for (i, b), r in betti_table(ideal, field).multigraded.items():
        alternating[b.dense()] = alternating.get(b.dense(), 0) + (-1) ** i * r
    expected = {b: -c for b, c in k_polynomial_reference(ideal).items()}
    one = (0,) * len(ideal.variables)
    expected[one] = expected.get(one, 0) + 1
    assert {b: c for b, c in alternating.items() if c} == {b: c for b, c in expected.items() if c}


class TestUpperKoszulSlice:
    """beta_{i,b} is the rank of the (i-1)-st reduced homology of the slice at b."""

    def test_two_points_at_the_top(self):
        # the slice of (x, y) at x*y is two points: one reduced H_0
        table = betti_table(parse_ideal("(x, y)", xy))
        b = parse_monomial("x*y", xy)
        assert {i: r for (i, m), r in table.multigraded.items() if m == b} == {1: 1}

    def test_generator_multidegree_keeps_only_empty_face(self):
        ideal = I("(x1*x2^2, x2*x3^2)")
        table = betti_table(ideal)
        for g in ideal.generators:
            assert {i: r for (i, m), r in table.multigraded.items() if m == g} == {0: 1}

    def test_non_lattice_multidegree_is_acyclic(self):
        # a slice is exact at any multidegree; off the lattice it is acyclic
        ideal = parse_ideal("(x, y)", xy)
        le = _divisor_masks([g.dense() for g in ideal.generators])
        assert _slice_betti(le, (2, 1), "Q") == {}
        assert _slice_betti(le, (2, 1), "GF2") == {}


class TestBettiTable:
    def test_koszul_complex_of_two_variables(self):
        table = betti_table(parse_ideal("(x, y)", xy))
        assert table.entries == {(0, 1): 2, (1, 2): 1}

    def test_triangle_edge_ideal(self):
        table = betti_table(edge_ideal(make_cycle([2, 2, 2])))
        assert table.regularity() == 4
        assert table.entries == {(0, 3): 3, (1, 5): 3, (2, 6): 1}

    def test_generator_degrees_row(self):
        ideal = I("(x1^3, x1*x2^2, x2*x3^2, x1*x2*x3)")
        table = betti_table(ideal)
        assert table.generator_degrees() == ideal.generator_degrees()

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            betti_table(MonomialIdeal.zero(xy))

    def test_unit_ideal_is_free(self):
        # colon results can be the whole ring; its table is one generator
        # in degree zero and nothing else
        from edgereg.ideals import colon_by_monomial

        unit = colon_by_monomial(I("(x1^2)"), parse_monomial("x1^2", variable_set(3)))
        assert unit.is_unit
        table = betti_table(unit)
        assert table.entries == {(0, 0): 1}
        assert table.regularity() == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            betti_table(I("(x1)"), field="GF3")

    def test_deterministic_json(self):
        ideal = edge_ideal(make_cycle([2, 3, 2]))
        assert betti_table(ideal).to_json() == betti_table(ideal).to_json()

    def test_text_grid_mentions_every_rank(self):
        grid = betti_table(parse_ideal("(x, y)", xy)).text_grid()
        assert "j\\i" in grid and "2" in grid


@given(ideals(n_vars=3, max_gens=4, max_exp=3))
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_over_q(ideal):
    table = betti_table(ideal)
    assert table.multigraded == multigraded_betti_reference(ideal, "Q")
    assert {k: v for k, v in table.entries.items() if v} == betti_table_reference(ideal, "Q")


@given(ideals(n_vars=3, max_gens=3, max_exp=2))
@settings(max_examples=30, deadline=None)
def test_engine_matches_reference_over_gf2(ideal):
    table = betti_table(ideal, field="GF2")
    assert table.multigraded == multigraded_betti_reference(ideal, "GF2")
    assert {k: v for k, v in table.entries.items() if v} == betti_table_reference(ideal, "GF2")


@given(ideals(n_vars=4, max_gens=4))
@settings(max_examples=50, deadline=None)
def test_betti_zero_row_counts_minimal_generators(ideal):
    table = betti_table(ideal)
    assert table.generator_degrees() == ideal.generator_degrees()


@given(ideals(n_vars=4, max_gens=5))
@settings(max_examples=40, deadline=None)
def test_homological_indices_respect_syzygy_bound(ideal):
    # projective dimension of an ideal is below the variable count
    table = betti_table(ideal)
    assert 0 <= max_homological_index(table) < len(ideal.variables)


@given(ideals(n_vars=3, max_gens=4))
@settings(max_examples=40, deadline=None)
def test_polarization_invariance(ideal):
    plain = betti_table(ideal)
    polar = betti_table(polarize(ideal).ideal)
    assert plain.graded_equal(polar)


class TestRegularity:
    def test_principal_power_equals_degree(self):
        for d in range(1, 7):
            assert regularity(I(f"(x1^{d})")) == d

    def test_witness_is_consistent(self):
        table = betti_table(edge_ideal(make_cycle([2, 2, 2])))
        i, j = table.regularity_witness()
        assert j - i == table.regularity()
        assert table.rank(i, j) > 0

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_search_matches_the_full_table_on_the_sweep_campaigns(self, field):
        checked = 0
        for ideal in _sweep_ideals():
            table = betti_table(ideal, field)
            expected = (table.regularity(), table.regularity_witness())
            assert regularity_witness(ideal, field) == expected
            assert regularity(ideal, field) == table.regularity()
            checked += 1
        assert checked > 200


def _sweep_ideals():
    """Every ideal the campaigns of scripts/run_sweeps.py compute, at seed 0."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
    spec = importlib.util.spec_from_file_location("run_sweeps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for campaign in module.SWEEPS:
        assert campaign.seed == 0
        for inst in enumerate_instances(campaign):
            if inst.graph is None:
                ideal = power(inst.ideal, inst.t)
                yield ideal
                yield polarize(ideal).ideal
            else:
                yield power(edge_ideal(inst.graph), inst.t)


@given(ideals(n_vars=3, max_gens=4, max_exp=3), st.sampled_from(["Q", "GF2"]))
@settings(max_examples=60, deadline=None)
def test_regularity_search_matches_reference(ideal, field):
    assert regularity(ideal, field) == regularity_reference(ideal, field)


class TestRegularityLemmas:
    def test_disjoint_support_additivity(self):
        for k in range(20):
            a = seeded_random_ideal(f"additivity:{k}", max_variables=3)
            b = seeded_random_ideal(f"additivity-shift:{k}", max_variables=3)
            merged, a_lift, b_shift = _disjoint_union(a, b)
            assert regularity(merged) == regularity(a) + regularity(b) - 1

    def test_disjoint_monomial_multiple_shift(self):
        for k in range(20):
            a = seeded_random_ideal(f"shift:{k}", max_variables=3)
            n = len(a.variables)
            wide = VariableSet(list(a.variables.names) + ["u1", "u2"])
            lifted = MonomialIdeal(
                wide, [Monomial(wide, g.exponents) for g in a.generators]
            )
            u = Monomial(wide, {n: 1 + k % 3, n + 1: 1})
            scaled = MonomialIdeal(wide, [u * g for g in lifted.generators])
            assert regularity(scaled) == regularity(a) + u.degree

    def test_induced_restriction_never_raises_regularity(self):
        for k in range(20):
            a = seeded_random_ideal(f"restrict:{k}", max_exponent=1)
            full = regularity(a)
            support = sorted(a.support)
            for drop in support:
                sub = restrict_to_variables(a, set(support) - {drop})
                if not sub.is_zero:
                    assert regularity(sub) <= full


def _disjoint_union(a: MonomialIdeal, b: MonomialIdeal):
    """Relabel b's variables past a's and join the two generator sets."""
    names = list(a.variables.names) + [f"y{i + 1}" for i in range(len(b.variables))]
    wide = VariableSet(names)
    offset = len(a.variables)
    a_lift = [Monomial(wide, g.exponents) for g in a.generators]
    b_shift = [
        Monomial(wide, {idx + offset: e for idx, e in g.exponents.items()})
        for g in b.generators
    ]
    return MonomialIdeal(wide, a_lift + b_shift), a_lift, b_shift


class TestPrivateVariableFastPath:
    def test_two_disjoint_edges(self):
        assert private_variable_regularity(I("(x1*x2, x3*x4)", n=4)) == 3

    def test_triangle_has_no_private_variables(self):
        assert private_variable_regularity(I("(x1*x2, x2*x3, x1*x3)")) is None

    def test_non_squarefree_rejected(self):
        with pytest.raises(NotSquarefreeError):
            private_variable_regularity(I("(x1^2)"))

    def test_agrees_with_engine_when_applicable(self):
        for k in range(30):
            ideal = seeded_random_ideal(f"private:{k}", max_exponent=1)
            fast = private_variable_regularity(ideal)
            if fast is not None:
                assert fast == regularity(ideal)

    def test_colon_structure_polarizations(self):
        # the explicit colon ideals polarize to ideals with a private
        # variable in every generator, so the fast path must match the
        # engine on them
        g = make_cycle([2, 3, 2, 3])
        for i in (1, 2, 4):
            s = build_colon_structure(g, 2, i)
            polar = polarize(s.colon_form).ideal
            fast = private_variable_regularity(polar)
            if fast is not None:
                assert fast == regularity(s.colon_form)


class TestFieldComparison:
    def test_small_corpus_agrees_or_flags(self):
        for k in range(25):
            ideal = seeded_random_ideal(f"field:{k}")
            over_q = betti_table(ideal)
            over_2 = betti_table(ideal, field="GF2")
            diff = compare_tables(over_q, over_2)
            if diff:
                # a true characteristic dependence must show in both
                # directions of the rank inequality bookkeeping
                assert all(ra != rb for (_, _, ra, rb) in diff)
            else:
                assert over_q.graded_equal(over_2)

    def test_projective_plane_ideal_differs_by_field(self):
        # Stanley-Reisner ideal of the 6-vertex projective plane: the ten
        # missing triangles; Betti numbers are characteristic-dependent
        facets = [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 5), (0, 4, 5),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
        ]
        from itertools import combinations

        vs = variable_set(6)
        nonfaces = [
            trio for trio in combinations(range(6), 3) if trio not in facets
        ]
        ideal = MonomialIdeal(
            vs, [Monomial(vs, {a: 1, b: 1, c: 1}) for a, b, c in nonfaces]
        )
        over_q = betti_table(ideal)
        over_2 = betti_table(ideal, field="GF2")
        diff = compare_tables(over_q, over_2)
        assert diff, "expected characteristic dependence"
        assert over_2.regularity() == over_q.regularity() + 1


class TestLinearResolutionCheck:
    def test_principal_is_linear(self):
        assert has_linear_resolution(betti_table(I("(x1^4)")))

    def test_two_variable_koszul_is_linear(self):
        assert has_linear_resolution(betti_table(parse_ideal("(x, y)", xy)))

    def test_triangle_edge_ideal_is_not_linear(self):
        assert not has_linear_resolution(betti_table(edge_ideal(make_cycle([2, 2, 2]))))

    def test_mixed_degrees_not_linear(self):
        assert not has_linear_resolution(betti_table(I("(x1, x2^2)")))


class TestVariableSplitIdentity:
    def test_additivity_when_split_part_is_linear(self):
        checked = 0
        for k in range(40):
            ideal = seeded_random_ideal(f"split:{k}")
            if len(ideal) < 2:
                continue
            for v in sorted(ideal.support):
                j_gens = [g for g in ideal.generators if v in g.support]
                k_gens = [g for g in ideal.generators if v not in g.support]
                if not j_gens or not k_gens:
                    continue
                j_part = MonomialIdeal(ideal.variables, j_gens)
                k_part = MonomialIdeal(ideal.variables, k_gens)
                if not has_linear_resolution(betti_table(j_part)):
                    continue
                from edgereg.ideals import intersect

                t_i = betti_table(ideal)
                t_j = betti_table(j_part)
                t_k = betti_table(k_part)
                t_jk = betti_table(intersect(j_part, k_part))
                keys = set(t_i.entries) | set(t_j.entries) | set(t_k.entries)
                keys |= {(i + 1, j) for (i, j) in t_jk.entries}
                for i, j in keys:
                    rhs = t_j.rank(i, j) + t_k.rank(i, j)
                    if i >= 1:
                        rhs += t_jk.rank(i - 1, j)
                    assert t_i.rank(i, j) == rhs
                reg_rule = max(
                    t_j.regularity(), t_k.regularity(), t_jk.regularity() - 1
                )
                assert t_i.regularity() == reg_rule
                checked += 1
        assert checked >= 5
