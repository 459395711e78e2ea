from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereg.betti import (
    DEFAULT_LATTICE_CAP,
    _divisor_masks,
    betti_table,
    lcm_lattice,
    regularity,
    regularity_witness,
)
from edgereg.constructions import build_colon_structure, edge_ideal
from edgereg.digraph import WeightedDigraph, make_cycle
from edgereg.errors import ResourceCapError, ZeroIdealError
from edgereg.homology import covered_homology
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
    _slice_covers,
    betti_table_reference,
    compare_tables,
    fraction_rank,
    generator_degrees,
    gens_of,
    has_linear_resolution,
    k_polynomial_reference,
    koszul_slice_faces,
    max_homological_index,
    monomial_product,
    mv_candidates_reference,
    multigraded_betti_reference,
    private_variable_regularity,
    reduced_homology_of_face_sets,
    regularity_reference,
    restrict_to_variables,
    slice_covers_reference,
    subset_lcm_lattice,
    support,
    table_regularity_witness,
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
        assert set(lat.multidegrees) == subset_lcm_lattice(ideal)

    def test_principal(self):
        assert lcm_lattice(I("(x1^3)")).size == 1

    def test_unit_ideal_without_variables(self):
        # its one packed record would be zero bytes wide without a pad byte
        lat = lcm_lattice(parse_ideal("(1)", VariableSet([])))
        assert (lat.size, lat.multidegrees) == (1, ((),))

    def test_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            lcm_lattice(MonomialIdeal.zero(xy))

    def test_cap_names_limit(self):
        ideal = I("(x1*x2^2, x2*x3^2, x3*x1^2)")
        with pytest.raises(ResourceCapError) as err:
            betti_table(ideal, lattice_cap=3)
        assert "lcm lattice exceeds the size cap 3;" in str(err.value)


@pytest.mark.parametrize("cap", [0, -1, True, False, 2.0])
@pytest.mark.parametrize("text", ["(x1)", "(x1*x2^2, x2*x3^2, x3*x1^2)"])
def test_cap_below_one_is_rejected(text, cap):
    ideal = I(text)
    for entry in (betti_table, regularity_witness, regularity):
        with pytest.raises(ValueError, match=f"lattice.cap.*{cap}"):
            entry(ideal, "Q", cap)


@given(ideals(n_vars=3, max_gens=4))
@settings(max_examples=60)
def test_lattice_matches_subset_enumeration(ideal):
    assert set(lcm_lattice(ideal).multidegrees) == subset_lcm_lattice(ideal)


@given(ideals(n_vars=3, max_gens=4))
@settings(max_examples=40)
def test_lattice_contains_generators_and_is_join_closed(ideal):
    lattice = set(lcm_lattice(ideal).multidegrees)
    assert {g.dense() for g in ideal.generators} <= lattice
    assert all(tuple(map(max, a, b)) in lattice for a in lattice for b in lattice)


@given(ideals(n_vars=4, max_gens=5, max_exp=3))
@settings(max_examples=60, deadline=None)
def test_the_lattice_cap_admits_exactly_the_lattice_size(ideal):
    # the lattice only grows while the generators are joined, whatever their order
    size = lcm_lattice(ideal).size
    betti_table(ideal, lattice_cap=size)
    if size > 1:
        with pytest.raises(ResourceCapError, match=f"lcm lattice exceeds the size cap {size - 1};"):
            betti_table(ideal, lattice_cap=size - 1)


# exponents at and around the field-width boundaries of the packed lattice
WIDE_EXPONENTS = sorted(
    {0, 1, 2, 3} | {2**k + d for k in (2, 3, 4, 7, 8, 15, 16) for d in (-1, 0, 1)}
)


@st.composite
def wide_ideals(draw):
    n = draw(st.integers(1, 11))  # records wider than 8 bytes from 9 variables on
    exps = st.lists(st.sampled_from(WIDE_EXPONENTS), min_size=n, max_size=n).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=4))
    variables = variable_set(n)
    return MonomialIdeal(variables, [Monomial.from_dense(variables, g) for g in gens])


@given(wide_ideals())
@example(I("(x1*x9, x2*x9^2, x3*x8, x1^2*x4)", n=9))  # 9 one-byte fields
@example(I("(x1^128*x2, x2^3*x10, x3*x11^2, x1*x11^300)", n=11))  # 11 two-byte fields
@example(I("(x1^2*x3^128)"))  # a single generator
@settings(max_examples=150, deadline=None)
def test_packed_lattice_matches_subset_enumeration_on_wide_exponents(ideal):
    points = lcm_lattice(ideal).multidegrees
    assert set(points) == subset_lcm_lattice(ideal)
    assert list(points) == sorted(points, key=lambda b: (sum(b), b))


def _record_table(ideal: MonomialIdeal) -> tuple[list, list, list]:
    """The points that betti._lattice hands a table of the ideal, the covers
    it hands along with each, and the covers the table slices, in order."""
    import edgereg.betti as betti_module

    points, handed, covers = [], [], []
    lattice, slice_homology = betti_module._lattice, betti_module.covered_homology

    def recording_lattice(masks, cap):
        for b, point_covers in lattice(masks, cap):
            points.append(tuple(b))  # b is the walk's live prefix
            handed.append(list(point_covers))
            yield b, point_covers

    def recording_slice(rows, field):
        covers.append(list(rows))
        return slice_homology(rows, field)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(betti_module, "_lattice", recording_lattice)
        monkeypatch.setattr(betti_module, "covered_homology", recording_slice)
        betti_table(ideal)
    return points, handed, covers


@given(ideals(n_vars=5, max_gens=7, max_exp=4))
@settings(max_examples=150, deadline=None)
def test_mask_covers_match_tuple_scan_up_to_relabelling(ideal):
    # the covers the table slices, against a scan of exponent tuples at each point
    gens = gens_of(ideal)
    points, _, covers = _record_table(ideal)
    assert len(points) == len(covers)
    for b, point_covers in zip(points, covers):
        nverts, expected = slice_covers_reference(gens, b)
        # the reference numbers the divisors 0.. in generator order
        divisors = [k for k, g in enumerate(gens) if all(x <= y for x, y in zip(g, b))]
        label = {k: 1 << i for i, k in enumerate(divisors)}
        relabelled = []
        for mask in point_covers:
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
    candidates = mv_candidates_reference(tuple(g.dense() for g in ideal.generators), 10**6)
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

    betti_table(ideal)  # a repeated table must slice every point again
    monkeypatch.setattr(betti_module, "covered_homology", counting)
    betti_table(ideal)
    assert len(calls) == lcm_lattice(ideal).size


def test_the_table_slices_each_lattice_point_once_through_the_shared_slice():
    ideal = I("(x1^3*x2, x2^2*x3^2, x1*x3^3, x1^2*x2^2*x3)")
    points, _, covers = _record_table(ideal)
    assert len(set(points)) == len(points) == len(covers)  # each point once, one slice each
    assert sorted(points) == points  # ascending lex order
    assert set(points) == subset_lcm_lattice(ideal)
    assert len(points) == lcm_lattice(ideal).size


@given(ideals(n_vars=4, max_gens=5, max_exp=3))
@example(I("(x1^3*x2, x2^2*x3^2, x1*x3^3, x1^2*x2^2*x3)"))
@settings(max_examples=60, deadline=None)
def test_the_table_covers_each_point_as_the_oracle_does(ideal):
    points, handed, covers = _record_table(ideal)
    masks = _divisor_masks(gens_of(ideal))
    assert handed == covers == [_slice_covers(masks, b) for b in points]


def test_the_table_walks_the_lattice_over_1200_variables():
    # a recursive walk over the variables overflows Python's stack at about 990
    variables = variable_set(1200)
    halves = ([1] * 600 + [0] * 600, [0] * 600 + [1] * 600)
    ideal = MonomialIdeal(variables, [Monomial.from_dense(variables, g) for g in halves])
    assert betti_table(ideal).nonzero() == [(0, 600, 2), (1, 1200, 1)]


def test_regularity_search_slices_only_tree_candidates(monkeypatch):
    import edgereg.betti as betti_module

    ideal = power(edge_ideal(make_cycle([2, 3, 2, 2])), 2)
    table = betti_table(ideal)
    slices = []
    original = betti_module._walk_slice

    def recording(pk, slots, k, b, field):
        slices.append(pk.unpack(b))
        return original(pk, slots, k, b, field)

    monkeypatch.setattr(betti_module, "_walk_slice", recording)
    assert regularity(ideal) == table.regularity()
    candidates = mv_candidates_reference(
        tuple(g.dense() for g in ideal.generators), DEFAULT_LATTICE_CAP
    )
    assert len(slices) == len(set(slices))
    assert set(slices) < set(candidates)
    assert len(candidates) < lcm_lattice(ideal).size


def _candidate_table(ideal: MonomialIdeal, field: str = "Q") -> dict:
    """The multigraded table with one slice per Mayer-Vietoris tree candidate."""
    gens = tuple(g.dense() for g in ideal.generators)
    le = _divisor_masks(list(gens))
    table = {}
    for b in mv_candidates_reference(gens, DEFAULT_LATTICE_CAP):
        for d, r in covered_homology(_slice_covers(le, b), field).items():
            table[(d + 1, Monomial.from_dense(ideal.variables, b))] = r
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
    homology_module._covered_homology_cached.cache_clear()
    table = betti_table(ideal, "Q")

    ranks = []

    def reference_rank(rows, ncols):
        ranks.append(fraction_rank([[row.get(c, 0) for c in range(ncols)] for row in rows]))
        return ranks[-1]

    homology_module._covered_homology_cached.cache_clear()
    monkeypatch.setattr(homology_module, "rank_int", reference_rank)
    reference = betti_table(ideal, "Q")
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


@given(st.one_of(ideals(n_vars=3, max_gens=4, max_exp=3), cycle_powers()), st.sampled_from(["Q", "GF2"]))
# in descending generator order, the node (x1^3*x2^3*x3^2*x4^3*x5^4) waits at
# bound 14 at depths 1 and 2; the ascending order builds it once
@example(I("(x1^3*x2*x4^3*x5^4, x1*x2^3*x3^2*x4^2*x5^3, x1^2*x3^3*x4*x5^2, x1^3*x2^3*x4)", n=5), "Q")
# the node (x1^3*x2^3*x3*x4^3*x5) is built at depth 2, where its bound is 9, and
# then met at depth 1, where it is 10 = reg; the witness beta_{0,10} is found by
# then, and no tie at depth >= 1 can lower it, so the node is not built again
@example(I("(x1^3*x2*x3^3*x4^2*x5, x1^2*x2^3*x3*x4^3, x1^3*x4^3*x5, x1^3*x2^2*x3)", n=5), "Q")
# the node (x1^3*x2^4*x3^4*x4^4*x5^2) is built at depth 3, where its bound is 14 = reg,
# and then met at depth 2, where it is 15; a walk that skips every node met before
# would not slice it
@example(I("(x1^3*x2^3*x4^4, x1^3*x3^4*x4^2*x5, x1*x2^4*x4^4*x5, x1*x2^2*x3*x4^3*x5^3, "
           "x2*x3^3*x4^3*x5^2)", n=5), "Q")
# in descending generator order, j - i = 3 is first met at beta_{2,5}, whose
# multidegree has bound 4, while the witness beta_{0,3} waits in bucket 3; the
# ascending order meets both in bucket 3
@example(edge_ideal(make_cycle([1, 1, 1, 2])), "GF2")
# j - i = 4 is first met at beta_{2,6}, whose multidegree has bound 5; the
# witness beta_{0,4} still waits in bucket 4
@example(I("(x1^2*x2*x3, x1^2*x3^2, x1^2*x4, x2*x3^2)", n=4), "Q")
@settings(max_examples=80, deadline=None)
def test_regularity_search_slices_the_candidates_whose_bound_reaches_it(ideal, field):
    import edgereg.betti as betti_module

    slices = []
    original = betti_module._walk_slice

    def recording(pk, slots, k, b, *rest):
        slices.append(pk.unpack(b))
        return original(pk, slots, k, b, *rest)

    with mock.patch.object(betti_module, "_walk_slice", recording):
        reg, witness = regularity_witness(ideal, field)
    candidates = mv_candidates_reference(tuple(g.dense() for g in ideal.generators), 10**6)
    assert len(slices) == len(set(slices))
    # every b bounded above reg, and every tie whose i = |b| - reg is below the witness's
    above = {b for b, d in candidates.items() if sum(b) - d > reg}
    ties = {b for b, d in candidates.items() if sum(b) - d == reg}
    assert above | {b for b in ties if sum(b) < witness[1]} <= set(slices) <= above | ties
    table = betti_table(ideal, field)
    assert (reg, witness) == (table.regularity(), table_regularity_witness(table))


def test_regularity_builds_only_the_tree_nodes_its_bound_can_use():
    # the full tree of C6 (one weight 3) at t = 3 has more than 300 distinct nodes
    ideal = power(edge_ideal(make_cycle([2, 3, 2, 2, 2, 2])), 3)
    with pytest.raises(ResourceCapError, match="node cap 300"):
        mv_candidates_reference(tuple(g.dense() for g in ideal.generators), 300)
    assert regularity(ideal, "Q", lattice_cap=300) == 16


def _cycle_ladder(seed: int) -> list[MonomialIdeal]:
    """The ten ideals of the benchmark's cycle-ladder workload at a seed
    (``cycle_ladder_ops`` in edgebench/workloads.py)."""
    ladder = []
    for n, t in ((5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (7, 2)):
        rng = random.Random(f"cycle-ladder:{seed}:{n}:{t}")
        cycle = [f"x{k + 1}" for k in range(n)]
        weights = dict.fromkeys(cycle, 2)
        weights[rng.choice(cycle)] = 3
        listed = rng.sample(cycle, n)  # vertex order is variable order
        edges = [(cycle[k - 1], cycle[k]) for k in range(n)]
        ladder.append((WeightedDigraph([(v, weights[v]) for v in listed], edges), t))
    ladder += [(ex.build(), ex.t) for ex in REFERENCE_EXAMPLES]
    return [power(edge_ideal(graph), t) for graph, t in ladder]


def _ladder_slices(monkeypatch, walk) -> int:
    """The slices the walk takes over the seed-0 cycle ladder over Q."""
    import edgereg.betti as betti_module

    slices = []
    original = betti_module._walk_slice

    def recording(pk, slots, k, b, field):
        slices.append(pk.unpack(b))
        return original(pk, slots, k, b, field)

    monkeypatch.setattr(betti_module, "_walk_slice", recording)
    ladder = _cycle_ladder(0)
    assert len(ladder) == 10
    for ideal in ladder:
        walk(ideal)
    return len(slices)


def _assert_ladder_nodes(walk, nodes: list[int]) -> None:
    """The node cap counts the distinct nodes built: each ideal of the
    seed-0 ladder fits the cap nodes[k] and not one less."""
    for ideal, built in zip(_cycle_ladder(0), nodes, strict=True):
        walk(ideal, lattice_cap=built)
        with pytest.raises(ResourceCapError, match=f"node cap {built - 1};"):
            walk(ideal, lattice_cap=built - 1)


def test_the_cycle_ladder_regularities_slice_29_multidegrees(monkeypatch):
    # the witness walk; 196 if every tie is sliced; with nodes in descending lex order, 64
    assert _ladder_slices(monkeypatch, regularity_witness) == 29


def test_the_cycle_ladder_regularities_build_717_tree_nodes():
    # the witness walk; 996 if every tie child is built
    nodes = [33, 56, 108, 60, 132, 136, 18, 18, 69, 87]
    _assert_ladder_nodes(regularity_witness, nodes)
    assert sum(nodes) == 717


def test_the_value_only_ladder_regularities_slice_16_multidegrees(monkeypatch):
    # regularity() stops at the first bucket its value reaches and searches no tie
    assert _ladder_slices(monkeypatch, regularity) == 16


def test_the_value_only_ladder_regularities_build_685_tree_nodes():
    nodes = [32, 55, 108, 60, 132, 122, 18, 17, 67, 74]
    _assert_ladder_nodes(regularity, nodes)
    assert sum(nodes) == 685


@given(st.one_of(ideals(n_vars=3, max_gens=4, max_exp=3), cycle_powers()), st.sampled_from(["Q", "GF2"]))
# j - i = 3 is first met in bucket 3, where the witness walk goes on to search the ties
@example(edge_ideal(make_cycle([1, 1, 1, 2])), "GF2")
# j - i = 4 is first met at beta_{2,6}, whose multidegree has bound 5
@example(I("(x1^2*x2*x3, x1^2*x3^2, x1^2*x4, x2*x3^2)", n=4), "Q")
# reg is one above the best found when its bucket opens, so a walk that stops
# once the best is within one of the bucket returns reg - 1 (about one random
# ideal in 6,000 does this)
@example(I("(x1^2*x2^2*x5^2, x1*x2^2*x3*x5^2, x1*x3^2*x4*x5^2, x2^2*x3*x4*x5, x1*x2*x3^2, x4^2)",
           n=5), "Q")
@example(I("(x1*x3*x6*x7, x1*x4*x6*x7, x2*x3*x7, x2*x6*x7, x3*x4*x7, x5*x6*x7, x2*x4, x3*x5)", n=7),
         "GF2")
@settings(max_examples=80, deadline=None)
def test_the_value_only_walk_agrees_with_the_witness_walk_and_the_table(ideal, field):
    import edgereg.betti as betti_module

    slices = []
    original = betti_module._walk_slice

    def recording(pk, slots, k, b, *rest):
        slices.append(pk.unpack(b))
        return original(pk, slots, k, b, *rest)

    with mock.patch.object(betti_module, "_walk_slice", recording):
        reg = regularity(ideal, field)
    assert reg == regularity_witness(ideal, field)[0] == betti_table(ideal, field).regularity()
    candidates = mv_candidates_reference(tuple(g.dense() for g in ideal.generators), 10**6)
    assert len(slices) == len(set(slices))
    above = {b for b, d in candidates.items() if sum(b) - d > reg}
    ties = {b for b, d in candidates.items() if sum(b) - d == reg}
    assert above <= set(slices) <= above | ties


def _walk_corpus() -> list[MonomialIdeal]:
    """Seeded ideals from three sources: dense draws, sub-ideals of weighted
    cycle powers, and ideals whose packing has slots wider than a word
    (more than 8 variables) or 16-bit fields (an exponent of at least 128)."""
    rng = random.Random("walk-corpus")
    corpus = []

    def draw(n: int, ngens: int, exponents: list[int], degree: int | None = None) -> MonomialIdeal:
        """ngens distinct generators; of one degree, if given, so all are minimal."""
        variables = variable_set(n)
        gens: set[tuple[int, ...]] = set()
        while len(gens) < ngens:
            exps = tuple(rng.choice(exponents) for _ in range(n))
            if any(exps) and degree in (None, sum(exps)):
                gens.add(exps)
        return MonomialIdeal(variables, [Monomial.from_dense(variables, g) for g in sorted(gens)])

    for _ in range(150):
        corpus.append(draw(rng.randint(5, 7), rng.randint(9, 12), [0, 0, 1, 2], rng.randint(3, 4)))
    for _ in range(150):
        cycle = power(edge_ideal(make_cycle([rng.randint(1, 3) for _ in range(rng.randint(4, 6))])),
                      rng.randint(2, 3))
        gens = rng.sample(cycle.generators, min(len(cycle.generators), rng.randint(4, 9)))
        corpus.append(MonomialIdeal(cycle.variables, gens))
    for _ in range(100):
        corpus.append(draw(rng.randint(9, 12), rng.randint(4, 7), [0] * 6 + [1, 2]))
        corpus.append(draw(rng.randint(3, 6), rng.randint(3, 6), [0, 0, 1, rng.randint(128, 300)]))
    return corpus


def test_the_walks_agree_with_the_table_on_a_seeded_corpus():
    corpus = _walk_corpus()
    assert any(len(ideal.variables) > 8 for ideal in corpus)
    assert any(max(map(max, gens_of(ideal))) >= 128 for ideal in corpus)
    for ideal in corpus:
        for field in ("Q", "GF2"):
            table = betti_table(ideal, field)
            reg = table.regularity()
            witness = table_regularity_witness(table)
            assert regularity(ideal, field) == reg, (ideal, field)
            assert regularity_witness(ideal, field) == (reg, witness), (ideal, field)


def test_the_regularity_walks_build_no_divisor_masks(monkeypatch):
    # the walk covers its slices from the generators' packed slots
    import edgereg.betti as betti_module

    ideals = [power(edge_ideal(make_cycle([2, 3, 2, 2])), 2),
              I("(x1^128*x2, x2^3*x10, x3*x11^2, x1*x11^300, x4*x5*x10)", n=11),
              parse_ideal("(1)", VariableSet([]))]  # no variables: zero-byte packed vectors
    expected = [(table.regularity(), table_regularity_witness(table))
                for table in map(betti_table, ideals[:2])] + [(0, (0, 0))]

    def refused(gens):
        raise AssertionError("a regularity walk built divisor masks")

    monkeypatch.setattr(betti_module, "_divisor_masks", refused)
    for ideal, (reg, witness) in zip(ideals, expected, strict=True):
        assert regularity(ideal) == reg
        assert regularity_witness(ideal) == (reg, witness)


def test_the_regularity_walk_allocates_with_the_work_not_the_degree():
    # a queue sized by the top degree would hold three million buckets here (about 230 MB)
    script = """
import resource
from edgereg.betti import regularity_witness
from edgereg.ideals import parse_ideal
from edgereg.ring import VariableSet
ideal = parse_ideal("(x1^1000000, x2^1000000, x3^1000000)", VariableSet(["x1", "x2", "x3"]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
reg, (i, j) = regularity_witness(ideal)
print(reg, i, j, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    import edgereg

    src = str(Path(edgereg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    reg, i, j, grown_kib = map(int, out.split())  # ru_maxrss counts KiB on Linux
    assert (reg, i, j) == (2999998, 2, 3000000)
    assert grown_kib < 64 * 1024


def test_divisor_mask_rows_hold_one_key_per_distinct_exponent():
    # a row indexed by the exponent itself would hold a million masks here
    ideal = parse_ideal("(x1^1000000, x2^1000000, x3^1000000)", VariableSet(["x1", "x2", "x3"]))
    le, lt = _divisor_masks(gens_of(ideal))
    assert [sorted(row) for row in le] == [[0, 1000000]] * 3
    assert [len(row) for row in lt] == [2] * 3


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
        # the slice is defined at any multidegree; off the lattice it is acyclic
        ideal = parse_ideal("(x, y)", xy)
        faces = koszul_slice_faces(ideal, (2, 1))
        assert faces == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
        assert reduced_homology_of_face_sets(faces, "Q") == {}
        assert reduced_homology_of_face_sets(faces, "GF2") == {}


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
        assert generator_degrees(table) == Counter(g.degree for g in ideal.generators)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            betti_table(MonomialIdeal.zero(xy))

    def test_unit_ideal_is_free(self):
        # colon results can be the whole ring; its table is one generator
        # in degree zero and nothing else
        from edgereg.ideals import colon_by_monomial

        unit = colon_by_monomial(I("(x1^2)"), parse_monomial("x1^2", variable_set(3)))
        assert unit == I("(1)")
        table = betti_table(unit)
        assert table.entries == {(0, 0): 1}
        assert table.regularity() == 0

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_unit_ideal_without_variables_agrees_with_the_walk(self, field):
        unit = parse_ideal("(1)", VariableSet([]))
        table = betti_table(unit, field)
        assert table.nonzero() == [(0, 0, 1)]
        assert (table.regularity(), table_regularity_witness(table)) == (0, (0, 0))
        assert regularity_witness(unit, field) == (0, (0, 0))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            betti_table(I("(x1)"), field="GF3")

    def test_deterministic_json(self):
        ideal = edge_ideal(make_cycle([2, 3, 2]))
        assert json.dumps(betti_table(ideal).to_json_dict()) == json.dumps(
            betti_table(ideal).to_json_dict()
        )

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
    assert generator_degrees(table) == Counter(g.degree for g in ideal.generators)


@pytest.mark.parametrize("field", ["Q", "GF2"])
@given(st.one_of(ideals(n_vars=4, max_gens=5), cycle_powers()))
@settings(max_examples=50, deadline=None)
def test_every_rank_is_positive_and_each_generator_has_rank_one(field, ideal):
    # so a table holds no zero rank and, as beta_0 counts the generators, is never empty
    table = betti_table(ideal, field)
    assert min(table.entries.values()) >= 1 and min(table.multigraded.values()) >= 1
    zeroth = {b: r for (i, b), r in table.multigraded.items() if i == 0}
    assert zeroth == dict.fromkeys(ideal.generators, 1)


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
    polar = betti_table(polarize(ideal))
    assert plain.graded_equal(polar)


class TestRegularity:
    def test_principal_power_equals_degree(self):
        for d in range(1, 7):
            assert regularity(I(f"(x1^{d})")) == d

    def test_witness_is_consistent(self):
        table = betti_table(edge_ideal(make_cycle([2, 2, 2])))
        i, j = table_regularity_witness(table)
        assert j - i == table.regularity()
        assert table.rank(i, j) > 0

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_search_matches_the_full_table_on_the_sweep_campaigns(self, field):
        checked = 0
        for ideal in _sweep_ideals():
            table = betti_table(ideal, field)
            expected = (table.regularity(), table_regularity_witness(table))
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
                yield polarize(ideal)
            else:
                yield power(edge_ideal(inst.graph), inst.t)


@given(ideals(n_vars=3, max_gens=4, max_exp=3), st.sampled_from(["Q", "GF2"]))
# records wider than one 64-bit word: the children join in two- and three-word slots
@example(I("(x1*x9, x2*x9^2, x3*x8, x1^2*x4, x5*x7*x9)", n=9), "Q")  # 9 one-byte fields
@example(I("(x1^128*x2, x2^3*x10, x3*x11^2, x1*x11^300, x4*x5*x10)", n=11), "GF2")  # 11 two-byte
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
                wide, [Monomial.from_dense(wide, g.dense() + (0, 0)) for g in a.generators]
            )
            u = Monomial.from_dense(wide, (0,) * n + (1 + k % 3, 1))
            scaled = MonomialIdeal(wide, [monomial_product(u, g) for g in lifted.generators])
            assert regularity(scaled) == regularity(a) + u.degree

    def test_induced_restriction_never_raises_regularity(self):
        for k in range(20):
            a = seeded_random_ideal(f"restrict:{k}", max_exponent=1)
            full = regularity(a)
            variables = support(gens_of(a))
            for drop in sorted(variables):
                sub = restrict_to_variables(a, variables - {drop})
                if not sub.is_zero:
                    assert regularity(sub) <= full


def _disjoint_union(a: MonomialIdeal, b: MonomialIdeal):
    """Relabel b's variables past a's and join the two generator sets."""
    names = list(a.variables.names) + [f"y{i + 1}" for i in range(len(b.variables))]
    wide = VariableSet(names)
    offset = len(a.variables)
    pad = len(b.variables)
    a_lift = [Monomial.from_dense(wide, g.dense() + (0,) * pad) for g in a.generators]
    b_shift = [Monomial.from_dense(wide, (0,) * offset + g.dense()) for g in b.generators]
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
            polar = polarize(s.colon_form)
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
            vs, [Monomial.from_dense(vs, [int(j in trio) for j in range(6)]) for trio in nonfaces]
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
            for v in sorted(support(gens_of(ideal))):
                j_gens = [g for g in ideal.generators if g.dense()[v]]
                k_gens = [g for g in ideal.generators if not g.dense()[v]]
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


@pytest.mark.parametrize("field", ["gf2", "R"])
@pytest.mark.parametrize("call", [
    lambda field: betti_table(parse_ideal("(x1*x2, x2^2)", variable_set(2)), field),
    lambda field: regularity_witness(parse_ideal("(x1*x2, x2^2)", variable_set(2)), field),
    lambda field: covered_homology([0b01, 0b10], field),
], ids=["betti_table", "regularity_witness", "covered_homology"])
def test_an_unknown_field_is_refused_by_name(call, field):
    with pytest.raises(ValueError, match=f"unknown field {field!r}"):
        call(field)
