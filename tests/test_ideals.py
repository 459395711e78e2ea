from __future__ import annotations

import math
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereg.constructions import edge_ideal
from edgereg.digraph import make_cycle
from edgereg.errors import DegreeCapError, VariableSetMismatchError, ZeroIdealError
from edgereg.ideals import (
    MonomialIdeal,
    colon_by_monomial,
    ideal_sum,
    intersect,
    parse_ideal,
    polarize,
    power,
    product,
)
from edgereg.ring import DEGREE_CAP, Monomial, VariableSet, parse_monomial

from conftest import ideal_pairs, ideals, monomials, nonunit_monomials, seeded_random_ideal
from conftest import variable_set
from oracles import (
    colon_by_ideal,
    contains_ideal,
    divides,
    in_ideal,
    minimalize_reference,
    monomial_product,
    restrict_to_variables,
    support,
)


def I(text: str, n: int = 3) -> MonomialIdeal:
    return parse_ideal(text, variable_set(n))


def M(text: str, n: int = 3) -> Monomial:
    return parse_monomial(text, variable_set(n))


class TestConstruction:
    def test_minimalization_is_eager(self):
        ideal = I("(x1, x1*x2, x1^2*x3)")
        assert ideal.generators == (M("x1"),)

    def test_deduplication(self):
        assert len(I("(x1*x2, x1*x2)")) == 1

    def test_zero_ideal(self):
        z = MonomialIdeal.zero(variable_set(2))
        assert z.is_zero and str(z) == "(0)" and len(z) == 0

    def test_canonical_order_graded_then_lex(self):
        ideal = I("(x2*x3^2, x1^2*x3, x1*x2^2)")
        assert str(ideal) == "(x1^2*x3, x1*x2^2, x2*x3^2)"

    def test_text_round_trip(self):
        for text in ("(0)", "(x1)", "(x1^2*x3, x1*x2^2, x2*x3^2)"):
            assert str(parse_ideal(text, variable_set(3))) == text


@given(ideals())
def test_minimality_invariant(ideal):
    gens = ideal.generators
    for g in gens:
        for h in gens:
            if g is not h:
                assert not divides(g.dense(), h.dense())


class TestColon:
    def test_colon_by_unit(self):
        ideal = I("(x1*x2^2, x2*x3^2)")
        assert colon_by_monomial(ideal, M("1")) == ideal

    def test_divide_out(self):
        assert colon_by_monomial(I("(x1*x2^2)"), M("x1")) == I("(x2^2)")

    def test_colon_of_power_by_its_top_generator(self):
        # I = edge ideal of the weighted triangle, m = the square of its
        # lead generator; m lies in the power, so the colon is the unit
        # ideal, which in particular contains x2^2.
        ideal = power(I("(x1^2*x3, x1*x2^2, x2*x3^2)"), 2)
        m = M("x1^4*x3^2")
        quotient = colon_by_monomial(ideal, m)
        assert in_ideal(quotient, M("x2^2").dense())
        assert contains_ideal(quotient, ideal)
        for g in quotient.generators:
            assert in_ideal(ideal, monomial_product(g, m).dense())

    def test_colon_by_ideal_examples(self):
        assert colon_by_ideal(I("(x1*x2^2, x2*x3^2)"), I("(1)")) == I("(x1*x2^2, x2*x3^2)")
        assert colon_by_ideal(I("(x1*x2)"), I("(x1, x2)")) == I("(x1*x2)")
        assert colon_by_ideal(I("(x1^2)"), I("(x1)")) == I("(x1)")

    def test_colon_by_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            colon_by_ideal(I("(x1)"), MonomialIdeal.zero(variable_set(3)))


@given(ideals(n_vars=3), nonunit_monomials(n_vars=3))
def test_colon_contracts(ideal, m):
    quotient = colon_by_monomial(ideal, m)
    assert contains_ideal(quotient, ideal)
    for g in quotient.generators:
        assert in_ideal(ideal, monomial_product(g, m).dense())


@given(ideals(n_vars=3), monomials(n_vars=3, max_exp=2), monomials(n_vars=3, max_exp=2))
def test_colon_tower(ideal, a, b):
    lhs = colon_by_monomial(colon_by_monomial(ideal, a), b)
    assert lhs == colon_by_monomial(ideal, monomial_product(a, b))


class TestIntersect:
    def test_with_unit(self):
        ideal = I("(x1*x2^2, x2*x3^2)")
        assert intersect(ideal, I("(1)")) == ideal

    def test_principal_coprime(self):
        assert intersect(I("(x1)"), I("(x2)")) == I("(x1*x2)")

    def test_pairwise_lcms_minimalized(self):
        got = intersect(I("(x1*x2^2, x2*x3^2)"), I("(x1^2*x3)"))
        assert got == I("(x1^2*x2^2*x3, x1^2*x2*x3^2)")


@given(ideal_pairs())
def test_intersect_commutes(pair):
    a, b = pair
    assert intersect(a, b) == intersect(b, a)


@given(ideal_pairs())
@settings(max_examples=50)
def test_intersect_members(pair):
    a, b = pair
    both = intersect(a, b)
    for g in both.generators:
        assert in_ideal(a, g.dense()) and in_ideal(b, g.dense())


@given(ideals(n_vars=3))
def test_intersect_idempotent(ideal):
    assert intersect(ideal, ideal) == ideal


@given(ideals(n_vars=2, max_gens=3, max_exp=2))
@settings(max_examples=30)
def test_intersect_associative(ideal):
    a = ideal
    b = colon_by_monomial(ideal, parse_monomial("x1", ideal.variables))
    c = colon_by_monomial(ideal, parse_monomial("x2", ideal.variables))
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


class TestProductPower:
    def test_power_of_triangle_ideal(self):
        # all six pairwise products of the three generators are minimal
        got = power(I("(x1^2*x3, x1*x2^2, x2*x3^2)"), 2)
        expected = I(
            "(x1^4*x3^2, x1^3*x2^2*x3, x1^2*x2^4, x1^2*x2*x3^3, x1*x2^3*x3^2, x2^2*x3^4)"
        )
        assert got == expected

    def test_power_principal(self):
        assert power(I("(x1)"), 3) == I("(x1^3)")

    def test_product_distributes_over_generators(self):
        assert product(I("(x1)"), I("(x2, x3)")) == I("(x1*x2, x1*x3)")

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            power(I("(x1)"), 0)


@given(ideals(n_vars=2, max_gens=2, max_exp=2), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=40)
def test_power_additivity(ideal, s, t):
    assert product(power(ideal, s), power(ideal, t)) == power(ideal, s + t)


class TestPolarize:
    def test_single_generator(self):
        p = polarize(I("(x1^2*x2)", n=2))
        assert p.variables.names == ("x1_1", "x1_2", "x2_1")
        assert str(p) == "(x1_1*x1_2*x2_1)"

    def test_squarefree_is_renaming(self):
        p = polarize(I("(x1*x2, x2*x3)"))
        assert p.variables.names == ("x1_1", "x2_1", "x3_1")
        assert [g.dense() for g in p.generators] == [
            g.dense() for g in I("(x1*x2, x2*x3)").generators
        ]

    def test_two_generators(self):
        p = polarize(parse_ideal("(x^2, x*y)", VariableSet(["x", "y"])))
        assert str(p) == "(x_1*x_2, x_1*y_1)"

    def test_generator_count_preserved(self):
        ideal = I("(x1^3, x1*x2^2, x2*x3^2, x1*x2*x3)")
        assert len(polarize(ideal)) == len(ideal)


@given(ideals(n_vars=3, max_exp=1))
def test_polarize_idempotent_on_squarefree(ideal):
    once = polarize(ideal)
    twice = polarize(once)
    assert sorted(g.dense() for g in twice.generators) == sorted(
        g.dense() for g in once.generators
    )


@given(ideals())
def test_polarize_squarefree_and_degree_preserving(ideal):
    p = polarize(ideal)
    assert all(e <= 1 for g in p.generators for e in g.dense())
    assert sorted(g.degree for g in p.generators) == sorted(
        g.degree for g in ideal.generators
    )


@given(ideals(max_gens=5))
def test_polarize_keeps_the_expanded_generators_in_order(ideal):
    # polarizing keeps divisibility, degree and lex order, so the expanded
    # generators, in the ideal's order, are already minimal and ordered
    p = polarize(ideal)
    index = {name: k for k, name in enumerate(p.variables.names)}
    expanded = []
    for g in ideal.generators:
        v = [0] * len(index)
        for x, e in zip(ideal.variables.names, g.dense()):
            for k in range(1, e + 1):
                v[index[f"{x}_{k}"]] = 1
        expanded.append(tuple(v))
    assert [g.dense() for g in p.generators] == expanded
    assert tuple(expanded) == minimalize_reference(expanded)


class TestSupport:
    def test_polarized_support_size(self):
        p = polarize(I("(x1^2*x2)", n=2))
        assert len(support(g.dense() for g in p.generators)) == 3

    def test_restrict_to_variables(self):
        ideal = I("(x1*x2, x2*x3, x1*x3)")
        assert restrict_to_variables(ideal, {0, 1}) == I("(x1*x2)")


def test_ideal_sum_minimalizes():
    got = ideal_sum(I("(x1^2)"), I("(x1, x2)"))
    assert got == I("(x1, x2)")


def test_generator_over_another_variable_set_is_a_mismatch():
    stray = parse_monomial("x1", variable_set(2))
    with pytest.raises(VariableSetMismatchError):
        MonomialIdeal(variable_set(3), [stray])


# -- the packed kernel against the pairwise-divides reference -------------------

# Exponents at the edges of the 8-, 16- and 32-bit packing fields.
FIELD_EDGES = (127, 128, 255, 256, 2**15 - 1, 2**15, 2**15 + 1)
V2 = variable_set(2)


@st.composite
def edge_ideals(draw, small: bool = False):
    """Ideals in x1, x2 with up to three generators; the empty list is the
    zero ideal and an all-zero vector the unit ideal.  Unless ``small``,
    exponents include the packing-field edges."""
    exps = st.integers(0, 3)
    if not small:
        exps = st.one_of(exps, st.sampled_from(FIELD_EDGES))
    vectors = draw(st.lists(st.lists(exps, min_size=2, max_size=2), max_size=3))
    return MonomialIdeal(V2, [Monomial.from_dense(V2, v) for v in vectors])


def assert_minimal_generators(got: MonomialIdeal, vectors) -> None:
    want = [Monomial.from_dense(got.variables, v) for v in minimalize_reference(vectors)]
    assert list(got.generators) == want
    assert str(got) == ("(" + ", ".join(map(str, want)) + ")" if want else "(0)")
    rebuilt = MonomialIdeal(got.variables, reversed(want))
    assert got == rebuilt and hash(got) == hash(rebuilt)


ZERO2 = MonomialIdeal.zero(V2)
UNIT2 = I("(1)", n=2)


@given(edge_ideals(), edge_ideals(), st.integers(1, 3), monomials(n_vars=2))
@example(ZERO2, UNIT2, 2, Monomial.unit(V2))
@example(UNIT2, I("(x1^128*x2^255, x2^32769)", n=2), 3, M("x1^127*x2", n=2))
@settings(max_examples=60)
def test_operations_match_the_reference(a, b, t, m):
    g = [x.dense() for x in a.generators]
    h = [y.dense() for y in b.generators]
    c = m.dense()
    assert_minimal_generators(a, g)
    assert_minimal_generators(product(a, b), [tuple(map(add, x, y)) for x in g for y in h])
    assert_minimal_generators(intersect(a, b), [tuple(map(max, x, y)) for x in g for y in h])
    assert_minimal_generators(ideal_sum(a, b, a), g + h)
    assert_minimal_generators(
        colon_by_monomial(a, m), [tuple(e - min(e, f) for e, f in zip(x, c)) for x in g]
    )
    powered = g
    for _ in range(t - 1):
        powered = minimalize_reference(tuple(map(add, x, y)) for x in powered for y in g)
    assert_minimal_generators(power(a, t), powered)


@given(edge_ideals(small=True))
@example(ZERO2)
@example(UNIT2)
def test_polarize_matches_the_reference(ideal):
    # slot k of base variable x is the polarized variable x_k
    p = polarize(ideal)
    names = ideal.variables.names
    gens = []
    for g in ideal.generators:
        factors = [f"{x}_{k}" for x, e in zip(names, g.dense()) for k in range(1, e + 1)]
        gens.append(parse_monomial("*".join(factors) or "1", p.variables).dense())
    assert_minimal_generators(p, gens)


def test_power_past_the_degree_cap_raises():
    half = MonomialIdeal(V2, [Monomial.from_dense(V2, (DEGREE_CAP // 2, 0))])
    assert power(half, 2).generators[0].degree == DEGREE_CAP
    with pytest.raises(DegreeCapError):
        power(half, 3)
    with pytest.raises(DegreeCapError):
        product(half, power(half, 2))
    # a kept generator past the cap raises, though the least one is far below it
    with pytest.raises(DegreeCapError):
        power(MonomialIdeal(V2, [M("x1", n=2), Monomial.from_dense(V2, (0, 600_000))]), 2)


def test_degree_cap_applies_to_kept_generators_only():
    # the top product x1^520000*x2^520000 is past the cap, but x1^390000*x2^390000 divides it
    squared = power(I("(x1^390000, x2^390000, x1^260000*x2^260000)", n=2), 2)
    assert squared == I(
        "(x1^780000, x1^650000*x2^260000, x1^390000*x2^390000, x1^260000*x2^650000, x2^780000)",
        n=2,
    )
    assert max(g.degree for g in squared.generators) == 910_000


def test_power_past_the_cap_fails_before_multiplying(monkeypatch):
    # every generator of I^t has degree at least t times the least degree in I
    import edgereg.ideals as ideals_module

    def no_product(a, b):
        raise AssertionError("power multiplied before checking the degree cap")

    monkeypatch.setattr(ideals_module, "product", no_product)
    with pytest.raises(DegreeCapError, match="degree 1200000 exceeds cap"):
        power(I("(x1*x2, x1^5)", n=2), 600_000)


@pytest.mark.parametrize("text", ["(0)", "(1)"])
def test_power_of_the_zero_or_unit_ideal_is_itself_without_multiplying(monkeypatch, text):
    # (0)^t = (0) and (1)^t = (1), at any t
    import edgereg.ideals as ideals_module

    def no_product(a, b):
        raise AssertionError("power multiplied an ideal that its powers equal")

    monkeypatch.setattr(ideals_module, "product", no_product)
    assert power(I(text, n=2), 100_000_000) == I(text, n=2)


@pytest.mark.parametrize(
    "text, t, want, most",
    [
        ("(x1)", 900_000, [(900_000, 0)], 0),  # a principal ideal needs no product
        ("(x1, x2)", 100, [(100 - k, k) for k in range(101)], 2 * math.ceil(math.log2(100))),
    ],
    ids=["principal", "two-generators"],
)
def test_power_forms_at_most_two_products_per_bit(monkeypatch, text, t, want, most):
    # multiplying t - 1 times would form 899,999 products of (x1) here
    import edgereg.ideals as ideals_module

    calls = []

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(ideals_module, "product", counting)
    assert power(I(text, n=2), t) == MonomialIdeal(V2, [Monomial.from_dense(V2, v) for v in want])
    assert len(calls) <= most


@pytest.mark.parametrize("seed", range(12))
def test_a_square_has_the_generators_of_the_product_with_a_copy(seed):
    # product(a, a) sums each unordered pair once; a copy of a takes the general path
    ideal = (seeded_random_ideal(f"square:{seed}", max_generators=6) if seed
             else power(edge_ideal(make_cycle([2, 3, 2, 2, 2])), 2))
    copy = MonomialIdeal._of(ideal.variables, ideal._exps)
    assert product(ideal, ideal)._exps == product(ideal, copy)._exps


@given(ideals(n_vars=3, max_gens=3, max_exp=2), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_power_matches_repeated_products(ideal, t):
    expected = ideal
    for _ in range(t - 1):
        expected = product(expected, ideal)
    assert power(ideal, t) == expected
