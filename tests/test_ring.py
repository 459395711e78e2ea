from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import edgereg.ring as ring
from edgereg.errors import DegreeCapError, ParseError, ResourceCapError
from edgereg.ring import Monomial, VariableSet, parse_monomial

from conftest import monomials, variable_set
from oracles import divides, join


def M(text: str, n: int = 3) -> Monomial:
    return parse_monomial(text, variable_set(n))


def lcm(*monomials: Monomial) -> tuple[int, ...]:
    """The lcm of the monomials through the packed join of the engine."""
    vectors = [m.dense() for m in monomials]
    pk = ring._Packing(len(vectors[0]), vectors)
    joined, *rest = map(pk.pack, vectors)
    for g in rest:
        (joined,) = pk.joins(pk.slots([joined, g]), g, 1)
    return pk.unpack(joined)


class TestVariableSet:
    def test_order_is_fixed(self):
        vs = VariableSet(["b", "a", "c"])
        assert vs.names == ("b", "a", "c")
        assert vs.index("a") == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            VariableSet(["x", "x"])

    def test_bad_name_rejected(self):
        with pytest.raises(ParseError):
            VariableSet(["1x"])
        with pytest.raises(ParseError):
            VariableSet(["x y"])


class TestMonomial:
    def test_zero_exponents_absent(self):
        m = Monomial.from_dense(variable_set(3), [2, 0, 0])
        assert m.dense() == (2, 0, 0) and str(m) == "x1^2"

    def test_unit(self):
        u = Monomial.unit(variable_set(2))
        assert u.dense() == (0, 0) and u.degree == 0 and str(u) == "1"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial.from_dense(variable_set(2), (-1, 0))

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError) as err:
            Monomial.from_dense(variable_set(1), (ring.DEGREE_CAP + 1,))
        # a cap like every other, and still the ValueError it always was
        assert isinstance(err.value, ResourceCapError) and isinstance(err.value, ValueError)

    def test_lcm_componentwise_max(self):
        assert lcm(M("x1^2*x2"), M("x2^3")) == M("x1^2*x2^3").dense()

    def test_lcm_unit_identity(self):
        m = M("x1*x3^2")
        assert lcm(M("1"), m) == m.dense()

    def test_lcm_hand_derived(self):
        # exponent vectors (2,0,1) and (1,2,0) -> componentwise max (2,2,1)
        assert lcm(M("x1^2*x3"), M("x1*x2^2")) == M("x1^2*x2^2*x3").dense()

    def test_canonical_text_orders_by_variable(self):
        m = Monomial.from_dense(variable_set(3), (2, 0, 1))
        assert str(m) == "x1^2*x3"

    def test_parse_rejects_garbage(self):
        vs = variable_set(2)
        for bad in ("", "x1^", "x1^0", "x9", "x1**x2"):
            with pytest.raises(ParseError):
                parse_monomial(bad, vs)


def from_mapping(variables: VariableSet, exponents: dict) -> Monomial:
    """A monomial from {index: exponent} pairs: the pairs go through the
    engine's _check_exponents, the error path of from_dense, and the dense
    tuple through from_dense."""
    ring._check_exponents(len(variables), exponents.items())
    return Monomial.from_dense(
        variables, [exponents.get(i, 0) for i in range(len(variables))]
    )


class TestConstructorChecks:
    """from_dense refuses non-int, bool and negative exponents, a tuple of
    the wrong length and a degree past the cap; _check_exponents refuses
    the same exponents as (index, exponent) pairs, and an index out of
    range."""

    VS = variable_set(2)

    @pytest.mark.parametrize("exponents, error", [
        ({0: 1.0}, TypeError),
        ({0: "2"}, TypeError),
        ({0: True}, TypeError),
        ({1: False}, TypeError),
        ({0: -1}, ValueError),
        ({2: 1}, IndexError),
        ({-1: 1}, IndexError),
        ({0: ring.DEGREE_CAP, 1: 1}, DegreeCapError),
    ])
    def test_mapping(self, exponents, error):
        with pytest.raises(error):
            from_mapping(self.VS, exponents)

    @pytest.mark.parametrize("exps, error", [
        ((1.0, 0), TypeError),
        ((0, "2"), TypeError),
        ((True, 0), TypeError),
        ((0, False), TypeError),
        ((-1, 0), ValueError),
        ((0, 0, 1), IndexError),
        ((0, 0, 0), ValueError),
        ((1,), ValueError),
        ((), ValueError),
        ((ring.DEGREE_CAP, 1), DegreeCapError),
    ])
    def test_dense(self, exps, error):
        with pytest.raises(error):
            Monomial.from_dense(self.VS, exps)

    def test_zero_exponent_out_of_range_is_ignored(self):
        assert from_mapping(self.VS, {5: 0}) == Monomial.unit(self.VS)

    def test_dense_is_the_stored_tuple(self):
        m = Monomial.from_dense(self.VS, [2, 0])
        assert m.dense() == (2, 0) and m.dense() is m.dense()


@given(monomials())
def test_both_constructors_agree(m):
    # from_dense checks its input; _new, the engine's fast path, does not
    checked = Monomial.from_dense(m.variables, list(m.dense()))
    unchecked = Monomial._new(m.variables, m.dense())
    assert checked == unchecked == m
    assert hash(checked) == hash(unchecked) == hash(m)


@given(monomials())
def test_text_round_trip(m):
    assert parse_monomial(str(m), m.variables) == m


@given(monomials(n_vars=3), monomials(n_vars=3))
def test_lcm_divisible_by_both(a, b):
    l = lcm(a, b)
    assert divides(a.dense(), l) and divides(b.dense(), l)
    # and it is the least one
    assert l == tuple(map(max, a.dense(), b.dense()))


@pytest.mark.parametrize(
    "n, top, width",
    [(1, 127, 8), (1, 128, 16), (2, 127, 8), (3, 84, 8), (3, 85, 16), (3, 21844, 16), (3, 21845, 32)],
)
def test_packed_fields_hold_the_total_degree(n, top, width):
    # the guard bit and n * top < 2**width - 1 together pick the width
    pk = ring._Packing(n, [(top,) * n])
    assert pk.shift + 1 == width
    assert pk.pack((top,) * n) % pk.mod == n * top


def test_one_packing_per_variable_count_and_field_width():
    narrow = ring._Packing(3, [(1, 2, 3)])
    assert ring._Packing(3, [(0, 0, 84)]) is narrow
    wide = ring._Packing(3, [(1, 2, 3)], 50)  # 150 takes two-byte fields
    assert wide is ring._Packing(3, [(85, 0, 0)]) is not narrow
    assert (narrow.mod, wide.mod) == ((1 << 8) - 1, (1 << 16) - 1)
    assert wide.pack((150, 0, 1)) % wide.mod == 151
    assert ring._Packing(4, [(1, 2, 3, 4)]) is not narrow


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 300)] * n), min_size=1, max_size=4)))
def test_packed_degree_is_the_sum_of_the_exponents(vectors):
    pk = ring._Packing(len(vectors[0]), vectors)
    join = tuple(map(max, zip(*vectors)))  # the lcm of them all has the largest degree
    for v in [*vectors, join]:
        assert pk.pack(v) % pk.mod == sum(v)


@st.composite
def pivots(draw):
    """Exponent vectors of 1 to 11 variables and a pivot k, 1 <= k < r.

    The largest exponent picks the fields: 127 and 128 straddle the guard
    bit of a one-byte field, and past 255 they take two bytes.  From 9
    variables on, even one-byte records are wider than one 64-bit slot.
    """
    n = draw(st.integers(1, 11))
    top = draw(st.sampled_from([4, 127, 128, 255, 256, 300]))
    exponent = st.one_of(st.integers(0, 4), st.just(top))
    vectors = draw(st.lists(st.tuples(*[exponent] * n), min_size=2, max_size=9))
    return vectors, draw(st.integers(1, len(vectors) - 1))


@given(pivots())
@example(([(1,) * 9, (2,) + (0,) * 8, (0,) * 8 + (3,)], 2))  # 9 one-byte fields in two words
@example(([(128, 0), (0, 300), (127, 1)], 1))  # two-byte fields in one word
def test_slot_joins_are_the_tuple_wise_max(case):
    vectors, k = case
    pk = ring._Packing(len(vectors[0]), vectors)
    packed = list(map(pk.pack, vectors))
    joins = pk.joins(pk.slots(packed), packed[k], k)
    assert [pk.unpack(b) for b in joins] == [join(v, vectors[k]) for v in vectors[:k]]


@given(pivots())
@example(([(1,) * 9, (2,) + (0,) * 8, (0,) * 8 + (3,)], 2))  # 9 one-byte fields in two words
@example(([(128, 0), (0, 300), (127, 1)], 1))  # two-byte fields in one word
@example(([(), ()], 1))  # no variables: zero-byte vectors in one-word slots
def test_slot_covers_are_the_fields_where_a_divisor_is_below(case):
    vectors, k = case
    pk = ring._Packing(len(vectors[0]), vectors)
    b = tuple(map(max, *vectors[:k + 1]))  # a join of some of them
    width, n = pk.shift + 1, len(b)
    expected = [sum(1 << ((n - 1 - j) * width + pk.shift) for j in range(n) if g[j] < b[j])
                for g in vectors if divides(g, b)]
    assert pk.covers(pk.slots(list(map(pk.pack, vectors))), pk.pack(b), len(vectors)) == expected
