from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereg.errors import ResourceCapError
from edgereg.linalg import MAX_MATRIX_DIM, rank_gf2, rank_int

from oracles import fraction_rank, mod2_rank


def sparse(m: list[list[int]]) -> list[dict[int, int]]:
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def sparse_rank(m: list[list[int]]) -> int:
    return rank_int(sparse(m), len(m[0]))


@st.composite
def int_matrices(draw, max_dim: int = 6, lo: int = -4, hi: int = 4, entries=None):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    cell = entries if entries is not None else st.integers(lo, hi)
    return [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def rank_deficient_matrices(draw):
    """Products A @ B with inner dimension below min(m, n)."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(m, n) - 1))
    a = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(m)]
    b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@given(int_matrices())
def test_rank_int_matches_fraction_elimination(m):
    assert sparse_rank(m) == fraction_rank(m)


@given(rank_deficient_matrices())
@settings(max_examples=150)
def test_rank_int_on_low_rank_products(m):
    got = sparse_rank(m)
    assert got == fraction_rank(m)
    assert got < min(len(m), len(m[0]))


NON_UNITS = st.sampled_from([v for v in range(-9, 10) if v not in (-1, 0, 1)])


@given(int_matrices(max_dim=7, entries=NON_UNITS))
@settings(max_examples=150)
def test_rank_int_without_unit_entries(m):
    # no +-1 anywhere, so the first pivot of every matrix is a gcd pivot
    assert sparse_rank(m) == fraction_rank(m)


@st.composite
def minus_one_unit_matrices(draw):
    """Rows with no +1 entry, plus copies scaled by factors that make none."""
    ncols = draw(st.integers(1, 6))
    cell = st.sampled_from([-4, -3, -2, -1, 0, 0, 0, 2, 3, 4])
    base = [[draw(cell) for _ in range(ncols)] for _ in range(draw(st.integers(1, 5)))]
    copies = [
        [s * v for v in draw(st.sampled_from(base))]
        for s in draw(st.lists(st.sampled_from([1, 2, 3, -2, -3]), max_size=4))
    ]
    rows = base + copies
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@given(minus_one_unit_matrices())
@settings(max_examples=200)
def test_rank_int_when_the_only_units_are_minus_one(m):
    assert all(v != 1 for row in m for v in row)
    assert sparse_rank(m) == fraction_rank(m)


@st.composite
def large_entry_matrices(draw):
    """Row-scaled products with entries up to 10**6, dependent or not."""
    m = draw(st.one_of(rank_deficient_matrices(), int_matrices(max_dim=5)))
    top = 10**6 // max(1, max(abs(v) for row in m for v in row))
    scales = [draw(st.integers(-top, top).filter(bool)) for _ in m]
    return [[s * v for v in row] for s, row in zip(scales, m)]


@given(large_entry_matrices())
@settings(max_examples=150)
def test_rank_int_on_large_entries(m):
    assert all(abs(v) <= 10**6 for row in m for v in row)
    assert sparse_rank(m) == fraction_rank(m)


def boundary_matrices(covers: list[int]) -> list[list[list[int]]]:
    """Dense signed boundary matrices of the complex the covers generate."""
    faces = {sub for mask in covers for sub in range(mask + 1) if sub & mask == sub}
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    out = []
    for d in sorted(by_dim):
        if d - 1 not in by_dim:
            continue
        index = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            row = [0] * len(index)
            vertices = [v for v in range(f.bit_length()) if f >> v & 1]
            for k, v in enumerate(vertices):
                row[index[f ^ (1 << v)]] = (-1) ** k
            rows.append(row)
        out.append(rows)
    return out


def bitmask_rows(m: list[list[int]]) -> list[int]:
    return [sum((cell & 1) << c for c, cell in enumerate(row)) for row in m]


@given(st.lists(st.integers(1, (1 << 7) - 1), min_size=1, max_size=6), st.randoms())
@settings(max_examples=120, deadline=None)
def test_rank_int_on_boundary_matrices_and_their_transposes(covers, rnd):
    # both kernels, over Q and over GF(2); pivot rows depend on the order
    # the rows arrive in, so each matrix is also taken with its rows shuffled
    for m in boundary_matrices(covers):
        expected, expected_mod2 = fraction_rank(m), mod2_rank(m)
        transposed = [list(col) for col in zip(*m)]
        for rows in (m, transposed, rnd.sample(m, len(m)), rnd.sample(transposed, len(transposed))):
            assert sparse_rank(rows) == expected
            assert rank_gf2(bitmask_rows(rows), len(rows[0])) == expected_mod2


def test_rank_int_empty_and_zero():
    assert rank_int([], 0) == 0
    assert sparse_rank([[0, 0], [0, 0]]) == 0
    assert sparse_rank([[1, 0], [0, 1]]) == 2


def test_rank_int_does_not_mutate_input():
    # rows are reduced against pivot rows keyed by their highest column: row 0
    # is the pivot row of column 1; row 1 is scaled by 4, reduced against it
    # and divided by 2; row 2 is a pivot row as it is; row 3 is reduced
    # against row 0 without scaling, then against row 1 to zero
    m = [{0: 2, 1: 4}, {0: 1, 1: 3}, {0: -1, 2: 5}, {0: 2, 1: 8}]
    assert rank_int(m, 3) == 3
    assert m == [{0: 2, 1: 4}, {0: 1, 1: 3}, {0: -1, 2: 5}, {0: 2, 1: 8}]


@given(int_matrices(lo=0, hi=1))
def test_rank_gf2_matches_dense_mod2(m):
    assert rank_gf2(bitmask_rows(m), len(m[0])) == mod2_rank(m)


def test_rank_gf2_simple():
    # rows 101, 011, 110: third is the XOR of the first two
    assert rank_gf2([0b101, 0b110, 0b011], 3) == 2


def test_dimension_cap():
    with pytest.raises(ResourceCapError):
        rank_int([{}], MAX_MATRIX_DIM + 1)
    with pytest.raises(ResourceCapError):
        rank_gf2([1] * (MAX_MATRIX_DIM + 1), 1)
