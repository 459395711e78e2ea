"""Exact matrix ranks over the integers and over GF(2), by one loop.

Both routines take a matrix as a list of rows.  Integer rows are
``{column: nonzero int}`` dicts; GF(2) rows are ints used as bitmasks
(bit c = column c).  Each row is reduced against the pivot rows kept so
far, keyed by their highest column, until its highest column has no pivot
row (it becomes one) or it is zero: the "lowest one" reduction of
persistent homology (Zomorodian--Carlsson 2005), with columns read from the
top.  The rank is the number of pivot rows.  Each elimination step must
clear the row's top column; a step that does not raises ``AssertionError``
naming the column, so a fault there fails at once instead of looping.
"""

from __future__ import annotations

from math import gcd

from .errors import ResourceCapError

# Boundary matrices after slice reduction are small; anything bigger
# signals a runaway input and should fail fast rather than thrash.  Sparse
# rows cost memory by their nonzeros, but fill-in during elimination can
# make them dense, so the cap bounds both dimensions for both kernels.
MAX_MATRIX_DIM = 4096


def _check_dims(nrows: int, ncols: int) -> None:
    if nrows > MAX_MATRIX_DIM or ncols > MAX_MATRIX_DIM:
        raise ResourceCapError(
            f"matrix of shape {nrows}x{ncols} exceeds the dimension cap "
            f"MAX_MATRIX_DIM={MAX_MATRIX_DIM}"
        )


def rank_int(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over the rationals of a sparse integer matrix, computed exactly.

    A row holding ``a`` at the highest column of a pivot row ``piv`` with
    ``p`` there becomes ``(p/g)*row - (a/g)*piv`` with ``g = gcd(p, a)``;
    a row scaled by ``p/g != 1`` is then divided by the gcd of its entries.
    A pivot row is kept with a positive entry at its highest column, so a
    unit pivot entry, the usual one, is 1 and needs no scaling.  Each update
    scales a row by a nonzero integer and adds a multiple of a pivot row,
    so the rank over Q is kept exactly.  The input is not modified.
    """
    _check_dims(len(rows), ncols)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            top = max(row)
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = row if row[top] > 0 else {c: -v for c, v in row.items()}
                break
            p, a = piv[top], row[top]
            g = gcd(p, a)
            s, f = p // g, a // g
            if s != 1:
                row = {c: s * v for c, v in row.items()}
            for c, v in piv.items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    del row[c]
            if top in row:
                raise AssertionError(f"integer elimination left column {top} in its row")
            if s != 1 and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return len(pivots)


def rank_gf2(rows: list[int], ncols: int) -> int:
    """Rank over GF(2); rows are bitmask ints."""
    _check_dims(len(rows), ncols)
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = r
                break
            r ^= piv
            if r.bit_length() >= top:
                raise AssertionError(f"GF(2) elimination left column {top - 1} in its row")
    return len(pivots)
