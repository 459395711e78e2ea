"""Exact matrix ranks: sparse unit-pivot elimination over the integers and
bit-packed elimination over GF(2).

Both routines take a matrix as a list of rows.  Integer rows are
``{column: nonzero int}`` dicts; GF(2) rows are ints used as bitmasks
(bit c = column c).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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

    Sparse elimination over the integers that prefers unit pivots
    (Dumas--Saunders--Villard 2001).  Each step takes the live row with the
    fewest nonzeros and pivots on its +-1 entry whose column meets the
    fewest other rows, or on its smallest entry if it has no unit.  Every
    other row ``r`` holding ``a`` in the pivot column becomes
    ``r - (a*p)*piv`` for a unit pivot ``p`` and ``(p/g)*r - (a/g)*piv``
    with ``g = gcd(p, a)`` otherwise, then divided by the gcd of its
    entries.  Each update scales a row by a nonzero integer and adds a
    multiple of another, so the rank over Q is kept exactly.  The input is
    not modified.
    """
    _check_dims(len(rows), ncols)
    live: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> live rows with a nonzero there
    for i, row in enumerate(rows):
        entries = {c: v for c, v in row.items() if v}
        if entries:
            live[i] = entries
            for c in entries:
                where.setdefault(c, set()).add(i)
    # (length, row) entries; an entry whose length is stale is skipped
    queue = [(len(entries), i) for i, entries in live.items()]
    heapify(queue)
    rank = 0
    while queue:
        n, i = heappop(queue)
        if len(live.get(i, ())) != n:
            continue
        piv = live.pop(i)
        for c in piv:
            where[c].discard(i)
        units = [c for c, v in piv.items() if v == 1 or v == -1]
        if units:
            col = min(units, key=lambda c: len(where[c]))
        else:
            col = min(piv, key=lambda c: abs(piv[c]))
        p = piv[col]
        unit = p == 1 or p == -1
        rest = [(c, v) for c, v in piv.items() if c != col]
        for j in where.pop(col):
            row = live[j]
            a = row.pop(col)
            if unit:
                f = a * p
            else:
                g = gcd(p, a)
                f, s = a // g, p // g
                for c in row:
                    row[c] *= s
            for c, v in rest:
                w = row.get(c, 0) - f * v
                if w:
                    if c not in row:
                        where[c].add(j)
                    row[c] = w
                elif c in row:
                    del row[c]
                    where[c].discard(j)
            if not row:
                del live[j]
                continue
            if not unit:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
            heappush(queue, (len(row), j))
        rank += 1
    return rank


def rank_gf2(rows: list[int], ncols: int) -> int:
    """Rank over GF(2); rows are bitmask ints."""
    _check_dims(len(rows), ncols)
    work = [r for r in rows if r]
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = None
        for i in range(rank, len(work)):
            if work[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        piv = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i] & bit:
                work[i] ^= piv
        rank += 1
        if rank == len(work):
            break
    return rank
