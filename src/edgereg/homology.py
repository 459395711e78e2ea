"""Reduced simplicial homology over Q or GF(2), exactly.

Complexes are given in covered form -- a union of full simplices given
by their vertex bitmasks -- which is how the Betti engine sees a slice.
Faces are never enumerated until the complex has been shrunk.  A union
of simplices is homotopy equivalent to the nerve of the cover, and the
nerve of ``{M_1, ..., M_k}`` on vertex set V is again a union of
simplices, covered by ``{W_v : v in V}`` with ``W_v = {i : v in M_i}``.
The reduction is one strong-collapse loop on the incidence matrix
(Barmak-Minian): each round drops the covers contained in another cover
(the row step), stops if the survivors share a vertex (a cone has no
reduced homology), and reads the columns ``W_v`` off the set bits (the
column step).  The columns are the covers of the nerve, on dense labels
0..k-1; the loop stops when the nerve would not have fewer vertices, and
the last columns give the memo key.  On the survivor, reduced
homology is that of the pair (K, st v) for an apex v chosen from the
covers: the closed star of v is the union of the covers through v, a
cone, so the long exact sequence of the pair gives the reduced homology
of K, over the integers, from the chains of the faces outside the star.
Only the covers that miss v are enumerated.

A round also stops if every k - 1 of its k covers share a vertex: then the
nerve is the boundary of the (k-1)-simplex, and by the nerve lemma
(Bjoerner 1995) K is a (k-2)-sphere up to homotopy, over Q and GF(2) alike.
One empty cover is the case k = 1: the empty-face-only complex, a (-1)-sphere.

Conventions: the void complex (no faces at all) has no homology in any
degree; the complex containing only the empty face has reduced homology
of rank 1 in degree -1.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_

from .errors import ResourceCapError
from .linalg import rank_gf2, rank_int

FIELD_Q = "Q"
FIELD_GF2 = "GF2"
FIELDS = (FIELD_Q, FIELD_GF2)

# Hard ceiling on faces materialized for a single complex.
MAX_FACES = 1 << 20


def _check_field(field: str) -> None:
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")


def maximal_masks(masks) -> list[int]:
    """Drop masks contained in another mask; result sorted descending."""
    distinct = sorted(set(masks), reverse=True)
    distinct.sort(key=int.bit_count, reverse=True)  # stable: by size, then value
    out: list[int] = []
    for m in distinct:
        for o in out:
            if m | o == o:
                break
        else:
            out.append(m)
    return out


def enumerate_union_faces(covers: list[int]) -> set[int]:
    """All subsets of the given masks (the faces of the covered complex),
    at most ``MAX_FACES`` of them."""
    cap = MAX_FACES
    faces: set[int] = {0}
    for mask in covers:
        sub = mask
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
            if len(faces) > cap:
                raise ResourceCapError(
                    f"slice complex exceeds the face cap MAX_FACES={cap}"
                )
    return faces


def boundary_rank_table(covers: list[int], field: str) -> tuple[dict[int, int], dict[int, int]]:
    """Per-dimension cell counts and boundary ranks of the pair (K, st v).

    K is the union of the full simplices on the vertex bitmasks
    ``covers``.  The apex v is the vertex with the largest sum of 2^|C|
    over the covers C that contain it (the lowest such bit on a tie; with
    no vertex at all the star is empty and K is kept whole).  Its closed
    star st v -- every face s with s | v in K, the empty face included --
    is the union of the covers through v, so the cells, the faces of K
    outside st v, are the faces of the other covers that lie in no cover
    through v; only the covers that miss v are enumerated.  A boundary
    term that lands in the star is zero in the quotient C(K)/C(st v).
    The star is a cone, hence contractible, so by the long exact sequence
    of the pair H_d(K, st v) is the reduced homology of K in every
    degree, over the integers and so over either field.  Columns are
    ordered by mask value so runs are reproducible.
    """
    _check_field(field)
    weight: dict[int, int] = {}
    for cover in covers:
        w = 1 << cover.bit_count()
        while cover:
            bit = cover & -cover
            weight[bit] = weight.get(bit, 0) + w
            cover ^= bit
    apex = max(weight, key=lambda bit: (weight[bit], -bit), default=0)
    star = [c for c in covers if c & apex]
    by_dim: dict[int, list[int]] = {}
    for f in enumerate_union_faces([c for c in covers if not c & apex]):
        for c in star:
            if f | c == c:
                break
        else:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort()
    counts = {d: len(fs) for d, fs in by_dim.items()}
    ranks: dict[int, int] = {}
    for d in sorted(by_dim):
        if d - 1 not in by_dim:
            continue
        target_index = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            row = {}
            sign = 1
            v = f
            while v:
                bit = v & -v
                if (i := target_index.get(f ^ bit)) is not None:
                    row[i] = sign
                sign = -sign
                v ^= bit
            rows.append(row)
        if field == FIELD_GF2:
            ranks[d] = rank_gf2([sum(1 << i for i in row) for row in rows], counts[d - 1])
        else:
            ranks[d] = rank_int(rows, counts[d - 1])
    return counts, ranks


@lru_cache(maxsize=65536)
def _covered_homology_cached(covers: tuple[int, ...], field: str) -> tuple[tuple[int, int], ...]:
    counts, ranks = boundary_rank_table(list(covers), field)
    for d, r in ranks.items():
        if not 0 <= r <= min(counts[d], counts.get(d - 1, 0)):
            raise AssertionError(
                f"boundary rank {r} out of bounds for chain sizes in dimension {d}"
            )
    out = []
    for d, cd in sorted(counts.items()):
        h = cd - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h < 0:
            raise AssertionError("negative homology rank: boundary ranks inconsistent")
        if h:
            out.append((d, h))
    return tuple(out)


def covered_homology(covers: list[int], field: str) -> dict[int, int]:
    """Reduced homology of a union of full simplices.

    ``covers`` are vertex bitmasks, with any labels; the vertices are the
    ones some cover contains, and every face of the complex is a subset of
    one cover.  The empty face is always present (as in
    :func:`enumerate_union_faces`), so an empty cover family is the
    empty-face-only complex, not the void complex.  A vertex shared by all
    covers cones the complex; only the covers of a complex that is not such
    a cone are reduced.  A round whose k covers are a (k-2)-sphere (see
    above) returns it; any other survivor is relabelled by the sorted
    vertex signatures before it reaches the memo.
    """
    _check_field(field)
    if not covers:
        return {-1: 1}
    if reduce(and_, covers):
        return {}  # a common vertex cones the complex
    rows = maximal_masks(covers)
    while True:
        pre = list(accumulate(rows, and_, initial=-1))  # pre[i]: the AND of rows[:i]
        if pre[-1]:
            return {}  # a common vertex cones the complex
        suf = list(accumulate(rows[::-1], and_, initial=-1))[::-1]  # suf[i]: of rows[i:]
        if all(map(and_, pre, suf[1:])):
            return {len(rows) - 2: 1}  # every k - 1 of the k rows meet: a (k-2)-sphere
        cols: dict[int, int] = {}
        for i, row in enumerate(rows):
            row_bit = 1 << i
            while row:
                bit = row & -row
                cols[bit] = cols.get(bit, 0) | row_bit
                row ^= bit
        if len(rows) >= len(cols):
            break
        # nerve: strictly fewer vertices, labelled by row index
        rows = maximal_masks(cols.values())
    # the memo key permutes vertices, so it is safe without being a true
    # canonical form: vertex j is the j-th smallest signature, and vertices
    # with equal signatures are interchangeable, so ties need no order
    key = [0] * len(rows)
    for j, sig in enumerate(sorted(cols.values())):
        while sig:
            bit = sig & -sig
            key[bit.bit_length() - 1] |= 1 << j
            sig ^= bit
    return dict(_covered_homology_cached(tuple(sorted(key)), field))
