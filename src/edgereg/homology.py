"""Reduced simplicial homology over Q or GF(2), exactly.

Complexes are given in covered form -- a union of full simplices given
by their vertex bitmasks -- which is how the Betti engine sees a slice.
Faces are never enumerated until the complex has been shrunk.  A union
of simplices is homotopy equivalent to the nerve of the cover, and the
nerve of ``{M_1, ..., M_k}`` on vertex set V is again a union of
simplices, covered by ``{W_v : v in V}`` with ``W_v = {i : v in M_i}``.
Transposing back and forth strictly reduces the vertex count until it
stabilizes (each side is bounded by the other side's cover count), and a
complex whose maximal cover sets share a vertex is a cone, hence has no
reduced homology.  All reductions preserve homotopy type, so reduced
homology is computed on the small survivor, as the homology of the pair
(K, st v) for the vertex v in the most faces: the closed star of v is a
cone, so the long exact sequence of the pair gives the reduced homology
of K, over the integers, from the chains of the faces outside the star.

Conventions: the void complex (no faces at all) has no homology in any
degree; the complex containing only the empty face has reduced homology
of rank 1 in degree -1.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_

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
    distinct = sorted(set(masks), key=lambda m: (-m.bit_count(), -m))
    out: list[int] = []
    for m in distinct:
        if not any(m | o == o for o in out):
            out.append(m)
    return out


def enumerate_union_faces(covers: list[int], cap: int = MAX_FACES) -> set[int]:
    """All subsets of the given masks (the faces of the covered complex)."""
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


def boundary_rank_table(faces: set[int], field: str) -> tuple[dict[int, int], dict[int, int]]:
    """Per-dimension cell counts and boundary ranks of the pair (K, st v).

    Faces are bitmasks of a nonvoid complex K.  The apex v is the vertex
    in the most faces (the lowest such bit on a tie; with no vertex at all
    the star is empty and K is kept whole), and its closed star
    st v -- every face s with s | v in K, the empty face included -- is
    dropped: the cells are the remaining faces, and a boundary term that
    lands in the star is zero in the quotient C(K)/C(st v).  The star is
    a cone, hence contractible, so by the long exact sequence of the pair
    H_d(K, st v) is the reduced homology of K in every degree, over the
    integers and so over either field.  Columns are ordered by mask value
    so runs are reproducible.
    """
    _check_field(field)
    apex = 1 << max(range(reduce(or_, faces).bit_length()), default=0,
                    key=lambda i: len([f for f in faces if f >> i & 1]))
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        if f | apex not in faces:
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


def homology_from_faces(faces: set[int], field: str) -> dict[int, int]:
    """Reduced homology ranks {dimension: rank}, zero ranks omitted."""
    if not faces:
        return {}
    if faces == {0}:
        return {-1: 1}
    counts, ranks = boundary_rank_table(faces, field)
    for d, r in ranks.items():
        if not 0 <= r <= min(counts[d], counts.get(d - 1, 0)):
            raise AssertionError(
                f"boundary rank {r} out of bounds for chain sizes in dimension {d}"
            )
    out: dict[int, int] = {}
    for d, cd in counts.items():
        h = cd - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h < 0:
            raise AssertionError("negative homology rank: boundary ranks inconsistent")
        if h:
            out[d] = h
    return out


def _transpose_cover(covers: list[int], nverts: int) -> list[int]:
    out = []
    for v in range(nverts):
        bit = 1 << v
        m = 0
        for i, mask in enumerate(covers):
            if mask & bit:
                m |= 1 << i
        out.append(m)
    return out


def _canonical_cover(covers: list[int], nverts: int) -> tuple[int, ...]:
    """Relabel vertices by their cover-membership signature.

    Only needs to be isomorphism-safe (it permutes vertices), not a true
    canonical form; it exists so structurally identical slices hit the
    homology cache.
    """
    sigs = _transpose_cover(covers, nverts)
    order = sorted(range(nverts), key=lambda v: (sigs[v], v))
    relabel = {old: new for new, old in enumerate(order)}
    remapped = []
    for mask in covers:
        m = 0
        v = mask
        while v:
            bit = v & -v
            m |= 1 << relabel[bit.bit_length() - 1]
            v ^= bit
        remapped.append(m)
    return tuple(sorted(remapped))


@lru_cache(maxsize=65536)
def _covered_homology_cached(covers: tuple[int, ...], field: str) -> tuple[tuple[int, int], ...]:
    faces = enumerate_union_faces(list(covers))
    return tuple(sorted(homology_from_faces(faces, field).items()))


def _compact(masks: list[int]) -> tuple[list[int], int]:
    """Relabel the vertices the masks use to 0..k-1, keeping their order."""
    used = reduce(or_, masks)
    label = {}
    while used:
        bit = used & -used
        label[bit] = 1 << len(label)
        used ^= bit
    out = []
    for mask in masks:
        m = 0
        while mask:
            bit = mask & -mask
            m |= label[bit]
            mask ^= bit
        out.append(m)
    return out, len(label)


def covered_homology(covers: list[int], field: str) -> dict[int, int]:
    """Reduced homology of a union of full simplices.

    ``covers`` are vertex bitmasks, with any labels; the vertices are the
    ones some cover contains, and every face of the complex is a subset of
    one cover.  The empty face is always present (as in
    :func:`enumerate_union_faces`), so an empty cover family is the
    empty-face-only complex, not the void complex.  A vertex shared by all
    covers cones the complex; only the covers of a complex that is not such
    a cone are relabelled to dense vertices and reduced.
    """
    _check_field(field)
    if not covers:
        return {-1: 1}
    if reduce(and_, covers):
        return {}  # a common vertex cones the complex
    live = maximal_masks(covers)
    if live == [0]:
        return {-1: 1}
    live, nverts = _compact([m for m in live if m])
    while True:
        inter = live[0]
        for m in live[1:]:
            inter &= m
        if inter:
            return {}  # a common vertex cones the complex
        k = len(live)
        if k >= nverts:
            break
        # nerve transpose: strictly fewer vertices
        live = maximal_masks(m for m in _transpose_cover(live, nverts) if m)
        nverts = k
    key = _canonical_cover(live, nverts)
    return dict(_covered_homology_cached(key, field))
