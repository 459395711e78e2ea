from __future__ import annotations

import pytest
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereg import homology
from edgereg.errors import ResourceCapError
from edgereg.homology import (
    _covered_homology_cached,
    boundary_rank_table,
    covered_homology,
    enumerate_union_faces,
    maximal_masks,
)

from oracles import reduced_homology_of_face_sets


def homology_of_facets(facets: list[set[int]], field: str = "Q") -> dict[int, int]:
    """Reduced homology through the covered pipeline, facets as covers."""
    covers = [sum(1 << v for v in f) for f in facets]
    return covered_homology(covers, field)


class TestToyComplexes:
    def test_hollow_triangle_is_a_circle(self):
        assert homology_of_facets([{0, 1}, {1, 2}, {0, 2}]) == {1: 1}

    def test_full_simplex_contractible(self):
        assert homology_of_facets([{0, 1, 2}]) == {}

    def test_two_isolated_vertices(self):
        assert homology_of_facets([{0}, {1}]) == {0: 1}

    def test_empty_face_only(self):
        assert homology_of_facets([]) == {-1: 1}
        assert homology_of_facets([set()]) == {-1: 1}

    def test_hollow_tetrahedron_is_a_sphere(self):
        facets = [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
        assert homology_of_facets(facets) == {2: 1}

    def test_closure_under_subsets(self):
        # facets of a hollow triangle: every subset except the 2-face
        assert enumerate_union_faces([0b011, 0b110, 0b101]) == set(range(7))


# Minimal 6-vertex triangulation of the real projective plane: homology
# has 2-torsion, so ranks differ between Q and GF(2).
RP2_FACETS = [
    {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 1, 5}, {0, 4, 5},
    {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5},
]


class TestFieldDependence:
    def test_projective_plane_over_q(self):
        assert homology_of_facets(RP2_FACETS, "Q") == {}

    def test_projective_plane_over_gf2(self):
        assert homology_of_facets(RP2_FACETS, "GF2") == {1: 1, 2: 1}

    @pytest.mark.parametrize("field, expected", [("Q", {}), ("GF2", {1: 1, 2: 1})])
    def test_projective_plane_faces_keep_their_torsion_on_the_pair(self, field, expected):
        # the nerve reduction never sees these faces: only the pair (K, st v) does
        faces = enumerate_union_faces([sum(1 << v for v in f) for f in RP2_FACETS])
        assert dict(_covered_homology_cached(tuple(maximal_masks(faces)), field)) == expected


def _faces_of(covers: list[int]) -> set[frozenset]:
    faces = set()
    for mask in covers:
        vertices = [v for v in range(mask.bit_length()) if mask >> v & 1]
        for k in range(len(vertices) + 1):
            faces.update(frozenset(c) for c in combinations(vertices, k))
    return faces


def _labelled(covers: list[int], labels: str) -> list[int]:
    """The covers with vertex v relabelled 17v + 3 when labels are sparse."""
    if labels == "dense":
        return covers
    return [sum(1 << (17 * v + 3) for v in range(c.bit_length()) if c >> v & 1) for c in covers]


def _simplex_boundary(k: int, form: str) -> list[int]:
    """Covers whose nerve is the boundary of the (k-1)-simplex.

    In facet form they are the k facets of that boundary.  In nerve-dual
    form cover i is every vertex j < k but i, plus a private vertex k + i:
    a different complex, with the same nerve.
    """
    full = (1 << k) - 1
    if form == "facet":
        return [full ^ 1 << i for i in range(k)]
    return [full ^ 1 << i | 1 << (k + i) for i in range(k)]


class TestSimplexBoundaryNerve:
    """A nerve that is the boundary of a simplex is answered before the memo:
    k covers without a common vertex, every k - 1 of which meet, have the
    boundary of the (k-1)-simplex as nerve, a (k-2)-sphere."""

    @pytest.fixture
    def memo_calls(self, monkeypatch):
        calls = []

        def recording(covers, field):
            calls.append(covers)
            return _covered_homology_cached(covers, field)

        monkeypatch.setattr(homology, "_covered_homology_cached", recording)
        return calls

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    @pytest.mark.parametrize("labels", ["dense", "sparse"])
    @pytest.mark.parametrize("form", ["facet", "nerve-dual"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_the_sphere_skips_the_memo(self, memo_calls, k, form, labels, field):
        covers = _labelled(_simplex_boundary(k, form), labels)
        assert covered_homology(covers, field) == {k - 2: 1}
        assert memo_calls == []

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_one_empty_cover_is_the_boundary_of_the_0_simplex(self, memo_calls, field):
        # the empty-face-only complex: the sphere test answers it as a (-1)-sphere
        assert covered_homology([0], field) == covered_homology([0, 0], field) == {-1: 1}
        assert memo_calls == []

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_the_octahedron_boundary_goes_through_the_memo(self, memo_calls, field):
        # a 2-sphere whose eight triangles have no seven sharing a vertex
        covers = [1 << a | 1 << b | 1 << c for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        assert covered_homology(covers, field) == {2: 1}
        assert covered_homology(covers, field) == reduced_homology_of_face_sets(
            _faces_of(covers), field)
        assert memo_calls

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_a_whiskered_boundary_goes_through_the_memo(self, memo_calls, k, field):
        # the facets of the boundary of the (k-1)-simplex plus an edge {0, k}:
        # the edge meets only the facets through vertex 0
        covers = _simplex_boundary(k, "facet") + [1 | 1 << k]
        assert covered_homology(covers, field) == reduced_homology_of_face_sets(
            _faces_of(covers), field)
        assert memo_calls

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_only_the_last_covers_missing_a_meeting_is_not_a_sphere(self, k, field):
        # cover i < k - 1 is every vertex j < k - 1 but i, plus a private high
        # vertex; the last cover, the vertices below k - 1, sorts last.  Every
        # k - 1 covers with the last one meet, the first k - 1 do not: the
        # nerve is a ball, not the boundary of a simplex
        low = (1 << (k - 1)) - 1
        covers = [low ^ 1 << i | 1 << (k + i) for i in range(k - 1)] + [low]
        assert maximal_masks(covers)[-1] == low
        assert covered_homology(covers, field) == {}
        assert reduced_homology_of_face_sets(_faces_of(covers), field) == {}


class TestPairWithTheApexStar:
    """``boundary_rank_table`` keeps only the faces outside the apex's closed star."""

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_hollow_tetrahedron_keeps_the_opposite_triangle(self, field):
        covers = [0b0111, 0b1011, 0b1101, 0b1110]  # the four triangles
        assert boundary_rank_table(covers, field) == ({2: 1}, {})

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_two_isolated_vertices_keep_one_vertex(self, field):
        assert boundary_rank_table([0b01, 0b10], field) == ({0: 1}, {})

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_a_cone_keeps_nothing(self, field):
        # vertex 2 cones the edge {0, 1} plus an isolated vertex 3
        assert boundary_rank_table([0b0111, 0b1100], field) == ({}, {})


class TestCellsOutsideTheApexStar:
    """Only the covers that miss the apex reach ``enumerate_union_faces``."""

    @pytest.fixture
    def handed(self, monkeypatch):
        calls = []

        def recording(covers, *args):
            calls.append(list(covers))
            return enumerate_union_faces(covers, *args)

        monkeypatch.setattr(homology, "enumerate_union_faces", recording)
        return calls

    @pytest.mark.parametrize("field, ranks", [("Q", {2: 5}), ("GF2", {2: 4})])
    def test_projective_plane(self, handed, field, ranks):
        # every vertex lies in five triangles, so the apex is vertex 0; the
        # cells are the five edges and five triangles outside its closed star
        covers = [sum(1 << v for v in f) for f in RP2_FACETS]
        assert boundary_rank_table(covers, field) == ({1: 5, 2: 5}, ranks)
        assert handed == [[c for c in covers if not c & 1]]

    @pytest.mark.parametrize("field", ["Q", "GF2"])
    def test_a_large_star_is_never_enumerated(self, handed, field):
        # a 9-simplex on 0..9 closed into a circle by the path 0-11-10-9,
        # with a pendant edge {10, 12}; vertex 10 lies in the most covers,
        # but vertex 0 (tied with 9, lower bit) has the simplex in its star
        rest = [1 << 10 | 1 << 11, 1 << 9 | 1 << 10, 1 << 10 | 1 << 12]
        covers = [(1 << 10) - 1, 1 | 1 << 11, *rest]
        assert boundary_rank_table(covers, field) == ({0: 2, 1: 3}, {1: 2})
        assert handed == [rest]


class TestMaximalMasks:
    def test_absorbs_subsets(self):
        assert maximal_masks([0b011, 0b111, 0b001]) == [0b111]

    def test_keeps_incomparable(self):
        assert sorted(maximal_masks([0b011, 0b110])) == [0b011, 0b110]


class TestEnumerateUnionFaces:
    def test_single_simplex(self):
        assert enumerate_union_faces([0b111]) == set(range(8))

    def test_union_counts(self):
        faces = enumerate_union_faces([0b011, 0b110])
        assert faces == {0b000, 0b001, 0b010, 0b011, 0b100, 0b110}

    def test_face_cap(self, monkeypatch):
        monkeypatch.setattr(homology, "MAX_FACES", 1000)  # read at each call
        with pytest.raises(ResourceCapError, match="MAX_FACES=1000"):
            enumerate_union_faces([(1 << 30) - 1])


@st.composite
def cover_families(draw):
    nverts = draw(st.integers(1, 7))
    count = draw(st.integers(1, 5))
    covers = [
        draw(st.integers(0, (1 << nverts) - 1)) for _ in range(count)
    ]
    return nverts, covers


@given(cover_families(), st.sampled_from(["Q", "GF2"]))
@settings(max_examples=300, deadline=None)
def test_covered_homology_matches_direct_enumeration(family, field):
    nverts, covers = family
    via_pipeline = covered_homology(covers, field)
    faces = enumerate_union_faces(maximal_masks(covers))
    face_sets = {
        frozenset(i for i in range(nverts) if (f >> i) & 1) for f in faces
    }
    direct = reduced_homology_of_face_sets(face_sets, field)
    assert via_pipeline == direct


@st.composite
def sparse_cover_families(draw):
    """Covers over a few vertices with scattered, possibly high labels.

    Some covers may be empty masks, and all of them may share one extra
    vertex, which makes the family a cone before any reduction.
    """
    labels = draw(st.lists(st.integers(0, 200), min_size=1, max_size=7, unique=True))
    subsets = st.lists(st.sampled_from(labels), max_size=len(labels), unique=True)
    covers = [sum(1 << v for v in c) for c in draw(st.lists(subsets, min_size=1, max_size=5))]
    if draw(st.booleans()):
        apex = 1 << draw(st.integers(0, 200))
        covers = [m | apex for m in covers]
    return covers


@given(sparse_cover_families(), st.sampled_from(["Q", "GF2"]))
@settings(max_examples=300, deadline=None)
def test_covered_homology_with_sparse_labels_matches_direct_enumeration(covers, field):
    assert covered_homology(covers, field) == reduced_homology_of_face_sets(_faces_of(covers), field)


def test_empty_cover_family_is_the_empty_face_complex():
    assert covered_homology([], "Q") == {-1: 1}
    assert enumerate_union_faces([]) == {0}


@given(cover_families(), st.sampled_from(["Q", "GF2"]))
@settings(max_examples=200, deadline=None)
# two disjoint triangles: the cells of the second one need signed boundaries
# over Q, since its three edges form an odd cycle
@example((6, [0b000111, 0b111000]), "Q")
def test_homology_from_faces_matches_oracle(family, field):
    nverts, covers = family
    faces = enumerate_union_faces(maximal_masks(covers))
    face_sets = {
        frozenset(i for i in range(nverts) if (f >> i) & 1) for f in faces
    }
    # the pair (K, st v) on the maximal faces, without the nerve reduction
    homology = dict(_covered_homology_cached(tuple(maximal_masks(faces)), field))
    assert homology == reduced_homology_of_face_sets(face_sets, field)


def test_cone_is_detected_without_enumeration():
    # every cover mask shares vertex 0: contractible regardless of size
    covers = [(1 << 40) - 1 & ~(1 << k) | 1 for k in range(1, 12)]
    assert covered_homology(covers, "Q") == {}
