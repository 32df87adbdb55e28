import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricplex.exact import GF, QQ
from toricplex.fixtures import rp2_flag, rp2_six_vertex
from toricplex.simplicial import (
    Graph, SimplicialComplex, _reduce_by_unit_pivots, boundary_dim, dims_from_integral,
    flagification_defect, format_complex, mask_of, parse_complex, reduced_dims,
    reduced_homology, reduced_homology_integral, toric_betti,
)

from helpers import homology_from_full_boundaries


def path3():
    return SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)


def cycle4():
    return SimplicialComplex.from_maximal_faces(
        [[0, 1], [1, 2], [2, 3], [0, 3]], 4)


def two_k2():
    return SimplicialComplex.from_maximal_faces([[0, 1], [2, 3]], 4)


RP2_TRIANGLES = [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                 [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]


def random_complex(rng, n_min=3, n_max=7, max_face=4):
    n = rng.randint(n_min, n_max)
    k = rng.randint(0, n)
    faces = []
    for _ in range(k):
        size = rng.randint(1, min(n, max_face))
        faces.append(rng.sample(range(n), size))
    return SimplicialComplex.from_maximal_faces(faces, n)


@st.composite
def complexes(draw, n_max=7):
    """Complexes on up to n_max vertices with up to 2n faces of up to 3 vertices."""
    n = draw(st.integers(1, n_max))
    face = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    return SimplicialComplex.from_maximal_faces(draw(st.lists(face, max_size=2 * n)), n)


class TestConstruction:
    def test_from_maximal_faces(self):
        L = path3()
        assert L.face_counts() == (1, 3, 2)
        assert L.has_face(mask_of([0, 1]))
        assert not L.has_face(mask_of([0, 2]))

    def test_isolated_vertices(self):
        L = SimplicialComplex.from_maximal_faces([], 2)
        assert L.face_counts() == (1, 2)

    def test_full_simplex(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1, 2]], 3)
        assert len(L.faces) == 8

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            mask_of([1, 1])

    def test_flag_complex(self):
        assert SimplicialComplex.flag_complex(Graph.cycle(4)) == cycle4()
        tri = SimplicialComplex.flag_complex(Graph.cycle(3))
        assert len(tri.faces) == 8
        k5 = SimplicialComplex.flag_complex(Graph.complete(5))
        assert k5 == SimplicialComplex.simplex(5)

    def test_flag_complex_kept_on_graph(self):
        g, twin = Graph.cycle(5), Graph.cycle(5)
        before = hash(g)
        L = SimplicialComplex.flag_complex(g)
        assert SimplicialComplex.flag_complex(g) is L
        assert g == twin and hash(g) == hash(twin) == before
        assert SimplicialComplex.flag_complex(twin) == L

    def test_induced(self):
        L = path3()
        W = mask_of([0, 2])
        assert L.induced(W).face_counts() == (1, 2)
        assert L.induced(L.full_mask).faces == L.faces
        assert L.induced(0).faces == frozenset({0})

    def test_induced_tower(self):
        rng = random.Random(7)
        for _ in range(20):
            L = random_complex(rng)
            w = rng.getrandbits(L.n)
            w2 = w & rng.getrandbits(L.n)
            assert L.induced(w).induced(w2).faces == L.induced(w2).faces

    def test_link(self):
        L = path3()
        lk = L.link(mask_of([1]), mask_of([0, 2]))
        assert lk.faces == frozenset({0, 1, 4})
        lk = two_k2().link(mask_of([2]), mask_of([0, 1]))
        assert lk.faces == frozenset({0})
        assert L.link(0, L.full_mask).faces == L.faces

    @given(complexes(), st.integers(0, 127))
    @example(rp2_six_vertex(), 0b111111)
    @example(rp2_six_vertex().cone(), 0b111111)
    @example(rp2_six_vertex().cone().cone(), 0b1111111)
    @settings(max_examples=80, deadline=None)
    def test_link_homologies_in_one_pass(self, L, w):
        homologies = L.link_homologies(w)
        outside = {f for f in L.faces if not f & w}
        assert set(homologies) <= outside and all(homologies.values())
        for sigma in outside:
            integral = reduced_homology_integral(L.link(sigma, w))
            assert homologies.get(sigma, ()) == tuple(
                (deg, betti, torsion) for deg, (betti, torsion) in integral.items()
                if betti or torsion)

    def test_link_of_nonface(self):
        with pytest.raises(ValueError):
            path3().link(mask_of([0, 2]), 0)

    def test_cone(self):
        points = SimplicialComplex.from_maximal_faces([], 2)
        c = points.cone()
        assert c.face_counts() == (1, 3, 2)
        assert reduced_dims(c, QQ)[0] == 0

    def test_cone_label_collision(self):
        with pytest.raises(ValueError):
            path3().cone("a")

    def test_barycentric_subdivision(self):
        sd = SimplicialComplex.simplex(3).barycentric_subdivision()
        assert sd.n == 7
        assert sd.is_flag()
        assert reduced_dims(sd, QQ) == reduced_dims(SimplicialComplex.simplex(3), QQ)

    def test_is_flag(self):
        assert cycle4().is_flag()
        boundary = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2], [0, 2]], 3)
        assert not boundary.is_flag()


class TestHomology:
    def test_cycle4_rational(self):
        dims = reduced_homology(cycle4(), QQ)
        assert dims[0] == 0 and dims[1] == 1

    def test_empty_complex(self):
        assert reduced_homology(SimplicialComplex.empty(), QQ) == {-1: 1}
        assert reduced_dims(SimplicialComplex.empty(), GF(2)) == {-1: 1}

    def test_rp2_flag_fixture(self):
        rp2 = SimplicialComplex.from_maximal_faces(RP2_TRIANGLES, 6)
        sd = rp2.barycentric_subdivision()
        assert sd.is_flag()
        integral = reduced_homology_integral(sd)
        assert integral[1] == (0, (2,))
        assert integral[0] == (0, ())
        assert dims_from_integral(integral, GF(2))[1] == 1
        assert dims_from_integral(integral, QQ)[1] == 0

    @given(complexes())
    @example(rp2_flag())
    @example(rp2_six_vertex())
    @example(SimplicialComplex.empty())
    @example(SimplicialComplex.simplex(4))
    @settings(max_examples=150, deadline=None)
    def test_integral_against_full_boundaries(self, L):
        reduced_homology_integral.cache_clear()
        assert reduced_homology_integral(L) == homology_from_full_boundaries(L)

    def test_non_unit_pivot_kept(self):
        # Cellular chains of RP^2 with the empty cell: d(f) = 2e carries Z/2.
        bd = {"": {}, "v": {"": 1}, "e": {}, "f": {"e": 2}}
        _reduce_by_unit_pivots(bd)
        assert bd == {"e": {}, "f": {"e": 2}}

    def test_boundary_dim(self):
        assert boundary_dim(path3(), 0, QQ) == 2
        assert boundary_dim(cycle4(), 1, QQ) == 0
        assert boundary_dim(SimplicialComplex.simplex(3), 1, GF(2)) == 1

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_euler_characteristic(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng)
        counts = L.face_counts()
        euler = sum((-1) ** s * c for s, c in enumerate(counts))
        for field in (QQ, GF(2), GF(3)):
            dims = reduced_homology(L, field)
            assert euler == -sum((-1) ** d * v for d, v in dims.items())

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_integral_uct_matches_field_rank(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng, n_max=6)
        integral = reduced_homology_integral(L)
        for field in (QQ, GF(2), GF(3)):
            assert dims_from_integral(integral, field) == reduced_homology(L, field)


class TestToricBetti:
    def test_examples(self):
        assert toric_betti(path3()) == (1, 3, 2)
        assert toric_betti(SimplicialComplex.simplex(3)) == (1, 3, 3, 1)
        assert toric_betti(two_k2()) == (1, 4, 2)


class TestFlagificationDefect:
    def test_flag_is_infinite(self):
        assert flagification_defect(cycle4()) == (None, None)
        assert flagification_defect(path3()) == (None, None)

    def test_triangle_boundary(self):
        boundary = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2], [0, 2]], 3)
        assert flagification_defect(boundary) == (2, 1)

    def test_skeleton_of_3_simplex(self):
        pairs = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        skel = SimplicialComplex.from_maximal_faces(pairs, 4)
        assert flagification_defect(skel) == (2, 4)

    def test_agreement_with_is_flag(self):
        rng = random.Random(11)
        for _ in range(30):
            L = random_complex(rng, n_max=5)
            delta = SimplicialComplex.flag_complex(L.one_skeleton())
            assert L.faces <= delta.faces
            assert (L.faces == delta.faces) == L.is_flag()
            p, defect = flagification_defect(L)
            assert (p is None) == L.is_flag()
            if p is not None:
                assert defect > 0


class TestTextFormat:
    def test_round_trip(self):
        text = "# a path\nvertices: a b c\na b\nb c\n"
        L = parse_complex(text)
        assert L == path3()
        assert parse_complex(format_complex(L)) == L

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_complex("a b\n")

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            parse_complex("vertices: a b\na c\n")
