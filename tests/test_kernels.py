import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricplex.exact import GF, QQ
from toricplex.fixtures import rp2_flag
from toricplex.kernels import (
    BBSummary, HypothesisRefusal, bb_summary, cover_cohomology_ring,
    finitely_generated, finitely_presented, fp_r, _pi1_trivial, _tietze_trivial,
    _trivial_edges,
)
from toricplex.simplicial import Graph, SimplicialComplex, bits
from toricplex.zcover import Character

from test_jumploci import random_connected_graph
from test_simplicial import random_complex

FIELDS = (QQ, GF(2), GF(3))
CHI_121 = Character((1, 2, 1))


def reordered(gamma: Graph) -> Graph:
    """An equal graph whose flag complex was built from its faces in
    descending order, so its face set iterates in another order."""
    faces = sorted(SimplicialComplex.flag_complex(gamma).faces, reverse=True)
    other = Graph(gamma.n, gamma.edges(), gamma.labels)
    other._flag = SimplicialComplex(gamma.n, faces, gamma.labels, _trusted=True)
    return other


def edge_presentation(K: SimplicialComplex):
    """pi_1 of a connected K: one generator per edge, one relator per
    triangle, and a one-letter relator per edge of a spanning tree found by
    union-find."""
    edges = [f for f in K.faces if f.bit_count() == 2]
    gen = {e: k for k, e in enumerate(edges, start=1)}
    root = {v: v for v in K.vertices()}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    relators = []
    for e in edges:
        u, v = bits(e)
        if find(u) != find(v):
            root[find(u)] = find(v)
            relators.append((gen[e],))
    for f in K.faces:
        if f.bit_count() == 3:
            a, b, c = bits(f)
            # a -> b -> c -> a, each edge read from its smaller vertex.
            relators.append((gen[f ^ 1 << c], gen[f ^ 1 << a], -gen[f ^ 1 << b]))
    return set(gen.values()), relators


class TestFinitelyGenerated:
    def test_connected_diagonal(self):
        assert finitely_generated(Graph.cycle(4), Character.diagonal(4)).verdict == "YES"

    def test_disconnected(self):
        g = Graph.disjoint_cliques([2, 2])
        rep = finitely_generated(g, Character.diagonal(4))
        assert rep.verdict == "NO" and "disconnected" in rep.witness

    def test_support_disconnects(self):
        rep = finitely_generated(Graph.path(3), Character((1, 0, 1)))
        assert rep.verdict == "NO"

    def test_undominated_vertex(self):
        # Star with an extra pendant chain: kill the hub's weight in a path
        # of length 3: a-b-c with chi=(1,0,0): c has no neighbor in support.
        rep = finitely_generated(Graph.path(3), Character((1, 0, 0)))
        assert rep.verdict == "NO"

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_diagonal_equals_connectivity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
        rep = finitely_generated(g, Character.diagonal(n))
        assert (rep.verdict == "YES") == g.is_connected()


class TestFinitelyPresented:
    def test_weighted_path(self):
        assert finitely_presented(Graph.path(3), CHI_121).verdict == "YES"

    def test_stallings_cycle(self):
        rep = finitely_presented(Graph.cycle(4), Character.diagonal(4))
        assert rep.verdict == "NO" and "Z" in rep.witness

    def test_rp2_flag(self):
        L = rp2_flag()
        gamma = L.one_skeleton()
        rep = finitely_presented(gamma, Character.diagonal(gamma.n))
        assert rep.verdict == "NO" and "Z_2" in rep.witness

    def test_complete_graph(self):
        assert finitely_presented(Graph.complete(4), Character.diagonal(4)).verdict == "YES"


class TestPi1Certification:
    def test_tree_is_simply_connected(self):
        assert _pi1_trivial(SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3), 100)

    def test_cycle_is_not(self):
        assert _pi1_trivial(SimplicialComplex.flag_complex(Graph.cycle(4)), 100) is False

    def test_filled_sphere_boundaries(self):
        # Octahedron: flag, simply connected.
        oct_edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if {i, j} not in ({0, 5}, {1, 4}, {2, 3})]
        octa = SimplicialComplex.flag_complex(Graph(6, oct_edges))
        assert _pi1_trivial(octa, 10_000) is True

    def test_suspended_pentagon(self):
        # Another flag 2-sphere, with a bigger presentation to collapse.
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5, i) for i in range(5)] + [(6, i) for i in range(5)]
        sphere = SimplicialComplex.flag_complex(Graph(7, edges))
        assert _pi1_trivial(sphere, 10_000) is True

    def test_wheel_cones(self):
        for k in (4, 5, 6):
            wheel = SimplicialComplex.flag_complex(Graph.cycle(k)).cone()
            assert _pi1_trivial(wheel, 10_000) is True

    def test_projective_plane_not_certified_trivial(self):
        K = rp2_flag()
        assert len(_trivial_edges(K.faces_by_size())) < len(K.faces_by_size()[2])
        for budget in (0, 1, 10, 100, 10_000):
            assert _pi1_trivial(K, budget) is not True

    def test_closure_certifies_cones(self):
        # Along any spanning tree every spoke to the apex becomes trivial, and
        # then every base edge, whose triangle with the apex has two spokes.
        for k in (4, 5, 6):
            wheel = SimplicialComplex.flag_complex(Graph.cycle(k)).cone()
            assert len(_trivial_edges(wheel.faces_by_size())) == len(wheel.faces_by_size()[2])
            assert _pi1_trivial(wheel, 0) is True

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_closure_never_meets_tietze_no(self, seed):
        # Against Tietze moves on the presentation with every edge a
        # generator and a different spanning tree.
        rng = random.Random(seed)
        if seed % 2:
            K = SimplicialComplex.flag_complex(random_connected_graph(rng, n_max=8))
        else:
            K = random_complex(rng, n_min=3, n_max=7, max_face=3)
        trivial = _trivial_edges(K.faces_by_size())
        if trivial is None:
            assert _pi1_trivial(K, 10_000) is False
            return
        tietze = _tietze_trivial(*edge_presentation(K), 10_000)
        if len(trivial) == len(K.faces_by_size()[2]):
            assert tietze is not False
        verdict = _pi1_trivial(K, 10_000)
        assert None in (verdict, tietze) or verdict == tietze


class TestFaceOrder:
    # Equal complexes name the same witness whatever order built them.
    def test_known_tie(self):
        L = SimplicialComplex.from_maximal_faces(
            [[0, 3], [0, 2, 5], [0, 5, 6], [1, 7], [4, 7], [2, 8], [7, 8], [4, 5, 9]], 10)
        gamma = L.one_skeleton()
        chi = Character(tuple(1 if 0b101001 >> v & 1 else 0 for v in range(10)))
        other = reordered(gamma)
        assert fp_r(gamma, chi, 1) == fp_r(other, chi, 1)
        assert fp_r(gamma, chi, 1).witness == "H~-1(lk({b}); Z) = Z"
        assert finitely_presented(gamma, chi) == finitely_presented(other, chi)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_reports_independent_of_face_order(self, seed):
        rng = random.Random(seed)
        gamma = random_connected_graph(rng, n_max=10)
        other = reordered(gamma)
        chi = Character(tuple(rng.choice((0, 1)) for _ in range(gamma.n)))
        if not any(chi.weights):
            chi = Character.diagonal(gamma.n)
        for r in (1, 2, 3):
            assert fp_r(gamma, chi, r) == fp_r(other, chi, r)
        assert finitely_presented(gamma, chi) == finitely_presented(other, chi)


class TestFPr:
    def test_path_diagonal(self):
        assert fp_r(Graph.path(3), Character.diagonal(3), 2).verdict == "YES"

    def test_cycle_diagonal(self):
        rep = fp_r(Graph.cycle(4), Character.diagonal(4), 2)
        assert rep.verdict == "NO" and "H~1" in rep.witness
        # FP_1 still holds: the group is finitely generated.
        assert fp_r(Graph.cycle(4), Character.diagonal(4), 1).verdict == "YES"

    def test_rp2_integral_failure(self):
        gamma = rp2_flag().one_skeleton()
        rep = fp_r(gamma, Character.diagonal(gamma.n), 2)
        assert rep.verdict == "NO" and "Z_2" in rep.witness

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_r(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n_max=5)
        chi = Character.diagonal(g.n)
        verdicts = [fp_r(g, chi, r).verdict for r in (1, 2, 3)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            if later == "YES":
                assert earlier == "YES"


class TestCoverCohomologyRing:
    def test_path_diagonal(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)
        ring = cover_cohomology_ring(L, Character.diagonal(3), QQ, 1)
        assert ring.dims == (1, 2)

    def test_torus(self):
        L = SimplicialComplex.simplex(3)
        for field in FIELDS:
            ring = cover_cohomology_ring(L, Character.diagonal(3), field, 2)
            assert ring.dims == (1, 2, 1)
            prod = ring.product(1, 0, 1, 1)
            assert any(not field.is_zero(c) for c in prod)

    def test_refusal_carries_witness(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)
        with pytest.raises(HypothesisRefusal) as exc:
            cover_cohomology_ring(L, CHI_121, QQ, 1)
        assert exc.value.witness == (1, 2, 1)

    def test_degree_one_dimension(self):
        # With full support the degree-1 piece of the quotient has rank n-1.
        rng = random.Random(2)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=5)
            L = SimplicialComplex.flag_complex(g)
            try:
                ring = cover_cohomology_ring(L, Character.diagonal(g.n), QQ, 2)
            except HypothesisRefusal:
                continue
            assert ring.dims[1] == g.n - 1


class TestBBSummary:
    def test_path_all_true(self):
        for field in FIELDS:
            s = bb_summary(Graph.path(3), field, 2)
            assert s.conditions == (True,) * 4
            assert s.fp_over_z.verdict == "YES"

    def test_cycle_all_false(self):
        s = bb_summary(Graph.cycle(4), QQ, 2)
        assert s.conditions == (False,) * 4
        assert s.fp_over_z.verdict == "NO"

    def test_rp2_characteristic_flip(self):
        gamma = rp2_flag().one_skeleton()
        assert bb_summary(gamma, QQ, 2).conditions == (True,) * 4
        assert bb_summary(gamma, GF(2), 2).conditions == (False,) * 4
        assert bb_summary(gamma, QQ, 2).fp_over_z.verdict == "NO"

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_agreement_random(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n_max=6)
        for field in FIELDS:
            for r in (1, 2):
                summary = bb_summary(g, field, r)  # raises on disagreement
                assert isinstance(summary, BBSummary)
