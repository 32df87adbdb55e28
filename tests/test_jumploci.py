import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricplex.aomoto import DegreeOneClass, aomoto_betti_aah
from toricplex.exact import GF, QQ
from toricplex.jumploci import local_system_betti, resonance_membership, strata
from toricplex.simplicial import Graph, SimplicialComplex, mask_of, toric_betti

from helpers import strata_by_scan
from test_simplicial import complexes, path3, random_complex, two_k2

FIELDS = (QQ, GF(2), GF(3))


def random_connected_graph(rng, n_max=6):
    n = rng.randint(2, n_max)
    edges = {(i, rng.randrange(i)) for i in range(1, n)}  # random spanning tree
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((max(u, v), min(u, v)))
    return Graph(n, edges)


class TestComplexRepr:
    # A falsifying example over complexes prints as a call that rebuilds it.
    @given(complexes())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, L):
        assert eval(repr(L), {"SimplicialComplex": SimplicialComplex}) == L

    def test_custom_labels(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 4, ("x", "y", "z", "w"))
        assert repr(L) == ("SimplicialComplex.from_maximal_faces([[0, 1], [1, 2], [3]], 4, "
                           "labels=('x', 'y', 'z', 'w'))")
        rebuilt = eval(repr(L), {"SimplicialComplex": SimplicialComplex})
        assert rebuilt == L and rebuilt.labels == L.labels


class TestStrata:
    def test_two_k2(self):
        L = two_k2()
        fam1 = strata(L, QQ, 1, 1)
        assert fam1.members == (mask_of([0, 1, 2, 3]),)
        fam2 = strata(L, QQ, 2, 1)
        assert fam2.members == (mask_of([0, 1]), mask_of([2, 3]))

    def test_full_simplex_origin_only(self):
        from math import comb
        n = 4
        L = SimplicialComplex.simplex(n)
        for i in range(1, n + 1):
            for d in (1, comb(n, i)):
                fam = strata(L, QQ, i, d)
                assert fam.members == (0,)

    def test_depth_beyond_betti_is_empty(self):
        L = path3()
        fam = strata(L, QQ, 1, toric_betti(L)[1] + 1)
        assert fam.members == ()

    @given(complexes(), st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3))
    @example(two_k2(), QQ, 1, 1)  # the full vertex set qualifies
    @example(SimplicialComplex.simplex(3), GF(2), 1, 1)  # only the origin qualifies
    @example(path3(), GF(3), 3, 1)  # nothing qualifies
    @settings(max_examples=60, deadline=None)
    def test_complete_against_exhaustive_scan(self, L, field, i, d):
        assert strata(L, field, i, d).members == strata_by_scan(L, field, i, d)

    def test_cap(self):
        L = path3()
        with pytest.raises(ValueError):
            strata(L, QQ, 1, 1, cap=2)

    def test_flag_degree_one_is_disconnection_family(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected_graph(rng)
            L = SimplicialComplex.flag_complex(g)
            for field in FIELDS:
                fam = strata(L, field, 1, 1)
                expected = set()
                for size in range(g.n, -1, -1):
                    for combo in itertools.combinations(range(g.n), size):
                        w = sum(1 << v for v in combo)
                        if w and g.component_count(w) > 1 and \
                                not any(w & ~m == 0 for m in expected):
                            expected.add(w)
                if not expected:
                    expected = {0}  # the origin: beta_1(empty set) = b_1 >= 1
                assert set(fam.members) == expected

    def test_antichain_and_downward_closure(self):
        rng = random.Random(9)
        for _ in range(10):
            L = random_complex(rng, n_max=5)
            field = rng.choice(FIELDS)
            for i in (1, 2):
                fam = strata(L, field, i, 1)
                for a in fam.members:
                    for b in fam.members:
                        assert a == b or a & ~b != 0
                for w in fam.members:
                    subsets = [w & ~(1 << v) for v in range(L.n) if w >> v & 1]
                    for w2 in subsets:
                        assert aomoto_betti_aah(L, w2, field, i)[i] >= 1

    def test_depth_filtration_nesting(self):
        rng = random.Random(13)
        for _ in range(10):
            L = random_complex(rng, n_max=5)
            field = rng.choice(FIELDS)
            shallow = strata(L, field, 1, 1)
            deep = strata(L, field, 1, 2)
            for w in deep.members:
                assert any(w & ~m == 0 for m in shallow.members)


class TestMembership:
    def test_zero_class(self):
        L = path3()
        z = DegreeOneClass.zero(QQ, 3)
        assert resonance_membership(L, z, 1, 1)  # b_1 = 3 >= 1
        assert not resonance_membership(L, z, 1, 4)

    def test_weighted_path_example(self):
        L = path3()
        for field in (QQ, GF(3), GF(5)):
            z = DegreeOneClass.from_weights(field, (1, 2, 1))
            assert not resonance_membership(L, z, 1, 1)
        z2 = DegreeOneClass.from_weights(GF(2), (1, 2, 1))
        assert resonance_membership(L, z2, 1, 1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_consistency_with_strata(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng, n_max=5)
        field = rng.choice(FIELDS)
        i, d = rng.choice([(1, 1), (1, 2), (2, 1)])
        fam = strata(L, field, i, d)
        for _ in range(8):
            w = rng.getrandbits(L.n)
            z = DegreeOneClass.from_support(field, w, L.n)
            assert resonance_membership(L, z, i, d) == fam.contains_support(w)


class TestLocalSystems:
    def test_trivial_system(self):
        L = path3()
        assert local_system_betti(L, (1, 1, 1), QQ, 2) == list(toric_betti(L))

    def test_sign_system_on_path(self):
        L = path3()
        assert local_system_betti(L, (-1, 1, -1), QQ, 1)[1] == 1

    def test_full_simplex_vanishing(self):
        L = SimplicialComplex.simplex(3)
        dims = local_system_betti(L, (2, 3, 5), QQ, 3)
        assert dims[1:] == [0, 0, 0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            local_system_betti(path3(), (1, 0, 1), QQ, 1)
