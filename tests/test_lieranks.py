import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricplex.aomoto import DegreeOneClass
from toricplex.exact import QQ, Series
from toricplex.kernels import HypothesisRefusal
from toricplex.lieranks import (
    GradedRanks, HolonomyPresentation, chen_ranks, clique_polynomial,
    cut_polynomial, face_ring_presentation, holonomy_dims, lcs_ranks,
    _extract_exponents, quotient_holonomy_check, raag_lcs_ranks,
)
from toricplex.simplicial import Graph, SimplicialComplex

from helpers import expand_rational_series, witt
from test_jumploci import random_connected_graph


class TestPolynomials:
    def test_clique(self):
        assert clique_polynomial(Graph.path(3)) == (1, 3, 2)
        assert clique_polynomial(Graph.cycle(4)) == (1, 4, 4)
        for n in (2, 3, 4, 5):
            assert clique_polynomial(Graph.complete(n)) == \
                tuple(comb(n, k) for k in range(n + 1))

    def test_cut(self):
        assert cut_polynomial(Graph.path(3)) == (0, 0, 1)
        assert cut_polynomial(Graph.cycle(4)) == (0, 0, 2)
        assert cut_polynomial(Graph.complete(4)) == ()

    def test_cut_cap(self):
        with pytest.raises(ValueError):
            cut_polynomial(Graph.path(5), cap=3)


class TestLcsRanks:
    def test_complete_graphs(self):
        for n in (2, 3, 5):
            phi = lcs_ranks(Graph.complete(n), 6)
            assert phi.values == (n - 1,) + (0,) * 5

    def test_path_gives_free_group_witt_numbers(self):
        phi = lcs_ranks(Graph.path(3), 8)
        assert phi.values == tuple(witt(2, k) for k in range(1, 9))

    def test_cycle4(self):
        phi = lcs_ranks(Graph.cycle(4), 6)
        assert phi[1] == 3 and phi[2] == 2

    def test_raag_ranks_free_and_abelian(self):
        for order in (7, 30):
            phi = raag_lcs_ranks(Graph(3, []), order)  # discrete graph: free group F_3
            assert phi.values == tuple(witt(3, k) for k in range(1, order + 1))
        phi = raag_lcs_ranks(Graph.complete(4), 5)
        assert phi.values == (4, 0, 0, 0, 0)

    def test_negative_rank_refused(self):
        # 1 + t agrees with (1 - t)^(-1) through degree 1.
        with pytest.raises(ArithmeticError, match="degree 1 is -1, not a non-negative"):
            _extract_exponents([1, 1], 1, "LCS")

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_product_identity(self, seed):
        # Reconstruct: prod (1-t^k)^(phi_k) * (1-t) = P(-t) to order 10.
        rng = random.Random(seed)
        g = random_connected_graph(rng, n_max=6)
        order = 10
        phi = lcs_ranks(g, order)
        prod = Series.from_coeffs((1, -1), order)
        for k in range(1, order + 1):
            factor = Series.from_coeffs((1,) + (0,) * (k - 1) + (-1,), order)
            prod = prod * factor.pow(phi[k])
        p_alt = [c if k % 2 == 0 else -c for k, c in enumerate(clique_polynomial(g))]
        assert prod.coeffs == Series.from_coeffs(p_alt, order).coeffs


class TestOrderRange:
    @pytest.mark.parametrize("ranks", [lcs_ranks, raag_lcs_ranks, chen_ranks])
    def test_range(self, ranks):
        for order in (-1, 31):
            with pytest.raises(ValueError):
                ranks(Graph.path(3), order)
        assert ranks(Graph.path(3), 0).values == ()


def _times_one_minus_t(p):
    return [a - b for a, b in zip(p + [0], [0] + p)]


class TestChenRanks:
    def test_path(self):
        theta = chen_ranks(Graph.path(3), 8)
        assert theta.values == tuple(k - 1 for k in range(2, 9))

    def test_cycle4(self):
        theta = chen_ranks(Graph.cycle(4), 8)
        assert theta.values == tuple(2 * (k - 1) for k in range(2, 9))

    def test_complete(self):
        assert chen_ranks(Graph.complete(4), 6).values == (0,) * 5

    @given(st.integers(0, 100_000), st.sampled_from([0, 10, 30]))
    @settings(max_examples=25, deadline=None)
    def test_matches_rational_series(self, seed, order):
        # Q(t/(1-t)) = sum_j c_j t^j (1-t)^(m-j) / (1-t)^m, m = deg Q,
        # expanded by long division.
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4})
        c = cut_polynomial(g)
        m = max(len(c) - 1, 0)
        num = [0] * (m + 1)
        for j, cj in enumerate(c):
            term = [0] * j + [cj]
            for _ in range(m - j):
                term = _times_one_minus_t(term)
            num = [a + b for a, b in zip(num, term + [0] * (m + 1 - len(term)))]
        den = [1]
        for _ in range(m):
            den = _times_one_minus_t(den)
        theta = expand_rational_series(num, den, order)
        assert chen_ranks(g, order).values == tuple(theta[2:])

    def test_tree_specialization(self):
        # Trees on 3 vertices have the Chen ranks of the free group F_2.
        star = Graph(3, [(0, 1), (0, 2)])
        assert chen_ranks(star, 7).values == tuple(k - 1 for k in range(2, 8))


class TestHolonomyDims:
    def test_free_case_witt(self):
        for n in (2, 3, 4):
            h = holonomy_dims(HolonomyPresentation.free(n))
            assert h.values == (n, witt(n, 2), witt(n, 3))

    def test_abelian_case(self):
        h = holonomy_dims(HolonomyPresentation.abelian(4))
        assert h.values == (4, 0, 0)

    def test_path_face_ring(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)
        h = holonomy_dims(face_ring_presentation(L))
        assert h.values == (3, 1, 2)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_raag_lcs_ranks(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
        L = SimplicialComplex.flag_complex(g)
        h = holonomy_dims(face_ring_presentation(L))
        phi = raag_lcs_ranks(g, 3)
        assert h.values == phi.values


class TestQuotientHolonomy:
    def test_path_diagonal(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)
        a = DegreeOneClass.from_support(QQ, 7, 3)
        report = quotient_holonomy_check(L, a, 2)
        assert report.h_ambient[2] == report.h_quotient[2] == 1
        assert report.h_ambient[3] == report.h_quotient[3] == 2
        # The quotient is the cohomology of a free group of rank 2.
        assert report.h_quotient.values == (2, witt(2, 2), witt(2, 3))

    def test_simplex_diagonal(self):
        L = SimplicialComplex.simplex(3)
        a = DegreeOneClass.from_support(QQ, 7, 3)
        report = quotient_holonomy_check(L, a, 2)
        assert report.h_ambient[2] == report.h_quotient[2] == 0
        assert report.h_ambient[3] == report.h_quotient[3] == 0

    def test_zero_class_refused(self):
        L = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2]], 3)
        with pytest.raises(HypothesisRefusal):
            quotient_holonomy_check(L, DegreeOneClass.zero(QQ, 3), 1)

    def test_star_quotient_is_free(self):
        # Star graphs have second cohomology equal to a * (degree one), so
        # the quotient by the hub class is relation-free on n-1 generators.
        for n in (3, 4, 5):
            star = Graph(n, [(0, i) for i in range(1, n)])
            L = SimplicialComplex.flag_complex(star)
            hub = DegreeOneClass(QQ, (1,) + (0,) * (n - 1))
            report = quotient_holonomy_check(L, hub, 1)
            assert report.compared_degrees == (2,)
            assert report.h_quotient[2] == comb(n - 1, 2)
            assert report.h_ambient[2] == comb(n, 2) - (n - 1)

    def test_resonant_class_refused(self):
        L = SimplicialComplex.flag_complex(Graph.disjoint_cliques([2, 2]))
        nu = DegreeOneClass.from_support(QQ, 15, 4)
        with pytest.raises(HypothesisRefusal) as exc:
            quotient_holonomy_check(L, nu, 1)
        assert exc.value.witness == 1


class TestGradedRanks:
    def test_indexing(self):
        gr = GradedRanks("CHEN", 2, (1, 2, 3))
        assert gr[2] == 1 and gr[4] == 3
        with pytest.raises(IndexError):
            gr[1]
