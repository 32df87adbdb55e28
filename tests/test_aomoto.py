import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricplex.aomoto import (
    DegreeOneClass, _aah_table, aomoto_betti_aah, aomoto_betti_direct, beta1_closed_form,
    multiplication_matrix, truncated_quotient,
)
from toricplex.exact import GF, QQ, rank
from toricplex.fixtures import rp2_six_vertex
from toricplex.simplicial import SimplicialComplex, bits, mask_of, toric_betti

from test_simplicial import path3, random_complex, two_k2

FIELDS = (QQ, GF(2), GF(3))


def all_complexes_on_4_vertices():
    """Every complex with full vertex set on 4 labelled vertices."""
    candidates = [mask_of(c) for size in (2, 3, 4)
                  for c in itertools.combinations(range(4), size)]
    out = []
    for keep in range(1 << len(candidates)):
        chosen = {candidates[i] for i in range(len(candidates)) if keep >> i & 1}
        faces = chosen | {0} | {1 << v for v in range(4)}
        if all((f ^ (1 << v)) in faces for f in chosen for v in range(4) if f >> v & 1):
            out.append(SimplicialComplex(4, faces, _trusted=True))
    return out


class TestDegreeOneClass:
    def test_float_coefficients(self):
        # Read through Fraction: 0.5 is 1/2, which is 2 in GF(3).
        assert DegreeOneClass(GF(3), (0.5, 1)).coeffs == (2, 1)
        assert DegreeOneClass(QQ, (0.5, 1)).coeffs == (Fraction(1, 2), 1)
        with pytest.raises(ZeroDivisionError):
            DegreeOneClass(GF(2), (0.5, 1))


class TestDirect:
    def test_zero_class_gives_betti(self):
        L = path3()
        z = DegreeOneClass.zero(QQ, 3)
        assert aomoto_betti_direct(L, z, 2) == list(toric_betti(L))

    def test_full_simplex_exact(self):
        for n in (2, 3, 4):
            L = SimplicialComplex.simplex(n)
            z = DegreeOneClass.from_support(QQ, (1 << n) - 1, n)
            betas = aomoto_betti_direct(L, z, n)
            assert betas[1:] == [0] * n

    def test_path_middle_support(self):
        L = path3()
        z = DegreeOneClass(QQ, (1, 0, 1))
        assert aomoto_betti_direct(L, z, 1)[1] == 1


class TestAAH:
    def test_two_k2_top_degree(self):
        L = two_k2()
        for field in FIELDS:
            assert aomoto_betti_aah(L, mask_of([0, 1]), field, 2)[2] == 1

    def test_empty_w_gives_betti(self):
        L = path3()
        for field in FIELDS:
            assert aomoto_betti_aah(L, 0, field, 2) == list(toric_betti(L))

    def test_path_outer_support(self):
        L = path3()
        assert aomoto_betti_aah(L, mask_of([0, 2]), QQ, 1)[1] == 1

    def test_beta0(self):
        L = path3()
        for field in FIELDS:
            assert aomoto_betti_aah(L, mask_of([0]), field, 0)[0] == 0
            assert aomoto_betti_aah(L, 0, field, 0)[0] == 1


class TestOracleEquivalence:
    def test_exhaustive_4_vertices(self):
        for L in all_complexes_on_4_vertices():
            for w in range(16):
                for field in FIELDS:
                    z = DegreeOneClass.from_support(field, w, 4)
                    assert aomoto_betti_direct(L, z, 3) == \
                        aomoto_betti_aah(L, w, field, 3), (L, w, field)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_random_5_to_7(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng, n_min=5, n_max=7)
        for _ in range(6):
            w = rng.getrandbits(L.n)
            field = rng.choice(FIELDS)
            z = DegreeOneClass.from_support(field, w, L.n)
            assert aomoto_betti_direct(L, z, 3) == aomoto_betti_aah(L, w, field, 3)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_support_invariance(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng, n_max=5)
        field = rng.choice((QQ, GF(3), GF(5)))
        w = rng.getrandbits(L.n)
        nonzero = list(range(1, 7)) if field.char == 0 else list(range(1, field.char))
        coeffs = [rng.choice(nonzero) if w >> v & 1 else 0 for v in range(L.n)]
        coeffs2 = [rng.choice(nonzero) if w >> v & 1 else 0 for v in range(L.n)]
        b1 = aomoto_betti_direct(L, DegreeOneClass(field, coeffs), 3)
        b2 = aomoto_betti_direct(L, DegreeOneClass(field, coeffs2), 3)
        assert b1[1:] == b2[1:]

    @pytest.mark.parametrize("L", [
        rp2_six_vertex(), rp2_six_vertex().cone(),
        random_complex(random.Random(5), n_min=7, n_max=7),
    ], ids=["rp2", "rp2-cone", "random-7"])
    def test_link_memo_reused_across_w(self, L):
        # One complex answers every W in a shuffled order, so later W read
        # link homologies that earlier W left on it.  A fresh copy has none
        # kept, and the direct route shares no code with either.  The
        # projective plane's Z/2 reaches two degrees over GF(2).
        top = len(L.face_counts())
        order = list(range(1 << L.n))
        random.Random(L.n).shuffle(order)
        for w in order:
            for field in (QQ, GF(2)):
                _aah_table.cache_clear()
                kept = aomoto_betti_aah(L, w, field, top)
                _aah_table.cache_clear()
                fresh = SimplicialComplex(L.n, L.faces, L.labels, _trusted=True)
                z = DegreeOneClass.from_support(field, w, L.n)
                assert kept == aomoto_betti_aah(fresh, w, field, top) \
                    == aomoto_betti_direct(L, z, top), (w, field)

    def test_monotone_in_w(self):
        for L in all_complexes_on_4_vertices()[::7]:
            for field in FIELDS:
                betas = {w: aomoto_betti_aah(L, w, field, 3) for w in range(16)}
                for w in range(16):
                    for w2 in range(16):
                        if w2 & w == w2 and w2 != w:  # w2 subset of w
                            assert all(betas[w2][i] >= betas[w][i] for i in range(1, 4))


class TestBeta1ClosedForm:
    def test_examples(self):
        L = path3()
        assert beta1_closed_form(L, mask_of([0, 1, 2])) == 0
        assert beta1_closed_form(L, mask_of([0, 2])) == 1
        points = SimplicialComplex.from_maximal_faces([], 2)
        assert beta1_closed_form(points, mask_of([0])) == 1

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_aah(self, seed):
        rng = random.Random(seed)
        L = random_complex(rng, n_max=6)
        for _ in range(5):
            w = rng.getrandbits(L.n)
            got = beta1_closed_form(L, w)
            for field in FIELDS:
                assert aomoto_betti_aah(L, w, field, 1)[1] == got


class TestTruncatedQuotient:
    def test_torus_quotient(self):
        L = SimplicialComplex.simplex(3)
        nu = DegreeOneClass.from_support(QQ, 7, 3)
        q = truncated_quotient(L, nu, QQ, 2)
        assert q.dims == (1, 2, 1)

    def test_path_degree_one(self):
        L = path3()
        nu = DegreeOneClass.from_support(QQ, 7, 3)
        q = truncated_quotient(L, nu, QQ, 1)
        assert q.dims == (1, 2)

    def test_zero_class(self):
        L = path3()
        q = truncated_quotient(L, DegreeOneClass.zero(GF(2), 3), GF(2), 2)
        assert q.dims == tuple(toric_betti(L))

    def test_product_structure(self):
        L = SimplicialComplex.simplex(3)
        nu = DegreeOneClass.from_support(QQ, 7, 3)
        q = truncated_quotient(L, nu, QQ, 2)
        prod = q.product(1, 0, 1, 1)
        assert any(c != 0 for c in prod)
        # Anticommutativity in the quotient: x*y = -y*x.
        back = q.product(1, 1, 1, 0)
        assert all(a == -b for a, b in zip(prod, back))
        # Squares vanish.
        assert all(c == 0 for c in q.product(1, 0, 1, 0))

    def test_mixed_fields_refused(self):
        # GF(3)'s -1 is 2, which in a rational matrix would be a wrong entry.
        hollow = SimplicialComplex.from_maximal_faces([[0, 1], [1, 2], [0, 2]], 3)
        for field in (QQ, GF(3)):
            z = DegreeOneClass(field, (1, 1, 1))
            assert truncated_quotient(hollow, z, field, 2).dims == (1, 2, 1)
        with pytest.raises(ValueError):
            truncated_quotient(hollow, DegreeOneClass(GF(3), (1, 1, 1)), QQ, 2)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_products_against_image(self, seed):
        # In each degree d the basis monomials must span a complement of the
        # image of z, and every product sign * m_a m_b - sum_k coords_k basis_k
        # must lie in that image; both are checked by exact.rank alone.
        rng = random.Random(seed)
        field = rng.choice(FIELDS)
        L = random_complex(rng, n_max=6)
        if rng.random() < 0.5:
            L = L.cone()
            z = DegreeOneClass.from_weights(field, (1,) * L.n)
        elif field.char == 0:
            z = DegreeOneClass(field, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                       for _ in range(L.n)])
        else:
            z = DegreeOneClass(field, [rng.randrange(field.char) for _ in range(L.n)])
        r = 3
        q = truncated_quotient(L, z, field, r)
        by_size = L.faces_by_size()
        for d in range(1, r + 1):
            monomials = by_size[d] if d < len(by_size) else ()
            index = {m: c for c, m in enumerate(monomials)}
            image = [list(col) for col in zip(*multiplication_matrix(L, z, d - 1))]
            image_rank = rank(image, field)

            def unit(m):
                vec = [0] * len(monomials)
                vec[index[m]] = 1
                return vec

            assert len(q.basis[d]) + image_rank == len(monomials)
            assert rank(image + [unit(m) for m in q.basis[d]], field) == len(monomials)
            residues = []
            for i in range(1, d):
                j = d - i
                for a, ma in enumerate(q.basis[i]):
                    for b, mb in enumerate(q.basis[j]):
                        coords = q.product(i, a, j, b)
                        assert len(coords) == len(q.basis[d])
                        vec = [0] * len(monomials)
                        if not ma & mb and (ma | mb) in index:
                            vec = [_concatenation_sign(ma, mb) * e for e in unit(ma | mb)]
                        for k, m in enumerate(q.basis[d]):
                            vec[index[m]] -= coords[k]
                        residues.append(vec)
            assert rank(image + residues, field) == image_rank, (L, z, d)


def _concatenation_sign(left, right):
    """Sign of the permutation sorting bits(left) + bits(right), by counting inversions."""
    word = bits(left) + bits(right)
    inversions = sum(1 for x, y in itertools.combinations(word, 2) if x > y)
    return -1 if inversions % 2 else 1
