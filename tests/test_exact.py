import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricplex.exact import (
    GF, QQ, Field, Poly, Series, cyclotomic, poly_ord, rank, row_echelon,
    snf_int, snf_poly, t_power_minus_one,
)

from helpers import (
    rank_from_minors, snf_from_minor_gcds, snf_poly_from_minor_gcds, span_rank,
)


class TestField:
    def test_rationals(self):
        f = QQ
        assert f.of(3) == Fraction(3)
        assert f.div(f.of(1), f.of(3)) == Fraction(1, 3)

    def test_prime_field(self):
        f = GF(5)
        assert f.of(7) == 2
        assert f.mul(3, 4) == 2
        assert f.inv(2) == 3

    def test_composite_char_rejected(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_float_read_through_fraction(self):
        # 0.5 is read as 1/2 in every field: 2 in GF(3), no image in GF(2).
        assert QQ.of(0.5) == Fraction(1, 2)
        assert GF(3).of(0.5) == 2
        assert GF(3).of(-2.0) == 1 and type(GF(3).of(-2.0)) is int
        with pytest.raises(ZeroDivisionError):
            GF(2).of(0.5)


class TestRank:
    def test_identity(self):
        assert rank([[1, 0], [0, 1]], QQ) == 2

    def test_repeated_row_gf2(self):
        assert rank([[1, 1], [1, 1]], GF(2)) == 1

    def test_proportional_rows(self):
        assert rank([[2, 4], [1, 2]], QQ) == 1

    def test_empty(self):
        assert rank([], QQ) == 0
        assert rank([[]], GF(3)) == 0

    def test_fractions(self):
        assert rank([[Fraction(1, 2), 1], [1, 2]], QQ) == 1

    def test_fractions_mod_p(self):
        # 1/2 is 2 in GF(3); it has no image in GF(2).
        assert rank([[Fraction(1, 2)]], GF(3)) == 1
        with pytest.raises(ZeroDivisionError):
            rank([[Fraction(1, 2)]], GF(2))

    def test_floats(self):
        rows = [[0.5, 1], [1, 2]]
        assert rank(rows, QQ) == 1
        assert rank(rows, GF(3)) == 1
        with pytest.raises(ZeroDivisionError):
            rank(rows, GF(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hidden_blocks(self, seed):
        # An integral block beside a non-integral one, padded with zero rows
        # and columns and hidden by permutations: over Q both the Bareiss and
        # the Fraction kernel run in one call.
        rng = random.Random(seed)
        field = rng.choice([QQ, GF(2), GF(3)])
        den = 3 if field.char == 2 else 2
        blocks = []
        for integral in (True, False):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            block = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if not integral:
                block[rng.randrange(m)][rng.randrange(n)] = Fraction(rng.choice((1, -1, 5)), den)
            blocks.append(block)
        ncols = sum(len(b[0]) for b in blocks) + rng.randint(0, 1)
        rows, offset = [], 0
        for block in blocks:
            for brow in block:
                row = [0] * ncols
                row[offset:offset + len(brow)] = brow
                rows.append(row)
            offset += len(block[0])
        rows += [[0] * ncols for _ in range(rng.randint(0, 1))]
        rng.shuffle(rows)
        cols = list(range(ncols))
        rng.shuffle(cols)
        rows = [[row[j] for j in cols] for row in rows]
        if field.char == 0:
            expected = rank_from_minors(rows)
        else:
            expected = sum(span_rank(b, field) for b in blocks)
        assert rank(rows, field) == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_row_ops_invariance(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        base = {f.char: rank(rows, f) for f in (QQ, GF(2), GF(3))}
        perm = rows[:]
        rng.shuffle(perm)
        scaled = [row[:] for row in perm]
        scaled[0] = [3 * e for e in scaled[0]]
        for f in (QQ, GF(2)):  # 3 is a unit in both
            assert rank(perm, f) == base[f.char]
            assert rank(scaled, f) == base[f.char]
        cols = list(range(n))
        rng.shuffle(cols)
        swapped = [[row[j] for j in cols] for row in rows]
        for f in (QQ, GF(2), GF(3)):
            assert rank(swapped, f) == base[f.char]


@st.composite
def field_matrices(draw):
    """A field and a matrix over it, with zero rows and columns mixed in."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3))))
    entry = st.integers(-3, 3)
    if field.char == 0:
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    entry = st.one_of(st.just(0), entry)
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    if rows and n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        rows = [row[:j] + [0] + row[j + 1:] for row in rows]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return field, rows


class TestRowEchelon:
    def test_empty(self):
        assert row_echelon([], QQ) == ([], [])
        assert row_echelon([[]], GF(2)) == ([], [])
        assert row_echelon([[0, 0], [0, 0]], GF(3)) == ([], [])

    def test_example(self):
        rows = [[0, 2, 4, 1], [0, 1, 2, Fraction(1, 3)], [3, 0, 0, 3]]
        echelon, pivots = row_echelon(rows, QQ)
        assert pivots == [0, 1, 3]
        assert echelon == [[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
        assert all(type(e) is Fraction for row in echelon for e in row)
        assert row_echelon([[2, 1], [1, 2]], GF(3)) == ([[1, 2]], [0])

    @given(field_matrices())
    @settings(max_examples=150, deadline=None)
    def test_reduced_form(self, case):
        # Checked against rank, whose kernels share no code with row_echelon.
        field, rows = case
        echelon, pivots = row_echelon(rows, field)
        assert len(echelon) == len(pivots) == rank(rows, field)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for row, c in zip(echelon, pivots):
            assert row[c] == 1
            assert not any(row[:c])
            assert all(other[c] == 0 for other in echelon if other is not row)
        assert rank(rows + echelon, field) == len(echelon)


class TestSnfInt:
    def test_zero_matrix(self):
        assert snf_int([[0, 0], [0, 0]]).invariant_factors == ()

    def test_diag_6_4(self):
        assert snf_int([[6, 0], [0, 4]]).invariant_factors == (2, 12)

    def test_rp2_boundary(self):
        # Boundary from triangles to edges of the 6-vertex projective plane;
        # the final invariant factor 2 witnesses the 2-torsion in H_1.
        from toricplex.simplicial import SimplicialComplex, boundary_matrix_int
        rp2 = SimplicialComplex.from_maximal_faces(
            [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
             [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]], 6)
        sf = snf_int(boundary_matrix_int(rp2, 3))
        assert sf.invariant_factors == (1,) * 9 + (2,)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_against_minor_gcd_oracle(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        assert snf_int(rows).invariant_factors == snf_from_minor_gcds(rows)


class TestSnfPoly:
    def test_monomials_gf2(self):
        f = GF(2)
        mat = [[Poly(f, [0, 0, 1]), Poly.zero(f)],
               [Poly.t(f), Poly.t(f)],
               [Poly.zero(f), Poly(f, [0, 0, 1])]]
        sf = snf_poly(mat, f)
        assert sf.invariant_factors == (Poly.t(f), Poly(f, [0, 0, 1]))

    def test_mixed_units(self):
        f = QQ
        mat = [[-Poly.t(f), Poly.zero(f)],
               [Poly.one(f), -Poly.one(f)],
               [Poly.zero(f), Poly.t(f)]]
        sf = snf_poly(mat, f)
        assert sf.invariant_factors == (Poly.one(f), Poly.t(f))

    def test_irreducible_diag(self):
        f = QQ
        g = Poly(f, [1, 1, 1])
        assert snf_poly([[g]], f).invariant_factors == (g,)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_against_minor_gcd_oracle(self, seed):
        rng = random.Random(seed)
        field = rng.choice([QQ, GF(2), GF(3)])
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[Poly(field, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
                 for _ in range(n)] for _ in range(m)]
        got = snf_poly(rows, field).invariant_factors
        assert got == snf_poly_from_minor_gcds(rows, field)
        for a, b in zip(got, got[1:]):
            assert a.divides(b)


class TestPolyOrd:
    def test_char0(self):
        f = QQ
        assert poly_ord(Poly(f, [-1, 0, 1]), Poly(f, [-1, 1])) == 1

    def test_char2(self):
        f = GF(2)
        assert poly_ord(Poly(f, [-1, 0, 1]), Poly(f, [-1, 1])) == 2

    def test_cyclotomic(self):
        f = QQ
        assert poly_ord(t_power_minus_one(6, f), Poly(f, [1, 1, 1])) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_ord(Poly.zero(QQ), Poly.t(QQ))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    @example(1415)
    def test_additivity(self, seed):
        # Additivity needs an irreducible f: Phi_3 = (t - 1)^2 over GF(3) is not.
        rng = random.Random(seed)
        field = rng.choice([QQ, GF(2), GF(3)])
        f = cyclotomic(rng.choice([1, 2] if field.char == 3 else [1, 2, 3]), field)
        if field.char != 0 and rng.random() < 0.5:
            f = Poly.t(field)

        def random_poly():
            while True:
                p = Poly(field, [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
                if not p.is_zero():
                    return p

        g, h = random_poly(), random_poly()
        assert poly_ord(g * h, f) == poly_ord(g, f) + poly_ord(h, f)


class TestCyclotomic:
    def test_low_indices(self):
        assert cyclotomic(1, QQ) == Poly(QQ, [-1, 1])
        assert cyclotomic(2, QQ) == Poly(QQ, [1, 1])
        assert cyclotomic(6, QQ) == Poly(QQ, [1, -1, 1])

    def test_product_recovers_t_power_minus_one(self):
        for m in (1, 2, 6, 12):
            prod = Poly.one(QQ)
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic(d, QQ)
            assert prod == t_power_minus_one(m, QQ)


class TestSeries:
    def test_inverse(self):
        s = Series.from_coeffs([1, -1], 6)
        assert (s * s.inverse()).coeffs == Series.one(6).coeffs
