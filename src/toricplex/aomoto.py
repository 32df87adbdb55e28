"""The exterior face ring of a complex, its Aomoto complexes, and quotients.

Degree-one classes act on the monomial basis ``t_sigma`` (one monomial per
face) by right multiplication; the cohomology of that action is computed two
independent ways: directly from multiplication matrices, and through the
combinatorial link-homology formula.  The two must agree everywhere; the test
suite enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact.fields import Field
from .exact.matrices import rank, row_echelon
from .simplicial import SimplicialComplex, bits


@dataclass(frozen=True)
class DegreeOneClass:
    """An element of the degree-one piece, one coefficient per vertex slot."""

    field: Field
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.field.of(c) for c in self.coeffs))

    @classmethod
    def zero(cls, field: Field, n: int) -> "DegreeOneClass":
        return cls(field, (0,) * n)

    @classmethod
    def from_support(cls, field: Field, w_mask: int, n: int) -> "DegreeOneClass":
        """The canonical class with coefficient 1 on each vertex of W."""
        return cls(field, tuple(1 if w_mask >> v & 1 else 0 for v in range(n)))

    @classmethod
    def from_weights(cls, field: Field, weights) -> "DegreeOneClass":
        """The class of an integer vertex weighting, reduced into the field."""
        return cls(field, tuple(weights))

    @property
    def support_mask(self) -> int:
        m = 0
        for v, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                m |= 1 << v
        return m

    def is_zero(self) -> bool:
        return self.support_mask == 0


def insertion_sign(vertex: int, face_mask: int) -> int:
    """(-1)^j where j is the sorted position the vertex lands in."""
    below = face_mask & ((1 << vertex) - 1)
    return -1 if below.bit_count() % 2 else 1


def merge_sign(left_mask: int, right_mask: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending faces."""
    inversions = 0
    for v in bits(right_mask):
        inversions += (left_mask >> (v + 1)).bit_count()
    return -1 if inversions % 2 else 1


def multiplication_matrix(L: SimplicialComplex, z: DegreeOneClass, i: int):
    """Matrix of right multiplication by z from degree i to degree i+1.

    Rows are indexed by size-(i+1) faces, columns by size-i faces.
    """
    by_size = L.faces_by_size()
    cols = by_size[i] if i < len(by_size) else ()
    rows = by_size[i + 1] if i + 1 < len(by_size) else ()
    idx = {f: r for r, f in enumerate(rows)}
    field = z.field
    mat = [[field.zero] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for v, c in enumerate(z.coeffs):
            if field.is_zero(c) or face >> v & 1:
                continue
            target = face | (1 << v)
            r = idx.get(target)
            if r is not None:
                sign = insertion_sign(v, face)
                mat[r][j] = c if sign > 0 else field.neg(c)
    return mat


def aomoto_betti_direct(L: SimplicialComplex, z: DegreeOneClass, i_max: int) -> list[int]:
    """Aomoto-Betti numbers from ranks of the multiplication matrices."""
    counts = L.face_counts()
    field = z.field
    ranks = []
    for i in range(i_max + 1):
        ranks.append(rank(multiplication_matrix(L, z, i), field))
    out = []
    for i in range(i_max + 1):
        d_i = counts[i] if i < len(counts) else 0
        out.append(d_i - ranks[i] - (ranks[i - 1] if i > 0 else 0))
    return out


@lru_cache(maxsize=None)
def _aah_table(L: SimplicialComplex, w_mask: int, field: Field) -> tuple[int, ...]:
    # beta_i for all i at once: each face sigma outside W contributes the
    # reduced homology of its link in L_W, shifted by 1 + |sigma|.  The link
    # homologies are integral, kept on L; over GF(p), universal coefficients
    # count each invariant factor divisible by p in its own degree and in the
    # degree above.
    p = field.char
    table = [0] * (len(L.face_counts()) + 1)
    for sigma, entries in L.link_homologies(w_mask).items():
        for deg, betti, torsion in entries:
            i = deg + 1 + sigma.bit_count()
            table[i] += betti
            if p:
                tor = sum(1 for c in torsion if c % p == 0)
                table[i] += tor
                table[i + 1] += tor
    return tuple(table)


def aomoto_betti_aah(L: SimplicialComplex, w_mask: int, field: Field,
                     i_max: int) -> list[int]:
    """Aomoto-Betti numbers by the combinatorial link-homology formula.

    The sum runs over faces of L outside W, including the empty face, with
    the convention that the empty complex has one unit of homology in
    degree -1.
    """
    table = list(_aah_table(L, w_mask & L.full_mask, field)[:i_max + 1])
    return table + [0] * (i_max + 1 - len(table))


def beta1_closed_form(L: SimplicialComplex, w_mask: int) -> int:
    """Degree-one Aomoto-Betti number via the two-term closed formula."""
    w_mask &= L.full_mask
    induced = L.induced(w_mask)
    vertices = induced.vertex_mask
    if vertices == 0:
        b0_tilde = 0
    else:
        b0_tilde = induced.one_skeleton().component_count(vertices) - 1
    undominated = 0
    for v in range(L.n):
        if w_mask >> v & 1 or not L.has_face(1 << v):
            continue
        link = L.link(1 << v, w_mask)
        if link.faces == frozenset({0}):
            undominated += 1
    return b0_tilde + undominated


@dataclass(frozen=True)
class QuotientRing:
    """Truncated quotient of the face ring by a degree-one class.

    ``basis`` holds the coset-representative monomials per degree: the
    non-pivot monomials of the reduced row echelon form of the image of the
    class.  ``products`` maps pairs of basis indices to coordinate vectors
    over the basis in the product degree, read off the same reduced form.
    """

    field: Field
    truncation: int
    basis: tuple            # per degree 0..truncation: tuple of face masks
    products: dict          # (i, a, j, b) -> tuple of coordinates in degree i+j

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    def product(self, i: int, a: int, j: int, b: int):
        if i == 0:
            coords = [self.field.zero] * len(self.basis[j])
            coords[b] = self.field.one
            return tuple(coords)
        if j == 0:
            coords = [self.field.zero] * len(self.basis[i])
            coords[a] = self.field.one
            return tuple(coords)
        return self.products[(i, a, j, b)]


def truncated_quotient(L: SimplicialComplex, z: DegreeOneClass, field: Field,
                       r: int) -> QuotientRing:
    """Graded basis and structure constants of the face ring modulo (z).

    In each degree the image of multiplication by z is brought to reduced row
    echelon form over the monomials, and every normal form is read off it: a
    non-pivot monomial is its own basis vector, and the monomial at pivot
    column c is -sum_j row_c[j] m_j over the non-pivot columns j.  The
    product of basis monomials m_a, m_b is merge_sign(m_a, m_b) times the
    normal form of m_a | m_b, and zero when the faces meet or their union is
    not a face.  The class must lie over ``field``.
    """
    if r < 0:
        raise ValueError("truncation degree must be nonnegative")
    if z.field != field:
        raise ValueError(f"the class lies over {z.field}, the quotient is taken over {field}")
    by_size = L.faces_by_size()
    basis = [(0,)]  # degree 0: the unit monomial
    normal_forms = {}  # degree -> {monomial: ((basis index, coeff), ...)}
    for i in range(1, r + 1):
        monomials = by_size[i] if i < len(by_size) else ()
        image = [list(col) for col in zip(*multiplication_matrix(L, z, i - 1)) if any(col)]
        echelon, pivots = row_echelon(image, field)
        pivot_set = set(pivots)
        free = [c for c in range(len(monomials)) if c not in pivot_set]
        basis.append(tuple(monomials[c] for c in free))
        forms = {monomials[c]: ((k, field.one),) for k, c in enumerate(free)}
        for row, c in zip(echelon, pivots):
            forms[monomials[c]] = tuple((k, field.neg(row[j])) for k, j in enumerate(free) if row[j])
        normal_forms[i] = forms
    products = {}
    for i in range(1, r):
        for j in range(1, r + 1 - i):
            forms = normal_forms[i + j]
            zero = (field.zero,) * len(basis[i + j])
            for a, ma in enumerate(basis[i]):
                for b, mb in enumerate(basis[j]):
                    form = None if ma & mb else forms.get(ma | mb)
                    if not form:
                        products[(i, a, j, b)] = zero
                        continue
                    coords = list(zero)
                    negate = merge_sign(ma, mb) < 0
                    for k, c in form:
                        coords[k] = field.neg(c) if negate else c
                    products[(i, a, j, b)] = tuple(coords)
    return QuotientRing(field, r, tuple(basis), products)
