"""Graded Lie algebra ranks attached to a graph and its Artin kernels.

Ranks of the lower central series and Chen quotients come from the clique
and cut polynomials by integer recurrences: the LCS ranks by the
log-derivative (Witt-formula) recursion for prod_k (1-t^k)^(phi_k), the
Chen ranks as binomial sums of the cut polynomial; degree
one-through-three holonomy dimensions come from a normalized spanning set of
the free Lie algebra in bracket length three.  The LCS recursion refuses
rather than rounds when a rank fails to be a non-negative integer, since
integrality is guaranteed by the governing hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, lcm

from .aomoto import DegreeOneClass, truncated_quotient, QuotientRing
from .exact.fields import QQ
from .exact.matrices import rank as matrix_rank
from .jumploci import resonance_membership
from .kernels import HypothesisRefusal
from .simplicial import Graph, SimplicialComplex, bits

CUT_VERTEX_CAP = 20


@dataclass(frozen=True)
class GradedRanks:
    kind: str              # LCS | CHEN | HOLONOMY
    start: int             # index of the first entry
    values: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        if k < self.start or k >= self.start + len(self.values):
            raise IndexError(f"rank index {k} outside computed range")
        return self.values[k - self.start]


def clique_polynomial(gamma: Graph) -> tuple[int, ...]:
    """Coefficients of the clique-counting polynomial, ascending from f_0 = 1."""
    return SimplicialComplex.flag_complex(gamma).face_counts()


def cut_polynomial(gamma: Graph, cap: int = CUT_VERTEX_CAP) -> tuple[int, ...]:
    """Coefficient j counts disconnections of induced subgraphs of size j."""
    if gamma.n > cap:
        raise ValueError(f"vertex count {gamma.n} exceeds the enumeration cap {cap}")
    counts = [0] * (gamma.n + 1)
    for size in range(2, gamma.n + 1):
        for combo in combinations(range(gamma.n), size):
            w = 0
            for v in combo:
                w |= 1 << v
            counts[size] += gamma.component_count(w) - 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _check_order(order: int):
    if not 0 <= order <= 30:
        raise ValueError(f"rank extraction needs 0 <= order <= 30, got {order}")


def _clique_alternating(gamma: Graph, order: int) -> list[int]:
    """P(-t) for the clique polynomial P, truncated after t^order."""
    p = clique_polynomial(gamma)[: order + 1]
    return [-c if k % 2 else c for k, c in enumerate(p)] + [0] * (order + 1 - len(p))


def _extract_exponents(target, order: int, kind: str) -> list[int]:
    """The phi_k with prod_k (1-t^k)^(phi_k) = target through degree order.

    ``target`` holds integer coefficients with target[0] = 1.  Applying
    t d/dt log to both sides gives a_n = -[t^n] t target'/target =
    sum_{k | n} k phi_k, so phi_n follows from the phi_k with k < n.
    """
    inv = [1] + [0] * order
    for n in range(1, order + 1):
        inv[n] = -sum(target[j] * inv[n - j] for j in range(1, n + 1))
    phis = []
    for n in range(1, order + 1):
        a = -sum(j * target[j] * inv[n - j] for j in range(1, n + 1))
        s = a - sum(k * phis[k - 1] for k in range(1, n) if n % k == 0)
        if s < 0 or s % n:
            raise ArithmeticError(
                f"{kind} rank at degree {n} is {Fraction(s, n)}, not a non-negative "
                "integer; the triviality hypothesis is violated")
        phis.append(s // n)
    return phis


def lcs_ranks(gamma: Graph, order: int) -> GradedRanks:
    """Lower-central-series ranks of the diagonal kernel, valid when its
    first homology carries a trivial deck action (e.g. a connected graph)."""
    _check_order(order)
    target = list(accumulate(_clique_alternating(gamma, order)))  # P(-t)/(1-t)
    return GradedRanks("LCS", 1, tuple(_extract_exponents(target, order, "LCS")))


def chen_ranks(gamma: Graph, order: int) -> GradedRanks:
    """Chen ranks from the cut polynomial composed with t/(1-t):
    [t^k] sum_j c_j (t/(1-t))^j = sum_j c_j C(k-1, j-1)."""
    _check_order(order)
    c = cut_polynomial(gamma)
    return GradedRanks("CHEN", 2, tuple(
        sum(cj * comb(k - 1, j - 1) for j, cj in enumerate(c) if j)
        for k in range(2, order + 1)))


def raag_lcs_ranks(gamma: Graph, order: int) -> GradedRanks:
    """Lower-central-series ranks of the ambient right-angled group itself."""
    _check_order(order)
    target = _clique_alternating(gamma, order)
    return GradedRanks("LCS", 1, tuple(_extract_exponents(target, order, "LCS")))


# -- holonomy Lie algebra dimensions in bracket length <= 3 ------------------


@dataclass(frozen=True)
class HolonomyPresentation:
    """Degree-one generator count plus the relation subspace in wedge-pair
    coordinates (pairs (i, j), i < j, ordered lexicographically)."""

    n: int
    relations: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        npairs = comb(self.n, 2)
        rels = tuple(tuple(Fraction(c) for c in row) for row in self.relations)
        if any(len(row) != npairs for row in rels):
            raise ValueError("relation rows must have one coordinate per vertex pair")
        object.__setattr__(self, "relations", rels)

    @classmethod
    def free(cls, n: int) -> "HolonomyPresentation":
        return cls(n, ())

    @classmethod
    def abelian(cls, n: int) -> "HolonomyPresentation":
        rows = []
        for k in range(comb(n, 2)):
            row = [0] * comb(n, 2)
            row[k] = 1
            rows.append(tuple(row))
        return cls(n, tuple(rows))


def _pair_index(n: int):
    pairs = list(combinations(range(n), 2))
    return pairs, {p: k for k, p in enumerate(pairs)}


def face_ring_presentation(L: SimplicialComplex) -> HolonomyPresentation:
    """Holonomy presentation of the rational face ring of L.

    The generators are the vertices; the relation subspace is spanned by the
    wedges of adjacent pairs.
    """
    verts = L.vertices()
    if len(verts) != L.n or verts != list(range(L.n)):
        raise ValueError("presentation requires every universe slot to be a vertex")
    pairs, index = _pair_index(L.n)
    rows = []
    for f in sorted(L.faces):
        if f.bit_count() == 2:
            row = [Fraction(0)] * len(pairs)
            u, v = bits(f)
            row[index[(u, v)]] = Fraction(1)
            rows.append(tuple(row))
    return HolonomyPresentation(L.n, tuple(rows))


def presentation_from_quotient(ring: QuotientRing) -> HolonomyPresentation:
    """Holonomy presentation of a degree-wise quotient ring truncation."""
    if ring.truncation < 2:
        raise ValueError("need the ring truncated in degree at least 2")
    n = ring.dims[1]
    d2 = ring.dims[2]
    pairs, _ = _pair_index(n)
    rows = []
    for k in range(d2):
        row = []
        for (a, b) in pairs:
            row.append(Fraction(ring.product(1, a, 1, b)[k]))
        rows.append(tuple(row))
    return HolonomyPresentation(n, tuple(rows))


def _lie3_basis(n: int):
    # Left-normed spanning set [[x_i, x_j], x_k], i < j, reduced by the
    # Jacobi rewriting to the basis with k >= i.
    kept = [((i, j), k) for i in range(n) for j in range(i + 1, n)
            for k in range(i, n)]
    assert len(kept) == n * (n * n - 1) // 3
    return kept, {b: idx for idx, b in enumerate(kept)}


def holonomy_dims(pres: HolonomyPresentation, up_to: int = 3) -> GradedRanks:
    """Dimensions of the holonomy Lie algebra in degrees 1..up_to (up_to <= 3).

    Degree 3 is computed in the left-normed basis, with the Jacobi rule
    [[x_i,x_j],x_k] = [[x_k,x_j],x_i] - [[x_k,x_i],x_j] rewriting brackets
    whose outer generator precedes the inner pair.
    """
    if not 1 <= up_to <= 3:
        raise ValueError("holonomy dimensions are computed for degrees 1..3")
    n = pres.n
    # Scaling a relation by the lcm of its denominators leaves every span,
    # and so every rank, unchanged.
    rows = []
    for row in pres.relations:
        den = lcm(*[c.denominator for c in row])
        rows.append([c.numerator * (den // c.denominator) for c in row])
    dims = [n]
    if up_to >= 2:
        dims.append(comb(n, 2) - matrix_rank(rows, QQ))
    if up_to >= 3:
        pairs, _ = _pair_index(n)
        basis, basis_idx = _lie3_basis(n)
        vectors = []
        for row in rows:
            support = [(pairs[k], c) for k, c in enumerate(row) if c]
            for ell in range(n):
                vec = [0] * len(basis)
                for (i, j), c in support:
                    if ell >= i:
                        vec[basis_idx[((i, j), ell)]] += c
                    else:
                        vec[basis_idx[((ell, j), i)]] += c
                        vec[basis_idx[((ell, i), j)]] -= c
                if any(vec):
                    vectors.append(vec)
        spanned = matrix_rank(vectors, QQ) if vectors else 0
        dims.append(len(basis) - spanned)
    return GradedRanks("HOLONOMY", 1, tuple(dims))


@dataclass(frozen=True)
class QuotientHolonomyReport:
    h_ambient: GradedRanks
    h_quotient: GradedRanks
    compared_degrees: tuple[int, ...]


def quotient_holonomy_check(L: SimplicialComplex, a: DegreeOneClass,
                            r: int) -> QuotientHolonomyReport:
    """Compare holonomy dimensions of the face ring and its quotient by a.

    Requires a to be non-resonant through degree r; under that hypothesis the
    metabelianized holonomy algebras agree in degrees 2..r+1, which for the
    computable range (degrees at most 3) is a dimension equality that is
    asserted outright.
    """
    if a.field.char != 0:
        raise ValueError("holonomy comparisons are rational")
    if not 1 <= r <= 2:
        raise ValueError("r must be 1 or 2")
    for i in range(1, r + 1):
        if resonance_membership(L, a, i, 1):
            raise HypothesisRefusal(
                f"class is resonant in degree {i}", witness=i)
    pres_a = face_ring_presentation(L)
    h_a = holonomy_dims(pres_a)
    ring_b = truncated_quotient(L, a, QQ, 2)
    h_b = holonomy_dims(presentation_from_quotient(ring_b))
    compared = tuple(range(2, min(r + 1, 3) + 1))
    for s in compared:
        assert h_a[s] == h_b[s], (
            f"holonomy dimension mismatch in degree {s}: {h_a[s]} vs {h_b[s]}")
    return QuotientHolonomyReport(h_a, h_b, compared)
