"""Shared independent oracles for the test suite.

Everything here is deliberately brute-force (exhaustive minors, direct
expansion, Witt's formula) so it cannot share a failure mode with the
implementation under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from toricplex.aomoto import aomoto_betti_aah
from toricplex.exact import Poly
from toricplex.exact.matrices import snf_int
from toricplex.simplicial import boundary_matrix_int


def int_minors_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix, by exhaustive expansion."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            g = gcd(g, _int_det([[rows[i][j] for j in csel] for i in rsel]))
    return g


def _int_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _int_det(minor)
    return total


def rank_from_minors(rows):
    """Rank over Q: the largest k whose k x k minors have a nonzero gcd.

    Rows are scaled by the lcm of their denominators first, which keeps the
    rank and makes every minor an integer.
    """
    ints = []
    for row in rows:
        scale = 1
        for e in row:
            scale = lcm(scale, Fraction(e).denominator)
        ints.append([int(e * scale) for e in row])
    k = 0
    while k < min(len(ints), len(ints[0]) if ints else 0) and int_minors_gcd(ints, k + 1):
        k += 1
    return k


def span_rank(rows, field):
    """Rank over GF(p), by counting the vectors in the row space."""
    vectors = [[field.of(e) for e in row] for row in rows]
    span = set()
    for coeffs in itertools.product(range(field.char), repeat=len(vectors)):
        span.add(tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % field.char
                       for j in range(len(vectors[0]))))
    k = 0
    while field.char ** k < len(span):
        k += 1
    return k


def strata_by_scan(L, field, i, d):
    """Maximal W with beta_i(W) >= d, by evaluating every one of the 2^n subsets.

    Nothing is pruned, so this does not assume that the qualifying sets are
    closed under subsets.
    """
    qualifying = [w for w in range(1 << L.n)
                  if aomoto_betti_aah(L, w, field, i)[i] >= d]
    return tuple(w for w in qualifying
                 if not any(w != u and w & ~u == 0 for u in qualifying))


def homology_from_full_boundaries(L):
    """Reduced integral homology, degree -> (betti, torsion), from the Smith
    forms of the full boundary matrices of every degree, nothing reduced."""
    counts = L.face_counts()
    top = len(counts) - 1
    forms = [snf_int(boundary_matrix_int(L, s)) for s in range(1, top + 1)]
    ranks = [0] + [form.rank for form in forms] + [0]
    return {s - 1: (counts[s] - ranks[s] - ranks[s + 1],
                    tuple(d for d in forms[s].invariant_factors if d > 1) if s < top else ())
            for s in range(top + 1)}


def snf_from_minor_gcds(rows):
    """Invariant factors of an integer matrix via determinantal divisors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = int_minors_gcd(rows, k)
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[k] // divisors[k - 1] for k in range(1, len(divisors)))


def poly_minors_gcd(rows, k, field):
    """Monic gcd of all k x k minors of a Poly matrix."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = Poly.zero(field)
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            d = _poly_det([[rows[i][j] for j in csel] for i in rsel], field)
            g = d if g.is_zero() else g.gcd(d)
    return g.monic()


def _poly_det(a, field):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = Poly.zero(field)
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * _poly_det(minor, field)
        total = total + (term if j % 2 == 0 else -term)
    return total


def snf_poly_from_minor_gcds(rows, field):
    m, n = len(rows), len(rows[0]) if rows else 0
    divisors = [Poly.one(field)]
    for k in range(1, min(m, n) + 1):
        g = poly_minors_gcd(rows, k, field)
        if g.is_zero():
            break
        divisors.append(g)
    return tuple((divisors[k] // divisors[k - 1]).monic() for k in range(1, len(divisors)))


def witt(n, k):
    """Rank of the degree-k piece of the free Lie algebra on n generators."""
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += _mobius(d) * n ** (k // d)
    assert total % k == 0
    return total // k


def _mobius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def expand_rational_series(num_coeffs, den_coeffs, order):
    """Coefficients of num/den as exact rationals up to the given order."""
    num = [Fraction(c) for c in num_coeffs] + [Fraction(0)] * (order + 1)
    den = [Fraction(c) for c in den_coeffs]
    assert den[0] != 0
    out = []
    state = num[: order + 1]
    for k in range(order + 1):
        c = state[0] / den[0]
        out.append(c)
        state = [state[i + 1] - c * (den[i + 1] if i + 1 < len(den) else 0)
                 for i in range(len(state) - 1)]
    return out
