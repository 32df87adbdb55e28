"""Exact matrix routines: rank and reduced row echelon form over a field,
Smith normal form over Z and over k[t].

Matrices are lists of rows; an empty matrix (no rows or no columns) is legal
everywhere and has rank 0.  All arithmetic is exact.

``rank`` first splits the matrix along the connected components of the
bipartite graph joining row i to column j when entry (i, j) is nonzero.
Grouping the rows and columns of each component makes the matrix
block-diagonal, so its rank is the sum of the blocks' ranks, and each block
goes to the kernel of its field: bit-packed rows over GF(2), mod p
elimination over GF(p), and over Q fraction-free Bareiss elimination once
each row is scaled by the lcm of its denominators.  Multiplication matrices
of the exterior face ring split this way, one block per face outside the
support of the multiplier, but the split is read off the entries, not
assumed.

``row_echelon`` holds its rows sparse, as ``{column: nonzero value}`` dicts
with plain ints mod p over GF(p) and Fractions over Q.  Each input row is
reduced against the pivot rows kept so far, normalized to a leading 1 if it
is still nonzero, and then eliminated from the kept rows, so the kept rows
stay fully reduced and are emitted dense in pivot order.  The reduced form
is unique, so the order of the input rows does not change the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .fields import Field
from .poly import Poly


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors in divisibility order; ``rank`` equals their count.

    Factors are positive ints (integer case) or monic ``Poly`` (polynomial
    case); unit factors are kept so the count always equals the rank.
    """

    invariant_factors: tuple
    rank: int


def _rank_gf2(rows):
    # Rows packed into ints; plain xor elimination.
    packed = []
    for row in rows:
        bits = 0
        for j, e in enumerate(row):
            if e:
                bits |= 1 << j
        if bits:
            packed.append(bits)
    rank = 0
    while packed:
        pivot = packed.pop()
        rank += 1
        low = pivot & -pivot
        packed = [r ^ pivot if r & low else r for r in packed]
        packed = [r for r in packed if r]
    return rank


def _rank_mod_p(rows, p):
    work = [list(row) for row in rows]
    m, n = len(work), len(work[0])
    rank = 0
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv = pow(work[row][col], -1, p)
        prow = work[row]
        for i in range(row + 1, m):
            c = work[i][col]
            if c:
                f = (c * inv) % p
                wi = work[i]
                for j in range(col, n):
                    wi[j] = (wi[j] - f * prow[j]) % p
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def _rank_int_bareiss(rows):
    # Fraction-free elimination; exact over Z, avoids Fraction overhead.
    work = [list(r) for r in rows]
    m, n = len(work), len(work[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(row, m) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        p = work[row][col]
        for i in range(row + 1, m):
            wi = work[i]
            c = wi[col]
            for j in range(col, n):
                wi[j] = (p * wi[j] - c * work[row][j]) // prev
        prev = p
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def _integral_rows(rows, field):
    # Scaling a row by the lcm of its denominators leaves the rank unchanged.
    # Entries other than ints and Fractions go through the field, so a float
    # is read exactly.
    out = []
    for row in rows:
        row = [e if isinstance(e, (int, Fraction)) else field.of(e) for e in row]
        den = lcm(*[e.denominator for e in row])
        out.append([e.numerator * (den // e.denominator) for e in row])
    return out


def _blocks(rows):
    """Submatrices of the connected components of the nonzero pattern.

    A union-find over the columns joins each row's nonzero columns into one
    class, and the row belongs to that class; zero entries cost one truth
    test each.  Zero rows and zero columns belong to no block.  A matrix
    that is one block is returned as it is.
    """
    n = len(rows[0])
    columns = range(n)
    parent = list(columns)

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    supported = []
    used = set()
    for row in rows:
        cols = list(compress(columns, row))
        if cols:
            root = find(cols[0])
            for j in cols[1:]:
                r = find(j)
                if r != root:
                    parent[r] = root
            supported.append((cols[0], row))
            used.update(cols)
    block_rows = {}
    for first, row in supported:
        block_rows.setdefault(find(first), []).append(row)
    if len(block_rows) == 1 and len(used) == n and len(supported) == len(rows):
        return [rows]
    block_cols = {}
    for j in sorted(used):
        block_cols.setdefault(find(j), []).append(j)
    return [[[row[j] for j in block_cols[root]] for row in members]
            for root, members in block_rows.items()]


def _block_rank(rows, field):
    if field.char == 2:
        return _rank_gf2(rows)
    if field.char > 0:
        return _rank_mod_p(rows, field.char)
    return _rank_int_bareiss(_integral_rows(rows, field))


def rank(rows, field: Field) -> int:
    """Rank of a matrix with entries in the given field.

    Entries may be ints or Fractions in any characteristic; any other number
    is read exactly through ``Fraction``, and over GF(p) a Fraction whose
    denominator p divides raises ``ZeroDivisionError``.
    """
    if not rows or not rows[0]:
        return 0
    p = field.char
    if p:  # the GF(p) kernels take entries reduced into [0, p)
        rows = [[e % p if isinstance(e, int) else field.of(e) for e in row] for row in rows]
    return sum(_block_rank(block, field) for block in _blocks(rows))


def _subtract(target, f, source, p):
    # target -= f * source in place, mod p when p > 0; zeros are dropped.
    for j, e in source.items():
        x = target.get(j, 0) - f * e
        if p:
            x %= p
        if x:
            target[j] = x
        else:
            del target[j]


def _rref_sparse(vectors, p):
    # Rows are {column: nonzero value}: ints in [1, p) over GF(p), Fractions
    # over Q (p = 0).  A kept row has a 1 at its pivot and 0 in every other
    # kept row's pivot column.
    kept = {}
    for vec in vectors:
        for c in [c for c in vec if c in kept]:
            _subtract(vec, vec[c], kept[c], p)
        if not vec:
            continue
        lead = min(vec)
        if vec[lead] != 1:
            inv = pow(vec[lead], -1, p) if p else 1 / vec[lead]
            vec = {j: e * inv % p if p else e * inv for j, e in vec.items()}
        for row in kept.values():
            if lead in row:
                _subtract(row, row[lead], vec, p)
        kept[lead] = vec
    return kept


def row_echelon(rows, field: Field):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns): the nonzero rows of the reduced
    form, dense and in pivot order, each with 1 at its pivot.  Entries are
    coerced as by ``Field.of``: ints in [0, p) over GF(p), Fractions over Q.
    """
    if not rows or not rows[0]:
        return [], []
    vectors = []
    for row in rows:
        vec = {j: field.of(e) for j, e in enumerate(row) if e}
        vectors.append({j: e for j, e in vec.items() if e})
    kept = _rref_sparse(vectors, field.char)
    pivots = sorted(kept)
    echelon = []
    for c in pivots:
        dense = [field.zero] * len(rows[0])
        for j, e in kept[c].items():
            dense[j] = e
        echelon.append(dense)
    return echelon, pivots


def snf_int(rows) -> SmithForm:
    """Smith normal form over Z: positive invariant factors d1 | d2 | ..."""
    if not rows or not rows[0]:
        return SmithForm((), 0)
    a = [[int(e) for e in row] for row in rows]
    m, n = len(a), len(a[0])
    factors = []
    k = 0
    while k < min(m, n):
        # Pivot: nonzero entry of smallest absolute value in the submatrix.
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        while True:
            # Clear column k by division; a smaller remainder becomes the pivot.
            restart = False
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    for j in range(k, n):
                        a[i][j] -= q * a[k][j]
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    for row in a:
                        row[j] -= q * row[k]
                    if a[k][j] != 0:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        restart = True
                        break
            if restart:
                continue
            # Pivot must divide every remaining entry for the chain to hold.
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if a[i][j] % a[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, n):
                a[k][j] += a[offender][j]
        factors.append(abs(a[k][k]))
        k += 1
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0
    return SmithForm(tuple(factors), len(factors))


def snf_poly(rows, field: Field) -> SmithForm:
    """Smith normal form over k[t], with monic invariant factors.

    Pivots on the entry of minimal degree, which bounds intermediate degree
    growth; division remainders strictly drop the pivot degree so the
    elimination terminates.
    """
    if not rows or not rows[0]:
        return SmithForm((), 0)
    a = [[e if isinstance(e, Poly) else Poly.constant(field, e) for e in row]
         for row in rows]
    m, n = len(a), len(a[0])
    factors = []
    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if not a[i][j].is_zero() and (
                        best is None or a[i][j].degree < a[best[0]][best[1]].degree):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        while True:
            restart = False
            for i in range(k + 1, m):
                if not a[i][k].is_zero():
                    q = a[i][k] // a[k][k]
                    for j in range(k, n):
                        a[i][j] = a[i][j] - q * a[k][j]
                    if not a[i][k].is_zero():
                        a[k], a[i] = a[i], a[k]
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, n):
                if not a[k][j].is_zero():
                    q = a[k][j] // a[k][k]
                    for row in a:
                        row[j] = row[j] - q * row[k]
                    if not a[k][j].is_zero():
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not a[k][k].divides(a[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, n):
                a[k][j] = a[k][j] + a[offender][j]
        factors.append(a[k][k].monic())
        k += 1
    for x, y in zip(factors, factors[1:]):
        assert x.divides(y)
    return SmithForm(tuple(factors), len(factors))
