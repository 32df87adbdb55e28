"""Jump loci of toric complexes as coordinate-subspace families.

Both the resonance and characteristic stratifications are unions of
coordinate pieces indexed by the same vertex subsets W, so one antichain of
maximal qualifying subsets serves both; no points are ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aomoto import DegreeOneClass, aomoto_betti_aah, aomoto_betti_direct
from .exact.fields import Field
from .simplicial import SimplicialComplex, bits

DEFAULT_VERTEX_CAP = 20


@dataclass(frozen=True)
class SubspaceFamily:
    """Maximal vertex subsets whose Aomoto-Betti number in degree i is >= d.

    The family is an antichain; the full stratum is the union of the
    coordinate subspaces k^W (resonance) or subtori (k^x)^W (characteristic)
    over all subsets of the members.
    """

    i: int
    d: int
    char: int
    members: tuple[int, ...]

    def contains_support(self, mask: int) -> bool:
        return any(mask & ~w == 0 for w in self.members)

    def labelled(self, labels) -> list[tuple[str, ...]]:
        named = [tuple(labels[v] for v in bits(w)) for w in self.members]
        return sorted(named)


def strata(L: SimplicialComplex, field: Field, i: int, d: int,
           cap: int = DEFAULT_VERTEX_CAP) -> SubspaceFamily:
    """Maximal W with beta_i(W) >= d, found by dualize and advance.

    This relies on the qualifying sets being closed under subsets, so the
    family is fixed by its maximal members and the sets just outside it are
    the minimal non-members.  The minimal transversals of the complements of
    the members found so far are the candidates for a further member
    (Gunopulos et al., ACM TODS 28(2), 2003): a qualifying candidate is grown
    one vertex at a time into a new member, and once no candidate qualifies
    they are exactly the minimal non-members.  The cost is about n
    evaluations per member plus one per minimal non-member.
    """
    if i < 1 or d < 1:
        raise ValueError("strata are indexed by i >= 1, d >= 1")
    if L.n > cap:
        raise ValueError(
            f"vertex count {L.n} exceeds the enumeration cap {cap}; "
            "query membership of individual classes instead")
    non_members: set[int] = set()

    def qualifies(w: int) -> bool:
        if w in non_members:
            return False
        if aomoto_betti_aah(L, w, field, i)[i] >= d:
            return True
        non_members.add(w)
        return False

    maximal: list[int] = []
    transversals = [0]
    while True:
        t = next((t for t in transversals if qualifies(t)), None)
        if t is None:
            break  # the transversals are now the minimal non-members
        for v in range(L.n):
            if not t >> v & 1 and qualifies(t | 1 << v):
                t |= 1 << v
        maximal.append(t)
        # Berge's step: add the complement of the new member as an edge.
        edge = L.full_mask & ~t
        hit = [s for s in transversals if s & edge]
        grown = [s | 1 << v for s in transversals if not s & edge for v in bits(edge)]
        transversals = hit + [s for s in grown if not any(h & ~s == 0 for h in hit)]
    return SubspaceFamily(i, d, field.char, tuple(sorted(maximal)))


def resonance_membership(L: SimplicialComplex, z: DegreeOneClass, i: int,
                         d: int) -> bool:
    """Whether z lies in the depth-d degree-i resonance stratum.

    Membership only depends on the support of z.
    """
    return aomoto_betti_aah(L, z.support_mask, z.field, i)[i] >= d


def local_system_betti(L: SimplicialComplex, rho, field: Field,
                       i_max: int) -> list[int]:
    """Homology dimensions with coefficients in the rank-1 local system rho.

    ``rho`` assigns a nonzero field scalar to each vertex; the computation
    goes through the Aomoto complex of the shifted class sum (rho(v)-1) v*.
    """
    rho = [field.of(c) for c in rho]
    if len(rho) != L.n:
        raise ValueError("one unit per vertex required")
    if any(field.is_zero(c) for c in rho):
        raise ValueError("local system values must be nonzero")
    z = DegreeOneClass(field, tuple(field.sub(c, field.one) for c in rho))
    return aomoto_betti_direct(L, z, i_max)
