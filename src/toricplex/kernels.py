"""Decision procedures for Artin kernels: finite generation, finite
presentability, FP_r, and the truncated cohomology ring of the cover.

All tests run on the flag complex of the defining graph, which is the
classifying space situation they are stated for.  Homological certificates
are exact; only the simple-connectivity part of the finite-presentation test
is three-valued, since a bounded presentation simplification may fail to
certify a trivial fundamental group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aomoto import DegreeOneClass, truncated_quotient, QuotientRing
from .exact.fields import Field
from .jumploci import resonance_membership
from .simplicial import Graph, SimplicialComplex, bits, reduced_dims
from .zcover import Character, monodromy_trivial, finite_dim_test, support


@dataclass(frozen=True)
class FinitenessReport:
    query: str
    verdict: str          # YES | NO | UNKNOWN
    witness: str | None = None

    def __bool__(self):
        return self.verdict == "YES"


class HypothesisRefusal(Exception):
    """A stated hypothesis fails; carries the offending witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _format_group(betti: int, torsion) -> str:
    parts = ["Z"] * betti + [f"Z_{c}" for c in torsion]
    return " + ".join(parts) if parts else "0"


def finitely_generated(gamma: Graph, chi: Character) -> FinitenessReport:
    """Connectivity plus domination of the supporting subgraph."""
    chi = chi.normalized()
    w = support(chi, 0)
    if not gamma.is_connected(w):
        return FinitenessReport("FG", "NO", "supporting subgraph is disconnected")
    for v in range(gamma.n):
        if not w >> v & 1 and not gamma.adj[v] & w:
            return FinitenessReport(
                "FG", "NO", f"vertex {gamma.labels[v]} has no neighbor in the support")
    return FinitenessReport("FG", "YES")


def _link_conditions(L: SimplicialComplex, w: int, r: int):
    """First failing (sigma, degree, group) with nonzero integral reduced
    homology of a link in the range forced by degree r, or None.

    Faces are tried in ``faces_by_size`` order, by size and then by mask, so
    equal complexes name the same witness."""
    links = L.link_homologies(w)
    for size, faces in enumerate(L.faces_by_size()):
        top = r - 1 - size
        if top < -1:
            break
        for sigma in faces:
            entries = links.get(sigma)   # ascending degree: the first is the lowest
            if entries and entries[0][0] <= top:
                deg, betti, torsion = entries[0]
                return sigma, deg, _format_group(betti, torsion)
    return None


def fp_r(gamma: Graph, chi: Character, r: int) -> FinitenessReport:
    """Homological finiteness through degree r, certified integrally.

    Integral vanishing of the link homology in the tested range is
    equivalent to vanishing over every field at once.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    chi = chi.normalized()
    L = SimplicialComplex.flag_complex(gamma)
    w = support(chi, 0)
    failure = _link_conditions(L, w, r)
    if failure is None:
        return FinitenessReport(f"FP_{r}", "YES")
    sigma, deg, group = failure
    where = "L_W" if sigma == 0 else f"lk({L.label_face(sigma)})"
    return FinitenessReport(f"FP_{r}", "NO", f"H~{deg}({where}; Z) = {group}")


def finitely_presented(gamma: Graph, chi: Character,
                       tietze_budget: int = 10_000) -> FinitenessReport:
    """Finite presentability: 1-connected support plus acyclic links.

    The homological requirements are decided exactly; simple connectivity is
    attempted via an edge-path presentation simplified by bounded Tietze
    moves, so the verdict may be UNKNOWN when homology allows a YES but the
    fundamental group resists certification.
    """
    chi = chi.normalized()
    L = SimplicialComplex.flag_complex(gamma)
    w = support(chi, 0)
    if not gamma.is_connected(w):
        return FinitenessReport("FP", "NO", "supporting subgraph is disconnected")
    failure = _link_conditions(L, w, 2)
    if failure is not None:
        sigma, deg, group = failure
        where = "L_W" if sigma == 0 else f"lk({L.label_face(sigma)})"
        return FinitenessReport("FP", "NO", f"H~{deg}({where}; Z) = {group}")
    status = _pi1_trivial(L.induced(w), tietze_budget)
    if status is True:
        return FinitenessReport("FP", "YES")
    if status is False:
        return FinitenessReport("FP", "NO", "supporting subcomplex has pi_1 != 1")
    return FinitenessReport(
        "FP", "UNKNOWN",
        "H_1 vanishes but pi_1-triviality was not certified within the move budget")


# -- edge-path fundamental group --------------------------------------------


def _pi1_trivial(K: SimplicialComplex, budget: int):
    """True/False when decided, None when the budget runs out.

    Presentation: one generator per edge of the 1-skeleton, one relator per
    triangle, and the edges of a spanning tree trivial.  The edge closure of
    ``_trivial_edges`` certifies pi_1 = 1 when it reaches every edge; only
    otherwise are the edges it leaves simplified by free reduction and
    generator elimination.
    """
    by_size = K.faces_by_size()
    if len(by_size) < 2:
        return True  # no vertices
    trivial = _trivial_edges(by_size)
    if trivial is None:
        return False  # disconnected: not even 0-connected
    edges = by_size[2] if len(by_size) > 2 else ()
    if len(trivial) == len(edges):
        return True
    gens = {}
    for e in edges:
        if e not in trivial:
            gens[e] = len(gens) + 1

    def edge_word(u, v):
        idx = gens.get(1 << u | 1 << v)
        if idx is None:
            return ()
        return (idx,) if u < v else (-idx,)

    relators = []
    for f in by_size[3] if len(by_size) > 3 else ():
        a, b, c = bits(f)
        relators.append(_free_reduce(edge_word(a, b) + edge_word(b, c) + edge_word(c, a)))
    return _tietze_trivial(set(gens.values()), relators, budget)


def _trivial_edges(by_size):
    """Edge masks that are trivial in pi_1 by closure, or None when the
    1-skeleton is disconnected; ``by_size`` is a ``faces_by_size()`` with
    at least one vertex.

    The edges of a spanning tree are trivial, and a triangle with two trivial
    edges makes its third edge trivial, since the triangle's boundary word is
    a relator.
    """
    vertices = by_size[1]
    adj = dict.fromkeys(vertices, 0)   # vertex bit -> its neighbours' bits
    for e in by_size[2] if len(by_size) > 2 else ():
        a = e & -e
        adj[a] |= e ^ a
        adj[e ^ a] |= a
    seen = frontier = vertices[0]
    todo = []   # the spanning tree's edges, then each edge found trivial
    while frontier:
        u = frontier & -frontier
        frontier ^= u
        new = adj[u] & ~seen
        seen |= new
        frontier |= new
        while new:
            v = new & -new
            new ^= v
            todo.append(u | v)
    if len(todo) != len(vertices) - 1:
        return None
    others = {}   # edge -> the other two edges of each triangle on it
    for f in by_size[3] if len(by_size) > 3 else ():
        a = f & -f
        b = f & (f - 1)
        b &= -b
        ab, ac, bc = a | b, f ^ b, f ^ a
        others.setdefault(ab, []).append((ac, bc))
        others.setdefault(ac, []).append((ab, bc))
        others.setdefault(bc, []).append((ab, ac))
    trivial = set(todo)
    while todo:
        for x, y in others.get(todo.pop(), ()):
            if x in trivial:
                x = y
            elif y not in trivial:
                continue
            if x not in trivial:
                trivial.add(x)
                todo.append(x)
    return trivial


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word):
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def _substitute(word, gen, replacement):
    out = []
    for x in word:
        if x == gen:
            out.extend(replacement)
        elif x == -gen:
            out.extend(-y for y in reversed(replacement))
        else:
            out.append(x)
    return _free_reduce(tuple(out))


def _tietze_trivial(generators: set[int], relators, budget: int):
    relators = [_cyclic_reduce(_free_reduce(r)) for r in relators]
    moves = 0
    while moves < budget:
        relators = [r for r in relators if r]
        if not generators:
            return True
        # A relator in which some generator appears exactly once lets us
        # eliminate that generator.
        target = None
        for r in relators:
            for pos, x in enumerate(r):
                if sum(1 for y in r if abs(y) == abs(x)) == 1:
                    target = (r, pos, x)
                    break
            if target:
                break
        if target is None:
            if not relators:
                return False  # free of positive rank
            return None
        r, pos, x = target
        # Cyclically, x * rest = 1, so x = rest^(-1).
        rest = r[pos + 1:] + r[:pos]
        replacement = tuple(-y for y in reversed(rest)) if x > 0 else tuple(rest)
        gen = abs(x)
        generators.discard(gen)
        relators = [_cyclic_reduce(_substitute(w, gen, replacement))
                    for w in relators if w is not r]
        moves += 1
    return None


# -- cover cohomology and the Bestvina-Brady dashboard -----------------------


def cover_cohomology_ring(L: SimplicialComplex, chi: Character, field: Field,
                          r: int) -> QuotientRing:
    """Truncated cohomology ring of the cover, valid under trivial monodromy.

    Refuses (with the monodromy witness) when the triviality hypothesis
    fails; in that case only a ring map, not an isomorphism, is available.
    """
    chi = chi.normalized()
    report = monodromy_trivial(L, chi, field, r)
    if not report.trivial:
        i, q, beta = report.witness
        raise HypothesisRefusal(
            f"monodromy is nontrivial: beta_{i} at the support mod {q} is {beta}",
            witness=report.witness)
    z = DegreeOneClass.from_weights(field, chi.weights)
    return truncated_quotient(L, z, field, r)


@dataclass(frozen=True)
class BBSummary:
    trivial_action: bool
    finite_dimensional: bool
    non_resonant: bool
    acyclic_below_r: bool
    fp_over_z: FinitenessReport

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return (self.trivial_action, self.finite_dimensional,
                self.non_resonant, self.acyclic_below_r)


def bb_summary(gamma: Graph, field: Field, r: int) -> BBSummary:
    """The four equivalent finiteness conditions for the diagonal character.

    Each condition is evaluated by its own route; their agreement is a
    theorem, so disagreement raises.  The FP_r verdict over the integers is
    cross-reported (it is the all-fields simultaneous version).
    """
    L = SimplicialComplex.flag_complex(gamma)
    nu = Character.diagonal(gamma.n)
    trivial = monodromy_trivial(L, nu, field, r).trivial
    findim = finite_dim_test(L, nu, field, r)
    nu_class = DegreeOneClass.from_support(field, L.full_mask, L.n)
    nonres = not any(resonance_membership(L, nu_class, i, 1) for i in range(1, r + 1))
    dims = reduced_dims(L, field)
    acyclic = all(dims.get(i, 0) == 0 for i in range(0, r))
    if not (trivial == findim == nonres == acyclic):
        raise AssertionError(
            f"equivalent conditions disagree: {(trivial, findim, nonres, acyclic)}")
    return BBSummary(trivial, findim, nonres, acyclic, fp_r(gamma, nu, r))
