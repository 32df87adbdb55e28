"""Finite abstract simplicial complexes with exact homology.

Faces are stored as bitmasks over a vertex universe of at most 64 slots, so
subset, link, and induction queries are single word operations.  Every
complex contains the empty face; the empty complex ``{0}`` (no vertices, one
empty face) is a legal value and is what links and inductions return when
nothing survives.

Integral homology of a graph is read off its components.  Otherwise it first
deletes reduction pairs from the chain complex of all faces, the empty face
included: coreductions (Mrozek and Batko, Discrete Comput. Geom. 41, 2009)
and collapses, each a unit-pivot reduction (Kaczynski, Mrozek and Slusarek,
Comput. Math. Appl. 35(4), 1998).  The Smith normal form runs only on what
is left.

The integral homology of every link lk_{L_W}(sigma) comes from one pass over
the faces per W (``SimplicialComplex.link_homologies``).  Each link's face
set is encoded as an int over the complex's own face index and its homology
is kept on the complex under that int, so a link met again under another W
or sigma is never rebuilt or reduced twice.
"""

from __future__ import annotations

import string
from functools import lru_cache

from .exact.fields import Field
from .exact.matrices import rank, snf_int

MAX_VERTICES = 64


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"v{i}" for i in range(n))


def bits(mask: int):
    """Ascending vertex indices of a face mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        bit = 1 << v
        if m & bit:
            raise ValueError(f"duplicate vertex {v} in face")
        m |= bit
    return m


class Graph:
    """Finite simple graph on a labelled vertex set."""

    __slots__ = ("n", "labels", "adj", "_flag")

    def __init__(self, n: int, edges, labels=None):
        if n > MAX_VERTICES:
            raise ValueError(f"at most {MAX_VERTICES} vertices supported")
        self.n = n
        self.labels = tuple(labels) if labels is not None else default_labels(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self._flag = None  # the flag complex, once built

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def disjoint_cliques(cls, sizes) -> "Graph":
        edges = []
        offset = 0
        for s in sizes:
            edges += [(offset + i, offset + j) for i in range(s) for j in range(i + 1, s)]
            offset += s
        return cls(offset, edges)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.adj[u] >> v & 1]

    def is_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def component_count(self, mask: int | None = None) -> int:
        """Number of connected components of the induced subgraph on ``mask``."""
        todo = ((1 << self.n) - 1) if mask is None else mask
        count = 0
        while todo:
            count += 1
            seed = todo & -todo
            comp = seed
            frontier = seed
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = self.adj[v] & todo & ~comp
                comp |= new
                frontier |= new
            todo &= ~comp
        return count

    def is_connected(self, mask: int | None = None) -> bool:
        todo = ((1 << self.n) - 1) if mask is None else mask
        return todo != 0 and self.component_count(todo) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))


class SimplicialComplex:
    """Downward-closed face set over a fixed vertex universe.

    ``induced`` and ``link`` keep the parent universe so masks remain
    comparable across derived complexes; the live vertex set is the set of
    singleton faces, which may be smaller than the universe.
    """

    __slots__ = ("n", "labels", "faces", "_by_size", "_face_index", "_link_memo")

    def __init__(self, n: int, faces, labels=None, _trusted=False):
        if n > MAX_VERTICES:
            raise ValueError(f"at most {MAX_VERTICES} vertices supported")
        self.n = n
        self.labels = tuple(labels) if labels is not None else default_labels(n)
        if len(self.labels) != n:
            raise ValueError("label count must match vertex count")
        faces = frozenset(faces)
        if not _trusted:
            if 0 not in faces:
                faces |= {0}
            for face in faces:
                for v in bits(face):
                    if face & ~((1 << n) - 1):
                        raise ValueError("face outside the vertex universe")
                    if face ^ (1 << v) not in faces:
                        raise ValueError("face set is not closed under subsets")
        self.faces = faces
        self._by_size = None
        self._face_index = None  # (faces in faces_by_size order, face -> 1 << its place)
        self._link_memo = {}     # a link's face set as an int -> its nonzero homology

    @classmethod
    def from_maximal_faces(cls, maximal, n: int, labels=None) -> "SimplicialComplex":
        """Downward closure of the given faces plus a singleton per vertex."""
        faces = {0} | {1 << v for v in range(n)}
        for face in maximal:
            m = mask_of(face) if not isinstance(face, int) else face
            if m & ~((1 << n) - 1):
                raise ValueError("face references a vertex outside the universe")
            stack = [m]
            while stack:
                cur = stack.pop()
                if cur in faces:
                    continue
                faces.add(cur)
                for v in bits(cur):
                    stack.append(cur ^ (1 << v))
        return cls(n, faces, labels, _trusted=True)

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls(0, {0}, (), _trusted=True)

    @classmethod
    def simplex(cls, n: int, labels=None) -> "SimplicialComplex":
        """The full (n-1)-simplex on n vertices."""
        return cls.from_maximal_faces([(1 << n) - 1], n, labels)

    @classmethod
    def flag_complex(cls, g: Graph) -> "SimplicialComplex":
        """Faces are the cliques of the graph; built once per graph and kept
        on it."""
        if g._flag is not None:
            return g._flag
        faces = {0}
        layer = [1 << v for v in range(g.n)]
        faces.update(layer)
        while layer:
            nxt = []
            for m in layer:
                common = (1 << g.n) - 1
                for v in bits(m):
                    common &= g.adj[v]
                top = m.bit_length() - 1
                for w in bits(common >> (top + 1) << (top + 1)):
                    cand = m | (1 << w)
                    if cand not in faces:
                        faces.add(cand)
                        nxt.append(cand)
            layer = nxt
        g._flag = cls(g.n, faces, g.labels, _trusted=True)
        return g._flag

    # -- queries -----------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def vertex_mask(self) -> int:
        m = 0
        for f in self.faces:
            m |= f
        return m

    def faces_by_size(self) -> tuple[tuple[int, ...], ...]:
        if self._by_size is None:
            dim1 = max(f.bit_count() for f in self.faces)
            grouped = [[] for _ in range(dim1 + 1)]
            for f in self.faces:
                grouped[f.bit_count()].append(f)
            self._by_size = tuple(tuple(sorted(g)) for g in grouped)
        return self._by_size

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex {0}."""
        return len(self.faces_by_size()) - 2

    def face_counts(self) -> tuple[int, ...]:
        """d_k = number of faces of size k, k = 0 .. dim+1."""
        return tuple(len(g) for g in self.faces_by_size())

    def has_face(self, mask: int) -> bool:
        return mask in self.faces

    def vertices(self) -> list[int]:
        return bits(self.vertex_mask)

    def label_face(self, mask: int) -> str:
        return "{" + " ".join(self.labels[v] for v in bits(mask)) + "}"

    def one_skeleton(self) -> Graph:
        edges = [tuple(bits(f)) for f in self.faces if f.bit_count() == 2]
        return Graph(self.n, edges, self.labels)

    # -- constructions -----------------------------------------------------

    def induced(self, w_mask: int) -> "SimplicialComplex":
        """Faces contained in ``w_mask``; the universe is kept."""
        return SimplicialComplex(
            self.n, {f for f in self.faces if f & ~w_mask == 0},
            self.labels, _trusted=True)

    def link(self, sigma: int, w_mask: int) -> "SimplicialComplex":
        """Faces tau inside ``w_mask`` with tau | sigma a face.

        ``sigma`` must itself be a face disjoint from ``w_mask``.
        """
        if sigma not in self.faces:
            raise ValueError("link of a non-face")
        if sigma & w_mask:
            raise ValueError("link vertex set must be disjoint from the simplex")
        return SimplicialComplex(
            self.n,
            {f ^ sigma for f in self.faces if f & sigma == sigma and (f ^ sigma) & ~w_mask == 0},
            self.labels, _trusted=True)

    def link_homologies(self, w_mask: int) -> dict[int, tuple]:
        """Nonzero reduced integral homology of ``link(sigma, w_mask)``, for
        every face sigma disjoint from ``w_mask`` whose link is not acyclic.

        Each value is a tuple of ``(degree, betti, torsion)`` entries in
        ascending degree, one per degree whose group is nonzero.  One pass
        over the faces: a face f lies in the link of ``f & ~w_mask`` as
        ``f & w_mask``.  Each link's face set is an int with bit k set for
        the k-th face in ``faces_by_size`` order, and its homology is kept on
        the complex under that int.
        """
        if self._face_index is None:
            order = tuple(f for g in self.faces_by_size() for f in g)
            self._face_index = order, {f: 1 << k for k, f in enumerate(order)}
        order, bit = self._face_index
        outside = ~w_mask
        groups = {}
        for f in self.faces:
            sigma = f & outside
            groups[sigma] = groups.get(sigma, 0) | bit[f & w_mask]
        memo = self._link_memo
        out = {}
        for sigma, key in groups.items():
            entries = memo.get(key)
            if entries is None:
                faces, rest = [], key
                while rest:
                    low = rest & -rest
                    faces.append(order[low.bit_length() - 1])
                    rest ^= low
                homology = _integral_homology(faces, faces[-1].bit_count())
                entries = memo[key] = tuple(
                    (deg, betti, torsion) for deg, (betti, torsion) in homology.items()
                    if betti or torsion)
            if entries:
                out[sigma] = entries
        return out

    def cone(self, apex_label: str | None = None) -> "SimplicialComplex":
        """Join with one fresh vertex, appended as the last universe slot."""
        apex = self.n
        labels = self.labels + (apex_label if apex_label is not None else f"c{apex}",)
        if labels.count(labels[-1]) > 1:
            raise ValueError("apex label collides with an existing vertex")
        faces = set(self.faces)
        faces.update(f | (1 << apex) for f in self.faces)
        return SimplicialComplex(self.n + 1, faces, labels, _trusted=True)

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Order complex of the poset of nonempty faces; always flag."""
        nonempty = sorted(self.faces - {0})
        if len(nonempty) > MAX_VERTICES:
            raise ValueError("subdivision exceeds the vertex cap")
        index = {f: i for i, f in enumerate(nonempty)}
        labels = tuple("".join(self.labels[v] for v in bits(f)) for f in nonempty)
        edges = [(index[f], index[g]) for f in nonempty for g in nonempty
                 if f != g and f & g == f]
        # Chains of faces are exactly the cliques of the comparability graph.
        return SimplicialComplex.flag_complex(Graph(len(nonempty), edges, labels))

    def is_flag(self) -> bool:
        return self.faces == SimplicialComplex.flag_complex(self.one_skeleton()).faces

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and (self.n, self.faces) == (other.n, other.faces))

    def __hash__(self):
        return hash((self.n, self.faces))

    def maximal_faces(self) -> list[int]:
        """Nonempty faces contained in no other face, ascending as masks."""
        return sorted(f for f in self.faces
                      if f and not any(g != f and g & f == f for g in self.faces))

    def __repr__(self):
        """A ``from_maximal_faces`` call that rebuilds the complex.

        ``from_maximal_faces`` makes every universe slot a vertex, so a link
        or induced subcomplex with slots that are not vertices does not
        round-trip.
        """
        faces = [bits(f) for f in self.maximal_faces()]
        labels = "" if self.labels == default_labels(self.n) else f", labels={self.labels!r}"
        return f"SimplicialComplex.from_maximal_faces({faces}, {self.n}{labels})"


# -- chain complexes and homology -----------------------------------------


def boundary_matrix_int(L: SimplicialComplex, s: int) -> list[list[int]]:
    """Simplicial boundary from size-s faces to size-(s-1) faces over Z.

    Ascending vertex order signs: dropping the r-th smallest vertex of a face
    carries sign (-1)^(r-1).  ``s = 1`` is the augmentation to the empty face.
    """
    by_size = L.faces_by_size()
    cols = by_size[s] if s < len(by_size) else ()
    rows = by_size[s - 1] if s - 1 < len(by_size) else ()
    idx = {f: i for i, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for r, v in enumerate(bits(face)):
            mat[idx[face ^ (1 << v)]][j] = -1 if r % 2 else 1
    return mat


def _reduce_by_unit_pivots(bd: dict) -> None:
    """Delete reduction pairs from a chain complex, in place.

    ``bd`` maps each cell to its boundary ``{cell: nonzero coefficient}``.
    A cell b with exactly one boundary cell a is paired with it
    (coreduction), and a cell a with exactly one coface b is paired with
    that coface (collapse), whenever the coefficient of a in the boundary of
    b is +-1.  Deleting such a pair changes no other coefficient, since the
    pivot is alone in its column or its row, and leaves a complex that is
    chain homotopy equivalent to the old one over Z.  Coreductions go first,
    spreading from the cells whose boundary just shrank, as in Mrozek and
    Batko; a collapse is tried only when none is pending.
    """
    cob = {c: {} for c in bd}
    for c, faces in bd.items():
        for a, k in faces.items():
            cob[a][c] = k
    shrunk, todo = [], list(bd)
    while shrunk or todo:
        if shrunk:
            b = shrunk.pop()
            faces = bd.get(b)
            if faces is None or len(faces) != 1:
                continue
            ((a, k),) = faces.items()
        else:
            c = todo.pop()
            faces = bd.get(c)
            if faces is None:
                continue
            if len(faces) == 1:
                ((a, k),) = faces.items()
                b = c
            elif len(cob[c]) == 1:
                ((b, k),) = cob[c].items()
                a = c
            else:
                continue
        if k != 1 and k != -1:
            continue
        for x in (a, b):
            for y in bd.pop(x):
                del cob[y][x]
                todo.append(y)
            for y in cob.pop(x):
                del bd[y][x]
                shrunk.append(y)


def _integral_homology(faces, top: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Reduced integral homology of a downward-closed face list that holds
    the empty face and whose largest faces have ``top`` vertices:
    degree -> (betti, torsion invariant factors), degrees -1 .. top - 2.

    A graph is read off its components.  Otherwise the chain complex of all
    faces, signed as in ``boundary_matrix_int``, is first cut down by
    ``_reduce_by_unit_pivots``; ``snf_int`` then sees only the boundary
    matrices of the cells left.
    """
    if top <= 2:
        return _graph_homology(faces, top)
    bd = {f: {f ^ (1 << v): -1 if r % 2 else 1 for r, v in enumerate(bits(f))}
          for f in faces}
    _reduce_by_unit_pivots(bd)
    by_size = [[] for _ in range(top + 1)]
    for c in bd:
        by_size[c.bit_count()].append(c)
    ranks = [0] * (top + 2)
    torsion = [()] * (top + 1)
    for s in range(1, top + 1):
        rows, cols = by_size[s - 1], by_size[s]
        if rows and cols:
            idx = {f: i for i, f in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for j, c in enumerate(cols):
                for a, k in bd[c].items():
                    mat[idx[a]][j] = k
            form = snf_int(mat)
            ranks[s] = form.rank
            torsion[s - 1] = tuple(d for d in form.invariant_factors if d > 1)
    return {s - 1: (len(by_size[s]) - ranks[s] - ranks[s + 1], torsion[s])
            for s in range(top + 1)}


def _graph_homology(faces, top: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """``_integral_homology`` of a complex of dimension at most 1: H~_0 is
    free of rank components - 1, and H_1 of rank edges - vertices +
    components."""
    if top == 0:
        return {-1: (1, ())}
    component, edges = {}, []   # vertex -> mask of its component
    for f in faces:
        if f.bit_count() == 1:
            component[f] = f
        elif f:
            edges.append(f)
    count = len(component)
    for e in edges:
        a, b = component[e & -e], component[e & (e - 1)]
        if a != b:
            count -= 1
            merged = a | b
            for v in bits(merged):
                component[1 << v] = merged
    out = {-1: (0, ()), 0: (count - 1, ())}
    if top == 2:
        out[1] = (len(edges) - len(component) + count, ())
    return out


@lru_cache(maxsize=None)
def reduced_homology_integral(L: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Reduced integral homology: degree -> (betti, torsion invariant factors).

    Degrees run from -1 (the empty-face degree) to dim L.  The empty complex
    {0} has reduced H_-1 = Z.  This is the whole-complex entry point, for
    ``reduced_dims`` and callers outside the library; the link-homology
    formula of ``aomoto._aah_table`` and ``kernels._link_conditions`` reads
    ``SimplicialComplex.link_homologies`` instead and never calls it.
    """
    return _integral_homology(L.faces, L.dim + 1)


def reduced_homology(L: SimplicialComplex, field: Field) -> dict[int, int]:
    """Reduced homology dimensions over the field, degree -1 .. dim L."""
    counts = L.face_counts()
    top = len(counts) - 1
    ranks = [0] + [rank(boundary_matrix_int(L, s), field) for s in range(1, top + 1)] + [0]
    return {s - 1: counts[s] - ranks[s] - ranks[s + 1] for s in range(0, top + 1)}


def dims_from_integral(integral: dict[int, tuple[int, tuple[int, ...]]],
                       field: Field) -> dict[int, int]:
    """Field dimensions from integral data by universal coefficients."""
    p = field.char
    out = {}
    for deg, (betti, torsion) in integral.items():
        d = betti
        if p:
            d += sum(1 for c in torsion if c % p == 0)
            lower = integral.get(deg - 1)
            if lower:
                d += sum(1 for c in lower[1] if c % p == 0)
        out[deg] = d
    return out


def reduced_dims(L: SimplicialComplex, field: Field) -> dict[int, int]:
    """Reduced homology dims over the field, via the cached integral form."""
    return dims_from_integral(reduced_homology_integral(L), field)


def boundary_dim(L: SimplicialComplex, i: int, field: Field) -> int:
    """dim of the image of the unreduced boundary C_{i+1} -> C_i."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return rank(boundary_matrix_int(L, i + 2), field)


def toric_betti(L: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers of the toric complex: b_k equals the size-k face count."""
    return L.face_counts()


def flagification_defect(L: SimplicialComplex):
    """(p, coinvariant rank) comparing L with the flag complex of its 1-skeleton.

    Returns (None, None) when L is flag, meaning p is infinite and the
    associated toric complex is aspherical.
    """
    delta = SimplicialComplex.flag_complex(L.one_skeleton())
    dl = L.face_counts()
    dd = delta.face_counts()
    if dl == dd:
        return None, None
    for k in range(len(dd)):
        if k >= len(dl) or dl[k] != dd[k]:
            return k - 1, dd[k] - (dl[k] if k < len(dl) else 0)
    raise AssertionError("unreachable")


# -- text format ------------------------------------------------------------


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex file format.

    Header line ``vertices: a b c ...``, then one maximal face per line as
    whitespace-separated labels; ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].startswith("vertices:"):
        raise ValueError("complex file must start with a 'vertices:' header")
    labels = tuple(lines[0][len("vertices:"):].split())
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex labels")
    index = {lab: i for i, lab in enumerate(labels)}
    faces = []
    for line in lines[1:]:
        names = line.split()
        try:
            faces.append([index[name] for name in names])
        except KeyError as e:
            raise ValueError(f"unknown vertex label {e.args[0]!r}") from None
    return SimplicialComplex.from_maximal_faces(faces, len(labels), labels)


def format_complex(L: SimplicialComplex, header: str | None = None) -> str:
    """Serialize a complex as its maximal faces."""
    out = []
    if header:
        out.append(f"# {header}")
    out.append("vertices: " + " ".join(L.labels))
    for f in L.maximal_faces():
        out.append(" ".join(L.labels[v] for v in bits(f)))
    return "\n".join(out) + "\n"
