"""Seeded query streams for the benchmark workloads, and the checks that
verify each answer by an independent route.

A workload is an endless stream of queries drawn from ``random.Random``
seeded with the workload name and the run's seed, so one seed always yields
the same inputs.  Every call into the library goes through a module
attribute looked up at call time (``zcover.full_decomposition``, never a name
imported into this file), so the tracer's rebinding of those attributes
reaches the benchmark's own calls as well as the library's internal ones.

Checks run only after the timed loop, on the recorded answers, so they never
warm a cache the timed path reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from toricplex import aomoto, exact, jumploci, kernels, lieranks, simplicial, zcover

QQ = exact.QQ
GF2 = exact.GF(2)
GF3 = exact.GF(3)


class CheckFailure(Exception):
    """An answer disagreed with its independent check."""


@dataclass
class Query:
    kind: str
    key: tuple                          # the inputs: equal keys mean identical queries
    call: Callable[[], object]          # the timed library call
    check: Callable[[object], None]     # raises CheckFailure on a wrong answer


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- input generators ----------------------------------------------------------


def random_complex(rng: random.Random, n: int) -> simplicial.SimplicialComplex:
    """n vertices; between n/2 and n random maximal faces of 2 to 4 vertices.

    Denser complexes make the direct oracle's Smith forms over Q[t] blow up
    (minutes for one answer), too slow to check every answer of a run.
    """
    faces = [rng.sample(range(n), rng.randint(2, 4))
             for _ in range(rng.randint(n // 2, n))]
    return simplicial.SimplicialComplex.from_maximal_faces(faces, n)


def connected_complex(rng: random.Random, n: int) -> simplicial.SimplicialComplex:
    """A random spanning tree plus n+1 triangles and two tetrahedra.

    Connectedness keeps the full vertex set out of the degree-1 strata, so
    every stratum query scans down through the subsets; the fixed face mix
    keeps the cost of one complex close to that of the next.
    """
    order = list(range(n))
    rng.shuffle(order)
    faces = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    faces += [rng.sample(range(n), 3) for _ in range(n + 1)]
    faces += [rng.sample(range(n), 4) for _ in range(2)]
    return simplicial.SimplicialComplex.from_maximal_faces(faces, n)


def connected_graph(rng: random.Random, n: int) -> simplicial.Graph:
    """A random spanning tree plus up to 2n random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return simplicial.Graph(n, sorted(edges))


def coprime_weights(rng: random.Random, n: int, bound: int = 6) -> zcover.Character:
    """Weights in [-bound, bound] with gcd 1, so no normalization is needed."""
    while True:
        weights = [rng.randint(-bound, bound) for _ in range(n)]
        g = 0
        for w in weights:
            g = gcd(g, w)
        if g == 1:
            return zcover.Character(tuple(weights))


# -- shared check helpers --------------------------------------------------------


class DirectBetti:
    """Aomoto-Betti numbers by ranks of multiplication matrices, memoized per
    (complex, field, support) for the check phase only."""

    def __init__(self, i_max: int):
        self.i_max = i_max
        self._memo: dict = {}

    def __call__(self, L, field, w_mask: int) -> list[int]:
        key = (L, field, w_mask)
        if key not in self._memo:
            z = aomoto.DegreeOneClass.from_support(field, w_mask, L.n)
            self._memo[key] = aomoto.aomoto_betti_direct(L, z, self.i_max)
        return self._memo[key]


# -- zcover-fresh ------------------------------------------------------------------


def zcover_fresh(rng: random.Random):
    """Cover-homology decompositions of fresh weighted complexes.

    Each query draws a complex never seen before in the run (6-8 vertices,
    faces of up to 4 vertices) and coprime weights with |w| <= 6; the field
    cycles through Q, GF(2), GF(3).  Checked against the direct oracle.
    """
    seen = set()
    fields = (QQ, GF2, GF3)
    index = 0
    while True:
        n = rng.randint(6, 8)
        L = random_complex(rng, n)
        if L in seen:
            continue
        seen.add(L)
        chi = coprime_weights(rng, n)
        field = fields[index % 3]

        def check(answer, L=L, chi=chi, field=field):
            oracle = zcover.direct_oracle(L, chi, field)
            _expect(answer == oracle, f"decomposition {answer} != oracle {oracle}")

        yield Query("full_decomposition", (L, chi, field.char),
                    lambda L=L, chi=chi, field=field: zcover.full_decomposition(L, chi, field),
                    check)
        index += 1


# -- strata-hot ----------------------------------------------------------------------

STRATA_FIELDS = (QQ, GF2)
SESSION_ROUNDS = 6        # rounds of the same queries against one complex
SESSION_CHARACTERS = 3    # characters per complex for the cover and kernel queries
HOT_DEGREE = 2            # r for monodromy, finite-dimensionality and FP_r


def strata_hot(rng: random.Random):
    """Jump-locus, monodromy and finiteness queries with heavy reuse.

    The stream is a sequence of sessions.  A session draws one connected
    complex (10 and 11 vertices alternate) and a few characters, then asks the
    same batch of queries SESSION_ROUNDS times: the first round fills the
    caches, the later ones hit them.
    """
    session = 0
    while True:
        L = connected_complex(rng, 10 + session % 2)
        chars = [coprime_weights(rng, L.n) for _ in range(SESSION_CHARACTERS)]
        batch = list(_strata_session(L, chars))
        for _ in range(SESSION_ROUNDS):
            yield from batch
        session += 1


def _strata_session(L, chars):
    direct = DirectBetti(HOT_DEGREE)
    for field in STRATA_FIELDS:
        for i in (1, 2):
            for d in (1, 2):
                yield Query(
                    "strata", ("strata", L, field.char, i, d),
                    lambda field=field, i=i, d=d: jumploci.strata(L, field, i, d),
                    lambda ans, field=field, i=i, d=d: _check_strata(L, field, i, d, ans, direct))
    for chi in chars:
        for field in STRATA_FIELDS:
            yield Query(
                "monodromy_trivial", ("mono", L, chi, field.char),
                lambda chi=chi, field=field: zcover.monodromy_trivial(L, chi, field, HOT_DEGREE),
                lambda ans, chi=chi, field=field: _check_monodromy(L, chi, field, ans, direct))
            yield Query(
                "finite_dim_test", ("findim", L, chi, field.char),
                lambda chi=chi, field=field: zcover.finite_dim_test(L, chi, field, HOT_DEGREE),
                lambda ans, chi=chi, field=field: _check_finite_dim(L, chi, field, ans, direct))
    g = L.one_skeleton()
    for chi in chars:
        for r in (2, 3):
            yield Query(
                "fp_r", ("fpr", g, chi, r),
                lambda chi=chi, r=r: kernels.fp_r(g, chi, r),
                lambda ans, chi=chi, r=r: _check_fp_r(g, chi, r, ans))
        yield Query(
            "finitely_presented", ("fp", g, chi),
            lambda chi=chi: kernels.finitely_presented(g, chi),
            lambda ans, chi=chi: _check_fp(g, chi, ans))


def _check_strata(L, field, i, d, family, direct):
    _expect((family.i, family.d, family.char) == (i, d, field.char), "wrong family header")
    for w in family.members:
        _expect(direct(L, field, w)[i] >= d, f"member {w:#x} has beta_{i} < {d}")
        for v in range(L.n):
            if not w >> v & 1:
                _expect(direct(L, field, w | 1 << v)[i] < d,
                        f"member {w:#x} extends by vertex {v}")


def _monodromy_supports(chi, field):
    supports = [zcover.support(chi, field.char)]
    supports += [zcover.support(chi, q) for q in sorted(zcover.prime_set(chi))
                 if q != field.char]
    return supports


def _check_monodromy(L, chi, field, report, direct):
    trivial = all(not any(direct(L, field, w)[1:HOT_DEGREE + 1])
                  for w in _monodromy_supports(chi, field))
    _expect(report.trivial == trivial, f"monodromy verdict {report.trivial} != {trivial}")


def _check_finite_dim(L, chi, field, verdict, direct):
    finite = not any(direct(L, field, zcover.support(chi, 0))[1:HOT_DEGREE + 1])
    _expect(verdict == finite, f"finite-dimensionality verdict {verdict} != {finite}")


def _check_fp_r(g, chi, r, report):
    if report.verdict == "YES":
        _expect(kernels.finitely_generated(g, chi).verdict == "YES", f"FP_{r} without FG")
        if r > 2:
            _expect(kernels.fp_r(g, chi, 2).verdict == "YES", f"FP_{r} without FP_2")


def _check_fp(g, chi, report):
    _expect(report.verdict in ("YES", "NO", "UNKNOWN"), f"verdict {report.verdict}")
    if report.verdict == "YES":
        _expect(kernels.fp_r(g, chi, 2).verdict == "YES", "FP without FP_2")


# -- ranks-mixed --------------------------------------------------------------------

RING_DEGREE = 3
LIE_ORDER = 10
BETTI_DEGREE = 3


def ranks_mixed(rng: random.Random):
    """Rank-bound queries on fresh inputs, one round of ten kinds at a time.

    Each round draws a complex (8-12 vertices, cycling), a cone base (8-11),
    and a connected graph (7-9).  Aomoto-Betti numbers are asked for integral
    and non-integral rational classes and over GF(2) and GF(3), so all four
    rank kernels run; local systems over Q and GF(3); the cover cohomology
    ring of the cone with the diagonal character (the field cycles); and the
    holonomy, lower-central-series and Chen ranks of the graph.
    """
    index = 0
    while True:
        yield from _ranks_round(rng, index)
        index += 1


def _ranks_round(rng, index):
    n = 8 + index % 5
    L = random_complex(rng, n)
    classes = (
        aomoto.DegreeOneClass(QQ, [rng.randint(-3, 3) for _ in range(n)]),
        _fractional_class(rng, n),
        aomoto.DegreeOneClass(GF2, [rng.randint(0, 1) for _ in range(n)]),
        aomoto.DegreeOneClass(GF3, [rng.randint(0, 2) for _ in range(n)]),
    )
    local_systems = [(field, [rng.choice(values) for _ in range(n)]) for field, values in (
        (QQ, (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))), (GF3, (1, 2)))]
    cone = random_complex(rng, 8 + index % 4).cone()
    ring_field = (QQ, GF2, GF3)[index % 3]
    g = connected_graph(rng, 7 + index % 3)

    queries = [Query("aomoto_betti_direct", ("direct", L, z),
                     lambda z=z: aomoto.aomoto_betti_direct(L, z, BETTI_DEGREE),
                     lambda ans, z=z: _check_direct(L, z.field, z.support_mask, ans))
               for z in classes]
    queries += [Query("local_system_betti", ("local", L, field.char, tuple(rho)),
                      lambda field=field, rho=rho: jumploci.local_system_betti(
                          L, rho, field, BETTI_DEGREE),
                      lambda ans, field=field, rho=rho: _check_direct(
                          L, field, _shifted_support(rho, field), ans))
                for field, rho in local_systems]
    queries += [
        Query("cover_cohomology_ring", ("ring", cone, ring_field.char),
              lambda: kernels.cover_cohomology_ring(
                  cone, zcover.Character.diagonal(cone.n), ring_field, RING_DEGREE),
              lambda ans: _check_ring(cone, ring_field, ans)),
        Query("holonomy_dims", ("holonomy", g),
              lambda: lieranks.holonomy_dims(lieranks.face_ring_presentation(
                  simplicial.SimplicialComplex.flag_complex(g))),
              lambda ans: _expect(ans.values == lieranks.raag_lcs_ranks(g, 3).values,
                                  "holonomy dims differ from the ambient group's ranks")),
        Query("lcs_ranks", ("lcs", g),
              lambda: lieranks.lcs_ranks(g, LIE_ORDER),
              lambda ans: _check_lcs(g, ans)),
        Query("chen_ranks", ("chen", g),
              lambda: lieranks.chen_ranks(g, LIE_ORDER),
              lambda ans: _check_chen(g, ans)),
    ]
    return queries


def _fractional_class(rng, n):
    coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    coeffs[rng.randrange(n)] = Fraction(rng.choice((1, -1, 3)), 2)
    return aomoto.DegreeOneClass(QQ, coeffs)


def _shifted_support(rho, field):
    return sum(1 << v for v, c in enumerate(rho) if field.of(c) != field.one)


def _check_direct(L, field, w_mask, answer):
    expected = aomoto.aomoto_betti_aah(L, w_mask, field, BETTI_DEGREE)
    _expect(list(answer) == expected, f"direct {answer} != combinatorial {expected}")


def _check_ring(cone, field, ring):
    counts = cone.face_counts()
    z = aomoto.DegreeOneClass.from_weights(field, (1,) * cone.n)
    expected = [1]
    for i in range(1, RING_DEGREE + 1):
        d_i = counts[i] if i < len(counts) else 0
        image = aomoto.multiplication_matrix(cone, z, i - 1)
        expected.append(d_i - exact.rank(image, field))
    _expect(list(ring.dims) == expected, f"ring dims {ring.dims} != {expected}")


def _check_lcs(g, phi):
    # (1 - t) * prod_k (1 - t^k)^phi_k must equal P(-t) up to the order.
    prod = exact.Series.from_coeffs((1, -1), LIE_ORDER)
    for k in range(1, LIE_ORDER + 1):
        factor = exact.Series.from_coeffs((1,) + (0,) * (k - 1) + (-1,), LIE_ORDER)
        prod = prod * factor.pow(phi[k])
    p_alt = [c if k % 2 == 0 else -c for k, c in enumerate(lieranks.clique_polynomial(g))]
    _expect(prod.coeffs == exact.Series.from_coeffs(p_alt, LIE_ORDER).coeffs,
            "LCS ranks break the clique-polynomial product identity")


def _check_chen(g, theta):
    # Chen and LCS ranks agree in degrees 2 and 3, and for k >= 2 the kernel's
    # LCS ranks equal the ambient group's, computed from the clique polynomial.
    phi = lieranks.raag_lcs_ranks(g, 3)
    _expect((theta[2], theta[3]) == (phi[2], phi[3]),
            f"Chen ranks {theta.values[:2]} != LCS ranks {phi.values[1:]}")


WORKLOADS = {
    "zcover-fresh": zcover_fresh,
    "strata-hot": strata_hot,
    "ranks-mixed": ranks_mixed,
}

# Queries per throughput window: whole sessions (one 10- and one 11-vertex
# complex) for strata-hot, whole rounds for ranks-mixed.
WINDOW_QUERIES = {
    "zcover-fresh": 30,
    "strata-hot": 2 * SESSION_ROUNDS * (8 + 7 * SESSION_CHARACTERS),
    "ranks-mixed": 10 * 10,
}


def stream(workload: str, seed: int):
    """The workload's query stream for a seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
