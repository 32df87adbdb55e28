"""Exact invariants of toric complexes and their infinite cyclic covers.

The package computes, from a finite simplicial complex and an integer vertex
weighting: cohomology jump loci, module decompositions of cover homology over
the deck-transformation group ring, finiteness certificates for Artin
kernels, and graded Lie algebra ranks.  All arithmetic is exact.
"""

from .aomoto import (
    DegreeOneClass, QuotientRing, aomoto_betti_aah, aomoto_betti_direct,
    beta1_closed_form, truncated_quotient,
)
from .exact import GF, QQ, Field, Poly, Series, SmithForm, cyclotomic, poly_ord, rank, snf_int, snf_poly
from .jumploci import SubspaceFamily, local_system_betti, resonance_membership, strata
from .kernels import (
    BBSummary, FinitenessReport, HypothesisRefusal, bb_summary,
    cover_cohomology_ring, finitely_generated, finitely_presented, fp_r,
)
from .lieranks import (
    GradedRanks, HolonomyPresentation, chen_ranks, clique_polynomial,
    cut_polynomial, face_ring_presentation, holonomy_dims, lcs_ranks,
    quotient_holonomy_check,
)
from .simplicial import (
    Graph, SimplicialComplex, boundary_dim, flagification_defect,
    format_complex, parse_complex, reduced_homology, reduced_homology_integral,
    toric_betti,
)
from .zcover import (
    Character, FClass, MonodromyReport, ZModuleDecomposition, b_vector,
    bb_decomposition, direct_oracle, finite_dim_test, free_ranks,
    full_decomposition, monodromy_trivial, prime_set, support,
    torsion_multiplicities,
)

__version__ = "0.1.0"
