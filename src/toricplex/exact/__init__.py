"""Exact scalar, polynomial and matrix arithmetic, plus the truncated power
series that check the LCS product identity."""

from .fields import GF, QQ, Field, is_prime, prime_factors
from .matrices import SmithForm, rank, row_echelon, snf_int, snf_poly
from .poly import Poly, cyclotomic, poly_ord, t_power_minus_one
from .series import Series

__all__ = [
    "Field", "QQ", "GF", "is_prime", "prime_factors",
    "Poly", "poly_ord", "cyclotomic", "t_power_minus_one",
    "SmithForm", "rank", "row_echelon", "snf_int", "snf_poly",
    "Series",
]
