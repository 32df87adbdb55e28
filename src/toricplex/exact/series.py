"""Truncated power series with exact rational coefficients.

A ``Series`` carries its truncation order explicitly: ``coeffs`` always has
length ``order + 1`` and every operation stays within that order.  The
library computes no series; this class serves only the independent check
of the LCS ranks, the product identity prod_k (1-t^k)^(phi_k) = P(-t)/(1-t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Series:
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs, order: int) -> "Series":
        cs = list(coeffs)[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.from_coeffs((1,), order)

    def __mul__(self, other):
        if self.order != other.order:
            raise ValueError("series truncation orders differ")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, k + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(tuple(out))

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be nonzero."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        k = self.order
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * k
        for i in range(1, k + 1):
            acc = Fraction(0)
            for j in range(1, i + 1):
                acc += self.coeffs[j] * out[i - j]
            out[i] = -inv0 * acc
        return Series(tuple(out))

    def pow(self, e: int) -> "Series":
        if e < 0:
            return self.inverse().pow(-e)
        result = Series.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result
