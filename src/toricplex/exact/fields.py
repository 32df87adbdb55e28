"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` in characteristic 0,
``int`` in the range ``[0, p)`` in characteristic p.  A ``Field`` instance
bundles the arithmetic so matrix and polynomial code stays generic.
A number that is neither an int nor a Fraction (a float, say) is read
exactly through ``Fraction`` before it enters any field, so no arithmetic is
done in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Ascending distinct prime factors of ``abs(n)``; empty for 0, 1."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class Field:
    """The rationals (``char == 0``) or the prime field GF(char)."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or prime, got {self.char}")

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, value):
        """Coerce a number into this field.

        Ints and Fractions are read directly; any other number goes through
        ``Fraction(value)`` first, in every characteristic.  Over
        GF(p) a Fraction whose denominator p divides raises
        ``ZeroDivisionError``.
        """
        if self.char == 0:
            return Fraction(value)
        if isinstance(value, int):
            return value % self.char
        value = Fraction(value)
        if value.denominator % self.char == 0:
            raise ZeroDivisionError(f"{value} has no image in GF({self.char})")
        return (value.numerator * pow(value.denominator, -1, self.char)) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.char == 0 else pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0 if self.char == 0 else a % self.char == 0


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
