"""Scalar fields for the linear algebra: exact rationals or a prime field.

The straightening engine computes over ℤ and never sees these; integer
coordinates enter a field once, through ``from_int`` in
``BlockComputer.element_coords``.  Everything downstream (row reduction,
quotient bases, structure constants) uses the small field protocol
``zero``, ``one``, ``from_int`` plus arithmetic on the elements
themselves.  Rationals are ``fractions.Fraction``; prime fields get a tiny
wrapper class.
"""

from __future__ import annotations

from fractions import Fraction


class GFElement:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _check(self, other):
        if isinstance(other, int):
            return GFElement(other, self.p)
        if not isinstance(other, GFElement) or other.p != self.p:
            raise TypeError("mixed prime fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return GFElement(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return GFElement(self.v - other.v, self.p)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return GFElement(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def inv(self) -> "GFElement":
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return GFElement(pow(self.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, GFElement) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class RationalField:
    characteristic = 0

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)

    @staticmethod
    def from_int(n: int):
        return Fraction(n)


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return GFElement(0, self.p)

    def one(self):
        return GFElement(1, self.p)

    def from_int(self, n: int):
        return GFElement(n, self.p)


QQ = RationalField()


def parse_field(spec: str):
    """'q' -> rationals, 'p:PRIME' -> GF(PRIME)."""
    if spec == "q":
        return QQ
    if spec.startswith("p:"):
        return PrimeField(int(spec[2:]))
    raise ValueError(f"unknown field spec {spec!r} (want 'q' or 'p:PRIME')")
