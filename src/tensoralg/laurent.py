"""Exact arithmetic in Z[q, q^-1].

Laurent polynomials with arbitrary-precision integer coefficients are the
currency of graded dimensions: every graded Hom space, quantum integer and
inner-product value in this package is one of these.  Values are immutable
and normalized (no zero coefficients), so ``==`` is structural equality.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """An element of Z[q, q^-1], stored as a sparse exponent -> coeff map."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # the dict test first: it is cheap, and the ABC check is not
        items = coeffs.items() if isinstance(coeffs, dict) or isinstance(coeffs, Mapping) else coeffs
        c: dict[int, int] = {}
        for e, a in items:
            if a:
                na = c.get(e, 0) + a
                if na:
                    c[e] = na
                elif e in c:
                    del c[e]
        self._c = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            na = c.get(e, 0) + a
            if na:
                c[e] = na
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -a for e, a in self._c.items()}
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: a * other for e, a in self._c.items()}
            out._hash = None
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                na = c.get(e, 0) + a1 * a2
                if na:
                    c[e] = na
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    __rmul__ = __mul__

    # -- involutions and evaluations ---------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1 (exponent negation)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: a for e, a in self._c.items()}
        out._hash = None
        return out

    def eval_at_1(self) -> int:
        """Total coefficient sum; the ungraded dimension of a graded count."""
        return sum(self._c.values())

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_bar_invariant(self) -> bool:
        return all(self._c.get(-e, 0) == a for e, a in self._c.items())

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return max(self._c)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"

    def text(self) -> str:
        """Render like ``q^-2 + 3 + q^2`` (exponent-ascending)."""
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            a = self._c[e]
            if e == 0:
                parts.append(str(a))
                continue
            qs = "q" if e == 1 else f"q^{e}"
            if a == 1:
                parts.append(qs)
            elif a == -1:
                parts.append(f"-{qs}")
            else:
                parts.append(f"{a}*{qs}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self) -> list[list[int]]:
        """JSON form ``[[exp, coeff], ...]``, exponent-ascending."""
        return [[e, self._c[e]] for e in sorted(self._c)]


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)


def qint(n: int, d: int = 1) -> LaurentPoly:
    """Balanced quantum integer [n] in q^d: (q^{dn}-q^{-dn})/(q^d-q^{-d}).

    Requires n >= 0; use :func:`qint_signed` where the argument may be
    negative (commutator scalars).
    """
    if n < 0:
        raise ValueError("qint requires n >= 0")
    if d <= 0:
        raise ValueError("qint requires d >= 1")
    return LaurentPoly({d * (n - 1 - 2 * k): 1 for k in range(n)})


def qint_signed(n: int, d: int = 1) -> LaurentPoly:
    """[n] in q^d for any integer n; odd in n since [-n] = -[n]."""
    if n >= 0:
        return qint(n, d)
    return -qint(-n, d)
