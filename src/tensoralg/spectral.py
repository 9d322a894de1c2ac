"""Splitting idempotents by the spectrum of one element, over Q.

``spectral_idempotents`` finds the minimal polynomial as the first
linear dependency of a Krylov sequence start, start·x, start·x², ...
over Q, splits it by the rational root theorem (``rational_roots``), and
writes each generalized-eigenspace idempotent as a combination of the
Krylov powers whose coefficients come from polynomial arithmetic with no
division, divided by one common denominator at the end; the Hecke
referee and the module theory both split their idempotents this way.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import add_multiple, solve
from .scalars import QQ, exact


def _krylov(start, times_x, coords):
    """(μ, [start·x^j for j < deg μ]) for μ the minimal polynomial of x on
    the cyclic space of ``start``.

    ``times_x`` maps p to p·x and ``coords`` maps an element to its
    sparse coordinate row.  Each power start·x^k is solved against the
    earlier ones; the first dependency is the polynomial.  It appears by
    the dimension of the space, because the stored powers stay
    independent.
    """
    powers, vecs = [start], [coords(start)]
    while True:
        cur = times_x(powers[-1])
        vec = coords(cur)
        sol = solve(vecs, vec, QQ)
        if sol is not None:
            return [-sol.get(k, 0) for k in range(len(vecs))] + [1], powers
        powers.append(cur)
        vecs.append(vec)


def spectral_idempotents(start, times_x, coords=dict):
    """``[(root, multiplicity, idempotent)]`` for x acting on the cyclic
    space of ``start``, in ``rational_roots`` order; None when the minimal
    polynomial μ does not split over Q.

    ``start`` is the unit of the algebra (or corner) that x lives in, and
    ``times_x`` and ``coords`` are as for ``_krylov``.  The idempotent of
    the root v of multiplicity m is c_v(x) = Σ_j c_{v,j}·start·x^j over the
    Krylov powers, where c_v = 1 − (1 − P_v)^m mod μ and P_v = Π_{u≠v}
    ((t − u)/(v − u))^{m_u}: P_v(v) = 1, so c_v ≡ 1 mod (t − v)^m, and
    (t − u)^{m_u} divides P_v, so c_v ≡ 0 mod every other factor.  The
    c_v(x) are therefore the exact generalized-eigenspace idempotents:
    pairwise orthogonal, summing to ``start``, with (x − v)^m·c_v(x) = 0.

    No division is made until the end.  P_v = N/D with N = Π_{u≠v}
    (t − u)^{m_u} and D = Π_{u≠v} (v − u)^{m_u}, so
    c_v = (D^m − (D − N)^m)/D^m, and D^m·c_v(x) is formed from the
    numerator's coefficients alone.  With integer roots μ, N and D are
    integral, so that numerator is an integer combination of the Krylov
    powers; each of its coefficients is divided by D^m once.  Rational
    roots take the same steps over Q.  Only coefficient lists are
    multiplied; no algebra product is formed beyond the Krylov powers.
    """
    mu, powers = _krylov(start, times_x, coords)
    roots = rational_roots(mu)
    if roots is None:
        return None
    out = []
    for v, m in roots:
        n, d = [1], 1
        for u, mu_u in roots:
            if u != v:
                for _ in range(mu_u):
                    n = _mul_mod(n, [-u, 1], mu)
                    d *= v - u
        # (D − N)^m, then D^m − (D − N)^m
        d_minus_n = [d - n[0]] + [-c for c in n[1:]]
        q = [1]
        for _ in range(m):
            q = _mul_mod(q, d_minus_n, mu)
        dm = d**m
        num = [dm - q[0]] + [-c for c in q[1:]]
        e: dict = {}
        for cj, pj in zip(num, powers):
            add_multiple(e, cj, pj)
        inv = QQ.inv(dm)
        out.append((v, m, {k: exact(x * inv) for k, x in e.items()}))
    return out


def _mul_mod(a, b, mu):
    """a·b mod the monic μ, on coefficient lists low to high (the result
    has deg μ entries)."""
    D = len(mu) - 1
    prod = [0] * max(len(a) + len(b) - 1, D)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(len(prod) - 1, D - 1, -1):
        f = prod.pop()
        if f:
            for j in range(D):
                prod[k - D + j] -= f * mu[j]
    return prod


def rational_roots(coeffs) -> list[tuple[int | Fraction, int]] | None:
    """Roots with multiplicity of a polynomial over Q (coefficients low to
    high), in the order the rational root theorem finds them, each root
    ``exact``; None when the polynomial does not split into linear factors
    over Q.
    """
    work = [Fraction(c) for c in coeffs]
    roots: dict = {}
    while len(work) > 1:
        if not work[0]:
            r, work = Fraction(0), work[1:]
        else:
            scale = math.lcm(*(c.denominator for c in work))
            const, lead = abs(int(work[0] * scale)), abs(int(work[-1] * scale))
            for r in (
                s * Fraction(p, q) for p in _divisors(const) for q in _divisors(lead) for s in (1, -1)
            ):
                quot, rem = _divide_linear(work, r)
                if not rem:
                    work = quot
                    break
            else:
                return None
        r = exact(r)
        roots[r] = roots.get(r, 0) + 1
    return list(roots.items())


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending, by trial division up to √n."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_linear(coeffs, r):
    """Synthetic division by (t - r): (quotient, remainder = value at r)."""
    quot = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * r
        quot[k - 1] = acc
    return quot, coeffs[0] + acc * r
