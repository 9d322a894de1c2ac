"""Exact dense linear algebra over a field, the minimal polynomial and
rational roots that split idempotents, plus fraction-free rank over
Z[q,q^-1].

Everything here works on lists of lists of field elements (Fraction or
GFElement): the rows are coordinates that the integer straightening
engine produced and ``BlockComputer.element_coords`` mapped into the
field.  Matrices at desk scale are small, so plain Gauss–Jordan
elimination with exact arithmetic is the right tool.  It lives in one
place, ``IncrementalRREF.add``: a new row is reduced by
``reduce_against`` and then eliminated from the rows already held, so
the space stays in reduced row echelon form after every row and callers
can stop as soon as the rank saturates.  ``row_reduce`` feeds a whole
matrix through it, and ``rank``, ``nullspace`` and ``solve`` read the
(unique) reduced form.  The Laurent-entry rank uses Bareiss elimination,
whose intermediate divisions are exact.

``min_poly`` finds the first linear dependency of a Krylov sequence
start, start·x, start·x², ... over Q, and ``rational_roots`` splits the
result by the rational root theorem; the Hecke referee and the module
theory both find their spectra this way.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction

from .laurent import LaurentPoly
from .scalars import QQ


def row_reduce(rows, field):
    """Reduced row echelon form, as ``(rref_rows, pivot_cols)``, built by
    feeding the rows to an ``IncrementalRREF``; the input is not modified."""
    inc = IncrementalRREF(field)
    for r in rows:
        inc.add(r)
    return inc.rows, inc.pivots


class IncrementalRREF:
    """Reduced row echelon form of a row space built one row at a time, so
    that callers can stop once the rank saturates; rows stay sorted by
    pivot column."""

    def __init__(self, field):
        self.field = field
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def add(self, row) -> bool:
        """Reduce ``row`` against the space; absorb it if independent.

        Returns True when the rank grew.
        """
        v = reduce_against(row, self.rows, self.pivots)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = self.field.one() / v[pc]
        v = [x * inv for x in v]
        for i, r in enumerate(self.rows):
            if r[pc]:
                f = r[pc]
                self.rows[i] = [a - f * b for a, b in zip(r, v)]
        at = bisect(self.pivots, pc)
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows, field) -> int:
    return len(row_reduce(rows, field)[1])


def reduce_against(vec, rref_rows, pivots):
    """Remainder of ``vec`` after elimination by a reduced row space."""
    v = list(vec)
    for row, c in zip(rref_rows, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def nullspace(rows, field):
    """Basis of the right kernel of the matrix (list of column vectors)."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_reduce(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """Coefficients x with sum_j x_j rows[j] = rhs, or None when rhs is
    outside the row span.
    """
    if not rows:
        return None if any(rhs) else []
    n = len(rows)
    ncols = len(rows[0])
    aug = [[rows[j][c] for j in range(n)] + [rhs[c]] for c in range(ncols)]
    rref, pivots = row_reduce(aug, field)
    x = [field.zero()] * n
    for row, pc in zip(rref, pivots):
        if pc == n:
            return None
        x[pc] = row[n]
    # Verify (cheap, and guards against ill-posed input shapes).
    for c in range(ncols):
        acc = field.zero()
        for j in range(n):
            acc = acc + x[j] * rows[j][c]
        if acc != rhs[c]:
            return None
    return x


def min_poly(start, times_x, coords=list) -> list[Fraction]:
    """Monic minimal polynomial (coefficients low to high, over Q) of x
    acting on the cyclic space of ``start``.

    ``times_x`` maps p to p·x and ``coords`` maps an element to its
    coordinate list.  Each power start·x^k is solved against the earlier
    ones; the first dependency is the polynomial.  It appears by degree
    ``len(coords(start))`` because the stored powers stay independent.
    """
    vecs = [coords(start)]
    cur = start
    while True:
        cur = times_x(cur)
        vec = coords(cur)
        sol = solve(vecs, vec, QQ)
        if sol is not None:
            return [-c for c in sol] + [Fraction(1)]
        vecs.append(vec)


def rational_roots(coeffs) -> list[tuple[Fraction, int]] | None:
    """Roots with multiplicity of a polynomial over Q (coefficients low to
    high), in the order the rational root theorem finds them; None when
    the polynomial does not split into linear factors over Q.
    """
    work = [Fraction(c) for c in coeffs]
    roots: dict[Fraction, int] = {}
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
        roots[r] = roots.get(r, 0) + 1
    return list(roots.items())


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _divide_linear(coeffs, r):
    """Synthetic division by (t - r): (quotient, remainder = value at r)."""
    quot = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * r
        quot[k - 1] = acc
    return quot, coeffs[0] + acc * r


def laurent_rank(rows: list[list[LaurentPoly]]) -> int:
    """Rank of a matrix over Z[q,q^-1] via fraction-free Bareiss elimination.

    Multiplying a row by a power of q is harmless, so entries are first
    shifted to honest polynomials; Bareiss divisions are then exact.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    # Shift each row so all entries have nonnegative support.
    for i, row in enumerate(m):
        exps = [x.min_exp() for x in row if not x.is_zero()]
        if exps:
            shift = -min(min(exps), 0)
            if shift:
                s = LaurentPoly.q_power(shift)
                m[i] = [x * s for x in row]
    nrows, ncols = len(m), len(m[0])
    prev = LaurentPoly.one()
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = m[i][j] * piv - m[i][c] * m[r][j]
                m[i][j] = _laurent_exact_div(num, prev)
            m[i][c] = LaurentPoly.zero()
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def _laurent_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in Z[q,q^-1]; Bareiss guarantees divisibility."""
    if num.is_zero():
        return num
    if den == 1:
        return num
    nmap = {e: num.coeff(e) for e in num.support()}
    dsup = den.support()
    dlead = dsup[-1]
    dcoef = den.coeff(dlead)
    out: dict[int, int] = {}
    while nmap:
        e = max(nmap)
        a = nmap[e]
        qexp = e - dlead
        qc, rem = divmod(a, dcoef)
        if rem:
            raise ArithmeticError("non-exact division in Bareiss elimination")
        out[qexp] = qc
        for de in dsup:
            ne = qexp + de
            na = nmap.get(ne, 0) - qc * den.coeff(de)
            if na:
                nmap[ne] = na
            elif ne in nmap:
                del nmap[ne]
    return LaurentPoly(out)
