"""Exact sparse linear algebra over a field, the minimal polynomial and
rational roots that split idempotents, plus fraction-free rank over
Z[q,q^-1].

A row is sparse: a ``{column: value}`` dict over the field that stores no
zero value, so the empty dict is the zero row.  Over Q a value is an
``int``, or a ``Fraction`` where it has a real denominator (see
``scalars``); over GF(p) it is a ``GFElement``.
The rows are coordinates that the integer straightening engine produced
and ``BlockComputer.element_coords`` mapped into the field, and they are
almost empty (a few percent of their columns are nonzero), so the
elimination only ever touches stored entries.  Gauss–Jordan elimination
lives in one place, ``IncrementalRREF.add``: a new row is reduced by
``reduce_against``, scaled by the field's inverse of its pivot entry and
then eliminated from the held rows that have an entry in its pivot
column, so the space stays in reduced row echelon form after every row
and callers can stop as soon as the rank saturates.  ``row_reduce``
feeds a whole matrix through it, and ``rank``, ``nullspace`` and
``solve`` read the (unique) reduced form.
The Laurent-entry rank uses Bareiss elimination, whose intermediate
divisions are exact.

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
from bisect import bisect
from fractions import Fraction

from .laurent import LaurentPoly
from .scalars import QQ, exact


def row_reduce(rows, field):
    """Reduced row echelon form, as ``(rref_rows, pivot_cols)``, built by
    feeding the rows to an ``IncrementalRREF``; the input is not modified."""
    inc = IncrementalRREF(field)
    for r in rows:
        inc.add(r)
    return inc.rows, inc.pivots


class IncrementalRREF:
    """Reduced row echelon form of a row space built one row at a time, so
    that callers can stop once the rank saturates.

    ``rows`` are sorted by pivot column, ``pivots`` lists those columns and
    ``pivot_rows`` maps each pivot column to its row.  A held row is never
    modified in place (elimination replaces it), so copies of the state
    may share rows.  Over Q every held value is ``exact``: an ``int``, or
    a ``Fraction`` with a denominator above 1.
    """

    def __init__(self, field):
        self.field = field
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self.pivot_rows: dict[int, dict] = {}

    @classmethod
    def units(cls, field, cols) -> IncrementalRREF:
        """The span of the unit rows at the increasing columns ``cols``,
        which is its own unique reduced form (all of ``range(n)`` gives
        the whole space of n columns)."""
        out = cls(field)
        one = field.one()
        out.pivots = list(cols)
        out.rows = [{c: one} for c in out.pivots]
        out.pivot_rows = dict(zip(out.pivots, out.rows))
        return out

    def copy(self) -> IncrementalRREF:
        out = IncrementalRREF(self.field)
        out.rows = list(self.rows)
        out.pivots = list(self.pivots)
        out.pivot_rows = dict(self.pivot_rows)
        return out

    def add(self, row) -> bool:
        """Reduce ``row`` against the space; absorb it if independent.

        Returns True when the rank grew.
        """
        v = reduce_against(row, self.pivot_rows)
        if not v:
            return False
        pc = min(v)
        inv = self.field.inv(v[pc])
        v = {k: exact(x * inv) for k, x in v.items()}
        # Only the held rows with an entry in the new pivot column change.
        new = {pc: v}
        for i, r in enumerate(self.rows):
            if pc in r:
                r = {k: exact(x) for k, x in reduce_against(r, new).items()}
                self.rows[i] = self.pivot_rows[self.pivots[i]] = r
        at = bisect(self.pivots, pc)
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        self.pivot_rows[pc] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows, field) -> int:
    return len(row_reduce(rows, field)[1])


def reduce_against(vec, pivot_rows):
    """Remainder of the sparse row ``vec`` after elimination by a reduced
    row space, given as its pivot → row map; ``vec`` is not modified.

    A reduced row is zero on every pivot column but its own, so
    eliminating one pivot column of ``vec`` adds no entry on another: one
    pass over the pivot columns that ``vec`` holds, in any order, is exact.
    """
    v = dict(vec)
    for c in [c for c in vec if c in pivot_rows]:
        # add_multiple(v, -v[c], row), inlined and skipping column c: this
        # is the hot loop of every elimination.
        f = -v.pop(c)
        for k, x in pivot_rows[c].items():
            if k == c:
                continue
            y = v.get(k)
            if y is None:
                v[k] = f * x
            else:
                y = y + f * x
                if y:
                    v[k] = y
                else:
                    del v[k]
    return v


def add_multiple(v: dict, f, row: dict) -> dict:
    """v += f·row, in place, dropping entries that cancel; returns v.

    ``v`` and ``row`` are any sparse ``{key: coeff}`` combinations that
    store no zero, over ℤ, a field or Z[q,q^-1]: rows here, diagram and
    Hecke terms, polynomials, tensor vectors.  The sums of this module,
    the diagram engine, the polynomial representation, the Hecke
    rewriter, the quotient blocks and the tensor space all go through
    it, except for three inlined copies: ``reduce_against``
    (the hot loop of elimination, where the call cost about 20%),
    ``LaurentPoly`` (this module imports ``laurent``) and
    ``HeckeAlgebra.multiply`` (unpruned integer sums, a·x^e per exponent e
    of the right factor and then their ·w images, filtered once while it
    divides).  ``polyrep._apply_term`` walks its own operators, since it
    is the engine's independent oracle.
    """
    if f:
        for k, x in row.items():
            y = v.get(k)
            if y is None:
                v[k] = f * x
            else:
                y = y + f * x
                if y:
                    v[k] = y
                else:
                    del v[k]
    return v


def transpose(rows) -> dict[int, dict]:
    """The nonzero columns of a list of sparse rows, as sparse rows indexed
    by row position, keyed by column."""
    cols: dict[int, dict] = {}
    for j, r in enumerate(rows):
        for c, x in r.items():
            cols.setdefault(c, {})[j] = x
    return cols


def nullspace(rows, ncols: int, field):
    """Basis of the right kernel of a matrix with ``ncols`` columns, one
    sparse vector per free column, in column order."""
    rref, pivots = row_reduce(rows, field)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: field.one()}
        for row, pc in zip(rref, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """Coefficients x, as a sparse row indexed by the rows, with
    sum_j x_j rows[j] = rhs; None when rhs is outside the row span.

    Reads the reduced form of the augmented transpose [rows^T | rhs]:
    rhs is in the span exactly when no pivot falls in its column, and the
    free coefficients are 0.
    """
    n = len(rows)
    aug = transpose(rows)
    for c, x in rhs.items():
        aug.setdefault(c, {})[n] = x
    rref, pivots = row_reduce(aug.values(), field)
    if pivots and pivots[-1] == n:
        return None
    return {pc: row[n] for row, pc in zip(rref, pivots) if n in row}


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
        add_multiple(nmap, -qc, {qexp + de: den.coeff(de) for de in dsup})
    return LaurentPoly(out)
