"""Exact sparse linear algebra over a field.

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
``solve`` read the (unique) reduced form.  The minimal polynomial and
rational roots that split idempotents are in ``spectral``, and the
fraction-free rank over Z[q,q^-1] in ``standard``.
"""

from __future__ import annotations

from bisect import bisect

from .scalars import exact


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
    it, except for two inlined copies, ``reduce_against`` (the hot loop
    of elimination, where the call cost about 20%) and ``LaurentPoly``
    (``laurent`` is a leaf module), and ``HeckeAlgebra.multiply`` with
    its right x-action memo, which sum over ℤ into dense lists indexed by
    basis position and drop zeros in one pass at the end.
    ``polyrep._apply_term`` walks its own operators, since it is the
    engine's independent oracle.
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
