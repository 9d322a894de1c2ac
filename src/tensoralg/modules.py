"""Finite-dimensional module theory over computed quotient blocks:
radical, simple modules with graded characters, and the crystal operator
f̃_i read off the simples' characters.

A simple is kept as its data, with no action matrices (``Simple``): its
tag, its dimension, the degrees of a homogeneous basis and its character
ch(L)[x] = dim L·e(x) over the idempotents x of its block.  ``simples``
splits the unit of the semisimple algebra A/rad (``SemisimpleQuotient``)
into primitive idempotents f, and reads each L = f·(A/rad) off the
reduced row space of f·(A/rad): ch(L)[x] is the trace of e(x) on that
basis, taken once per simple.

Crystal edges come from the characters, with no module built for them.
E_i, restriction along the map that adds a black strand labelled i at the
right end, right of every red, sends M to M·Σ_x′ e(x′·i), where x′·i
appends that strand; so E_i^k M = 0 exactly when ch(M)[x] = 0 for every x
whose last k strands carry label i and lie right of every red.  By the
last-letter theory of Lauda–Vazirani (*Crystals from categorified quantum
groups*) and Grojnowski, for a simple L:

* ε_i(L), the largest k with E_i^k L ≠ 0, is the largest k for which such
  an x has ch(L)[x] ≠ 0;
* with ε = ε_i(L), Δ_{i^ε} L ≅ ẽ_i^max L ⊠ L(i^ε), where L(i^ε), the simple
  module of the nilHecke algebra on ε strands, has dimension ε! and lives
  on e(i^ε); so ch(ẽ_i^max L)[x′] = ch(L)[x′·i^ε] / ε! (``_strip``, which
  checks that the division is exact);
* ẽ_i lowers ε_i by one and does not move ẽ_i^max, and the i-string
  through S′ has one node at each level; so ẽ_i S′ is the L with
  ε_i(L) = ε_i(S′) − 1 and ẽ_i^max L ≅ ẽ_i^max S′, and f̃_i L = S′.

Isomorphism of ẽ_i^max is read as equality of characters.  ``crystal_f``
checks at run time that exactly one listed simple matches each S′ and that
no two S′ reach one L, so a coincidence of characters is an
``IntegrityError``, never a silent edge.  The dimensions are ungraded;
graded, the division is by [ε]_i!, the graded dimension of L(i^ε).

Vectors and matrix rows are sparse ``{index: value}`` dicts, the row
type of ``linalg``: over Q a value is an ``int``, or a ``Fraction`` where
it has a real denominator (``scalars``).

The base field must have characteristic 0 here: the radical is computed
by the Dickson criterion, rad A = {a : τ(a·b) = 0 for every b} for τ the
trace of the regular representation, which fails in positive
characteristic.  Since L_a L_b = L_{ab}, the trace form tr(L_a L_b) is
the pairing τ(a·b) of the one functional τ (``regular_trace``), and
``QuotientBlock.pairing`` reads it off the structure constants, as it
does the Frobenius Gram of ``standard.frobenius_certificate``.
"""

from __future__ import annotations

from math import factorial

from .cyclotomic import IntegrityError, QuotientBlock
from .laurent import LaurentPoly
from .linalg import add_multiple, nullspace, reduce_against, row_reduce, transpose
from .scalars import QQ, exact
from .spectral import spectral_idempotents


class UnsupportedCharacteristicError(RuntimeError):
    pass


def _require_char0(block: QuotientBlock):
    if block.comp.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "radical computations need characteristic 0 (Dickson criterion)"
        )


Vec = dict[int, object]


class Simple:
    """A simple right module over a quotient block, by its data: ``tag``,
    its index among the block's simples; ``dim``; ``degrees``, the degrees
    of a homogeneous basis; and ``character``, x ↦ ch(L)[x] = dim L·e(x)
    over the idempotents x of the block where it is not zero."""

    def __init__(self, tag: int, degrees: list[int], character: dict):
        self.tag = tag
        self.dim = len(degrees)
        self.degrees = degrees
        self.character = character

    def graded_char(self) -> LaurentPoly:
        return LaurentPoly((d, 1) for d in self.degrees)


def regular_trace(block: QuotientBlock) -> Vec:
    """τ(b_l) = tr(L_{b_l}) = Σ_k (b_l·b_k)_k, the trace of the left
    regular representation, as a ``{basis index: value}`` vector.

    L_{b_l} is graded of degree deg b_l, so its diagonal, hence τ, is
    zero off the degree-0 basis elements.
    """
    tau: Vec = {}
    for (l, k), prod in block._mult.items():
        c = prod.get(k)
        if c:
            tau[l] = tau.get(l, 0) + c
    return {l: c for l, c in tau.items() if c}


def radical(block: QuotientBlock) -> list[Vec]:
    """Basis of rad(A) = {a : τ(a·b) = 0 for every b} (Dickson criterion),
    computed once per block; the returned list is shared and must not be
    mutated.

    tr(L_a L_b) = tr(L_{ab}) = τ(a·b), so the trace form is the pairing
    of the functional ``regular_trace``.
    """
    _require_char0(block)
    if block.radical is None:
        block.radical = nullspace(block.pairing(regular_trace(block)), block.dim, QQ)
    return block.radical


class SemisimpleQuotient:
    """A/rad with an explicit basis and multiplication, kept graded.

    Its basis is the block basis elements that are not pivots of the
    reduced radical, the representative columns ``rep_cols``.
    """

    def __init__(self, block: QuotientBlock):
        self.block = block
        rref, pivots = row_reduce(radical(block), QQ)
        self._pivot_rows = dict(zip(pivots, rref))
        self.rep_cols = [c for c in range(block.dim) if c not in self._pivot_rows]
        self._position = {c: i for i, c in enumerate(self.rep_cols)}
        self.dim = len(self.rep_cols)

    def project(self, v: Vec) -> Vec:
        """The image of a block vector: its remainder modulo rad, indexed
        by position among the representative columns."""
        position = self._position
        return {position[c]: x for c, x in reduce_against(v, self._pivot_rows).items()}

    def lift(self, v: Vec) -> Vec:
        return {self.rep_cols[i]: c for i, c in v.items()}

    def multiply(self, u: Vec, v: Vec) -> Vec:
        return self.project(self.block.multiply_vectors(self.lift(u), self.lift(v)))

    def one(self) -> Vec:
        return self.project(self.block.identity_vector())

    def is_homogeneous(self, v: Vec) -> int:
        """The degree of a nonzero homogeneous v.

        Every element the module theory asks about is a nonzero basis row
        of a space spanned by homogeneous rows (see ``_split_primitive``),
        so any other v is an ``IntegrityError``.
        """
        degs = {self.block.basis_degree(self.rep_cols[i]) for i in v}
        if len(degs) != 1:
            raise IntegrityError("element is not nonzero and homogeneous")
        return degs.pop()


def central_primitive_idempotents(S: SemisimpleQuotient) -> list[Vec]:
    """Split the unit of the semisimple quotient into its central
    primitive idempotents.

    Starting from the unit, each element z of a basis of the center
    splits every idempotent e found so far into the spectral idempotents
    of z·e on the corner eSe (``spectral.spectral_idempotents`` with start
    e).  Each is a polynomial in z·e, hence central, and the center is
    spanned by the z, so the idempotents left at the end are primitive.
    """
    n = S.dim
    cons = []
    for b in range(n):
        # z is central iff Σ_i z_i (u_i·u_b − u_b·u_i) = 0 for every b
        comms = [
            add_multiple(S.multiply({i: 1}, {b: 1}), -1, S.multiply({b: 1}, {i: 1}))
            for i in range(n)
        ]
        cons.extend(transpose(comms).values())
    idems = [S.one()]
    for z in nullspace(cons, n, QQ):
        idems = [f for e in idems for _r, _m, f in _corner_split(S, e, S.multiply(z, e))]
    return idems


def _corner_split(S, e, x):
    """``spectral.spectral_idempotents`` of x acting on the corner eSe
    (unit e)."""
    split = spectral_idempotents(e, lambda p: S.multiply(p, x))
    if split is None:
        raise IntegrityError("minimal polynomial does not split over Q")
    return split


def _split_primitive(S: SemisimpleQuotient, e: Vec) -> Vec:
    """A primitive idempotent under a central idempotent e.

    While the corner of the current idempotent has dimension above 1,
    its first degree-0 basis element with more than one root replaces
    the idempotent by the spectral idempotent of its first root.  Every
    idempotent here has degree 0 (the unit, central idempotents of a
    graded algebra and polynomials in degree-0 elements all do), so the
    corner basis rows are homogeneous.
    """
    cur = e
    while True:
        corner = _corner_basis(S, cur)
        if len(corner) == 1:
            return cur
        for v in corner:
            if S.is_homogeneous(v) == 0:
                split = _corner_split(S, cur, v)
                if len(split) > 1:
                    cur = split[0][2]
                    break
        else:
            raise IntegrityError("failed to split a corner idempotent")


def _corner_basis(S: SemisimpleQuotient, e: Vec) -> list[Vec]:
    rows = [S.multiply(S.multiply(e, {i: 1}), e) for i in range(S.dim)]
    return row_reduce(rows, QQ)[0]


def simples(block: QuotientBlock) -> list[Simple]:
    """The simple right modules L = f·S, one per central primitive
    idempotent of the semisimple quotient S, with f a primitive idempotent
    under it (``_split_primitive``).

    f has degree 0, so f·S is spanned by homogeneous rows and its reduced
    basis b_j, with pivots p_j, is homogeneous: its degrees grade L.  A
    reduced row is 1 at its pivot and every other row is 0 there, so
    u = Σ_j u[p_j] b_j whenever u lies in L, and a block element a acts on
    L with trace Σ_j (b_j·ā)_{p_j}.  ch(L)[x] is that trace for e(x), over
    Q its rank, summed over the basis elements in the support of
    ``idem_vector(x)``.  Each product b_j·ā is reduced against the basis
    to check that it stays in L: if not, ``IntegrityError``.
    """
    S = SemisimpleQuotient(block)
    if S.dim == 0:
        return []
    idems = {x: block.idem_vector(x) for x in block.idems}
    images = {i: S.project({i: 1}) for ex in idems.values() for i in ex}
    out = []
    for tag, central in enumerate(central_primitive_idempotents(S)):
        f = _split_primitive(S, central)
        basis, pivots = row_reduce([S.multiply(f, {i: 1}) for i in range(S.dim)], QQ)
        pivot_rows = dict(zip(pivots, basis))
        trace = {}
        for i, image in images.items():
            trace[i] = 0
            for p, b in pivot_rows.items():
                u = S.multiply(b, image)
                if reduce_against(u, pivot_rows):
                    raise IntegrityError("simple module is not stable")
                trace[i] += u.get(p, 0)
        character = {}
        for x, ex in idems.items():
            n = exact(sum(c * trace[i] for i, c in ex.items()))
            if n:
                character[x] = n
        out.append(Simple(tag, [S.is_homogeneous(b) for b in basis], character))
    return out


# -- the crystal operator ------------------------------------------------------------


def _last_letters(x, i: int) -> int:
    """How many of x's last strands carry label i and lie right of every
    red."""
    I, kappa = x
    free = len(I) - max(kappa, default=0)
    k = 0
    while k < free and I[-1 - k] == i:
        k += 1
    return k


def _strip(ch: dict, i: int, k: int) -> dict:
    """x′ ↦ ch[x′·i^k] / k!, where x′·i^k appends k strands labelled i at
    the right end.  A division that is not exact is an ``IntegrityError``."""
    out = {}
    for x, n in ch.items():
        if _last_letters(x, i) >= k:
            I, kappa = x
            m, rest = divmod(n, factorial(k))
            if rest:
                raise IntegrityError(f"dim L·e({x}) is not a multiple of {k}!")
            out[I[: len(I) - k], kappa] = m
    return out


def _top(L: Simple, i: int) -> tuple[int, dict]:
    """(ε_i(L), the character of ẽ_i^max L): ε_i(L) is the most last
    letters i of an idempotent x with L·e(x) ≠ 0."""
    ch = L.character
    eps = max((_last_letters(x, i) for x in ch), default=0)
    return eps, _strip(ch, i, eps)


def crystal_f(sims, i: int, dst_simples) -> list:
    """f̃_i L for each simple L of ``sims``, in order: the S′ in
    ``dst_simples`` with ẽ_i S′ = L, or None.

    ẽ_i S′ is read off the characters (see the module docstring): with
    ε = ε_i(S′) > 0, it is the L with ε_i(L) = ε − 1 and
    strip_i^{ε−1}(ch L) = strip_i^ε(ch S′).  Not exactly one such L in
    ``sims`` is an ``IntegrityError``, so ``sims`` must list every simple
    of the source block; "no S′" means F_i L = 0 only when ``dst_simples``
    lists every simple of theirs.  Two S′ reaching one L is an
    ``IntegrityError``.
    """
    if not sims:
        return []
    tops = [_top(L, i) for L in sims]
    image = {}
    for S in dst_simples:
        eps, top = _top(S, i)
        if not eps:
            continue
        found = [L for L, t in zip(sims, tops) if t == (eps - 1, top)]
        if len(found) != 1:
            raise IntegrityError(f"{len(found)} listed simples have the last letters of ẽ_i S′")
        (L,) = found
        if L in image:
            raise IntegrityError("cosoc(F_i L) is not a sum of copies of one simple")
        image[L] = S
    return [image.get(L) for L in sims]
