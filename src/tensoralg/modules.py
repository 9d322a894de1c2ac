"""Finite-dimensional module theory over computed quotient blocks:
radical, simple modules with graded characters, restriction along the
add-a-strand map, and the crystal operator f̃_i.

Every module is built by one of two constructions: ``regular_module``,
and a submodule (``_submodule``: the simples f·S, the socle, and the
restriction E_i N = N·ν_i(1)), whose action matrices are read off the
reduced row space of its basis.  The one quotient is the semisimple
algebra A/rad (``SemisimpleQuotient``).  Induction is never built: by
the adjunction Hom_{A′}(F_i L, S′) ≅ Hom_A(L, E_i S′) and Schur's lemma,
S′ is in cosoc(F_i L) exactly when L is in soc(E_i S′), so the crystal's
f̃_i is read off the socles of restrictions (``crystal_f``).

A socle is identified by the primitive idempotents f_S of A/rad that
``simples`` split the simples off with.  On a module M that rad kills,
m ↦ m·f_S is idempotent, it kills every other simple and S·f_S is
one-dimensional, so its trace on M is the multiplicity of S in M
(``identify_simple``).

Vectors and matrix rows are sparse ``{index: value}`` dicts, the row
type of ``linalg``: over Q a value is an ``int``, or a ``Fraction`` where
it has a real denominator (``scalars``).

The base field must have characteristic 0 here: the radical is computed
by the Dickson criterion, rad A = {a : τ(a·b) = 0 for every b} for τ the
trace of the regular representation, which fails in positive
characteristic.  Since L_a L_b = L_{ab}, the trace form tr(L_a L_b) is
the pairing τ(a·b) of the one functional τ (``regular_trace``), and
``QuotientBlock.pairing`` reads it off the structure constants, as it
does the Frobenius Gram of ``cyclotomic.frobenius_certificate``.
"""

from __future__ import annotations

from .cyclotomic import IntegrityError, QuotientBlock
from .diagrams import Element, idem_key
from .laurent import LaurentPoly
from .linalg import (
    add_multiple,
    nullspace,
    reduce_against,
    row_reduce,
    spectral_idempotents,
    transpose,
)
from .scalars import QQ


class UnsupportedCharacteristicError(RuntimeError):
    pass


def _require_char0(block: QuotientBlock):
    if block.comp.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "radical computations need characteristic 0 (Dickson criterion)"
        )


Vec = dict[int, object]


class FinDimModule:
    """A right module over a quotient block, by action matrices.

    ``action(i)`` returns the dim x dim matrix of the right action of the
    i-th block basis element, as a list of sparse rows: row r is the
    image of the r-th module basis vector.  ``act(i)`` builds that matrix
    once; it is cached here.  Degrees, when known, grade the module basis.
    ``simples`` sets ``tag``, the index of a simple among its block's, and
    ``idem``, the lift to the block of the primitive idempotent that split
    it off.
    """

    tag: int | None = None
    idem: Vec | None = None

    def __init__(self, block: QuotientBlock, dim: int, act, degrees=None):
        self.block = block
        self.dim = dim
        self._act = act
        self._mats: dict[int, list] = {}
        self.degrees = degrees

    def action(self, i: int):
        mat = self._mats.get(i)
        if mat is None:
            mat = self._mats[i] = self._act(i)
        return mat

    def act_vec(self, v: Vec, x: Vec) -> Vec:
        """v·x for a module vector v and a block element x."""
        out: Vec = {}
        for bi, c in x.items():
            mat = self.action(bi)
            for r, vr in v.items():
                add_multiple(out, vr * c, mat[r])
        return out

    def graded_char(self) -> LaurentPoly | None:
        if self.degrees is None:
            return None
        return LaurentPoly((d, 1) for d in self.degrees)


def _submodule(block: QuotientBlock, rows, image, what: str, degree=None) -> FinDimModule:
    """The submodule spanned by ``rows``, on the basis of their reduced
    row space, where the block basis element i sends a basis vector v to
    ``image(v, i)``; ``degree(v)``, if given, grades the basis.

    A reduced basis row b_j is 1 at its pivot p_j and every other row is 0
    there, so u = Σ_j u[p_j] b_j whenever u lies in the span: the
    coordinates are read off the pivots, and u is only reduced to check
    that the remainder is 0.  If it is not, ``IntegrityError``.
    """
    basis, pivots = row_reduce(rows, QQ)
    pivot_rows = dict(zip(pivots, basis))

    def act(i: int):
        mat = []
        for v in basis:
            u = image(v, i)
            if reduce_against(u, pivot_rows):
                raise IntegrityError(f"{what} is not stable")
            mat.append({j: u[p] for j, p in enumerate(pivots) if p in u})
        return mat

    degrees = [degree(v) for v in basis] if degree else None
    return FinDimModule(block, len(basis), act, degrees)


def regular_module(block: QuotientBlock) -> FinDimModule:
    n = block.dim

    def act(i: int):
        return [block._mult.get((r, i), {}) for r in range(n)]

    return FinDimModule(block, n, act, degrees=block.degrees())


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
    of z·e on the corner eSe (``linalg.spectral_idempotents`` with start
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
    """``linalg.spectral_idempotents`` of x acting on the corner eSe
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


def simples(block: QuotientBlock) -> list[FinDimModule]:
    """The simple right modules, with graded characters, via idempotent
    splitting in the semisimple quotient."""
    S = SemisimpleQuotient(block)
    if S.dim == 0:
        return []
    images = [S.project({i: 1}) for i in range(block.dim)]
    out = []
    for ci, c in enumerate(central_primitive_idempotents(S)):
        f = _split_primitive(S, c)
        # L = f S as a right block-module; f has degree 0, so f S is
        # spanned by homogeneous rows and its reduced basis is homogeneous
        rows = [S.multiply(f, {i: 1}) for i in range(S.dim)]
        L = _submodule(block, rows, lambda v, i: S.multiply(v, images[i]), "simple module", S.is_homogeneous)
        L.tag = ci
        L.idem = S.lift(f)
        out.append(L)
    return out


# -- restriction ---------------------------------------------------------------------


def nu_map(i: int, block_src: QuotientBlock, block_dst: QuotientBlock):
    """The add-a-strand algebra map on quotient blocks: append a black
    strand labeled i at the far right and reduce in the target block."""
    src, dst = block_src.comp.alg, block_dst.comp.alg

    def nu(vi: int) -> Vec:
        bottom, top, d, key = block_src.basis[vi]
        idem, w, dots = key
        I, kappa = idem
        nI = I + (i,)
        m = len(src.merged(idem))
        nw = tuple(w) + (m,)
        ndots = tuple(dots) + (0,)
        nbottom = idem_key(nI, kappa)
        el = Element(dst, {(nbottom, nw, ndots): 1})
        ntop = dst.top_idem(nbottom, nw)
        nd = dst.diagram_degree(nbottom, nw, ndots)
        return block_dst._reduce(el, nbottom, ntop, nd)

    return nu


def restrict(N: FinDimModule, i: int, block_src: QuotientBlock) -> FinDimModule:
    """E_i N = N·ν_i(1), acted on through ν_i.

    ν_i(1), the image of the source block's unit, is the sum of the
    idempotents of N's block that end in a strand labelled i.  It is an
    idempotent and ν_i(a) = ν_i(1)·ν_i(a)·ν_i(1), so N·ν_i(1) is a
    submodule on which the source block's unit acts as the identity; the
    part of N that ν_i(1) kills is not in E_i N.  The module is
    ungraded: the categorical grading shift <μ,α_i> − d_i is a
    bookkeeping shift on characters, recorded in docs rather than applied
    here.
    """
    nu = nu_map(i, block_src, N.block)
    images = [nu(j) for j in range(block_src.dim)]
    unit: Vec = {}
    for j, c in block_src.identity_vector().items():
        add_multiple(unit, c, images[j])
    rows = [N.act_vec({r: 1}, unit) for r in range(N.dim)]
    return _submodule(block_src, rows, lambda v, j: N.act_vec(v, images[j]), "E_i N")


# -- socle and the crystal operator ------------------------------------------------------


def socle(M: FinDimModule) -> FinDimModule:
    """{m : m·rad(A) = 0} as a module."""
    cons = []
    for x in radical(M.block):
        # act_vec is linear in the vector: m ↦ Σ_r m_r (e_r · x)
        cons.extend(transpose([M.act_vec({r: 1}, x) for r in range(M.dim)]).values())
    return _submodule(M.block, nullspace(cons, M.dim, QQ), lambda v, i: M.act_vec(v, {i: 1}), "socle")


def identify_simple(M: FinDimModule, simples_list):
    """The simple S of which M is a sum of copies, or None for M = 0.

    M is a module that rad(A) kills (a socle), so the lift
    f_S = ``S.idem`` acts on it as the primitive idempotent of A/rad that
    split S off (f_S² − f_S lies in rad): m ↦ m·f_S is idempotent on M,
    it kills every other simple, and S·f_S = f_S·(A/rad)·f_S is
    one-dimensional.  Over Q the rank of an idempotent is its trace, so
    m_S = Σ_r (e_r·f_S)_r is exactly the multiplicity of S.  Exactly one
    m_S must be nonzero, with m_S·dim S = dim M; otherwise
    ``IntegrityError``.
    """
    if M.dim == 0:
        return None
    found = []
    for S in simples_list:
        m = sum(M.act_vec({r: 1}, S.idem).get(r, 0) for r in range(M.dim))
        if m:
            found.append((S, m))
    if len(found) == 1:
        S, m = found[0]
        if m * S.dim == M.dim:
            return S
    raise IntegrityError("module is not a sum of copies of one simple")


def crystal_f(sims, i: int, dst_simples) -> list:
    """f̃_i L = cosoc(F_i L) for each simple L of ``sims``, in order: the
    S′ in ``dst_simples`` with L = soc(E_i S′), or None.

    By adjunction, Hom_{A′}(F_i L, S′) ≅ Hom_A(L, E_i S′), with
    E_i S′ = S′·ν_i(1) (``restrict``).  End(L) and End(S′) are the base
    field (``_split_primitive`` stops at a one-dimensional corner), so the
    multiplicity of S′ in cosoc(F_i L) is dim Hom_A(L, soc(E_i S′)), the
    multiplicity of L in the socle, which ``identify_simple`` reads.
    ``sims`` must list every simple of the source block, or a socle is an
    ``IntegrityError``; "no S′" means F_i L = 0 only when ``dst_simples``
    lists every simple of theirs.  Two S′ reaching one L is an
    ``IntegrityError``.
    """
    if not sims:
        return []
    image = {}
    for S in dst_simples:
        L = identify_simple(socle(restrict(S, i, sims[0].block)), sims)
        if L in image:
            raise IntegrityError("cosoc(F_i L) is not a sum of copies of one simple")
        if L is not None:
            image[L] = S
    return [image.get(L) for L in sims]
