"""Finite-dimensional module theory over computed quotient blocks:
radical, simple modules with graded characters, induction/restriction
along the add-a-strand map, and the crystal operators.

Every module is built by one of three constructions: ``regular_module``;
a submodule (``_submodule``: the simples f·S, the socle, and the
restriction E_i N = N·ν_i(1)), whose action matrices are read off the
reduced row space of its basis; and a quotient (``_quotient_module``:
the cosocle M/M·rad and the induced module (M ⊗ A′)/relations).

Every simple is identified in one way: by the primitive idempotent f_S
of A/rad that ``simples`` split it off with.  On a module M that rad
kills, f_S kills every other simple and S·f_S is one-dimensional, so
rank M·f_S is the multiplicity of S in M (``identify_simple``).

Vectors and matrix rows are sparse ``{index: value}`` dicts, the row
type of ``linalg``: over Q a value is an ``int``, or a ``Fraction`` where
it has a real denominator (``scalars``).

The base field must have characteristic 0 here: the radical is computed
by the Dickson criterion (radical of the trace form of the regular
representation), which fails in positive characteristic.
"""

from __future__ import annotations

from .cyclotomic import IntegrityError, QuotientBlock
from .diagrams import Element, idem_key
from .laurent import LaurentPoly
from .linalg import (
    add_multiple,
    nullspace,
    rank,
    reduce_against,
    row_reduce,
    spectral_idempotents,
    transpose,
)
from .scalars import QQ


class UnsupportedCharacteristicError(RuntimeError):
    pass


def _require_char0(block: QuotientBlock):
    if getattr(block.comp.field, "characteristic", 0) != 0:
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


def _quotient(rows, n: int):
    """Representative columns of K^n / span(rows), and the projection of
    a vector onto them: its remainder modulo the span, indexed by
    position among the representative columns."""
    rref, pivots = row_reduce(rows, QQ)
    pivot_rows = dict(zip(pivots, rref))
    rep_cols = [c for c in range(n) if c not in pivot_rows]
    position = {c: i for i, c in enumerate(rep_cols)}

    def project(v: Vec) -> Vec:
        return {position[c]: x for c, x in reduce_against(v, pivot_rows).items()}

    return rep_cols, project


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


def _quotient_module(block: QuotientBlock, n: int, rows, image) -> FinDimModule:
    """K^n / span(rows) as a module, on the representative columns of
    ``_quotient``, where the block basis element i sends the unit vector
    of column c to ``image(c, i)``."""
    rep_cols, project = _quotient(rows, n)

    def act(i: int):
        return [project(image(c, i)) for c in rep_cols]

    return FinDimModule(block, len(rep_cols), act)


def regular_module(block: QuotientBlock) -> FinDimModule:
    n = block.dim

    def act(i: int):
        return [block._mult.get((r, i), {}) for r in range(n)]

    return FinDimModule(block, n, act, degrees=block.degrees())


def trace_form(block: QuotientBlock) -> list[list]:
    """The trace form tr(L_{b_i} L_{b_j}) of the regular representation.

    Only the entries with deg b_i + deg b_j = 0 and i <= j are summed.
    The structure constants are graded, so L_{b_i} L_{b_j} raises degree
    by deg b_i + deg b_j and its diagonal in the homogeneous basis, hence
    its trace, vanishes unless that sum is 0; and tr(L_i L_j) = tr(L_j L_i),
    so the form is symmetric.
    """
    n = block.dim
    mult = block._mult
    deg = block.degrees()
    tr = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if deg[i] + deg[j]:
                continue
            # trace(L_{b_i} L_{b_j}) = sum_k (b_i (b_j b_k))_k
            acc = 0
            for k in range(n):
                for l, c in mult.get((j, k), {}).items():
                    v = mult.get((i, l), {}).get(k)
                    if v:
                        acc += c * v
            tr[i][j] = tr[j][i] = acc
    return tr


def radical(block: QuotientBlock) -> list[Vec]:
    """Basis of rad(A), the radical of the trace form (Dickson criterion),
    computed once per block; the returned list is shared and must not be
    mutated.

    The form is summed only where deg b_i + deg b_j = 0, for i <= j: the
    trace of the graded map L_{b_i} L_{b_j} is zero off degree 0, and the
    form is symmetric (see ``trace_form``).
    """
    _require_char0(block)
    if block.radical is None:
        rows = [{j: x for j, x in enumerate(row) if x} for row in trace_form(block)]
        block.radical = nullspace(rows, block.dim, QQ)
    return block.radical


class SemisimpleQuotient:
    """A/rad with an explicit basis and multiplication, kept graded."""

    def __init__(self, block: QuotientBlock):
        _require_char0(block)
        self.block = block
        self.rep_cols, self.project = _quotient(radical(block), block.dim)
        self.dim = len(self.rep_cols)

    def lift(self, v: Vec) -> Vec:
        return {self.rep_cols[i]: c for i, c in v.items()}

    def multiply(self, u: Vec, v: Vec) -> Vec:
        return self.project(self.block.multiply_vectors(self.lift(u), self.lift(v)))

    def one(self) -> Vec:
        return self.project(self.block.identity_vector())

    def degree_of_col(self, c: int) -> int:
        return self.block.basis_degree(c)

    def is_homogeneous(self, v: Vec) -> int:
        """The degree of a nonzero homogeneous v.

        Every element the module theory asks about is a nonzero basis row
        of a space spanned by homogeneous rows (see ``_split_primitive``),
        so any other v is an ``IntegrityError``.
        """
        degs = {self.degree_of_col(self.rep_cols[i]) for i in v}
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


# -- induction and restriction ---------------------------------------------------------


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


def induce(M: FinDimModule, i: int, block_dst: QuotientBlock) -> FinDimModule:
    """F_i M = M ⊗_{A} A' along the add-a-strand map ν_i.

    Computed as (M ⊗ A')/span{(m·a) ⊗ b − m ⊗ ν(a)b}, with m_c ⊗ b_k at
    column c·dn + k.
    """
    block_src = M.block
    nu = nu_map(i, block_src, block_dst)
    dm, dn = M.dim, block_dst.dim
    rel_rows = []
    for a in range(block_src.dim):
        amat = M.action(a)
        na = nu(a)
        nab = [block_dst.multiply_vectors(na, {b: 1}) for b in range(dn)]
        for r in range(dm):
            for b in range(dn):
                # (m_r · a) ⊗ b − m_r ⊗ ν(a)·b
                row = {c * dn + b: x for c, x in amat[r].items()}
                add_multiple(row, -1, {r * dn + k: v for k, v in nab[b].items()})
                if row:
                    rel_rows.append(row)

    def image(c: int, j: int) -> Vec:
        r, b = divmod(c, dn)
        return {r * dn + k: v for k, v in block_dst.multiply_vectors({b: 1}, {j: 1}).items()}

    return _quotient_module(block_dst, dm * dn, rel_rows, image)


def restrict(N: FinDimModule, i: int, block_src: QuotientBlock) -> FinDimModule:
    """E_i N = N·ν_i(1), acted on through ν_i.

    ν_i(1), the image of the source block's unit, is the sum of the
    idempotents of N's block that end in a strand labelled i.  It is an
    idempotent and ν_i(a) = ν_i(1)·ν_i(a)·ν_i(1), so N·ν_i(1) is a
    submodule on which the source block's unit acts as the identity; the
    part of N that ν_i(1) kills is not in E_i N.  Like F_i M, the module
    is ungraded: the categorical grading shift <μ,α_i> − d_i is a
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


def hom_dim(M: FinDimModule, L: FinDimModule) -> int:
    """dim Hom_A(M, L) by solving the intertwiner equations exactly."""
    A = M.block
    nm, nl = M.dim, L.dim
    if nm == 0 or nl == 0:
        return 0
    rows = []
    for i in range(A.dim):
        ma = M.action(i)
        la_cols = transpose(L.action(i))
        # φ: nm x nl unknowns, φ_{r,c} at column r·nl + c; constraint φ(m·a) = φ(m)·a
        for r in range(nm):
            for c in range(nl):
                row = {k * nl + c: x for k, x in ma[r].items()}
                add_multiple(row, -1, {r * nl + k: x for k, x in la_cols.get(c, {}).items()})
                if row:
                    rows.append(row)
    return nm * nl - len(row_reduce(rows, QQ)[1])


# -- socle / cosocle and crystal operators -----------------------------------------------


def cosocle(M: FinDimModule) -> FinDimModule:
    """M / M·rad(A) as a module."""
    rad = radical(M.block)
    rows = [M.act_vec({r: 1}, x) for r in range(M.dim) for x in rad]
    return _quotient_module(M.block, M.dim, rows, lambda c, i: M.action(i)[c])


def socle(M: FinDimModule) -> FinDimModule:
    """{m : m·rad(A) = 0} as a module."""
    cons = []
    for x in radical(M.block):
        # act_vec is linear in the vector: m ↦ Σ_r m_r (e_r · x)
        cons.extend(transpose([M.act_vec({r: 1}, x) for r in range(M.dim)]).values())
    return _submodule(M.block, nullspace(cons, M.dim, QQ), lambda v, i: M.act_vec(v, {i: 1}), "socle")


def identify_simple(M: FinDimModule, simples_list):
    """The simple S of which M is a sum of copies, or None for M = 0.

    M is a module that rad(A) kills (a socle or a cosocle), so the lift
    f_S = ``S.idem`` acts on it as the primitive idempotent of A/rad that
    split S off: it kills every other simple, and S·f_S = f_S·(A/rad)·f_S
    is one-dimensional.  The rank m_S of M·f_S is therefore exactly the
    multiplicity of S.  Exactly one m_S must be positive, with
    m_S·dim S = dim M; otherwise ``IntegrityError``.
    """
    if M.dim == 0:
        return None
    found = []
    for S in simples_list:
        m = rank([M.act_vec({r: 1}, S.idem) for r in range(M.dim)], QQ)
        if m:
            found.append((S, m))
    if len(found) == 1:
        S, m = found[0]
        if m * S.dim == M.dim:
            return S
    raise IntegrityError("module is not a sum of copies of one simple")


def crystal_f(L: FinDimModule, i: int, block_dst: QuotientBlock, dst_simples) -> FinDimModule | None:
    """cosoc(F_i L): several copies of one simple, returned once (or None)."""
    FM = induce(L, i, block_dst)
    if FM.dim == 0:
        return None
    return identify_simple(cosocle(FM), dst_simples)


def crystal_e(L: FinDimModule, i: int, block_src: QuotientBlock, src_simples) -> FinDimModule | None:
    """soc(E_i L): several copies of one simple, returned once (or None
    when E_i L = 0)."""
    EM = restrict(L, i, block_src)
    if EM.dim == 0:
        return None
    return identify_simple(socle(EM), src_simples)
