"""Finite-dimensional module theory over computed quotient blocks:
radical, simple modules with graded characters, induction/restriction
along the add-a-strand map, and the crystal operators.

Vectors and matrix rows are sparse ``{index: Fraction}`` dicts, the row
type of ``linalg``.

The base field must have characteristic 0 here: the radical is computed
by the Dickson criterion (radical of the trace form of the regular
representation), which fails in positive characteristic.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from .diagrams import Element, idem_key
from .laurent import LaurentPoly
from .linalg import (
    add_multiple,
    nullspace,
    rank,
    reduce_against,
    row_reduce,
    solve,
    spectral_idempotents,
    transpose,
)
from .scalars import QQ

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


class UnsupportedCharacteristicError(RuntimeError):
    pass


def _require_char0(block: QuotientBlock):
    if getattr(block.comp.field, "characteristic", 0) != 0:
        raise UnsupportedCharacteristicError(
            "radical computations need characteristic 0 (Dickson criterion)"
        )


Vec = dict[int, Fraction]


class FinDimModule:
    """A right module over a quotient block, by action matrices.

    ``action(i)`` returns the dim x dim matrix of the right action of the
    i-th block basis element, as a list of sparse rows: row r is the
    image of the r-th module basis vector.  ``act(i)`` builds that matrix
    once; it is cached here.  Degrees, when known, grade the module basis.
    """

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

    def ungraded_char(self) -> dict:
        """dim of M·e per diagram idempotent e; distinguishes simples."""
        out = {}
        for idem in self.block.idems:
            ev = self.block.idem_vector(idem)
            rows = [self.act_vec({r: ONE}, ev) for r in range(self.dim)]
            out[idem] = rank(rows, QQ)
        return out


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


def regular_module(block: QuotientBlock) -> FinDimModule:
    n = block.dim

    def act(i: int):
        return [block._mult.get((r, i), {}) for r in range(n)]

    return FinDimModule(block, n, act, degrees=block.degrees())


def trace_form(block: QuotientBlock) -> list[list[Fraction]]:
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
    tr = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if deg[i] + deg[j]:
                continue
            # trace(L_{b_i} L_{b_j}) = sum_k (b_i (b_j b_k))_k
            acc = Fraction(0)
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
            add_multiple(S.multiply({i: ONE}, {b: ONE}), MINUS_ONE, S.multiply({b: ONE}, {i: ONE}))
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
    rows = [S.multiply(S.multiply(e, {i: ONE}), e) for i in range(S.dim)]
    return row_reduce(rows, QQ)[0]


class SimpleModule(FinDimModule):
    def __init__(self, block, dim, act, degrees, tag):
        super().__init__(block, dim, act, degrees)
        self.tag = tag


def simples(block: QuotientBlock) -> list[SimpleModule]:
    """The simple right modules, with graded characters, via idempotent
    splitting in the semisimple quotient."""
    S = SemisimpleQuotient(block)
    if S.dim == 0:
        return []
    out = []
    for ci, c in enumerate(central_primitive_idempotents(S)):
        f = _split_primitive(S, c)
        # L = f S as a right block-module; f has degree 0, so f S is
        # spanned by homogeneous rows and its reduced basis is homogeneous
        basis = row_reduce([S.multiply(f, {i: ONE}) for i in range(S.dim)], QQ)[0]
        degrees = [S.is_homogeneous(v) for v in basis]

        def act(i: int, basis=basis):
            bi = S.project({i: ONE})
            mat = [solve(basis, S.multiply(v, bi), QQ) for v in basis]
            if None in mat:
                raise IntegrityError("simple module is not stable")
            return mat

        out.append(SimpleModule(block, len(basis), act, degrees, tag=ci))
    return out


# -- induction and restriction ---------------------------------------------------------


def nu_map(src: BlockComputer, dst: BlockComputer, i: int, block_src: QuotientBlock, block_dst: QuotientBlock):
    """The add-a-strand algebra map on quotient blocks: append a black
    strand labeled i at the far right and reduce in the target block."""

    def nu(vi: int) -> dict[int, Fraction]:
        bottom, top, d, key = block_src.basis[vi]
        idem, w, dots = key
        I, kappa = idem
        nI = I + (i,)
        m = len(src.alg.merged(idem))
        nw = tuple(w) + (m,)
        ndots = tuple(dots) + (0,)
        nbottom = idem_key(nI, kappa)
        el = Element(dst.alg, {(nbottom, nw, ndots): 1})
        ntop = dst.alg.top_idem(nbottom, nw)
        nd = dst.alg.diagram_degree(nbottom, nw, ndots)
        return block_dst._reduce(el, nbottom, ntop, nd)

    return nu


def induce(
    M: FinDimModule,
    i: int,
    src: BlockComputer,
    dst: BlockComputer,
    block_dst: QuotientBlock,
) -> FinDimModule:
    """F_i M = M ⊗_{A} A' along the add-a-strand map ν_i.

    Computed as (M ⊗ A')/span{(m·a) ⊗ b − m ⊗ ν(a)b}.
    """
    block_src = M.block
    nu = nu_map(src, dst, i, block_src, block_dst)
    nu_cache = {a: nu(a) for a in range(block_src.dim)}
    dm, dn = M.dim, block_dst.dim
    rel_rows = []
    for a in range(block_src.dim):
        amat = M.action(a)
        nab = [block_dst.multiply_vectors(nu_cache[a], {b: ONE}) for b in range(dn)]
        for r in range(dm):
            for b in range(dn):
                # (m_r · a) ⊗ b − m_r ⊗ ν(a)·b, with m_c ⊗ b_k at column c·dn + k
                row = {c * dn + b: x for c, x in amat[r].items()}
                add_multiple(row, MINUS_ONE, {r * dn + k: v for k, v in nab[b].items()})
                if row:
                    rel_rows.append(row)
    rep_cols, project = _quotient(rel_rows, dm * dn)

    def act(j: int):
        mat = []
        for c in rep_cols:
            r, b = divmod(c, dn)
            prod = block_dst.multiply_vectors({b: ONE}, {j: ONE})
            mat.append(project({r * dn + k: v for k, v in prod.items()}))
        return mat

    return FinDimModule(block_dst, len(rep_cols), act, degrees=None)


def restrict(N: FinDimModule, i: int, src: BlockComputer, dst: BlockComputer, block_src: QuotientBlock) -> FinDimModule:
    """E_i N: the same space, acted on through ν_i.

    The categorical grading shift <μ,α_i> − d_i is a bookkeeping shift on
    characters only; the ungraded adjunction dims are what this package
    verifies, so the shift is recorded in docs rather than re-graded here.
    """
    nu = nu_map(src, dst, i, block_src, N.block)

    def act(j: int):
        img = nu(j)
        return [N.act_vec({r: ONE}, img) for r in range(N.dim)]

    return FinDimModule(block_src, N.dim, act, degrees=N.degrees)


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
                add_multiple(row, MINUS_ONE, {r * nl + k: x for k, x in la_cols.get(c, {}).items()})
                if row:
                    rows.append(row)
    return nm * nl - len(row_reduce(rows, QQ)[1])


# -- socle / cosocle and crystal operators -----------------------------------------------


def cosocle(M: FinDimModule) -> FinDimModule:
    """M / M·rad(A) as a module."""
    rad = radical(M.block)
    rep, project = _quotient([M.act_vec({r: ONE}, x) for r in range(M.dim) for x in rad], M.dim)

    def act(i: int):
        return [project(M.act_vec({c: ONE}, {i: ONE})) for c in rep]

    return FinDimModule(M.block, len(rep), act, degrees=None)


def socle(M: FinDimModule) -> FinDimModule:
    """{m : m·rad(A) = 0} as a module."""
    rad = radical(M.block)
    cons = []
    for x in rad:
        # act_vec is linear in the vector: m ↦ Σ_r m_r (e_r · x)
        cons.extend(transpose([M.act_vec({r: ONE}, x) for r in range(M.dim)]).values())
    basis = row_reduce(nullspace(cons, M.dim, QQ), QQ)[0]

    def act(i: int):
        mat = [solve(basis, M.act_vec(v, {i: ONE}), QQ) for v in basis]
        if None in mat:
            raise IntegrityError("socle is not a submodule")
        return mat

    return FinDimModule(M.block, len(basis), act, degrees=None)


def decompose_semisimple(M: FinDimModule, simples_list) -> dict[int, int]:
    """Multiplicities of each simple in a semisimple module, by characters."""
    if M.dim == 0:
        return {}
    chars = {s.tag: s.ungraded_char() for s in simples_list}
    target = M.ungraded_char()
    # solve nonneg integer combination; characters are linearly independent
    tags = sorted(chars)
    idems = sorted(target, key=str)
    rows = [{k: Fraction(chars[t][e]) for k, e in enumerate(idems) if chars[t][e]} for t in tags]
    rhs = {k: Fraction(target[e]) for k, e in enumerate(idems) if target[e]}
    sol = solve(rows, rhs, QQ)
    if sol is None or any(c.denominator != 1 or c < 0 for c in sol.values()):
        raise IntegrityError("module is not an integral combination of simples")
    return {tags[j]: int(c) for j, c in sol.items()}


def identify_simple(M: FinDimModule, simples_list):
    """The unique simple appearing in a semisimple module, or None for 0."""
    mult = decompose_semisimple(M, simples_list)
    if not mult:
        return None
    if len(mult) != 1:
        raise IntegrityError("cosocle/socle is not isotypic")
    tag = next(iter(mult))
    return next(s for s in simples_list if s.tag == tag)


def crystal_f(L, i, src, dst, block_dst, dst_simples):
    """cosoc(F_i L): several copies of one simple, returned once (or None)."""
    FM = induce(L, i, src, dst, block_dst)
    if FM.dim == 0:
        return None
    return identify_simple(cosocle(FM), dst_simples)


def crystal_e(L, i, src, dst, block_src, src_simples):
    """soc(E_i L): several copies of one simple, returned once (or None)."""
    EM = restrict(L, i, src, dst, block_src)
    if EM.dim == 0:
        return None
    soc = socle(EM)
    if soc.dim == 0:
        return None
    return identify_simple(soc, src_simples)
