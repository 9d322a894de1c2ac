"""The standard side, which no ``dims`` or ``verify-euler`` run executes,
so the CLI loads it on first use: the coproduct actions and the vectors
v^κ_I and s^κ_I, the standard filtration v^κ_I = Σ_φ q^{-deg x_φ}
s^{κ_φ}_{I_φ} and its inverse ``s_in_v``, the prediction ``form_vs`` for
dim_q Hom(P, S) and the standard modules S^κ_I = e(I,κ)T/(K + L^κ_I)
checked against it, the single-red comparison of K with the cyclotomic
ideal, the double centralizer and the Frobenius certificate
(Cline–Parshall–Scott, *Stratifying endomorphism algebras*).  Each
function takes the ``TensorSpace``, ``BlockComputer`` or ``QuotientBlock``
it works on as its first argument.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .cartan import CartanDatum, Weight
from .cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from .diagrams import DiagramAlgebra, Element, IdemKey, idem_key, strand_slots
from .laurent import ONE, ZERO, LaurentPoly, qint_signed
from .linalg import IncrementalRREF, add_multiple, nullspace, rank, reduce_against, solve
from .qtensor import (
    GradedHomTable, MalformedKappaError, PTensor, TensorSpace, TensorVector, VKey, arrangements, check_kappa
)
from .scalars import QQ

# -- coproduct actions and the spanning vectors ----------------------------------------


def _factor_pairing(space: TensorSpace, i: int, j: int, word: tuple[int, ...]) -> int:
    """α_i^∨ of the weight of factor j after the letters of ``word``."""
    c = space.datum.cartan
    return space._red_labels[i][j] - sum(c[s][i] for s in word)


def apply_f(space: TensorSpace, i: int, vec: TensorVector) -> TensorVector:
    """Δ^{(ℓ)}(F_i) = Σ_j 1 ⊗ .. ⊗ F_i ⊗ K~_{-i} ⊗ .. ⊗ K~_{-i}."""
    di = space.datum.sym[i]
    out: dict[PTensor, LaurentPoly] = {}
    for t, c in vec.terms.items():
        for j in range(space.ell):
            shift = -di * sum(_factor_pairing(space, i, k, t[k]) for k in range(j + 1, space.ell))
            nt = t[:j] + (t[j] + (i,),) + t[j + 1 :]
            add_multiple(out, c, {nt: LaurentPoly.q_power(shift)})
    return TensorVector(space, out)


def apply_e(space: TensorSpace, i: int, vec: TensorVector) -> TensorVector:
    """Δ^{(ℓ)}(E_i) = Σ_j K~_i ⊗ .. ⊗ K~_i ⊗ E_i ⊗ 1 ⊗ .. ⊗ 1.

    Within one factor, E_i is pushed past each F letter with the
    commutator scalar [α_i^∨(μ)] in q^{d_i}, μ the weight below the
    deleted letter; E_i kills the highest-weight vector.
    """
    di = space.datum.sym[i]
    out: dict[PTensor, LaurentPoly] = {}
    for t, c in vec.terms.items():
        for j in range(space.ell):
            shift = di * sum(_factor_pairing(space, i, k, t[k]) for k in range(j))
            pre = c * LaurentPoly.q_power(shift)
            word = t[j]
            for p, mu in space._pairings_below(i, word, (0,), (space._red_labels[i][j],)):
                scal = qint_signed(mu, di)
                if not scal.is_zero():
                    nt = t[:j] + (word[:p] + word[p + 1 :],) + t[j + 1 :]
                    add_multiple(out, pre, {nt: scal})
    return TensorVector(space, out)


def vkappa(space: TensorSpace, I: Sequence[int], kappa: Sequence[int]) -> TensorVector:
    """The vector categorifying the projective e(I,κ)T; inductive build.

    kappa(1) >= 1 labels a violating idempotent, which is zero in the
    quotient, so the zero vector is returned for it.
    """
    I = tuple(I)
    n = len(I)
    kappa = check_kappa(kappa, n)
    if len(kappa) != space.ell:
        raise MalformedKappaError("kappa length != number of red strands")
    if space.ell == 0:
        if n:
            raise MalformedKappaError("letters but no tensor factor")
        return TensorVector(space, {(): ONE})
    if kappa[0] >= 1:
        return TensorVector(space, {})
    ops: list[tuple[str, int]] = []
    j, k = space.ell, n
    while j > 0:
        if kappa[j - 1] == k:
            ops.append(("attach", j))
            j -= 1
        else:
            ops.append(("F", I[k - 1]))
            k -= 1
    vec = TensorVector(TensorSpace(space.datum, ()), {(): ONE})
    partial: list[Weight] = []
    for op, arg in reversed(ops):
        if op == "attach":
            partial.append(space.lambdas[arg - 1])
            sub = TensorSpace(space.datum, partial) if len(partial) < space.ell else space
            vec = TensorVector(sub, {t + ((),): c for t, c in vec.terms.items()})
        else:
            vec = apply_f(vec.space, arg, vec)
    return vec


def skappa(space: TensorSpace, I: Sequence[int], kappa: Sequence[int]) -> TensorVector:
    """The pure tensor with letter block j sitting entirely in factor j."""
    I = tuple(I)
    n = len(I)
    kappa = check_kappa(kappa, n)
    if len(kappa) != space.ell:
        raise MalformedKappaError("kappa length != number of red strands")
    if space.ell == 0:
        return TensorVector(space, {(): ONE})
    starts = (0,) + kappa[1:]
    ends = kappa[1:] + (n,)
    t = tuple(I[s:e] for s, e in zip(starts, ends))
    return TensorVector(space, {t: ONE})


# -- standardization combinatorics ---------------------------------------------------


def letter_blocks(kappa: tuple[int, ...], n: int) -> list[int]:
    """block(t) = the factor whose group contains letter t (1-based)."""
    return [sum(1 for k in kappa if k < t) for t in range(1, n + 1)]


def phi_set(space: TensorSpace, I: Sequence[int], kappa: Sequence[int]) -> Iterator[tuple]:
    """Left-moving block assignments φ with their top idempotent and degree.

    Yields ``(assignment, (I_φ, κ_φ), deg x_φ)``; the identity assignment
    comes first (``s_in_v`` and ``x_phi_elements`` skip it by place).
    deg x_φ adds <α_i, λ_j> for each red line crossed and -<α_i, α_i'>
    for each black/black inversion.
    """
    I = tuple(I)
    n = len(I)
    kappa = check_kappa(kappa, n)
    d = space.datum
    blocks = letter_blocks(kappa, n)
    if any(b == 0 for b in blocks):
        raise MalformedKappaError("phi_set needs kappa(1) = 0")

    def rec(t, cur):
        if t > n:
            yield tuple(cur)
            return
        for c in range(blocks[t - 1], 0, -1):
            cur.append(c)
            yield from rec(t + 1, cur)
            cur.pop()

    for assign in rec(1, []):
        order = sorted(range(n), key=lambda t: (assign[t], t))
        I_phi = tuple(I[t] for t in order)
        k_phi = tuple(sum(1 for t in range(n) if assign[t] < j) for j in range(1, space.ell + 1))
        deg = 0
        for t in range(n):
            for j in range(assign[t] + 1, blocks[t] + 1):
                deg += d.root_pairing_coeff(I[t], space.lambdas[j - 1])
        for s in range(n):
            for t in range(s + 1, n):
                if assign[s] > assign[t]:
                    deg -= d.sym[I[t]] * d.cartan[I[s]][I[t]]
        yield assign, (I_phi, k_phi), deg


def filtration_identity(space: TensorSpace, I: Sequence[int], kappa: Sequence[int]) -> tuple[bool, dict]:
    """Check v^κ_I = Σ_φ q^{-deg x_φ} s^{κ_φ}_{I_φ} as exact vectors."""
    lhs = vkappa(space, I, kappa)
    rhs = TensorVector(space, {})
    layers = []
    for assign, (I_phi, k_phi), deg in phi_set(space, I, kappa):
        rhs = rhs + skappa(space, I_phi, k_phi).scale(LaurentPoly.q_power(-deg))
        layers.append({"assign": assign, "idem": [list(I_phi), list(k_phi)], "deg": deg})
    return (lhs - rhs).is_zero(), {"layers": layers}


def s_in_v(space: TensorSpace, I: Sequence[int], kappa: Sequence[int]) -> dict[VKey, LaurentPoly]:
    """Expansion of s^κ_I in the v-basis by inverting the unitriangular
    filtration identity, memoized on the space."""
    key = (tuple(I), check_kappa(kappa, len(I)))
    memo = space._s_in_v_memo
    if key in memo:
        return memo[key]
    out: dict[VKey, LaurentPoly] = {key: ONE}
    # the first φ is the identity, the term s^κ_I itself
    for _assign, idem, deg in islice(phi_set(space, *key), 1, None):
        add_multiple(out, LaurentPoly.q_power(-deg, -1), s_in_v(space, *idem))
    memo[key] = out
    return out


def form_vs(space: TensorSpace, a: VKey, s_key: VKey) -> LaurentPoly:
    """The prediction for dim_q Hom(P_a, S^{κ'}_J).

    The standard class expands in projective classes with the
    *barred* coefficients of the vector identity (grading shifts act
    on K_0 through q -> q^-1 relative to the vector normalization),
    so s = Σ c·v pairs as Σ bar(c)·<v_a, v>.
    """
    total = ZERO
    for key, c in s_in_v(space, *s_key).items():
        total = total + c.bar() * space.form_vv(a, key)
    return total


# -- weight multiplicities ------------------------------------------------------------


def weight_dim(space: TensorSpace, mu: Weight) -> int:
    """dim of the μ weight space of the tensor product, via Gram rank."""
    diff = sum(space.lambdas, space.datum.zero_weight()) - mu
    # Solve diff = Σ m_i α_i; reachable weights give nonnegative integers.
    coords = _root_coords(space.datum, diff)
    if coords is None or any(c < 0 for c in coords):
        return 0
    keys = space.spanning_keys(space.datum.root(coords))
    if not keys:
        return 1 if all(c == 0 for c in coords) else 0
    gram = [[space.form_vv(a, b) for b in keys] for a in keys]
    return laurent_rank(gram)


def _root_coords(datum: CartanDatum, wt: Weight) -> tuple[int, ...] | None:
    """Express wt as an integral combination of simple roots, if possible."""
    n = datum.rank
    rows = [{j: a for j, a in enumerate(datum.cartan[i]) if a} for i in range(n)]
    rhs = {j: c for j, c in enumerate(wt.coords) if c}
    x = solve(rows, rhs, QQ)
    if x is None or any(v.denominator != 1 for v in x.values()):
        return None
    return tuple(int(x.get(i, 0)) for i in range(n))


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
    if num.is_zero() or den == 1:
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


# -- standard modules -----------------------------------------------------------------


def slot_perm(alg: DiagramAlgebra, bottom: IdemKey, top: IdemKey, black_to: Sequence[int]) -> tuple[int, ...]:
    """The merged-strand permutation from ``bottom`` to ``top`` that keeps
    every red strand and takes the t-th black strand of the bottom to the
    ``black_to[t]``-th black strand of the top."""
    bot_blacks, bot_reds = strand_slots(alg, bottom)
    top_blacks, top_reds = strand_slots(alg, top)
    w = [0] * len(alg.merged(bottom))
    for j, s in bot_reds.items():
        w[s] = top_reds[j]
    for s, t in zip(bot_blacks, black_to):
        w[s] = top_blacks[t]
    return tuple(w)


def x_phi_elements(comp: BlockComputer, key: VKey) -> list[tuple[Element, IdemKey, int]]:
    """The left-moving coset elements x_φ (φ ≠ id) generating L^κ_I,
    each with its top idempotent and degree."""
    I, kappa = idem_key(*key)
    bottom = (I, kappa)
    zero_dots = (0,) * len(I)
    out = []
    # the first φ is the identity, which is not a generator
    for assign, top, _deg in islice(phi_set(comp.space, I, kappa), 1, None):
        # black t goes to its place, by (block, t), among the top blacks
        order = sorted(range(len(I)), key=lambda t: (assign[t], t))
        black_to = [0] * len(I)
        for pos, t in enumerate(order):
            black_to[t] = pos
        w = slot_perm(comp.alg, bottom, top, black_to)
        el = Element.basis_diagram(comp.alg, I, kappa, w, zero_dots)
        out.append((el, top, comp.alg.diagram_degree(bottom, w, zero_dots)))
    return out


def standard_space(comp: BlockComputer, key: VKey, col: VKey, d: int):
    """Row space of (K + L^κ_I) in (e(I,κ) T~ e_col)_d, as (rows,
    pivots): the x_φ products added to a copy of the kernel's state."""
    bottom = idem_key(*key)
    top = idem_key(*col)
    comp.kernel_space(bottom, top, d)
    inc = comp._kernel_cache[(bottom, top, d)].copy()
    lefts = ((el, mid, d - degx) for el, mid, degx in x_phi_elements(comp, key))
    comp.saturate(inc, bottom, top, d, lefts)
    return inc.rows, inc.pivots


def standard_dims(comp: BlockComputer, key: VKey, col: VKey) -> LaurentPoly:
    """dim_q Hom(P_col, S^κ_I), assembled against form(v_col, s^κ_I)."""
    ck = ("sd", key, col)
    hit = comp._entry_cache.get(ck)
    if hit is None:
        bottom, top = idem_key(*key), idem_key(*col)
        pred = form_vs(comp.space, top, bottom)
        hit = comp._entry_cache[ck] = comp._checked_dims(
            ("standard module column", key, col),
            bottom,
            top,
            pred,
            lambda d: len(comp.tilde_basis(bottom, top, d)) - len(standard_space(comp, key, col, d)[1]),
        )
    return hit[0]


def standard_filtration_check(comp: BlockComputer, key: VKey) -> tuple[bool, dict]:
    """Both halves of the standard-filtration statement.

    Quantum side: v^κ_I = Σ_φ q^{-deg x_φ} s^{κ_φ}_{I_φ} exactly.
    Dimension side: dim_q Hom(P_J, P^κ_I) = Σ_φ q^{+deg x_φ}
    dim_q Hom(P_J, S_φ) for every column J of the block.  The sign
    flip between the two identities is forced empirically (grading
    shifts act on K_0 through bar relative to the vector
    normalization) and is the pinned global convention.
    """
    I, kappa = idem_key(*key)
    ok_vec, layers = filtration_identity(comp.space, I, kappa)
    cols = comp.idems(comp.datum.content(I))
    ok_dim = True
    for col in cols:
        lhs = comp.graded_hom(key, col)
        rhs = ZERO
        for _assign, idem, deg in phi_set(comp.space, I, kappa):
            rhs = rhs + LaurentPoly.q_power(deg) * standard_dims(comp, idem, col)
        if lhs != rhs:
            ok_dim = False
    cert = {
        "vector_identity": ok_vec,
        "dimension_identity": ok_dim,
        "sign_convention": "vectors q^{-deg x_phi}; dimensions q^{+deg x_phi}",
        "layers": layers["layers"],
    }
    return ok_vec and ok_dim, cert


# -- single-red comparisons -----------------------------------------------------------------


def cyclotomic_ideal_space(comp: BlockComputer, bottom: IdemKey, top: IdemKey, d: int):
    """Row space of the classical cyclotomic ideal <y_1^{λ^{i_1}} e(I)> in
    the single-red component (bottom T~ top)_d, for λ̲ = (λ), as
    (rows, pivots): the products b · y_1^{λ^{i_1}} e(I) · b'."""
    if comp.space.ell != 1:
        raise ValueError("cyclotomic comparison needs a single red strand")
    lam = comp.lambdas[0]

    def generators():
        for I2 in arrangements(bottom[0]):
            mid = idem_key(I2, (0,))
            a1 = lam.coords[I2[0]]
            dots = (a1,) + (0,) * (len(I2) - 1)
            gen = Element(comp.alg, {(mid, tuple(range(len(comp.alg.merged(mid)))), dots): 1})
            yield mid, gen, 2 * comp.datum.sym[I2[0]] * a1

    lefts = comp.lefts_through(bottom, top, d, generators())
    inc = comp.saturate(IncrementalRREF(comp.field), bottom, top, d, lefts)
    return inc.rows, inc.pivots


def kernel_equals_cyclotomic(comp: BlockComputer, bottom: IdemKey, top: IdemKey, dmax: int) -> bool:
    """K ∩ R = cyclotomic ideal, checked per degree up to dmax: equal
    dimensions, and every cyclotomic row reduces to zero against K."""
    dmin = comp.min_degree(bottom, top)
    if dmin is None:
        return True
    for d in range(dmin, dmax + 1):
        _, k_piv = comp.kernel_space(bottom, top, d)
        c_rows, c_piv = cyclotomic_ideal_space(comp, bottom, top, d)
        if len(k_piv) != len(c_piv):
            return False
        if any(reduce_against(r, k_piv) for r in c_rows):
            return False
    return True


# -- double centralizer ------------------------------------------------------------------------


def theta_kappa(comp: BlockComputer, key: VKey) -> Element:
    """The crossingless element from e(I,0) to e(I,κ)."""
    I, kappa = idem_key(*key)
    bottom = idem_key(I, (0,) * comp.space.ell)
    w = slot_perm(comp.alg, bottom, (I, kappa), range(len(I)))
    return Element.basis_diagram(comp.alg, I, bottom[1], w, (0,) * len(I))


def y_idempotent_dots(comp: BlockComputer, key: VKey) -> Element:
    """y_{I,κ} = θ_κ · flip(θ_κ), normalized by the engine.

    The result is asserted to be a single dot monomial on e(I,0); the
    exponent on strand k is Σ_{j: κ(j) >= k} λ_j^{i_k}.
    """
    th = theta_kappa(comp, key)
    y = th.multiply(th.flip())
    if len(y.terms) != 1:
        raise IntegrityError("y_{I,kappa} did not normalize to a monomial")
    return y


def double_centralizer_data(comp: BlockComputer, key: VKey, single: BlockComputer) -> dict:
    """Graded-dimension comparison Hom(P^0, P^κ_I) vs y_{I,κ}·T^λ.

    ``single`` is the computer for the merged single-red algebra over
    λ = Σ λ_j.  Returns a certificate with the per-column dimension match
    (after the overall shift by deg y/2 = deg θ_κ, recorded explicitly).
    """
    I, kappa = idem_key(*key)
    y = y_idempotent_dots(comp, key)
    ydeg = next(iter(y.terms))
    deg_y = comp.alg.diagram_degree(*ydeg)
    deg_theta = deg_y // 2
    # columns: single-red idempotents e(J)
    cols = single.idems(comp.datum.content(I))
    ok = True
    detail = {}
    zero_kappa = (0,) * comp.space.ell
    dots_vec = ydeg[2]
    for col in cols:
        J = col[0]
        # dim_q Hom(P^0_J, P^κ_I) in the full algebra
        hom = comp.graded_hom((I, kappa), (J, zero_kappa))
        # dim_q of y·(e_I T^λ e_J) per degree, in the single-red block
        ybottom = idem_key(I, (0,))
        entry = single.graded_hom((I, (0,)), (J, (0,)))
        coeffs = {}
        if not entry.is_zero():
            for d in entry.support():
                reps = single.coset_reps(ybottom, (J, (0,)), d)
                _, piv2 = single.kernel_space(ybottom, (J, (0,)), d + deg_y)
                img = IncrementalRREF(single.field)
                for rkey in reps:
                    el = _dot_multiply(single, dots_vec, rkey)
                    if el.is_zero():
                        continue
                    vec = single.element_coords(el, ybottom, (J, (0,)), d + deg_y)
                    img.add(reduce_against(vec, piv2))
                if img.rank:
                    coeffs[d + deg_y] = img.rank
        image_dims = LaurentPoly(coeffs)
        want = LaurentPoly.q_power(deg_theta) * hom
        match = image_dims == want
        ok = ok and match
        detail[GradedHomTable.idem_label(col)] = {
            "hom": hom.to_json(),
            "image": image_dims.to_json(),
            "match": match,
        }
    return {"ok": ok, "shift": deg_theta, "y_degree": deg_y, "columns": detail}


def _dot_multiply(single: BlockComputer, dots_vec, rkey) -> Element:
    """Left-multiply a single-red basis diagram by the dot monomial y^dots
    on its bottom idempotent."""
    idem, w, dots = rkey
    m = len(single.alg.merged(idem))
    ydiag = (idem, tuple(range(m)), tuple(dots_vec))
    left = Element(single.alg, {ydiag: 1})
    return left.multiply(Element(single.alg, {rkey: 1}))


# -- Frobenius feasibility ---------------------------------------------------------------------


def frobenius_certificate(block: QuotientBlock) -> dict:
    """Search for a homogeneous symmetric trace with nondegenerate pairing.

    The functional is supported on one degree D; symmetry t(ab) = t(ba)
    cuts a linear subspace, and nondegeneracy of the Gram matrix
    G[a][b] = t(a·b), which is ``QuotientBlock.pairing(t)``, is checked
    by exact rank.  Returns the first (D, functional) that works,
    scanning degrees from the top down.
    """
    field = block.comp.field
    n = block.dim
    # symmetry: t(b_i b_j − b_j b_i) = 0 for every pair with a stored
    # product (a pair with neither stored gives 0, and (j, i) repeats (i, j))
    comms = [add_multiple(dict(pij), -1, block._mult.get((j, i), {})) for (i, j), pij in block._mult.items()]
    for D in sorted(set(block.degrees()), reverse=True):
        support = [i for i in range(n) if block.basis_degree(i) == D]
        position = {bi: col for col, bi in enumerate(support)}
        cons = [{position[k]: v for k, v in c.items() if k in position} for c in comms]
        tspace = nullspace([row for row in cons if row], len(support), field)
        if not tspace:
            continue
        # Deterministic search through the T-space for a nondegenerate Gram.
        candidates = list(tspace)
        for a in range(len(tspace)):
            for b in range(a + 1, len(tspace)):
                candidates.append(add_multiple(dict(tspace[a]), field.one(), tspace[b]))
        for mult in (1, 2, 3):
            combo = {}
            for k, v in enumerate(tspace):
                add_multiple(combo, field.from_int((mult**k) % 1009), v)
            candidates.append(combo)
        for tvec in candidates:
            t = {bi: tvec[col] for col, bi in enumerate(support) if col in tvec}
            if not t:
                continue
            if rank(block.pairing(t), field) == n:
                return {
                    "ok": True,
                    "degree": D,
                    "functional": {str(k): str(v) for k, v in t.items()},
                }
    return {"ok": False}
