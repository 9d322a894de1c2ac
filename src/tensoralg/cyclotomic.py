"""Quotients by the violating ideal: graded Hom spaces, standard modules,
structure constants and the single-red comparisons.

Everything is per-degree exact linear algebra over the straightening
engine.  The kernel of T~ -> T in a Hom component at one degree is the
span of all products through a "violating" idempotent (one with a black
strand left of every red); graded dimensions of the quotient are
assembled degree by degree against the quantum-side prediction.  The
check is two-sided on the window [dmin, top + ``tail``], where dmin is
the lowest degree of the component and top the highest degree the
prediction reaches: a dimension above or below the prediction there is a
hard integrity error, never silently accepted.  The degrees above the
window are not computed, so they are not yet certified.

Every such row space is spanned by products l·r with r running over a
tilde basis, and one routine builds them all: ``BlockComputer.saturate``
right-multiplies a stream of left factors by the basis of each
(mid T~ top)_{d'}, adds the nonzero products' coordinates to an
``IncrementalRREF`` and stops once the rank fills the component.  That
basis comes in runs by word: the diagrams e·ψ_w·y^a of one w carry their
dots at the top, so l·ψ_w is straightened once per run and each
l·ψ_w·y^a is read off it by adding dots, and a zero l·ψ_w skips the
whole run.  The kernel (basis diagrams into violating idempotents), the
standard-module space (kernel rows plus the x_φ) and the classical
cyclotomic ideal (basis diagrams times y_1^{λ^{i_1}} e(I)) differ only
in the left factors they stream, which ``lefts_through`` generates for
the first and the last.

The engine computes over ℤ.  ``BlockComputer.element_coords`` is the one
place its integer coefficients are mapped into the scalar field, as a
sparse ``{basis index: value}`` row (see ``linalg``), so kernels,
quotient bases and structure constants are all field-valued from there
on.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .cartan import CartanDatum, QMatrix, RootVector, Weight
from .diagrams import (
    DiagramAlgebra,
    Element,
    IdemKey,
    basis_enumerate,
    idem_key,
    slot_perm,
)
from .laurent import ZERO, LaurentPoly
from .linalg import IncrementalRREF, add_multiple, nullspace, rank, reduce_against
from .qtensor import GradedHomTable, TensorSpace, VKey, arrangements
from .scalars import QQ


# The strand bound of ``BlockComputer.idems``, shared with the CLI's
# ``--max-strands`` default.
DEFAULT_MAX_STRANDS = 4


class IntegrityError(RuntimeError):
    """Computed dimensions contradict the quantum-group oracle; this
    signals a bug in the engine or an inconsistent configuration, never
    bad user input."""


class BlockComputer:
    """Shared driver: one diagram engine plus one tensor-space oracle."""

    def __init__(
        self,
        datum: CartanDatum,
        q: QMatrix,
        lambdas: Sequence[Weight],
        field=QQ,
        tail: int = 3,
        max_strands: int = DEFAULT_MAX_STRANDS,
    ):
        self.datum = datum
        self.qmat = q
        self.lambdas = tuple(lambdas)
        self.alg = DiagramAlgebra(datum, q, lambdas)
        self.space = TensorSpace(datum, lambdas)
        self.field = field
        self.tail = tail
        self.max_strands = max_strands
        self._tilde_cache: dict = {}  # (bottom, top, d) -> see _tilde_entry
        self._kernel_cache: dict = {}
        self._entry_cache: dict = {}

    # -- idempotent universes -------------------------------------------------

    def idems(self, alpha: RootVector) -> list[IdemKey]:
        """All nonzero idempotents of the α block (κ(1) = 0)."""
        if len(alpha.letters()) > self.max_strands:
            raise ValueError("block exceeds the configured strand bound")
        return self.space.spanning_keys(alpha)

    # -- tilde components ---------------------------------------------------------

    def tilde_basis(self, bottom: IdemKey, top: IdemKey, d: int):
        return self._tilde_entry(bottom, top, d)[0]

    def _tilde_entry(self, bottom: IdemKey, top: IdemKey, d: int) -> list:
        """The cache entry ``[basis, index]`` of (bottom T~ top)_d; the
        index is None until ``element_coords`` first needs it."""
        key = (bottom, top, d)
        entry = self._tilde_cache.get(key)
        if entry is None:
            entry = [basis_enumerate(self.alg, bottom, top, d, d), None]
            self._tilde_cache[key] = entry
        return entry

    def min_degree(self, bottom: IdemKey, top: IdemKey):
        return min((deg for _, deg in self.alg.component(bottom, top)), default=None)

    def element_coords(self, el: Element, bottom: IdemKey, top: IdemKey, d: int) -> dict:
        """Sparse coordinates of a homogeneous element in the tilde basis,
        mapped from the engine's integers into the scalar field (a
        coefficient divisible by the characteristic drops out).  The
        {diagram: position} index is built on first use and kept beside
        the component's basis."""
        entry = self._tilde_entry(bottom, top, d)
        index = entry[1]
        if index is None:
            index = entry[1] = {k: i for i, k in enumerate(entry[0])}
        from_int = self.field.from_int
        vec = {}
        for k, c in el.terms.items():
            i = index.get(k)
            if i is None:
                if k[0] != bottom:
                    raise ValueError("element has terms off the requested component")
                raise ValueError("element has terms off the requested degree")
            x = from_int(c)
            if x:
                vec[i] = x
        return vec

    # -- the violating ideal -------------------------------------------------------

    def kernel_space(self, bottom: IdemKey, top: IdemKey, d: int):
        """Row-reduced basis of K ∩ (bottom T~ top)_d, as (rows, pivot_rows):
        the sparse rows in pivot order and the pivot → row map.

        Rows are products through violating idempotents; assembly stops as
        soon as the rank saturates the whole tilde component (the common
        case for entries the oracle predicts to vanish).  The cache keeps
        the whole ``IncrementalRREF``, which ``standard_space`` copies."""
        key = (bottom, top, d)
        inc = self._kernel_cache.get(key)
        if inc is None:
            inc = IncrementalRREF(self.field)
            if self.tilde_basis(bottom, top, d):
                mids = ((mid, None, 0) for mid in self.space.violating_keys(self.datum.content(bottom[0])))
                self.saturate(inc, bottom, top, d, self.lefts_through(bottom, top, d, mids))
            self._kernel_cache[key] = inc
        return inc.rows, inc.pivot_rows

    def lefts_through(self, bottom: IdemKey, top: IdemKey, d: int, mids):
        """Left factors for ``saturate``: for each ``(mid, g, deg g)`` in
        ``mids`` and each degree split d1 + deg g + d2 = d, every basis
        diagram b of (bottom T~ mid)_{d1} times g, with the right degree
        d2; products b·g = 0 are skipped, and g = None stands for e(mid),
        which is not multiplied out."""
        for mid, gen, gdeg in mids:
            d1min = self.min_degree(bottom, mid)
            d2min = self.min_degree(mid, top)
            if d1min is None or d2min is None:
                continue
            for d1 in range(d1min, d - gdeg - d2min + 1):
                for bl in self.tilde_basis(bottom, mid, d1):
                    el = Element(self.alg, {bl: 1})
                    if gen is not None:
                        el = el.multiply(gen)
                        if el.is_zero():
                            continue
                    yield el, mid, d - gdeg - d1

    def saturate(self, inc: IncrementalRREF, bottom: IdemKey, top: IdemKey, d: int, lefts) -> IncrementalRREF:
        """Add to ``inc`` the coordinates of every nonzero product l·r, for
        each ``(l, mid, d2)`` in ``lefts`` (l from bottom to mid) and each
        basis diagram r of (mid T~ top)_{d2}, in that order; stop as soon
        as the rank fills (bottom T~ top)_d.  Returns ``inc``.

        The basis diagrams r = e·ψ_w·y^a come in runs by word (``word_runs``),
        so each crossing product l·ψ_w is formed once per run and its dot
        variants l·ψ_w·y^a are read off it; when l·ψ_w is zero, so is
        every product of the run."""
        full = len(self.tilde_basis(bottom, top, d))
        if inc.rank == full:
            return inc
        last = runs = None
        for el_l, mid, d2 in lefts:
            if (mid, d2) != last:
                last = (mid, d2)
                runs = self.word_runs(mid, top, d2)
            for psi, dot_vectors in runs:
                cross = el_l.multiply(psi)
                if cross.is_zero():
                    continue
                for dots in dot_vectors:
                    inc.add(self.element_coords(cross.times_top_dots(dots), bottom, top, d))
                    if inc.rank == full:
                        return inc
        return inc

    def word_runs(self, bottom: IdemKey, top: IdemKey, d: int) -> list[tuple[Element, list]]:
        """The basis of (bottom T~ top)_d as runs by word, in basis order:
        ``(e·ψ_w, [a, ...])`` for the diagrams e·ψ_w·y^a, which
        ``basis_enumerate`` lists consecutively for each w."""
        dmin = self.min_degree(bottom, top)
        if dmin is None or d < dmin:
            return []
        zero_dots = (0,) * len(bottom[0])
        return [
            (Element(self.alg, {(bottom, w, zero_dots): 1}), [dots for _, _, dots in run])
            for w, run in groupby(self.tilde_basis(bottom, top, d), key=itemgetter(1))
        ]

    def quotient_dim(self, bottom: IdemKey, top: IdemKey, d: int) -> int:
        nb = len(self.tilde_basis(bottom, top, d))
        if nb == 0:
            return 0
        _, pivot_rows = self.kernel_space(bottom, top, d)
        return nb - len(pivot_rows)

    # -- graded Hom entries -------------------------------------------------------------

    def graded_hom(self, row: VKey, col: VKey) -> LaurentPoly:
        """dim_q of the quotient component with bottom ``row``, top ``col``,
        assembled per degree against the tensor-space prediction.

        Table symmetry makes the (row, col) naming convention immaterial;
        the acceptance suite pins the equality entry(a,b) = <v_b, v_a> by
        testing both orders.
        """
        key = (row, col)
        hit = self._entry_cache.get(key)
        if hit is not None:
            return hit
        bottom, top = idem_key(*row), idem_key(*col)
        pred = self.space.form_vv(bottom, top)
        dmin = self.min_degree(bottom, top)
        if dmin is None:
            if not pred.is_zero():
                raise IntegrityError(f"empty component but oracle predicts {pred.text()}")
            self._entry_cache[key] = ZERO
            return ZERO
        dmax = max(pred.max_exp() if not pred.is_zero() else dmin, dmin)
        coeffs = {}
        for d in range(dmin, dmax + self.tail + 1):
            dim = self.quotient_dim(bottom, top, d)
            want = pred.coeff(d)
            if dim > want:
                raise IntegrityError(
                    f"component {row}->{col} degree {d}: dimension {dim} exceeds oracle {want}"
                )
            if dim < want:
                raise IntegrityError(
                    f"component {row}->{col} degree {d}: dimension {dim} below oracle {want}"
                )
            if dim:
                coeffs[d] = dim
        out = LaurentPoly(coeffs)
        self._entry_cache[key] = out
        return out

    def graded_hom_table(self, alpha: RootVector) -> GradedHomTable:
        table = GradedHomTable()
        keys = self.idems(alpha)
        for a in keys:
            for b in keys:
                table.set(a, b, self.graded_hom(a, b))
        return table

    # -- standard modules -----------------------------------------------------------------

    def x_phi_elements(self, key: VKey) -> list[tuple[Element, IdemKey, int]]:
        """The left-moving coset elements x_φ (φ ≠ id) generating L^κ_I,
        each with its top idempotent and degree."""
        I, kappa = idem_key(*key)
        bottom = (I, kappa)
        blocks = self.space.letter_blocks(kappa, len(I))
        zero_dots = (0,) * len(I)
        out = []
        for assign, top, _deg in self.space.phi_set(I, kappa):
            if list(assign) == blocks:
                continue
            # black t goes to its place, by (block, t), among the top blacks
            order = sorted(range(len(I)), key=lambda t: (assign[t], t))
            black_to = [0] * len(I)
            for pos, t in enumerate(order):
                black_to[t] = pos
            w = slot_perm(self.alg, bottom, top, black_to)
            el = Element.basis_diagram(self.alg, I, kappa, w, zero_dots)
            out.append((el, top, self.alg.diagram_degree(bottom, w, zero_dots)))
        return out

    def standard_space(self, key: VKey, col: VKey, d: int):
        """Row space of (K + L^κ_I) in (e(I,κ) T~ e_col)_d, as (rows,
        pivots): the x_φ products added to a copy of the kernel's state."""
        bottom = idem_key(*key)
        top = idem_key(*col)
        self.kernel_space(bottom, top, d)
        inc = self._kernel_cache[(bottom, top, d)].copy()
        lefts = ((el, mid, d - degx) for el, mid, degx in self.x_phi_elements(key))
        self.saturate(inc, bottom, top, d, lefts)
        return inc.rows, inc.pivots

    def standard_dims(self, key: VKey, col: VKey) -> LaurentPoly:
        """dim_q Hom(P_col, S^κ_I), assembled against form(v_col, s^κ_I)."""
        ck = ("sd", key, col)
        hit = self._entry_cache.get(ck)
        if hit is not None:
            return hit
        out = self._standard_dims(key, col)
        self._entry_cache[ck] = out
        return out

    def _standard_dims(self, key: VKey, col: VKey) -> LaurentPoly:
        bottom = idem_key(*key)
        top = idem_key(*col)
        pred = self.space.form_vs(top, bottom)
        dmin = self.min_degree(bottom, top)
        if dmin is None:
            if not pred.is_zero():
                raise IntegrityError("empty component but standard oracle is nonzero")
            return ZERO
        dmax = max(pred.max_exp() if not pred.is_zero() else dmin, dmin)
        coeffs = {}
        for d in range(dmin, dmax + self.tail + 1):
            nb = len(self.tilde_basis(bottom, top, d))
            _, pivots = self.standard_space(key, col, d)
            dim = nb - len(pivots)
            want = pred.coeff(d)
            if dim != want:
                raise IntegrityError(
                    f"standard module column {key}->{col} degree {d}: {dim} != oracle {want}"
                )
            if dim:
                coeffs[d] = dim
        return LaurentPoly(coeffs)

    def standard_filtration_check(self, key: VKey) -> tuple[bool, dict]:
        """Both halves of the standard-filtration statement.

        Quantum side: v^κ_I = Σ_φ q^{-deg x_φ} s^{κ_φ}_{I_φ} exactly.
        Dimension side: dim_q Hom(P_J, P^κ_I) = Σ_φ q^{+deg x_φ}
        dim_q Hom(P_J, S_φ) for every column J of the block.  The sign
        flip between the two identities is forced empirically (grading
        shifts act on K_0 through bar relative to the vector
        normalization) and is the pinned global convention.
        """
        I, kappa = idem_key(*key)
        ok_vec, layers = self.space.filtration_identity(I, kappa)
        cols = self.idems(self.datum.content(I))
        ok_dim = True
        for col in cols:
            lhs = self.graded_hom(key, col)
            rhs = ZERO
            for _assign, idem, deg in self.space.phi_set(I, kappa):
                rhs = rhs + LaurentPoly.q_power(deg) * self.standard_dims(idem, col)
            if lhs != rhs:
                ok_dim = False
        cert = {
            "vector_identity": ok_vec,
            "dimension_identity": ok_dim,
            "sign_convention": "vectors q^{-deg x_phi}; dimensions q^{+deg x_phi}",
            "layers": layers["layers"],
        }
        return ok_vec and ok_dim, cert


class QuotientBlock:
    """A finite-dimensional block of the quotient algebra with explicit
    structure constants on a chosen coset-representative basis."""

    def __init__(self, comp: BlockComputer, alpha: RootVector):
        self.comp = comp
        self.alpha = alpha
        self.idems = comp.idems(alpha)
        self.basis: list = []  # (bottom, top, degree, DiagKey)
        self.radical = None  # basis of rad(A), filled once by modules.radical
        self._build()

    def _build(self):
        comp = self.comp
        table = {}
        for a in self.idems:
            for b in self.idems:
                entry = comp.graded_hom(a, b)
                table[(a, b)] = entry
                if entry.is_zero():
                    continue
                for d in entry.support():
                    _, pivot_rows = comp.kernel_space(a, b, d)
                    reps = [k for i, k in enumerate(comp.tilde_basis(a, b, d)) if i not in pivot_rows]
                    if len(reps) != entry.coeff(d):
                        raise IntegrityError("coset representative count mismatch")
                    for rkey in reps:
                        self.basis.append((a, b, d, rkey))
        self.table = table
        self.dim = len(self.basis)
        self.index = {bk: i for i, bk in enumerate(self.basis)}
        self._mult: dict[tuple[int, int], dict[int, object]] = {}
        for i, (a1, b1, d1, k1) in enumerate(self.basis):
            e1 = Element(comp.alg, {k1: 1})
            for j, (a2, b2, d2, k2) in enumerate(self.basis):
                if b1 != a2:
                    continue
                prod = e1.multiply(Element(comp.alg, {k2: 1}))
                self._mult[(i, j)] = self._reduce(prod, a1, b2, d1 + d2)

    def _reduce(self, el: Element, bottom: IdemKey, top: IdemKey, d: int) -> dict[int, object]:
        """Express an element of (bottom T~ top)_d in the quotient basis."""
        comp = self.comp
        if el.is_zero():
            return {}
        vec = comp.element_coords(el, bottom, top, d)
        _, pivot_rows = comp.kernel_space(bottom, top, d)
        rem = reduce_against(vec, pivot_rows)
        tb = comp.tilde_basis(bottom, top, d)
        out = {}
        for c_idx, v in sorted(rem.items()):
            if c_idx in pivot_rows:
                raise IntegrityError("kernel reduction left a pivot coordinate")
            key = (bottom, top, d, tb[c_idx])
            bi = self.index.get(key)
            if bi is None:
                # A coordinate in a degree outside the quotient's support
                # must be killed by the kernel; reaching here is a bug.
                raise IntegrityError("product escaped the computed quotient basis")
            out[bi] = v
        return out

    # -- algebra interface -------------------------------------------------------

    def multiply_vectors(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        out: dict[int, object] = {}
        zero = self.comp.field.zero()
        for i, ci in x.items():
            for j, cj in y.items():
                prod = self._mult.get((i, j))
                if not prod:
                    continue
                cc = ci * cj
                for k, ck in prod.items():
                    v = out.get(k, zero) + cc * ck
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        return out

    def identity_vector(self) -> dict[int, object]:
        out = {}
        for i, (a, b, d, key) in enumerate(self.basis):
            if a == b and d == 0:
                idem, w, dots = key
                if all(x == 0 for x in dots) and list(w) == sorted(w):
                    out[i] = self.comp.field.one()
        return out

    def degrees(self) -> list[int]:
        return [d for (_, _, d, _) in self.basis]

    def basis_degree(self, i: int) -> int:
        return self.basis[i][2]

    def idem_vector(self, idem: IdemKey) -> dict[int, object]:
        out = {}
        for i, (a, b, d, key) in enumerate(self.basis):
            if a == idem and b == idem and d == 0:
                _, w, dots = key
                if all(x == 0 for x in dots) and list(w) == sorted(w):
                    out[i] = self.comp.field.one()
        return out

    def check_associative(self, triples) -> bool:
        for x, y, z in triples:
            lhs = self.multiply_vectors(self.multiply_vectors(x, y), z)
            rhs = self.multiply_vectors(x, self.multiply_vectors(y, z))
            if lhs != rhs:
                return False
        return True


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


def double_centralizer_data(comp: BlockComputer, key: VKey, single: "BlockComputer") -> dict:
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
                _, pivk = single.kernel_space(ybottom, (J, (0,)), d)
                reps = [k for i, k in enumerate(single.tilde_basis(ybottom, (J, (0,)), d)) if i not in pivk]
                _, piv2 = single.kernel_space(ybottom, (J, (0,)), d + deg_y)
                img = IncrementalRREF(single.field)
                for rkey in reps:
                    el = _dot_multiply(single, dots_vec, rkey)
                    if el.is_zero():
                        continue
                    vec = single.element_coords(el, ybottom, (J, (0,)), d + deg_y)
                    img.add(reduce_against(vec, piv2))
                if img.rank:
                    coeffs[d + deg_y] = coeffs.get(d + deg_y, 0) + img.rank
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
    G[a][b] = t(a·b) is checked by exact rank.  Returns the first
    (D, functional) that works, scanning degrees from the top down.
    """
    field = block.comp.field
    degs = sorted(set(block.degrees()), reverse=True)
    n = block.dim
    for D in degs:
        support = [i for i in range(n) if block.basis_degree(i) == D]
        if not support:
            continue
        # symmetry constraints: for all basis pairs, t(b_i b_j - b_j b_i) = 0
        cons = []
        for i in range(n):
            for j in range(n):
                pij = block._mult.get((i, j), {})
                pji = block._mult.get((j, i), {})
                row = {}
                for col, bi in enumerate(support):
                    v = pij.get(bi, field.zero()) - pji.get(bi, field.zero())
                    if v:
                        row[col] = v
                if row:
                    cons.append(row)
        tspace = nullspace(cons, len(support), field)
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
            gram = []
            for i in range(n):
                row = {}
                for j in range(n):
                    acc = field.zero()
                    for k, c in block._mult.get((i, j), {}).items():
                        if k in t:
                            acc = acc + c * t[k]
                    if acc:
                        row[j] = acc
                gram.append(row)
            if rank(gram, field) == n:
                return {
                    "ok": True,
                    "degree": D,
                    "functional": {str(k): str(v) for k, v in t.items()},
                }
    return {"ok": False}
