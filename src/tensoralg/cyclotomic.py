"""Quotients by the violating ideal: graded Hom spaces and the structure
constants of finite blocks; standard modules and the single-red
comparisons, built on these kernels, are in ``standard``.

Everything is per-degree exact linear algebra over the straightening
engine.  The kernel of T~ -> T in a Hom component at one degree is the
part in the two-sided ideal K that the "violating" idempotents (those
with a black strand left of every red) generate; graded dimensions of
the quotient are assembled degree by degree against the quantum-side
prediction.  The check (``BlockComputer._checked_dims``, for graded Hom
entries and ``standard.standard_dims`` columns alike) is two-sided on
the window ``BlockComputer.checked_window``, [dmin, top + ``tail``], where
dmin is the lowest degree of the component and top the highest degree
the prediction reaches: a dimension above or below the prediction there
is a hard integrity error, never silently accepted, and so is a predicted
coefficient below dmin, where the component is empty.

The degrees above the window are not computed; a dot-at-the-top induction
certifies them when the window reaches E = max(W, t + g).  W is the top
degree of the dotless diagrams e·ψ_w of the component, g the largest dot
degree 2·d_i on a black strand of the top idempotent, and t the top degree
of the entry (dmin − 1 for a zero entry); dmin and W are the component's
``DiagramAlgebra.degree_range``, kept beside its geometry.  In a degree
d > W every basis diagram e·ψ_w·y^a carries a dot, a_k > 0, so it is
(e·ψ_w·y^{a−ε_k})·y_k: a basis diagram of degree d − 2d_{i_k} ∈ [d − g, d)
times y_k.  K is a right ideal, so once the quotient is zero on the g
degrees (E − g, E], induction on d puts every basis diagram of every
degree above E in K.  The window check makes the quotient zero on
(t, top + ``tail``] (the component is empty below dmin), which contains
(E − g, E] exactly when top + ``tail`` ≥ E, since E − g ≥ t.  A window
that stops short of E leaves the degrees above it uncertified.  The check
works the certificate out as it checks an entry, on the same
``_free_rep`` ends, whose quotient is isomorphic to the entry's in every
degree (see below): ``graded_hom`` memoizes the entry with the degree
through which it is proven, and ``BlockComputer.certified_through`` reads
that record.

A component whose bottom or top idempotent e(x) lies in K is K entirely,
in every degree, so its quotient is zero.  ``BlockComputer._proven``
proves e(x) ∈ K from x alone, with no product and no look at the
prediction; reds are numbered from 1 on the left, and λ_j^i is the i-th
coordinate of the label of red j:
- x is violating (κ(1) ≥ 1);
- prefix cut: the strands left of the last red ℓ form an idempotent p,
  with reds 1..ℓ−1, and e(p) ∈ K.  Putting strands to the right of every
  diagram is an algebra map that keeps a violating idempotent violating,
  so it maps K(p) into K and e(p) to e(x);
- nilHecke run: the black strand k directly right of red ℓ has label i
  and the run bound B = λ_ℓ^i + N_k(x′) of the dot-bound paragraph below,
  x′ being the same strands with k moved left of red ℓ, and the run of
  label-i strands from k to the right end or the first other label has
  m > B strands.  Acting on those m strands alone is an algebra map
  NH_m → e(x) T~ e(x) from the nilHecke algebra; the preimage of K is a
  two-sided ideal that holds y_1^B, so the map factors through the
  cyclotomic nilHecke algebra NH_m^B = NH_m/(y_1^B), which is 0 for
  m > B.  The rule is named for the cases it covers: "bigon" when B = 0
  (strand k crossing red ℓ and returning costs y_k^{λ_ℓ^i} = 1, so
  e(x) = ψ·e(x′)·ψ with e(x′) ∈ K), "nilhecke" when ℓ = 1 (then
  B = λ_1^i, and the quotient is the cyclotomic quiver Hecke algebra) and
  "run" otherwise.
The last rule acts on the last red only, since the prefix cut hands every
earlier red, with the run up to the next red, to the prefix.
``BlockComputer._in_K`` decides e(x) ∈ K exactly, once per x: by
``_proven``, or by one of two rules that look at products:
(a) x ends in a black strand and e(x′) ∈ K for its prefix
x′ = (I[:-1], κ), by the algebra map of the prefix cut;
(b) K fills the degree-0 diagonal (x T~ x)_0.  That space holds e(x), and
K is a two-sided ideal, so (b) holds exactly when e(x) ∈ K.
The kernels, the window check and the structure constants all ask
``_in_K``, so they give one answer for each idempotent.

The red bigon with λ_j^i = 0 is also an isomorphism.  Let x′ be x with a
black strand of label i moved across an adjacent red j with λ_j^i = 0, and
ψ ∈ (x T~ x′)_0, ψ′ ∈ (x′ T~ x)_0 the two crossings: both bigons are
y^{λ_j^i} = 1, so ψ·ψ′ = e(x) and ψ′·ψ = e(x′) in T~.  So e(x) ≅ e(x′),
and with the same for y and y′, a ↦ ψ′·a·ψ_y is an isomorphism
(x T~ y)_d → (x′ T~ y′)_d in every degree that maps K onto K, since K is a
two-sided ideal: the tilde dimensions, the lowest degree and every
quotient dimension agree for (x, y) and (x′, y′).  ``_free_rep`` picks
one idempotent per class (each red slid left past the free strands on its
left), and ``graded_hom`` computes each entry on the representatives of
its ends.  The same fact thins the kernel assembly: for violating v, v′ of
one class, e(v) = ψ·e(v′)·ψ′ gives b·e(v)·r = (b·ψ)·e(v′)·(ψ′·r) at the
same degree split, so the products through v lie in the span of those
through v′, and ``kernel_space`` multiplies through the first violating
idempotent of each class only.

The same moves bound the dots of a top idempotent (``_dot_bounds``).
With strand k of label i directly right of red j and x′ the same strands
with k moved left of red j, y_k^{λ_j^i}·y_k^{N}·e(x) = ψ·y_k^{N}·e(x′)·ψ,
since dots pass red strands; so y_k^{N} e(x′) ∈ K gives y_k^B e(x) ∈ K for
the run bound B = λ_j^i + N_k(x′), and e(x) ∈ K gives N = 0.  The
nilHecke map above, on the run of label-i strands from k up to the next
red, spreads that bound along the run: in NH_m^B every y_r^B = 0 (the
dots act as the Chern roots of a flag in C^B), so every strand of the
run gets the bound B.  The bound of a strand reads only idempotents with
a larger Σκ, so the recursion ends, and its answer does not depend on the
order of calls.  A basis diagram e·ψ_w·y^a carries its dots at the top,
so it lies in K once a_k reaches the bound of its top idempotent.  Every
other kernel row is the span of the products through a violating
idempotent.

Every such row space is spanned by products l·r with r running over a
tilde basis, and one routine builds them all: ``BlockComputer.saturate``
right-multiplies a stream of left factors by the basis of each
(mid T~ top)_{d'}, adds the nonzero products' coordinates to an
``IncrementalRREF`` and stops once the rank fills the component.  That
basis comes in runs by word, read off the engine's memos of each Hom
component (``DiagramAlgebra.runs``): the diagrams e·ψ_w·y^a of one w
carry their dots at the top, so l·ψ_w is straightened once per run and
each l·ψ_w·y^a is read off it by adding dots, and a zero l·ψ_w skips the
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

import math
from typing import Sequence

from .cartan import CartanDatum, QMatrix, RootVector, Weight
from .diagrams import DiagramAlgebra, Element, IdemKey, basis_enumerate, idem_key
from .laurent import ZERO, LaurentPoly
from .linalg import IncrementalRREF, add_multiple, reduce_against
from .qtensor import GradedHomTable, TensorSpace, VKey
from .scalars import QQ


# The strand bound of ``BlockComputer.idems`` and the degrees the checked
# window runs past the prediction's top, shared with the CLI's
# ``--max-strands`` and ``--tail`` defaults.
DEFAULT_MAX_STRANDS = 4
DEFAULT_TAIL = 3


class IntegrityError(RuntimeError):
    """Computed dimensions contradict the quantum-group oracle; this
    signals a bug in the engine or an inconsistent configuration, never
    bad user input."""


def _name(what: tuple) -> str:
    """``"kind row->col"`` for the (kind, row, col) of a checked component."""
    return "{} {}->{}".format(*what)


class BlockComputer:
    """Shared driver: one diagram engine plus one tensor-space oracle."""

    def __init__(
        self,
        datum: CartanDatum,
        q: QMatrix,
        lambdas: Sequence[Weight],
        field=QQ,
        tail: int = DEFAULT_TAIL,
        max_strands: int = DEFAULT_MAX_STRANDS,
    ):
        if tail < 0:
            raise ValueError("tail must be non-negative, or the checked window ends below the oracle's top degree")
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
        self._member_cache: dict = {}  # x -> _in_K(x)
        self._proof_cache: dict = {}  # x -> _proven(x)
        self._bounds_cache: dict = {}  # x -> _dot_bounds(x)
        self._mids_cache: dict = {}  # content coords -> _violating_mids
        self._entry_cache: dict = {}

    # -- idempotent universes -------------------------------------------------

    def idems(self, alpha: RootVector) -> list[IdemKey]:
        """All non-violating idempotents of the α block (κ(1) = 0)."""
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
            entry = [basis_enumerate(self.alg, bottom, top, d), None]
            self._tilde_cache[key] = entry
        return entry

    def min_degree(self, bottom: IdemKey, top: IdemKey):
        """The lowest degree of the component, read off its kept
        ``degree_range``; None for an empty component."""
        degrees = self.alg.degree_range(bottom, top)
        return None if degrees is None else degrees[0]

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

        When ``_in_K`` holds for the bottom or the top, every diagram D of
        the component is e(bottom)·D = D·e(top) ∈ K, so the kernel is the
        whole component, its unit rows, and no product is formed; so is an
        empty component.  A degree-0 diagonal (x, x, 0), which rule (b)
        of ``_in_K`` reads, is filled that way only when ``_proven(x)``
        holds, which forms no product, and is otherwise assembled by
        products; that ends the recursion.

        Otherwise the dot bounds of ``top`` come first: a basis diagram
        e·ψ_w·y^a with a_k ≥ N_k (``_dot_bounds``) is D·y_k^{N_k}·e(top)
        for a diagram D, since its dots sit at the top, so it lies in K
        and is a unit row.  Then the rows are products through violating
        idempotents, one per ``_free_rep`` class (``_violating_mids``: the
        others add no row, see the module docstring), and assembly stops as
        soon as the rank saturates the whole tilde component.  The cache
        keeps the whole ``IncrementalRREF``, which
        ``standard.standard_space`` copies."""
        key = (bottom, top, d)
        inc = self._kernel_cache.get(key)
        if inc is None:
            basis = self.tilde_basis(bottom, top, d)
            if bottom == top and not d:
                # rule (b) of ``_in_K`` reads this diagonal
                filled = self._proven(bottom)
            else:
                filled = not basis or self._in_K(bottom) or self._in_K(top)
            if filled:
                inc = IncrementalRREF.units(self.field, range(len(basis)))
            else:
                bounds = [(k, b) for k, b in enumerate(self._dot_bounds(top)) if b is not None]
                seeds = [i for i, (_, _, a) in enumerate(basis) if any(a[k] >= b for k, b in bounds)] if bounds else []
                inc = IncrementalRREF.units(self.field, seeds)
                mids = ((mid, None, 0) for mid in self._violating_mids(bottom[0]))
                self.saturate(inc, bottom, top, d, self.lefts_through(bottom, top, d, mids))
            self._kernel_cache[key] = inc
        return inc.rows, inc.pivot_rows

    def _in_K(self, x: IdemKey) -> bool:
        """Whether e(x) ∈ K, decided exactly and memoized per x, by the
        first rule that holds:
        - ``_proven(x)`` (the rules of the module docstring, which read x
          alone);
        - (a) x ends in a black strand and e(x′) ∈ K for its prefix
          x′ = (I[:-1], κ): adding a black strand on the right is an
          algebra map T~ -> T~ that keeps a violating idempotent
          violating, so it maps K into K and e(x′) to e(x);
        - (b) K fills the degree-0 diagonal (x T~ x)_0, assembled by
          products; it holds e(x), so (b) holds exactly when e(x) ∈ K.
        The answer is the truth over the field, whatever was asked or
        cached before, so which components are assembled by products, and
        every product count, does not depend on the order of requests."""
        hit = self._member_cache.get(x)
        if hit is None:
            I, kappa = x
            hit = bool(
                self._proven(x)
                or (I and max(kappa, default=0) < len(I) and self._in_K((I[:-1], kappa)))
                or len(self.kernel_space(x, x, 0)[1]) == len(self.tilde_basis(x, x, 0))
            )
            self._member_cache[x] = hit
        return hit

    def _proven(self, x: IdemKey) -> str | None:
        """The rule of the module docstring that proves e(x) ∈ K, by name,
        or None: "violating", "prefix", or a nilHecke run at the last red
        with m > B, named "bigon" when B = 0, "nilhecke" when ℓ = 1 and
        "run" otherwise.  It reads x and the red labels alone: no product,
        no kernel, no prediction.  The prefix cut keeps reds 1..ℓ−1, so a
        prefix is proved on this computer by reading only the labels of
        its own reds."""
        if x in self._proof_cache:
            return self._proof_cache[x]
        I, kappa = x
        rule = None
        if kappa and kappa[0] >= 1:
            rule = "violating"
        elif len(kappa) > 1 and self._proven((I[: kappa[-1]], kappa[:-1])):
            rule = "prefix"
        elif kappa:
            last = len(kappa) - 1
            bound, m = self._run(x, last)
            if bound is not None and m > bound:
                rule = "bigon" if not bound else "run" if last else "nilhecke"
        self._proof_cache[x] = rule
        return rule

    def _run(self, x: IdemKey, j: int) -> tuple:
        """(B, m) for the nilHecke run right of red j (module docstring):
        m is the number of strands of label i = I[k] from strand k = κ(j)
        on, up to the next red or the first other label, and
        B = λ_j^i + N_k(x′), with x′ the same strands with k moved left of
        red j; B is None when N_k(x′) is, and (None, 0) when no black
        strand sits directly right of red j."""
        I, kappa = x
        k = kappa[j]
        end = kappa[j + 1] if j + 1 < len(kappa) else len(I)
        if k >= end:
            return None, 0
        m = next((p for p in range(k, end) if I[p] != I[k]), end) - k
        below = self._dot_bounds((I, kappa[:j] + (k + 1,) + kappa[j + 1 :]))[k]
        return (None if below is None else self.lambdas[j].coords[I[k]] + below), m

    def _dot_bounds(self, x: IdemKey) -> tuple:
        """For each black strand k of x, an N_k with y_k^{N_k} e(x) ∈ K, or
        None where no bound is known: 0 when ``_proven(x)``, and the run
        bound B of ``_run`` on every strand of the nilHecke run right of a
        red (see the module docstring).  Like ``_proven`` it reads x alone,
        and the bound of a strand reads only idempotents with a larger Σκ,
        so the recursion ends and its answer does not depend on the order
        of calls."""
        hit = self._bounds_cache.get(x)
        if hit is None:
            I, kappa = x
            if self._proven(x):
                hit = (0,) * len(I)
            else:
                bounds: list = [None] * len(I)
                for j, k in enumerate(kappa):
                    bound, m = self._run(x, j)
                    if bound is not None:
                        bounds[k : k + m] = [bound] * m
                hit = tuple(bounds)
            self._bounds_cache[x] = hit
        return hit

    def _free_rep(self, x: IdemKey) -> IdemKey:
        """The normal form of x under free crossings (module docstring):
        for j = 1..ℓ, red j slides left past the black strand directly to
        its left while that strand's label i has λ_j^i = 0, and stops at
        red j−1.  e(x) ≅ e(_free_rep(x)) by degree-0 crossings."""
        I, kappa = x
        slid: list = []
        for j, k in enumerate(kappa):
            stop = slid[-1] if slid else 0
            lam = self.lambdas[j].coords
            while k > stop and lam[I[k - 1]] == 0:
                k -= 1
            slid.append(k)
        return I, tuple(slid)

    def _violating_mids(self, I: Sequence[int]) -> list[IdemKey]:
        """The violating idempotents of the content of I that ``kernel_space``
        multiplies through: the first of each ``_free_rep`` class, in the
        order of ``violating_keys``.  It depends on the content alone."""
        alpha = self.datum.content(I)
        hit = self._mids_cache.get(alpha.coords)
        if hit is None:
            firsts: dict = {}
            for v in self.space.violating_keys(alpha):
                firsts.setdefault(self._free_rep(v), v)
            hit = self._mids_cache[alpha.coords] = list(firsts.values())
        return hit

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

    def word_runs(self, bottom: IdemKey, top: IdemKey, d: int) -> list[tuple[Element, tuple]]:
        """The basis of (bottom T~ top)_d as runs by word, in basis order:
        ``(e·ψ_w, (a, ...))`` for the diagrams e·ψ_w·y^a (``DiagramAlgebra.runs``)."""
        zero_dots = (0,) * len(bottom[0])
        return [(Element(self.alg, {(bottom, w, zero_dots): 1}), vs) for w, vs in self.alg.runs(bottom, top, d)]

    def coset_reps(self, bottom: IdemKey, top: IdemKey, d: int) -> list:
        """The basis diagrams of (bottom T~ top)_d off the kernel's pivot
        columns, in basis order: their classes are a basis of the quotient."""
        _, pivot_rows = self.kernel_space(bottom, top, d)
        return [k for i, k in enumerate(self.tilde_basis(bottom, top, d)) if i not in pivot_rows]

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

        The dimensions are those of the component between the
        ``_free_rep`` representatives, which is isomorphic to this one
        modulo K (module docstring), so every entry of one class of
        isomorphic idempotents reads one set of kernels; each entry is
        still checked against its own ``form_vv(row, col)``, on the same
        window.

        Table symmetry makes the (row, col) naming convention immaterial;
        the acceptance suite pins the equality entry(a,b) = <v_b, v_a> by
        testing both orders.
        """
        return self._hom_record(row, col)[0]

    def certified_through(self, row: VKey, col: VKey) -> float:
        """The degree through which ``graded_hom(row, col)`` is a proven
        dimension of the quotient, as ``_checked_dims`` found it while
        checking the entry: ``math.inf`` or the last degree of its window."""
        return self._hom_record(row, col)[1]

    def _hom_record(self, row: VKey, col: VKey) -> tuple[LaurentPoly, float]:
        """The memoized ``_checked_dims`` record of the entry (row, col)."""
        key = (row, col)
        hit = self._entry_cache.get(key)
        if hit is None:
            bottom, top = idem_key(*row), idem_key(*col)
            pred = self.space.form_vv(bottom, top)
            bottom, top = self._free_rep(bottom), self._free_rep(top)
            hit = self._entry_cache[key] = self._checked_dims(
                ("component", row, col), bottom, top, pred, lambda d: self.quotient_dim(bottom, top, d)
            )
        return hit

    def checked_window(self, bottom: IdemKey, top: IdemKey, pred: LaurentPoly) -> range | None:
        """The degrees at which ``_checked_dims`` checks a quotient of the
        component (bottom, top) against ``pred``: [dmin, top + ``tail``],
        with dmin the lowest degree of the component and top the highest
        degree of ``pred`` (dmin if that is lower); None for an empty
        component."""
        dmin = self.min_degree(bottom, top)
        if dmin is None:
            return None
        return range(dmin, max(pred.max_exp() if not pred.is_zero() else dmin, dmin) + self.tail + 1)

    def _checked_dims(self, what: tuple, bottom: IdemKey, top: IdemKey, pred: LaurentPoly, dim_at) -> tuple[LaurentPoly, float]:
        """The graded dimension ``dim_at(d)`` of the quotient of the
        component (bottom, top) by a right submodule M ⊇ K (K, or K + L),
        checked two-sidedly against ``pred`` at every degree of
        ``checked_window``, as ``(dims, through)`` with the degree through
        which it is proven.  ``what``, a (kind, row, col) triple, names the
        component in the ``IntegrityError`` a mismatch raises, and is
        formatted only then; a coefficient of ``pred`` below the window,
        where the component is empty, is one too.

        ``through`` is ``math.inf`` for an empty component, and when
        ``_in_K`` holds for the bottom or the top idempotent: the component
        then lies in K, ``pred`` must be zero, and no basis, geometry or
        kernel is built.  Otherwise it is ``math.inf`` when the window
        reaches the E = max(W, t + g) of the dot-at-the-top certificate
        (module docstring, which needs M to be a right submodule only), and
        the window's last degree when it does not; t is read off ``pred``,
        which a checked ``dims`` equals."""
        through = math.inf
        if self._in_K(bottom) or self._in_K(top):
            # the component lies in K, so its quotient is zero in every degree
            window = range(0)
        else:
            window = self.checked_window(bottom, top, pred)
            if window is None:
                if not pred.is_zero():
                    raise IntegrityError(f"{_name(what)}: empty component but oracle predicts {pred.text()}")
                return ZERO, through
            dmin, dotless = self.alg.degree_range(bottom, top)
            g = max((2 * self.datum.sym[i] for i in top[0]), default=0)
            t = dmin - 1 if pred.is_zero() else pred.max_exp()
            if window[-1] < max(dotless, t + g):
                through = window[-1]
        coeffs = {}
        for d in window:
            dim = dim_at(d)
            want = pred.coeff(d)
            if dim != want:
                side = "exceeds" if dim > want else "below"
                raise IntegrityError(f"{_name(what)} degree {d}: dimension {dim} {side} oracle {want}")
            if dim:
                coeffs[d] = dim
        dims = LaurentPoly(coeffs)
        if dims != pred:
            # a coefficient of pred outside the window, where the quotient is zero
            d = (pred - dims).min_exp()
            raise IntegrityError(f"{_name(what)} degree {d}: dimension 0 below oracle {pred.coeff(d)}")
        return dims, through

    def graded_hom_table(self, alpha: RootVector) -> GradedHomTable:
        table = GradedHomTable()
        keys = self.idems(alpha)
        for a in keys:
            for b in keys:
                table.set(a, b, self.graded_hom(a, b))
        return table


class QuotientBlock:
    """A finite-dimensional block of the quotient algebra with explicit
    structure constants on a chosen coset-representative basis.

    ``_mult[(i, j)]`` holds b_i·b_j in that basis for every pair with
    b_i's top equal to b_j's bottom.  A pair whose target (a1, b2, d1 + d2)
    is zero in the quotient by what ``graded_hom`` proved (an end in K, the
    window check, or the certificate above a window that reaches E; see
    ``BlockComputer.certified_through``) gets the empty product with no
    diagram product formed.  Every other product is reduced against the
    kernel of its target, also above a window that stops short of E, where
    that reduction is the only check; a coordinate that survives it outside
    the basis is an ``IntegrityError``.  For each left basis element, e1·ψ_w
    is formed once per word w and each right basis diagram ψ_w·y^a is read
    off it by adding dots at the top, as ``BlockComputer.saturate`` does."""

    def __init__(self, comp: BlockComputer, alpha: RootVector):
        self.comp = comp
        self.alpha = alpha
        self.idems = comp.idems(alpha)
        self.basis: list = []  # (bottom, top, degree, DiagKey)
        self.radical = None  # basis of rad(A), filled once by modules.radical
        self._build()

    def _build(self):
        comp = self.comp
        targets: dict = {}  # (a, b) -> (graded_hom entry, certified_through)
        for a in self.idems:
            for b in self.idems:
                entry = comp.graded_hom(a, b)
                targets[(a, b)] = (entry, comp.certified_through(a, b))
                if entry.is_zero():
                    continue
                for d in entry.support():
                    reps = comp.coset_reps(a, b, d)
                    if len(reps) != entry.coeff(d):
                        raise IntegrityError("coset representative count mismatch")
                    for rkey in reps:
                        self.basis.append((a, b, d, rkey))
        self.dim = len(self.basis)
        self.index = {bk: i for i, bk in enumerate(self.basis)}
        rights: dict = {}  # a2 -> [(j, b2, d2, w, dots)] in basis order
        for j, (a2, b2, d2, (_, w, dots)) in enumerate(self.basis):
            rights.setdefault(a2, []).append((j, b2, d2, w, dots))
        self._mult: dict[tuple[int, int], dict[int, object]] = {}
        for i, (a1, b1, d1, k1) in enumerate(self.basis):
            e1 = Element(comp.alg, {k1: 1})
            zero_dots = (0,) * len(b1[0])
            crosses: dict = {}  # w -> e1·ψ_w
            for j, b2, d2, w, dots in rights.get(b1, ()):
                d = d1 + d2
                entry, through = targets[(a1, b2)]
                if d <= through and not entry.coeff(d):
                    # the quotient is zero there, as the reduction would find
                    self._mult[(i, j)] = {}
                    continue
                cross = crosses.get(w)
                if cross is None:
                    cross = crosses[w] = e1.multiply(Element(comp.alg, {(b1, w, zero_dots): 1}))
                self._mult[(i, j)] = self._reduce(cross.times_top_dots(dots), a1, b2, d)

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
        for i, ci in x.items():
            for j, cj in y.items():
                prod = self._mult.get((i, j))
                if prod:
                    add_multiple(out, ci * cj, prod)
        return out

    def pairing(self, t: dict[int, object]) -> list[dict[int, object]]:
        """The sparse rows of the bilinear form (b_i, b_j) ↦ t(b_i·b_j) for
        a functional t, given as its ``{basis index: value}`` vector, read
        off the structure constants in one pass."""
        rows: list[dict[int, object]] = [{} for _ in range(self.dim)]
        for (i, j), prod in self._mult.items():
            acc = sum(c * t[k] for k, c in prod.items() if k in t)
            if acc:
                rows[i][j] = acc
        return rows

    def identity_vector(self) -> dict[int, object]:
        """The sum of the idempotent vectors, in basis order."""
        return {i: c for idem in self.idems for i, c in self.idem_vector(idem).items()}

    def degrees(self) -> list[int]:
        return [d for (_, _, d, _) in self.basis]

    def basis_degree(self, i: int) -> int:
        return self.basis[i][2]

    def idem_vector(self, idem: IdemKey) -> dict[int, object]:
        """e(idem) in the quotient basis.  The identity diagram need not be
        its own coset representative: modulo K it may be a combination of
        other degree-0 diagrams, or zero when e(idem) ∈ K."""
        if self.comp._in_K(idem):
            return {}
        return self._reduce(Element.idempotent(self.comp.alg, *idem), idem, idem, 0)

    def check_associative(self, triples) -> bool:
        for x, y, z in triples:
            lhs = self.multiply_vectors(self.multiply_vectors(x, y), z)
            rhs = self.multiply_vectors(x, self.multiply_vectors(y, z))
            if lhs != rhs:
                return False
        return True
