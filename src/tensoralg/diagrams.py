"""The red/black strand diagram algebra and its straightening engine.

An idempotent is a crossingless arrangement of n black strands labeled by
simple roots and ℓ red strands labeled by dominant weights; a basis
diagram is an idempotent, a merged-strand permutation that never inverts
two reds, and a vector of dots on the black strands at the top boundary.
Products are computed by stacking and rewriting back to this basis with
the local relations:

* quiver Hecke relations between black strands (dots sliding through a
  crossing in one step, adding the nilHecke divided difference at equal
  labels, double crossings collapsing to 0 or to Q_ij on the dots, braid
  moves with a divided-difference correction in the i-j-i pattern);
* black dots and black crossings pass red strands, a black/black
  crossing passing a red of weight λ costing δ_{ij} Σ_{a+b+1=λ^i} dots;
* a black strand crossing a red and returning costs λ^i dots.

Every rewrite strictly reduces (number of crossings, dots below
crossings), so normalization terminates; products of normal forms are
memoized aggressively since blocks reuse the same small Hom components
over and over, and so is the strand geometry they consult: the
canonical word of each permutation, the top idempotent of each
(idempotent, permutation) pair and the boundary of each idempotent.
Basis enumeration reads two more memos, one per Hom component and one
per dot budget, so each degree of a component is listed as runs by word
without walking its permutations again (``DiagramAlgebra.runs`` over
``component`` and ``dot_vectors``), which ``basis_enumerate`` flattens.

A combination of basis diagrams times one crossing is the sum of its
terms' products (``DiagramAlgebra.acc_times_s``, beside ``_acc_dot`` for a
dot); word normal forms and ``Element.multiply`` both walk a crossing word
through it, and every sum of combinations goes through
``linalg.add_multiple``, which drops the terms that cancel.

Every coefficient these relations produce is an integer, so the engine
computes over ℤ with plain ``int`` coefficients.  A scalar field enters
only where coordinates meet linear algebra (``BlockComputer.element_coords``);
a result over GF(p) is the reduction mod p of the integral one.

Orientation convention, pinned once for the whole package: reading a
diagram upward, a black strand moving to the *right* through a red strand
is the crossing that the polynomial representation multiplies by
y_k^{λ^i}; its mirror acts by the identity.  The cost relation above is
the composite of one crossing of each kind, in either order.
"""

from __future__ import annotations

import re
from itertools import permutations
from operator import add
from typing import Iterable, Sequence

from .cartan import CartanDatum, QMatrix, Weight
from .linalg import add_multiple
from .qtensor import GradedHomTable, check_kappa

IdemKey = tuple[tuple[int, ...], tuple[int, ...]]  # (I, kappa)
DiagKey = tuple[IdemKey, tuple[int, ...], tuple[int, ...]]  # (idem, w, dots)


class RedCrossingError(ValueError):
    """Red strands never cross; asking for it is a structural error."""


class WordError(ValueError):
    """A generic word event is out of range for its idempotent."""


def idem_key(I: Sequence[int], kappa: Sequence[int]) -> IdemKey:
    I = tuple(int(i) for i in I)
    return I, check_kappa(kappa, len(I))


def merged_sequence(idem: IdemKey, ell: int) -> tuple[tuple[str, int], ...]:
    """Bottom boundary, left to right: ('b', black index) / ('r', red index)."""
    I, kappa = idem
    seq: list[tuple[str, int]] = []
    r = 0
    for b in range(len(I) + 1):
        while r < ell and kappa[r] == b:
            seq.append(("r", r))
            r += 1
        if b < len(I):
            seq.append(("b", b))
    if r != ell:
        raise WordError("kappa places a red strand beyond the black count")
    return tuple(seq)


def perm_of_word(word: Iterable[int], m: int) -> tuple[int, ...]:
    """One-line permutation of a crossing word read bottom to top."""
    arr = list(range(m))  # arr[slot] = strand
    for p in word:
        if p < 0 or p + 1 >= m:
            raise WordError(f"crossing at slot {p} out of range")
        arr[p], arr[p + 1] = arr[p + 1], arr[p]
    w = [0] * m
    for slot, strand in enumerate(arr):
        w[strand] = slot
    return tuple(w)


def canonical_word(w: Sequence[int]) -> tuple[int, ...]:
    """The fixed reduced word: bubble the strand bound for slot 0 to the
    front, then recurse on the rest (straight selection)."""
    m = len(w)
    cur = list(range(m))  # cur[slot] = strand
    word: list[int] = []
    for target in range(m):
        x = w.index(target) if isinstance(w, tuple) else list(w).index(target)
        s = cur.index(x)
        for p in range(s - 1, target - 1, -1):
            word.append(p)
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
    return tuple(word)


def inversions(w: Sequence[int]) -> list[tuple[int, int]]:
    m = len(w)
    return [(x, y) for x in range(m) for y in range(x + 1, m) if w[x] > w[y]]


def tits_moves(V: Sequence[int], target: Sequence[int]) -> list[tuple[str, int]]:
    """A deterministic Tits path between two reduced words of one permutation.

    Moves are ('c', idx): swap distant letters idx, idx+1, and ('b', idx):
    braid (a, b, a) -> (b, a, b) at idx..idx+2.  Fixes the target word one
    letter at a time using the exchange property.
    """
    cur = list(V)
    moves: list[tuple[str, int]] = []

    def apply(kind: str, idx: int):
        if kind == "c":
            cur[idx], cur[idx + 1] = cur[idx + 1], cur[idx]
        else:
            a, b = cur[idx], cur[idx + 1]
            cur[idx : idx + 3] = [b, a, b]
        moves.append((kind, idx))

    def surface(start: int, c: int):
        if cur[start] == c:
            return
        r = cur[start]
        surface(start + 1, c)
        if abs(r - c) >= 2:
            apply("c", start)
        else:
            surface(start + 2, r)
            apply("b", start)

    for i, c in enumerate(target):
        surface(i, c)
    if cur != list(target):
        raise AssertionError("Tits path failed to reach the target word")
    return moves


class DiagramAlgebra:
    """The strand algebra over ℤ for a fixed Cartan datum, Q-matrix and red
    labels.  All rewriting state (memo tables) lives here.

    Dicts returned by the rewriting core (``eval_word``, ``acc_times_s``,
    ``term_times_s``, ``crossing_on_basis``) may be entries of the crossing
    memo (a word's normal form can be the memoized product of its one
    crossing): callers must not mutate them.
    So are the tuples of the Hom-component geometry (``component``) and of
    the dot vectors (``dot_vectors``); every component with the same top
    labels shares the latter.
    """

    def __init__(self, datum: CartanDatum, q: QMatrix, lambdas: Sequence[Weight]):
        self.datum = datum
        self.q = q
        self.lambdas = tuple(lambdas)
        for lam in self.lambdas:
            datum.require_same(lam.datum)
            if not lam.is_dominant():
                raise ValueError("red labels must be dominant weights")
        self.ell = len(self.lambdas)
        self._boundary: dict[IdemKey, tuple] = {}  # idem -> see boundary()
        self._tops: dict[tuple, IdemKey] = {}  # (idem, w) -> top idempotent
        self._idems: dict[IdemKey, IdemKey] = {}  # one shared object per top idempotent
        self._words: dict[tuple[int, ...], tuple[int, ...]] = {}  # w -> canonical word
        self._components: dict[tuple, tuple] = {}  # (bottom, top) -> (component, degree_range)
        self._dots: dict[tuple, tuple] = {}  # (dot weights, total) -> dot vectors
        self._cross_memo: dict[tuple, dict] = {}

    # -- boundary bookkeeping ---------------------------------------------------

    def boundary(self, idem: IdemKey):
        """The boundary of e(idem), memoized: ``(strands, labels, black)``
        with the strand at each slot, its label, and its index among the
        black strands (None for a red).  The top boundary of e(idem)·ψ_w is
        the boundary of its top idempotent."""
        hit = self._boundary.get(idem)
        if hit is None:
            seq = merged_sequence(idem, self.ell)
            black: list = []
            k = 0
            for kind, _ in seq:
                black.append(k if kind == "b" else None)
                k += kind == "b"
            hit = (seq, tuple(self.strand_label(idem, s) for s in seq), tuple(black))
            self._boundary[idem] = hit
        return hit

    def merged(self, idem: IdemKey):
        return self.boundary(idem)[0]

    def strand_label(self, idem: IdemKey, strand: tuple[str, int]):
        kind, k = strand
        if kind == "b":
            return ("b", idem[0][k])
        return ("r", k)

    def canonical_word(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """Memoized ``canonical_word(w)``."""
        word = self._words.get(w)
        if word is None:
            word = canonical_word(w)
            self._words[w] = word
        return word

    def top_sequence(self, idem: IdemKey, w: Sequence[int]):
        bot = self.merged(idem)
        top: list = [None] * len(bot)
        for slot, strand in enumerate(bot):
            top[w[slot]] = strand
        return tuple(top)

    def top_idem(self, idem: IdemKey, w: Sequence[int]) -> IdemKey:
        """The top idempotent of e(idem)·ψ_w, memoized per (idem, w)."""
        key = (idem, tuple(w))
        top = self._tops.get(key)
        if top is None:
            labels: list = [None] * len(w)
            for slot, lab in zip(w, self.boundary(idem)[1]):
                labels[slot] = lab
            I: list = []
            reds = []
            kappa = []
            for kind, k in labels:
                if kind == "r":
                    reds.append(k)
                    kappa.append(len(I))
                else:
                    I.append(k)
            if reds != list(range(self.ell)):
                raise RedCrossingError("permutation inverts a pair of red strands")
            top = (tuple(I), tuple(kappa))
            top = self._idems.setdefault(top, top)
            self._tops[key] = top
        return top

    # -- degrees -------------------------------------------------------------------

    def crossing_degree(self, la, lb) -> int:
        d = self.datum
        if la[0] == "b" and lb[0] == "b":
            # <α_i, α_j> = d_j c_ij with the convention c_ij = α_j^∨(α_i)
            i, j = la[1], lb[1]
            return -d.sym[j] * d.cartan[i][j]
        if la[0] == "r" and lb[0] == "r":
            raise RedCrossingError("red strands never cross")
        i = la[1] if la[0] == "b" else lb[1]
        lam = self.lambdas[lb[1]] if la[0] == "b" else self.lambdas[la[1]]
        return d.root_pairing_coeff(i, lam)

    def diagram_degree(self, idem: IdemKey, w: Sequence[int], dots: Sequence[int]) -> int:
        labels = self.boundary(idem)[1]
        deg = 0
        for x, y in inversions(w):
            deg += self.crossing_degree(labels[x], labels[y])
        if any(dots):
            for a, i in zip(dots, self.top_idem(idem, w)[0]):
                deg += 2 * self.datum.sym[i] * a
        return deg

    def component(self, bottom: IdemKey, top: IdemKey) -> tuple:
        """The geometry of the Hom component (bottom, top), memoized:
        ``((w, deg ψ_w), ...)`` over ``connecting_perms`` in their order."""
        return self._component(bottom, top)[0]

    def degree_range(self, bottom: IdemKey, top: IdemKey) -> tuple[int, int] | None:
        """(dmin, W) of the Hom component (bottom, top), memoized beside its
        geometry: the lowest and the top degree of its dotless diagrams
        e·ψ_w.  Dots only raise the degree, so dmin is the lowest degree of
        the component.  None for an empty component."""
        return self._component(bottom, top)[1]

    def _component(self, bottom: IdemKey, top: IdemKey) -> tuple:
        key = (bottom, top)
        hit = self._components.get(key)
        if hit is None:
            zero_dots = (0,) * len(bottom[0])
            geometry = tuple((w, self.diagram_degree(bottom, w, zero_dots)) for w in connecting_perms(self, bottom, top))
            degrees = [deg for _, deg in geometry]
            hit = self._components[key] = (geometry, (min(degrees), max(degrees)) if degrees else None)
        return hit

    def dot_vectors(self, weights: tuple[int, ...], total: int) -> tuple:
        """All nonnegative vectors a with Σ weights[k]·a_k = total, in
        lexicographic order, memoized per (weights, total)."""
        if total < 0:
            return ()
        key = (weights, total)
        hit = self._dots.get(key)
        if hit is None:
            hit = tuple(_dot_vectors(weights, total))
            self._dots[key] = hit
        return hit

    def runs(self, bottom: IdemKey, top: IdemKey, d: int) -> list:
        """The basis of the Hom component (bottom, top) in degree d as runs
        by word, in basis order: ``[(w, (a, ...)), ...]`` for the diagrams
        e·ψ_w·y^a, over the words with at least one such a."""
        weights = tuple(2 * self.datum.sym[i] for i in top[0])
        return [(w, vs) for w, base in self.component(bottom, top) if (vs := self.dot_vectors(weights, d - base))]

    # -- the rewriting core ------------------------------------------------------------

    def eval_word(self, idem: IdemKey, events: Sequence[tuple[str, int]]):
        """Normal form of a generic word (events bottom to top) over ``idem``.

        Returns ``{(w, dots): coeff}``; every produced key is a basis
        diagram over the same bottom idempotent.
        """
        m = len(self.merged(idem))
        acc = {(tuple(range(m)), (0,) * len(idem[0])): 1}
        for ev, p in events:
            if ev == "y":
                acc = self._acc_dot(idem, acc, p)
            elif ev == "s":
                acc = self.acc_times_s(idem, acc, p)
            else:
                raise WordError(f"unknown event {ev!r}")
        return acc

    def _acc_dot(self, idem: IdemKey, acc: dict, p: int) -> dict:
        """``acc`` times a dot at top slot ``p``.  The map is injective on
        basis diagrams, so terms never cancel."""
        out: dict = {}
        for (w, dots), c in acc.items():
            black = self.boundary(self.top_idem(idem, w))[2]
            if not (0 <= p < len(black)):
                raise WordError(f"dot at slot {p} out of range")
            k = black[p]
            if k is None:
                raise WordError(f"slot {p} is not a black strand")
            nd = list(dots)
            nd[k] += 1
            out[(w, tuple(nd))] = c
        return out

    def acc_times_s(self, idem: IdemKey, acc: dict, p: int) -> dict:
        """``acc`` times a crossing at top slot ``p``: the sum of
        ``term_times_s`` over its terms, with the terms that cancel dropped.
        A single term with coefficient 1 returns the memo entry itself."""
        if len(acc) == 1:
            # one term: nothing can merge or cancel
            ((w, dots), c), = acc.items()
            step = self.term_times_s(idem, w, dots, p)
            return step if c == 1 else {k: c * v for k, v in step.items()}
        out: dict = {}
        for (w, dots), c in acc.items():
            add_multiple(out, c, self.term_times_s(idem, w, dots, p))
        return out

    def term_times_s(self, idem: IdemKey, w: tuple[int, ...], dots: tuple[int, ...], p: int):
        """(e ψ_w y^dots) · ψ_p in the basis.  Dots ride along with their
        strands, so at a black/black crossing the exponents (a, b) of the
        crossed strands k, k+1 swap (a red passing a black keeps the black
        indexing).  At equal labels the nilHecke relation y_k ψ − ψ y_{k+1}
        = e, applied a times, adds the crossing-free divided difference
        (y_k^a y_{k+1}^b − y_k^b y_{k+1}^a)/(y_k − y_{k+1})."""
        if not (0 <= p < len(w) - 1):
            raise WordError(f"crossing at slot {p} out of range")
        cross = self.crossing_on_basis(idem, w, p)
        if not any(dots):
            return cross
        _, labels, black = self.boundary(self.top_idem(idem, w))
        la, lb = labels[p], labels[p + 1]
        moved = dots
        if la[0] == lb[0] == "b":
            k = black[p]
            a, b = dots[k], dots[k + 1]
            moved = dots[:k] + (b, a) + dots[k + 2 :]
        # Adding a fixed dot vector is injective, so no terms merge.
        out = {(w2, tuple(map(add, d2, moved))): c for (w2, d2), c in cross.items()}
        if la == lb:
            # ±y_k^t y_{k+1}^{a+b-1-t} for t between b and a.  No term of
            # ``cross`` is on w: its degree deg ψ_w − 2d_i is below theirs.
            sign = 1 if a > b else -1
            for t in range(min(a, b), max(a, b)):
                pair = (t, a + b - 1 - t) if a > b else (a + b - 1 - t, t)
                out[(w, dots[:k] + pair + dots[k + 2 :])] = sign
        return out

    def crossing_on_basis(self, idem: IdemKey, w: tuple[int, ...], p: int):
        """e ψ_w · ψ_p for a dot-free basis element; the memoized core."""
        key = (idem, w, p)
        hit = self._cross_memo.get(key)
        if hit is not None:
            return hit
        u = w.index(p)
        v = w.index(p + 1)
        labels = self.boundary(idem)[1]
        if labels[u][0] == "r" and labels[v][0] == "r":
            raise RedCrossingError("red strands never cross")
        n = len(idem[0])
        zero_dots = (0,) * n

        if u < v:
            # First crossing of this pair; normalize the longer reduced word.
            wp = _compose_s(w, p)
            V = self.canonical_word(w) + (p,)
            if self.canonical_word(wp) == V:
                out = {(wp, zero_dots): 1}
            else:
                out = self.reduced_to_element(idem, V)
        else:
            # The pair is already inverted: cancel the double crossing.
            wpp = _compose_s(w, p)
            X = dict(self.crossing_on_basis(idem, wpp, p))
            if X.pop((w, zero_dots), None) != 1:
                raise AssertionError("straightening lost its unitriangular leading term")
            out = {}
            # ψ_w ψ_p = ψ_w'' (ψ_p ψ_p) - (lower terms) ψ_p
            _, top_labels, black = self.boundary(self.top_idem(idem, wpp))
            lv, lu = top_labels[p], top_labels[p + 1]
            if lv[0] == "b" and lu[0] == "b":
                if lv[1] != lu[1]:
                    kp = black[p]
                    for (a, b), coeff in self.q.entry(lv[1], lu[1]).items():
                        nd = [0] * n
                        nd[kp] += a
                        nd[kp + 1] += b
                        add_multiple(out, coeff, {(wpp, tuple(nd)): 1})
            else:
                # red/black bigon: λ^i dots on the black strand
                slot = p if lv[0] == "b" else p + 1
                i = (lv if lv[0] == "b" else lu)[1]
                lam = self.lambdas[(lu if lv[0] == "b" else lv)[1]]
                nd = [0] * n
                nd[black[slot]] += lam.coords[i]
                out[(wpp, tuple(nd))] = 1
            add_multiple(out, -1, self.acc_times_s(idem, X, p))
        self._cross_memo[key] = out
        return out

    def reduced_to_element(self, idem: IdemKey, V: tuple[int, ...]):
        """Express ψ of an arbitrary reduced word in the basis by walking a
        Tits path to the canonical word, collecting braid corrections."""
        m = len(self.merged(idem))
        w_target = perm_of_word(V, m)
        cv = self.canonical_word(w_target)
        n = len(idem[0])
        if V == cv:
            return {(w_target, (0,) * n): 1}
        moves = tits_moves(V, cv)
        cur = list(V)
        corr: dict = {}
        for kind, t in moves:
            if kind == "b":
                a, b = cur[t], cur[t + 1]
                p = min(a, b)
                sign = 1 if a == p else -1
                labels = self._labels_below(idem, cur[:t])
                L0, L1, L2 = labels[p], labels[p + 1], labels[p + 2]
                poly = self._braid_correction(L0, L1, L2)
                for (e0, e1, e2), coeff in poly.items():
                    events = [("s", q) for q in cur[:t]]
                    events += [("y", p)] * e0 + [("y", p + 1)] * e1 + [("y", p + 2)] * e2
                    events += [("s", q) for q in cur[t + 3 :]]
                    add_multiple(corr, sign * coeff, self.eval_word(idem, events))
                cur[t : t + 3] = [b, a, b]
            else:
                cur[t], cur[t + 1] = cur[t + 1], cur[t]
        return add_multiple(corr, 1, {(w_target, (0,) * n): 1})

    def _labels_below(self, idem: IdemKey, word: Sequence[int]):
        arr = list(self.boundary(idem)[1])
        for q in word:
            arr[q], arr[q + 1] = arr[q + 1], arr[q]
        return arr

    def _braid_correction(self, L0, L1, L2) -> dict[tuple[int, int, int], int]:
        """Correction monomials for the braid move with strand labels
        (L0, L1, L2) left to right below the pattern; {} when exact."""
        if L0[0] != "b" or L2[0] != "b" or L0[1] != L2[1]:
            return {}
        i = L0[1]
        if L1[0] == "r":
            lam_i = self.lambdas[L1[1]].coords[i]
            return {(bb, 0, aa): 1 for aa in range(lam_i) for bb in [lam_i - 1 - aa]}
        j = L1[1]
        if j == i:
            return {}
        out: dict[tuple[int, int, int], int] = {}
        for (a, b), c in self.q.entry(i, j).items():
            add_multiple(out, c, {(k, b, a - 1 - k): 1 for k in range(a)})
        return out


def _compose_s(w: tuple[int, ...], p: int) -> tuple[int, ...]:
    """s_p ∘ w: swap the values p and p+1."""
    return tuple(p + 1 if x == p else p if x == p + 1 else x for x in w)


class Element:
    """A finite ℤ-linear combination of basis diagrams (``int``
    coefficients, zero terms dropped)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: DiagramAlgebra, terms: dict[DiagKey, int] | None = None):
        self.algebra = algebra
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def idempotent(algebra: DiagramAlgebra, I: Sequence[int], kappa: Sequence[int]) -> "Element":
        idem = idem_key(I, kappa)
        m = len(algebra.merged(idem))
        key = (idem, tuple(range(m)), (0,) * len(idem[0]))
        return Element(algebra, {key: 1})

    @staticmethod
    def basis_diagram(algebra: DiagramAlgebra, I, kappa, w, dots) -> "Element":
        idem = idem_key(I, kappa)
        w = tuple(w)
        if sorted(w) != list(range(len(algebra.merged(idem)))):
            raise WordError(f"{w} is not a permutation of the merged strands")
        algebra.top_idem(idem, w)  # raises RedCrossingError if reds cross
        return Element(algebra, {(idem, w, tuple(dots)): 1})

    @staticmethod
    def from_word(algebra: DiagramAlgebra, I, kappa, events) -> "Element":
        """Normal form of a generic word over the idempotent e(I,κ)."""
        idem = idem_key(I, kappa)
        nf = algebra.eval_word(idem, tuple(events))
        return Element(algebra, {(idem, w, d): c for (w, d), c in nf.items()})

    # -- vector space structure ----------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        return Element(self.algebra, add_multiple(dict(self.terms), 1, other.terms))

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Element":
        return Element(self.algebra, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = [f"({c}) {diagram_text(self.algebra, k)}" for k, c in sorted(self.terms.items())]
        return "Element[" + " + ".join(bits) + "]"

    # -- structure maps ------------------------------------------------------------------

    def multiply(self, other: "Element") -> "Element":
        """Stack ``other`` on top of ``self`` and straighten: each term
        c·e·ψ_w·y^a of ``other`` adds c times the crossing product self·ψ_w
        with the dots y^a put on top (``times_top_dots``)."""
        alg = self.algebra
        out: dict[DiagKey, int] = {}
        for (idem2, w2, d2), c2 in other.terms.items():
            word = alg.canonical_word(w2)
            cross: dict[DiagKey, int] = {}
            for (idem1, w1, d1), c1 in self.terms.items():
                if alg.top_idem(idem1, w1) != idem2:
                    continue
                # the crossings of ψ_w bottom to top; most products die at
                # a crossing, so stop as soon as they do
                acc = {(w1, d1): 1}
                for p in word:
                    acc = alg.acc_times_s(idem1, acc, p)
                    if not acc:
                        break
                add_multiple(cross, c1, {(idem1, w, d): c for (w, d), c in acc.items()})
            add_multiple(out, c2, Element(alg, cross).times_top_dots(d2).terms)
        return Element(alg, out)

    def times_top_dots(self, dots: Sequence[int]) -> "Element":
        """``self`` times the dot monomial y^dots at its top idempotent,
        which all its terms share, with dots[k] dots on the k-th black
        strand there.  Adding dots is injective on basis diagrams, so no
        terms merge or cancel, and the result is zero only if ``self`` is."""
        if not any(dots):
            return self
        terms = {(idem, w, tuple(map(add, d, dots))): c for (idem, w, d), c in self.terms.items()}
        return Element(self.algebra, terms)

    def flip(self) -> "Element":
        """The anti-automorphism reflecting diagrams top to bottom."""
        alg = self.algebra
        out: dict[DiagKey, int] = {}
        for (idem, w, dots), c in self.terms.items():
            new_bottom = alg.top_idem(idem, w)
            events = [("y", slot) for slot in _dot_slots(alg, idem, w, dots)]
            events += [("s", p) for p in reversed(alg.canonical_word(w))]
            nf = alg.eval_word(new_bottom, tuple(events))
            add_multiple(out, c, {(new_bottom, w2, d2): c2 for (w2, d2), c2 in nf.items()})
        return Element(alg, out)

    def degree(self) -> int | None:
        """The common degree of all terms; raises if mixed, None if zero."""
        degs = {self.algebra.diagram_degree(*k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element with degrees {sorted(degs)}")
        return degs.pop()


def _dot_slots(alg: DiagramAlgebra, idem: IdemKey, w, dots) -> list[int]:
    """The top slots of a basis diagram's dots, one entry per dot."""
    black = alg.boundary(alg.top_idem(idem, w))[2]
    return [slot for slot, k in enumerate(black) if k is not None for _ in range(dots[k])]


# -- text notation -----------------------------------------------------------------------


def diagram_text(alg: DiagramAlgebra, key: DiagKey) -> str:
    """Render like ``e[1,2|R@0,2] ; s3 s2 ; y1^2``.

    The idempotent is ``GradedHomTable.idem_label`` (1-based node
    indices), crossing letters are 1-based slot numbers of the canonical
    word, dots are listed per top black strand.
    """
    idem, w, dots = key
    e = GradedHomTable.idem_label(idem)
    word = " ".join(f"s{p + 1}" for p in canonical_word(w)) or "1"
    ys = " ".join(f"y{k + 1}^{a}" if a > 1 else f"y{k + 1}" for k, a in enumerate(dots) if a) or "1"
    return f"{e} ; {word} ; {ys}"


_TEXT_RE = re.compile(r"^e\[(?P<I>[^|\]]*)\|R@(?P<K>[^\]]*)\]\s*;\s*(?P<W>[^;]*);\s*(?P<Y>.*)$")


def diagram_from_text(alg: DiagramAlgebra, text: str) -> Element:
    m = _TEXT_RE.match(text.strip())
    if not m:
        raise WordError(f"cannot parse diagram text {text!r}")
    I = [int(s) - 1 for s in m.group("I").split(",") if s.strip()]
    if any(not 0 <= i < alg.datum.rank for i in I):
        raise WordError(f"node index out of range in {text!r}")
    kappa = [int(s) for s in m.group("K").split(",") if s.strip()] if m.group("K").strip() else []
    events: list[tuple[str, int]] = []
    wpart = m.group("W").strip()
    if wpart and wpart != "1":
        for tok in wpart.split():
            if not tok.startswith("s"):
                raise WordError(f"bad crossing token {tok!r}")
            events.append(("s", int(tok[1:]) - 1))
    ypart = m.group("Y").strip()
    idem = idem_key(I, kappa)
    if ypart and ypart != "1":
        seq_top = None
        for tok in ypart.split():
            mm = re.match(r"^y(\d+)(?:\^(\d+))?$", tok)
            if not mm:
                raise WordError(f"bad dot token {tok!r}")
            k = int(mm.group(1)) - 1
            a = int(mm.group(2) or 1)
            if seq_top is None:
                w = perm_of_word([p for ev, p in events if ev == "s"], len(alg.merged(idem)))
                seq_top = alg.top_sequence(idem, w)
                black_slots = [s for s, st in enumerate(seq_top) if st[0] == "b"]
            events += [("y", black_slots[k])] * a
    return Element.from_word(alg, I, kappa, events)


# -- basis enumeration ---------------------------------------------------------------------


def strand_slots(alg: DiagramAlgebra, idem: IdemKey) -> tuple[list[int], dict[int, int]]:
    """The slots of the black strands of e(idem), left to right, and the
    slot of each red strand by its index."""
    blacks: list[int] = []
    reds: dict[int, int] = {}
    for s, (kind, k) in enumerate(alg.merged(idem)):
        if kind == "b":
            blacks.append(s)
        else:
            reds[k] = s
    return blacks, reds


def connecting_perms(alg: DiagramAlgebra, bottom: IdemKey, top: IdemKey):
    """All merged-strand permutations from ``bottom`` to ``top`` preserving
    red order and black labels."""
    bot = alg.merged(bottom)
    tp = alg.merged(top)
    if len(bot) != len(tp):
        return
    bot_reds = strand_slots(alg, bottom)[1]
    top_reds = strand_slots(alg, top)[1]
    if set(bot_reds) != set(top_reds):
        return
    by_label: dict[int, list[int]] = {}
    for s, (kind, i) in enumerate(alg.boundary(top)[1]):
        if kind == "b":
            by_label.setdefault(i, []).append(s)
    # group bottom blacks by label, in order
    groups: dict[int, list[int]] = {}
    for s, (kind, i) in enumerate(alg.boundary(bottom)[1]):
        if kind == "b":
            groups.setdefault(i, []).append(s)
    if {k: len(v) for k, v in groups.items()} != {k: len(v) for k, v in by_label.items()}:
        return
    labels = sorted(groups)
    pools = [list(permutations(by_label[lab])) for lab in labels]

    def rec(gi, assignment):
        if gi == len(labels):
            w = [0] * len(bot)
            for rj, s in bot_reds.items():
                w[s] = top_reds[rj]
            for lab, perm in assignment.items():
                for src, dst in zip(groups[lab], perm):
                    w[src] = dst
            # red j goes to red j's top slot, and those increase with j,
            # so no two reds cross
            yield tuple(w)
            return
        for perm in pools[gi]:
            assignment[labels[gi]] = perm
            yield from rec(gi + 1, assignment)
        assignment.pop(labels[gi], None)

    yield from rec(0, {})


def basis_enumerate(alg: DiagramAlgebra, bottom: IdemKey, top: IdemKey, d: int):
    """All basis diagrams of degree d in the Hom component, in basis
    order: by connecting permutation, then by dot vector in lexicographic
    order (``DiagramAlgebra.runs`` flattened)."""
    return [(bottom, w, dots) for w, vectors in alg.runs(bottom, top, d) for dots in vectors]


def _dot_vectors(weights: tuple[int, ...], total: int) -> list[tuple[int, ...]]:
    """All nonnegative vectors with Σ weights[k]·a_k = total, lexicographic;
    the last coordinate is fixed by the others."""
    if len(weights) <= 1:
        if not weights:
            return [()] if total == 0 else []
        a, rest = divmod(total, weights[0])
        return [(a,)] if a >= 0 and not rest else []
    head, tail = weights[0], weights[1:]
    return [(a,) + v for a in range(total // head + 1) for v in _dot_vectors(tail, total - a * head)]
