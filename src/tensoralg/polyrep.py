"""The polynomial representation of the strand algebra.

Each idempotent carries a copy of ℤ[y_1..y_n] (one variable per black
strand, numbered left to right, ``int`` coefficients); a diagram acts
from its top label space to its bottom label space by composing the
local operators

* dot on the k-th black strand: multiply by y_k,
* black/black crossing, bottom labels (i left, j right):
  i < j swap, i > j multiply Q_ij(y_k, y_{k+1}) after the swap,
  i = j the divided-difference (Demazure) operator,
* red/black crossing: identity when the black moves left (upward reading),
  y_k^{λ^i} when it moves right.

This action is faithful, so it is the independent oracle for the
straightening engine: ``apply(a·b, f) == apply(a, apply(b, f))`` is the
correctness test for products.  It never calls the rewriting code.
"""

from __future__ import annotations

from operator import add

from .diagrams import DiagramAlgebra, Element, IdemKey
from .linalg import add_multiple

Poly = dict[tuple[int, ...], int]  # exponent vector -> coefficient


class LabeledPoly:
    """A polynomial attached to an idempotent (a point of the module)."""

    __slots__ = ("idem", "poly")

    def __init__(self, idem: IdemKey, poly: Poly):
        self.idem = idem
        self.poly = {e: c for e, c in poly.items() if c}

    def __eq__(self, other):
        """Equal polynomials at one idempotent; zero is zero at any
        idempotent, where ``apply_element`` may park it."""
        if not isinstance(other, LabeledPoly) or self.poly != other.poly:
            return False
        return not self.poly or self.idem == other.idem

    def __repr__(self):
        return f"LabeledPoly({self.idem}, {self.poly})"


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        # multiplying by one monomial is injective on monomials
        add_multiple(out, c1, {tuple(map(add, e1, e2)): c2 for e2, c2 in b.items()})
    return out


def _swap_vars(f: Poly, k: int) -> Poly:
    """f with y_k and y_{k+1} exchanged; the swap is injective on
    monomials, so no terms merge."""
    return {e[:k] + (e[k + 1], e[k]) + e[k + 2 :]: c for e, c in f.items()}


def _demazure(f: Poly, k: int) -> Poly:
    """(f - s_k f)/(y_k - y_{k+1}), monomial by monomial."""
    out: Poly = {}
    for e, c in f.items():
        a, b = e[k], e[k + 1]
        if a == b:
            continue
        lo, hi, sgn = (b, a, 1) if a > b else (a, b, -1)
        add_multiple(out, sgn * c, {e[:k] + (s, a + b - 1 - s) + e[k + 2 :]: 1 for s in range(lo, hi)})
    return out


def _scale_mono(f: Poly, k: int, power: int) -> Poly:
    if power == 0:
        return dict(f)
    out: Poly = {}
    for e, c in f.items():
        ne = list(e)
        ne[k] += power
        out[tuple(ne)] = c
    return out


def apply_element(alg: DiagramAlgebra, a: Element, f: LabeledPoly) -> LabeledPoly:
    """Act by ``a`` on a labeled polynomial; the result sits at the common
    bottom idempotent of the terms whose top matches f's label."""
    bottoms = set()
    acc: Poly = {}
    out_idem = None
    for (idem, w, dots), c in a.terms.items():
        if alg.top_idem(idem, w) != f.idem:
            continue
        bottoms.add(idem)
        if len(bottoms) > 1:
            raise ValueError("element mixes bottom idempotents; act term by term")
        out_idem = idem
        add_multiple(acc, c, _apply_term(alg, idem, w, dots, f.poly))
    if out_idem is None:
        # Nothing matched: the action is zero; park it at f's idem.
        return LabeledPoly(f.idem, {})
    return LabeledPoly(out_idem, acc)


def _apply_term(alg: DiagramAlgebra, idem: IdemKey, w, dots, f: Poly) -> Poly:
    """One basis diagram read top to bottom: dots first, then each crossing
    keyed by its bottom labels."""
    g = dict(f)
    # dots sit at the top boundary
    for k, amount in enumerate(dots):
        if amount:
            g = _scale_mono(g, k, amount)
    word = alg.canonical_word(w)
    # walk down through the crossings; arr tracks the strand sequence at
    # the current height (starting from the top of the diagram)
    arr = list(alg.top_sequence(idem, w))
    for p in reversed(word):
        below = list(arr)
        below[p], below[p + 1] = below[p + 1], below[p]
        la = alg.strand_label(idem, below[p])
        lb = alg.strand_label(idem, below[p + 1])
        if la[0] == "b" and lb[0] == "b":
            k = sum(1 for s in range(p) if below[s][0] == "b")
            i, j = la[1], lb[1]
            if i == j:
                g = _demazure(g, k)
            elif i < j:
                g = _swap_vars(g, k)
            else:
                qpoly: Poly = {}
                n = len(idem[0])
                for (ua, vb), cc in alg.q.entry(i, j).items():
                    e = [0] * n
                    e[k] += ua
                    e[k + 1] += vb
                    qpoly[tuple(e)] = cc
                g = poly_mul(qpoly, _swap_vars(g, k))
        elif la[0] == "r" and lb[0] == "r":
            raise AssertionError("red strands never cross")
        else:
            if la[0] == "b":
                # bottom (black, red): the black moves right going up
                i = la[1]
                lam = alg.lambdas[lb[1]]
                k = sum(1 for s in range(p) if below[s][0] == "b")
                g = _scale_mono(g, k, lam.coords[i])
            # bottom (red, black): identity
        arr = below
    return g


def one_poly(alg: DiagramAlgebra, idem: IdemKey) -> LabeledPoly:
    return LabeledPoly(idem, {(0,) * len(idem[0]): 1})


def random_poly(alg: DiagramAlgebra, idem: IdemKey, rng, max_degree: int = 6, terms: int = 3) -> LabeledPoly:
    n = len(idem[0])
    poly: Poly = {}
    for _ in range(terms):
        e = [0] * n
        budget = rng.randrange(max_degree + 1)
        for _ in range(budget):
            if n == 0:
                break
            e[rng.randrange(n)] += 1
        c = rng.randrange(-3, 4) or 1
        add_multiple(poly, c, {tuple(e): 1})
    return LabeledPoly(idem, poly)


def module_axiom_holds(alg: DiagramAlgebra, a: Element, b: Element, f: LabeledPoly) -> bool:
    """apply(a·b, f) == apply(a, apply(b, f)) — the faithfulness-backed
    correctness check for the straightening engine."""
    lhs = apply_element(alg, a.multiply(b), f)
    rhs = apply_element(alg, a, apply_element(alg, b, f))
    return lhs == rhs
