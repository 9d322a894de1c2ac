"""The decategorified side: integral tensor products of highest-weight
modules and the inner product that predicts every graded Hom dimension on
the diagram side.  The coproduct actions of E_i and F_i, the vectors they
build and the standard filtration are in ``standard``.

Vectors are formal: a pure tensor is a tuple of F-words, one per factor,
where the word ``(i_1, ..., i_k)`` means F_{i_k}...F_{i_1} applied to that
factor's highest-weight vector.  Words are never reduced modulo Serre or
integrability relations; all linear dependence is seen through the form
(Gram ranks), which is what the dimension formulas need.

The form is computed by the move-across recursion: an outermost F on
either side becomes an E on the other at the cost of the monomial
q_i^{-1} q^{<α_i, μ+α_i>} (μ the common weight), and a factor that is a
fresh highest-weight vector on both sides is stripped off.  E applied to
one of the distinguished vectors v^κ_I re-expands into such vectors with
quantum-integer coefficients, so the recursion never leaves the spanning
family.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .cartan import CartanDatum, RootVector, Weight
from .laurent import ONE, ZERO, LaurentPoly, qint_signed
from .linalg import add_multiple

PTensor = tuple[tuple[int, ...], ...]
VKey = tuple[tuple[int, ...], tuple[int, ...]]  # (I, kappa)


class MalformedKappaError(ValueError):
    """kappa must be weakly increasing with values in [0, n]."""


def check_kappa(kappa: Sequence[int], n: int):
    k = tuple(kappa)
    if any(b < a for a, b in zip(k, k[1:])):
        raise MalformedKappaError(f"kappa {k} is not weakly increasing")
    if k and (k[0] < 0 or k[-1] > n):
        raise MalformedKappaError(f"kappa {k} out of range [0, {n}]")
    return k


def arrangements(letters: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of a multiset of letters in lexicographic
    order, i.e. ``sorted(set(permutations(letters)))`` without forming the
    n! permutations: each is the next permutation of the one before."""
    a = sorted(letters)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


class TensorVector:
    """A Z[q,q^-1]-combination of pure tensors over a fixed weight sequence."""

    __slots__ = ("space", "terms")

    def __init__(self, space: "TensorSpace", terms: dict[PTensor, LaurentPoly]):
        self.space = space
        self.terms = {t: c for t, c in terms.items() if not c.is_zero()}

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.space is not other.space:
            raise ValueError("vectors over different tensor spaces")
        return TensorVector(self.space, add_multiple(dict(self.terms), ONE, other.terms))

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, c: LaurentPoly) -> "TensorVector":
        return TensorVector(self.space, {t: c * a for t, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorVector)
            and self.space is other.space
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "TensorVector(0)"
        bits = []
        for t in sorted(self.terms):
            word = " (x) ".join("v" + "".join(f".F{self.space.datum.nodes[i]}" for i in w) for w in t)
            bits.append(f"({self.terms[t].text()}) * [{word}]")
        return "TensorVector(" + " + ".join(bits) + ")"


class TensorSpace:
    """V_{λ_1} (x) ... (x) V_{λ_ℓ} for a fixed sequence of dominant weights."""

    def __init__(self, datum: CartanDatum, lambdas: Sequence[Weight]):
        self.datum = datum
        self.lambdas = tuple(lambdas)
        for lam in self.lambdas:
            datum.require_same(lam.datum)
            if not lam.is_dominant():
                raise ValueError(f"weight {lam.coords} is not dominant")
        self.ell = len(self.lambdas)
        # red labels by node: _red_labels[i][j] = λ_j^i
        self._red_labels = tuple(tuple(lam.coords[i] for lam in self.lambdas) for i in range(datum.rank))
        self._form_memo: dict[tuple, LaurentPoly] = {}
        self._s_in_v_memo: dict[VKey, dict[VKey, LaurentPoly]] = {}  # standard.s_in_v
        self._weight_memo: dict[tuple[int, ...], tuple[int, ...]] = {}  # black word I -> pairings of v^κ_I
        self._parent: TensorSpace | None = None

    def parent(self) -> "TensorSpace":
        """The space with the last factor dropped (used when stripping)."""
        if self._parent is None:
            if self.ell == 0:
                raise ValueError("cannot strip the empty tensor product")
            self._parent = TensorSpace(self.datum, self.lambdas[:-1])
        return self._parent

    def highest(self) -> TensorVector:
        return TensorVector(self, {((),) * self.ell: ONE})

    def _pairings_below(self, i: int, word, kappa, labels) -> Iterator[tuple[int, int]]:
        """``(p, μ_p^i)`` for each letter p of ``word`` equal to i, where
        μ_p^i is α_i^∨ of the weight strictly below that letter: the red
        labels ``labels[j]`` with kappa[j] <= p, less c_{s,i} for every
        letter s before p.  ``kappa`` is weakly increasing."""
        c = self.datum.cartan
        mu = r = 0
        for p, s in enumerate(word):
            while r < len(kappa) and kappa[r] <= p:
                mu += labels[r]
                r += 1
            if s == i:
                yield p, mu
            mu -= c[s][i]

    # -- structural expansion of E on spanning vectors --------------------------------

    def vkey_weight(self, key: VKey) -> Weight:
        """Σ λ_j − Σ α_{i_k} (κ does not enter)."""
        return Weight(self.datum, self._word_pairings(tuple(key[0])))

    def _word_pairings(self, I: tuple[int, ...]) -> tuple[int, ...]:
        """The coroot pairings of :meth:`vkey_weight`, memoized per black word I."""
        mu = self._weight_memo.get(I)
        if mu is None:
            c = self.datum.cartan
            mu = tuple(sum(labels) - sum(c[s][i] for s in I) for i, labels in enumerate(self._red_labels))
            self._weight_memo[I] = mu
        return mu

    def e_expand(self, i: int, key: VKey) -> list[tuple[LaurentPoly, VKey]]:
        """E_i v^κ_I as a combination of v^{κ'}_{I'}.

        Deleting letter t costs the quantum integer [α_i^∨(μ_t)] where μ_t
        is the weight of the partial vector strictly below the letter.
        """
        I, kappa = key
        di = self.datum.sym[i]
        out = []
        for p, mu in self._pairings_below(i, I, kappa, self._red_labels[i]):
            coeff = qint_signed(mu, di)
            if coeff.is_zero():
                continue
            nI = I[:p] + I[p + 1 :]
            nkappa = tuple(k - 1 if k > p else k for k in kappa)
            out.append((coeff, (nI, nkappa)))
        return out

    # -- the inner product ------------------------------------------------------------

    def form_vv(self, a: VKey, b: VKey) -> LaurentPoly:
        """<v^κ_I, v^{κ'}_J>: the graded-dimension prediction for Hom spaces.

        Implements the decategorified shadow of the Hom recursion: strip a
        common trailing highest-weight factor, otherwise trade an
        outermost F for an E on the other side, with shift
        q_i^{-1} q^{<α_i, μ+α_i>}.  Both trade directions are available;
        they agree, which the test suite asserts.
        """
        a = (tuple(a[0]), check_kappa(a[1], len(a[0])))
        b = (tuple(b[0]), check_kappa(b[1], len(b[0])))
        if a[1] and a[1][0] >= 1:
            return ZERO
        if b[1] and b[1][0] >= 1:
            return ZERO
        if self._word_pairings(a[0]) != self._word_pairings(b[0]):
            return ZERO
        return self._form_rec(a, b)

    def _form_rec(self, a: VKey, b: VKey) -> LaurentPoly:
        memo = self._form_memo
        ck = (a, b)
        hit = memo.get(ck)
        if hit is not None:
            return hit
        Ia, ka = a
        Ib, kb = b
        if self.ell == 0:
            return ONE
        na, nb = len(Ia), len(Ib)
        ends_a = ka[-1] == na
        ends_b = kb[-1] == nb
        if ends_a and ends_b:
            val = self.parent()._form_rec((Ia, ka[:-1]), (Ib, kb[:-1]))
        elif not ends_b:
            i = Ib[-1]
            val = self._shift(i, a) * self._sum_over(self.e_expand(i, a), (Ib[:-1], kb), left=True)
        else:
            i = Ia[-1]
            val = self._shift(i, a) * self._sum_over(self.e_expand(i, b), (Ia[:-1], ka), left=False)
        memo[ck] = val
        return val

    def _shift(self, i: int, key: VKey) -> LaurentPoly:
        """q_i^{-1} q^{<α_i, μ+α_i>}, μ the weight of ``key``."""
        d = self.datum
        return LaurentPoly.q_power(d.sym[i] * (self._word_pairings(key[0])[i] + d.cartan[i][i] - 1))

    def _sum_over(self, expansion, other: VKey, left: bool) -> LaurentPoly:
        total = ZERO
        for coeff, key in expansion:
            val = self._form_rec(key, other) if left else self._form_rec(other, key)
            total = total + coeff * val
        return total

    # -- spanning sets ----------------------------------------------------------------

    def spanning_keys(self, alpha: RootVector) -> list[VKey]:
        """All (I, κ) with content α and κ(1) = 0 (nonzero idempotents)."""
        return self._keys(alpha, violating=False)

    def violating_keys(self, alpha: RootVector) -> list[VKey]:
        """All (I, κ) with content α and κ(1) >= 1 (a black strand left of
        every red)."""
        return self._keys(alpha, violating=True)

    def _keys(self, alpha: RootVector, violating: bool) -> list[VKey]:
        """Idempotents of content α with κ(1) >= 1 or κ(1) = 0, ordered
        lexicographically by I and then by κ."""
        if not alpha.is_positive():
            return []
        letters = alpha.letters()
        n = len(letters)
        if self.ell == 0:
            kappas = [()] if n == 0 and not violating else []
        else:
            kappas = [
                k for k in combinations_with_replacement(range(n + 1), self.ell) if (k[0] >= 1) == violating
            ]
        return [(I, k) for I in arrangements(letters) for k in kappas]


class GradedHomTable:
    """Map (row idempotent, column idempotent) -> graded dimension."""

    def __init__(self):
        self.entries: dict[tuple[VKey, VKey], LaurentPoly] = {}

    def set(self, row: VKey, col: VKey, val: LaurentPoly):
        self.entries[(row, col)] = val

    def total_at_1(self) -> int:
        return sum(v.eval_at_1() for v in self.entries.values())

    def is_symmetric(self) -> bool:
        return all(self.entries.get((b, a), ZERO) == v for (a, b), v in self.entries.items())

    @staticmethod
    def idem_label(key: VKey) -> str:
        I, kappa = key
        return "e[" + ",".join(str(i + 1) for i in I) + "|R@" + ",".join(str(k) for k in kappa) + "]"

    CSV_HEADER = "row_idem,col_idem,laurent"

    def csv_rows(self) -> list[str]:
        """One CSV line per entry, under ``CSV_HEADER``."""
        return [
            f'{self.idem_label(a)},{self.idem_label(b)},"{v.text()}"'
            for (a, b), v in sorted(self.entries.items())
        ]

    def to_json(self) -> dict:
        return {
            f"{self.idem_label(a)}|{self.idem_label(b)}": v.to_json()
            for (a, b), v in sorted(self.entries.items())
        }
