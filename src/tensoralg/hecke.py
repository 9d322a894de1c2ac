"""The cyclotomic degenerate affine Hecke algebra H^λ and its dimension
comparison with single-red quotient blocks in type A.

H^λ_d is spanned by x_1^{a_1}..x_d^{a_d} w with 0 <= a_k < N and w in the
symmetric group, N = Σ λ^i the level; the defining relations are

    s_i x_j = x_{s_i(j)} s_i - δ_{j,i} + δ_{j,i+1},    Π_i (x_1 - i)^{λ^i} = 0.

Every relation has integer coefficients (the roots of the cyclotomic
polynomial are the integers i), so the rewriting runs over ℤ: the
cyclotomic polynomial, ``multiply_raw``, ``reduce`` and the memo of the
right monomial action carry plain ``int``.  ``multiply_raw`` is the one
place that moves a permutation past a monomial; ``reduce`` then applies
the cyclotomic relation.  Right multiplication by a permutation never
moves past a monomial, so reduce(x^e w) = reduce(x^e)·w, and the normal
form of each monomial x^e is memoized.  For the same reason a product
only ever rewrites a·x^e:

    a·b = Σ_B c_B·(a·x^{e_B})·w_B.

Inside a product a basis key is its index in ``basis``: (exponent
index)·d! + (permutation index), the exponent index reading e in base N.
``_times_idx[w]`` maps the index of x^f u to that of x^f (u w), so ·w_B
is a table lookup.  The memo slot A·N^d + e holds (x^{e_A} w_A)·x^e as
[(index, int)]; the x_k commute, so it is (A·x^{e-ε_k})·x_k for the
first k with e_k > 0, summed from the slot of e - ε_k and the unit slots
(B, ε_k).  Only the unit slots call ``multiply_raw`` and ``reduce``, at
most |basis|·d of them.  Elements handed out (``one``, ``gen_x``,
``gen_s``, ``multiply``) and their coordinates (``coords``, a sparse
``linalg`` row) are exact over Q: each coefficient is an ``int``, or a
``Fraction`` where it has a real denominator (``scalars``).  ``multiply`` is the one field boundary: it clears the
denominators of each factor, sums over ℤ in dense lists against the
memo, and divides once per nonzero output entry, giving an ``int`` where
the sum divides exactly and a ``Fraction`` otherwise; every other sum of
terms is ``linalg.add_multiple``.

Weight idempotents come from simultaneous generalized eigenprojections of
the commuting x_k.  ``spectral.spectral_idempotents`` splits each x_k once:
it reads the minimal polynomial off the Krylov sequence 1, x_k, x_k², ...
in H, splits it over the integers, and writes each eigenprojection as an
integer combination of those powers divided by one integer, so no
product is formed to build a projector.  e(I) is then
refined one prefix at a time.  The bridge certificate checks
the images of the dot relations plus ungraded block-dimension equality
against the diagram side; a block dimension dim e(I) H e(J) is the trace
of the idempotent a ↦ e(I)·a·e(J) of H, so it takes no row reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from .cartan import CartanDatum, Weight
from .linalg import add_multiple, rank
from .scalars import QQ, exact
from .spectral import spectral_idempotents

Perm = tuple[int, ...]  # one-line: w[i] = image of i (0-based)
HKey = tuple[tuple[int, ...], Perm]  # (exponents, permutation)


def _perm_mul(u: Perm, v: Perm) -> Perm:
    """(u v)(i) = u(v(i))."""
    return tuple(u[v[i]] for i in range(len(u)))


def _perm_id(d: int) -> Perm:
    return tuple(range(d))


def _s(d: int, i: int) -> Perm:
    w = list(range(d))
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


class HeckeAlgebra:
    """H^λ_d for a dominant sl_n-type weight λ: integer rewriting, elements
    over Q."""

    def __init__(self, datum: CartanDatum, lam: Weight, d: int):
        datum.require_same(lam.datum)
        self.datum = datum
        self.lam = lam
        self.d = d
        self.level = sum(lam.coords)
        if self.level <= 0:
            raise ValueError("the cyclotomic level must be positive")
        # cyclotomic polynomial Π_i (t - i)^{λ^i}; node i is the integer i+1
        coeffs = [1]
        for i, m in enumerate(lam.coords):
            for _ in range(m):
                coeffs = _poly_shift_mul(coeffs, i + 1)
        self.cyc = coeffs  # monic, degree = level
        self._monomial_nf: dict[tuple[int, ...], dict[HKey, int]] = {}
        self._xk_reduction: dict[int, dict[HKey, int]] = {}
        perms = sorted(permutations(range(d)))
        self.basis = [(e, w) for e in product(range(self.level), repeat=d) for w in perms]
        self.index = {k: i for i, k in enumerate(self.basis)}
        pos = {u: i for i, u in enumerate(perms)}
        self._times_idx = {
            w: [k + pos[_perm_mul(u, w)] for k in range(0, len(self.basis), len(perms)) for u in perms] for w in perms
        }
        self._units = [self.level ** (d - 1 - k) for k in range(d)]  # exponent index of x_k
        self._right_x: dict[int, list[tuple[int, int]]] = {}

    # -- normal form sums --------------------------------------------------------

    def one(self) -> dict[HKey, int]:
        return {((0,) * self.d, _perm_id(self.d)): 1}

    def gen_x(self, k: int) -> dict[HKey, int]:
        e = [0] * self.d
        e[k] = 1
        return self.reduce({(tuple(e), _perm_id(self.d)): 1})

    def gen_s(self, i: int) -> dict[HKey, int]:
        return {((0,) * self.d, _s(self.d, i)): 1}

    # -- multiplication ----------------------------------------------------------------

    def multiply(self, a: dict, b: dict) -> dict:
        """a·b over Q by the right monomial action
        a·b = Σ_B c_B·(a·x^{e_B})·w_B.

        Each factor is scaled to integers by the lcm of its denominators.
        b's terms are grouped by exponent e; a·x^e is summed once per group
        into a dense integer list from the memo slots of a's keys, and ·w_B
        maps its indices through ``_times_idx``.  Each output coefficient is
        divided by the product of the two scales once: an ``int`` where it
        divides exactly, otherwise a ``Fraction``."""
        ia, da = _clear_denominators(a)
        ib, db = _clear_denominators(b)
        index, dim = self.index, len(self.basis)
        groups: dict[int, list[tuple[list[int], int]]] = {}
        for B, c in ib.items():
            groups.setdefault(index[B] // len(self._times_idx), []).append((self._times_idx[B[1]], c))
        ia = [(index[A], c) for A, c in ia.items()]
        out = [0] * dim
        for e, terms in groups.items():
            ae = self._times_x(ia, e)
            for times_w, cb in terms:
                for k, v in ae:
                    out[times_w[k]] += cb * v
        den = da * db
        return {self.basis[k]: v // den if not v % den else Fraction(v, den) for k, v in enumerate(out) if v}

    def _times_x(self, terms: list[tuple[int, int]], e: int) -> list[tuple[int, int]]:
        """(Σ c·B)·x^e as [(index, int)] for terms [(B, c)] over basis
        indices and exponent index e, summed in one dense list."""
        memo, slot, stride = self._right_x, self._right_x_slot, self.level**self.d
        acc = [0] * len(self.basis)
        for B, c in terms:
            for k, v in memo.get(B * stride + e) or slot(B, e):
                acc[k] += c * v
        return [(k, v) for k, v in enumerate(acc) if v]

    def _right_x_slot(self, A: int, e: int) -> list[tuple[int, int]]:
        """(x^{e_A} w_A)·x^e as [(index, int)] for basis index A and exponent
        index e, memoized in slot A·N^d + e: a unit e = ε_k is rewritten,
        any other e is (A·x^{e-ε_k})·x_k for the first k with e_k > 0."""
        if not e:
            return [(A, 1)]
        slot = A * self.level**self.d + e
        t = self._right_x.get(slot)
        if t is None:
            unit = next(p for p in self._units if e >= p)
            if e == unit:
                x_k = {self.basis[unit * len(self._times_idx)]: 1}
                t = [(self.index[k], v) for k, v in self.reduce(self.multiply_raw({self.basis[A]: 1}, x_k)).items()]
            else:
                t = self._times_x(self._right_x_slot(A, e - unit), unit)
            self._right_x[slot] = t
        return t

    def multiply_raw(self, a: dict, b: dict) -> dict:
        """Multiplication without cyclotomic reduction (exponents free):
        x^{ea} wa · x^{eb} wb moves wa past x^{eb} one letter at a time."""
        out: dict[HKey, int] = {}
        for (ea, wa), ca in a.items():
            word = _reduced_word(wa)
            for B, cb in b.items():
                terms = {B: cb}
                for i in reversed(word):
                    nxt: dict[HKey, int] = {}
                    for (e, w), c in terms.items():
                        add_multiple(nxt, c, self._s_times(e, w, i))
                    terms = nxt
                # monomials commute, so x^{ea} shifts exponents injectively
                shifted = {(tuple(x + y for x, y in zip(ea, e)), w): c for (e, w), c in terms.items()}
                add_multiple(out, ca, shifted)
        return out

    def _s_times(self, e: tuple[int, ...], w: Perm, i: int) -> dict[HKey, int]:
        """s_i · (x^e w) in normal form x^* ( s_i-shuffled perm )."""
        # Iterating s x_i = x_{i+1} s - 1 gives the divided-difference sum
        #   s x_i^a x_{i+1}^b = x_i^b x_{i+1}^a s - Σ_{t=b}^{a-1} x_i^t x_{i+1}^{a+b-1-t}  (a > b)
        #                                        + Σ_{t=a}^{b-1} x_i^t x_{i+1}^{a+b-1-t}  (a < b);
        # exponents at the untouched positions ride along on the corrections.
        a, b = e[i], e[i + 1]
        se = list(e)
        se[i], se[i + 1] = b, a
        out = {(tuple(se), _perm_mul(_s(self.d, i), w)): 1}
        lo, hi, sgn = (b, a, -1) if a > b else (a, b, 1)
        for t in range(lo, hi):
            se[i], se[i + 1] = t, a + b - 1 - t
            out[(tuple(se), w)] = sgn
        return out

    def reduce(self, terms: dict) -> dict:
        """Rewrite so every exponent is < N.  Right multiplication by a
        permutation never moves past a monomial, so x^e w reduces to
        (normal form of x^e)·w."""
        out: dict = {}
        for (e, w), c in terms.items():
            times_w = self._times_idx[w]
            add_multiple(out, c, {self.basis[times_w[self.index[k]]]: v for k, v in self._reduce_monomial(e).items()})
        return out

    def _reduce_monomial(self, e: tuple[int, ...]) -> dict[HKey, int]:
        """Normal form of x^e, memoized: x^e = x^{e - N ε_k} · x_k^N for the
        first k with e_k >= N, which lowers the total degree."""
        hit = self._monomial_nf.get(e)
        if hit is not None:
            return hit
        k = next((j for j in range(self.d) if e[j] >= self.level), None)
        if k is None:
            out = {(e, _perm_id(self.d)): 1}
        else:
            ne = list(e)
            ne[k] -= self.level
            out = self.reduce(self.multiply_raw({(tuple(ne), _perm_id(self.d)): 1}, self._xk_power_reduction(k)))
        self._monomial_nf[e] = out
        return out

    def _xk_power_reduction(self, k: int) -> dict[HKey, int]:
        """Normal form of x_k^N (total degree < N), built inductively:
        x_1^N from the cyclotomic polynomial, and
        x_{k}^N = s_{k-1} x_{k-1}^N s_{k-1} + (lower degree)."""
        hit = self._xk_reduction.get(k)
        if hit is not None:
            return hit
        N = self.level
        if k == 0:
            out = {}
            for j in range(N):
                e = [0] * self.d
                e[0] = j
                out[(tuple(e), _perm_id(self.d))] = -self.cyc[j]
        else:
            prev = self._xk_power_reduction(k - 1)
            s = {((0,) * self.d, _s(self.d, k - 1)): 1}
            conj = self.multiply_raw(self.multiply_raw(s, prev), s)
            # x_k = s x_{k-1} s + s, so x_k^N - s x_{k-1}^N s is the bracket
            # of _mixed_power, of total degree < N.
            out = self.reduce(add_multiple(conj, 1, self._mixed_power(k, N)))
        self._xk_reduction[k] = out
        return out

    def _mixed_power(self, k: int, N: int) -> dict[HKey, int]:
        """(u+v)^N − u^N for u = s x_{k-1} s, v = s (so x_k = u+v)."""
        one = {((0,) * self.d, _perm_id(self.d)): 1}
        v = {((0,) * self.d, _s(self.d, k - 1)): 1}
        e = [0] * self.d
        e[k - 1] = 1
        u = self.multiply_raw(self.multiply_raw(v, {(tuple(e), _perm_id(self.d)): 1}), v)
        total = add_multiple(dict(u), 1, v)
        acc = upow = one
        for _ in range(N):
            acc = self.multiply_raw(acc, total)
            upow = self.multiply_raw(upow, u)
        return add_multiple(acc, -1, upow)

    # -- vectors ------------------------------------------------------------------------

    def coords(self, a: dict) -> dict:
        """``a`` as a sparse row over the basis."""
        return {self.index[k]: c for k, c in a.items() if c}

    def dim(self) -> int:
        return len(self.basis)

    def regular_rank(self) -> int:
        """Rank of the span of all pairwise basis products; equals the
        basis count N^d d! when the rewriting is consistent."""
        elements = [{b: 1} for b in self.basis]
        return rank([self.coords(self.multiply(b1, b2)) for b1 in elements for b2 in elements], QQ)


def _clear_denominators(a: dict) -> tuple[dict, int]:
    """(a·m over ℤ, m) for m the lcm of the denominators of a's coefficients
    (an ``int`` has denominator 1)."""
    m = math.lcm(*(c.denominator for c in a.values()))
    return {k: c.numerator * (m // c.denominator) for k, c in a.items()}, m


def _poly_shift_mul(coeffs: list[int], root: int) -> list[int]:
    """coeffs(t) * (t - root), low-to-high coefficient lists."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= c * root
    return out


def _reduced_word(w: Perm) -> list[int]:
    """Bubble-sort reduced word for w (letters act on positions)."""
    arr = list(w)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                changed = True
    word.reverse()
    return word


# -- weight idempotents -------------------------------------------------------------------


def _x_splits(H: HeckeAlgebra) -> list[list[tuple[int, int, dict]]]:
    """``spectral.spectral_idempotents`` of each x_k, sorted by root.

    H is unital and acts faithfully on itself, so x_k and its left
    multiplication have the same minimal polynomial; it is read off the
    Krylov sequence 1, x_k, x_k², ... in H itself.
    """
    out = []
    for k in range(H.d):
        x = H.gen_x(k)
        split = spectral_idempotents(H.one(), lambda p: H.multiply(p, x), H.coords)
        if split is None or any(type(r) is not int for r, _m, _e in split):
            raise RuntimeError("non-integer eigenvalue in cyclotomic dAHA spectrum")
        out.append(sorted(split, key=lambda s: s[0]))
    return out


def x_spectra(H: HeckeAlgebra) -> list[list[tuple[int, int]]]:
    """Integer spectra, with minimal-polynomial multiplicities, of the x_k."""
    return [[(r, m) for r, m, _e in split] for split in _x_splits(H)]


def weight_idempotents(H: HeckeAlgebra) -> dict[tuple[int, ...], dict]:
    """e(I) for every integer eigenvalue sequence I with e(I) != 0, in
    lexicographic order of I.

    The x_k commute, so e(I) = e_1(i_1)·...·e_d(i_d) for e_k(v) the
    generalized v-eigenspace idempotent of x_k.  Each prefix product is
    formed once and a zero prefix is dropped with every sequence that
    extends it.
    """
    prefixes = {(): H.one()}
    for k, split in enumerate(_x_splits(H)):
        nxt = {}
        for seq, e in prefixes.items():
            for v, _m, ev in split:
                f = H.multiply(e, ev) if k else ev
                if f:
                    nxt[seq + (v,)] = f
        prefixes = nxt
    return prefixes


def block_dimension(H: HeckeAlgebra, eI: dict, eJ: dict) -> int:
    """dim e(I) H e(J) as the trace of P(a) = e(I)·a·e(J) on H, that is
    Σ_{b,k} (e(I)·b)_k · (k·e(J))_b over the basis keys b and k.

    e(I) and e(J) are idempotent (``bk_check`` checks it in the same
    report), so P is, and over Q the trace of an idempotent is its rank.
    The sum is exact rational arithmetic, so it is that integer, returned
    as an ``int`` by ``scalars.exact``.
    """
    right = [H.coords(H.multiply({k: 1}, eJ)) for k in H.basis]
    total = 0
    for b, bk in enumerate(H.basis):
        for k, c in H.coords(H.multiply(eI, {bk: 1})).items():
            total += c * right[k].get(b, 0)
    return exact(total)


def bk_check(H: HeckeAlgebra, datum: CartanDatum, lam: Weight, diagram_dims) -> dict:
    """The relation-and-dimension certificate for the dot correspondence
    y_j e(I) -> e(I)(x_j - i_j).

    ``diagram_dims`` maps (I, J) over node sequences to the ungraded
    dimension of e(I) T^λ e(J).  Checked: idempotency/orthogonality of the
    e(I), the cyclotomic dot relation, nilpotency of the dot images, dot
    commutativity, and the block-dimension match.
    """
    idems = weight_idempotents(H)
    report = {"relations": {}, "dims": {}}
    n = datum.rank
    # Γ-valued sequences correspond to diagram idempotents; the integer
    # label of node index i is i+1.
    gamma_seqs = [seq for seq in idems if all(1 <= v <= n for v in seq)]
    xs = [H.gen_x(j) for j in range(H.d)]
    # orthogonal idempotents summing to the component identity
    total = {}
    for seq, e in idems.items():
        add_multiple(total, 1, e)
        ee = H.multiply(e, e)
        if ee != e:
            report["relations"][f"e{seq} idempotent"] = False
    report["relations"]["sum of all e(I) = 1"] = total == H.one()
    for seq in gamma_seqs:
        e = idems[seq]
        # cyclotomic relation: (x_1 - i_1)^{λ^{i_1}} e(I) = 0
        i1 = seq[0] - 1
        f = add_multiple(dict(xs[0]), -seq[0], H.one())
        p = e
        for _ in range(lam.coords[i1]):
            p = H.multiply(p, f)
        key = f"(x_1 - {seq[0]})^{lam.coords[i1]} e{seq} = 0"
        report["relations"][key] = not p
        # e(I)·x_j, shared by the nilpotency and commutation checks
        ex = [H.multiply(e, x) for x in xs]
        # nilpotency of every dot image
        for j in range(H.d):
            g = add_multiple(dict(xs[j]), -seq[j], H.one())
            nil = add_multiple(dict(ex[j]), -seq[j], e)  # e(I)·g
            steps = 0
            while nil and steps <= H.dim():
                nil = H.multiply(nil, g)
                steps += 1
            report["relations"][f"(x_{j + 1} - {seq[j]}) e{seq} nilpotent"] = not nil
        # dot images commute
        for j in range(H.d):
            for k in range(j + 1, H.d):
                gj, gk = ex[j], ex[k]
                comm = add_multiple(H.multiply(gj, gk), -1, H.multiply(gk, gj))
                if comm:
                    report["relations"][f"dots commute on e{seq}"] = False
    # block dimension match
    for I, J in diagram_dims:
        want = diagram_dims[(I, J)]
        seqI = tuple(i + 1 for i in I)
        seqJ = tuple(j + 1 for j in J)
        eI = idems.get(seqI, {})
        eJ = idems.get(seqJ, {})
        got = block_dimension(H, eI, eJ) if eI and eJ else 0
        report["dims"][f"{seqI}|{seqJ}"] = {"hecke": got, "diagram": want, "match": got == want}
    report["ok"] = all(report["relations"].values()) and all(v["match"] for v in report["dims"].values())
    return report
