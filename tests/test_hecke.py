import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensoralg import hecke
from tensoralg.cartan import default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import BlockComputer
from tensoralg.hecke import HeckeAlgebra, bk_check, weight_idempotents, x_spectra
from tensoralg.linalg import add_multiple, rank
from tensoralg.scalars import QQ


def fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


@pytest.mark.parametrize(
    "datum_f,coords,dmax",
    [
        (sl2, (1,), 3),
        (sl2, (2,), 3),
        (lambda: type_a(2), (1, 0), 3),
        (lambda: type_a(2), (0, 1), 2),
    ],
)
def test_dimension_formula(datum_f, coords, dmax):
    d = datum_f()
    lam = d.weight(coords)
    N = sum(coords)
    for dd in range(1, dmax + 1):
        H = HeckeAlgebra(d, lam, dd)
        assert H.dim() == N**dd * fact(dd)
        if H.dim() <= 16:
            assert H.regular_rank() == H.dim()


def test_defining_relations():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((2,)), 3)
    one = H.one()
    for i in range(2):
        s = H.gen_s(i)
        assert H.multiply(s, s) == one
        # s_i x_i = x_{i+1} s_i - 1
        lhs = H.multiply(s, H.gen_x(i))
        rhs = add_multiple(H.multiply(H.gen_x(i + 1), s), Fraction(-1), one)
        assert lhs == rhs
        # s_i x_{i+1} = x_i s_i + 1
        lhs = H.multiply(s, H.gen_x(i + 1))
        rhs = add_multiple(H.multiply(H.gen_x(i), s), 1, one)
        assert lhs == rhs
    # distant commutation and braid
    s0, s1 = H.gen_s(0), H.gen_s(1)
    assert H.multiply(H.multiply(s0, s1), s0) == H.multiply(H.multiply(s1, s0), s1)
    # x's commute
    for i in range(3):
        for j in range(3):
            assert H.multiply(H.gen_x(i), H.gen_x(j)) == H.multiply(H.gen_x(j), H.gen_x(i))


def test_cyclotomic_relation_level1():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((1,)), 1)
    # x_1 = 1 identically (cyclotomic polynomial t - 1)
    assert H.gen_x(0) == H.one()


def test_weight_idempotents_level1():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((1,)), 1)
    ids = weight_idempotents(H)
    assert set(ids) == {(1,)}
    assert ids[(1,)] == H.one()


def test_weight_idempotents_complete_and_orthogonal():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((2,)), 2)
    ids = weight_idempotents(H)
    total = {}
    keys = sorted(ids)
    for k in keys:
        e = ids[k]
        assert H.multiply(e, e) == e
        add_multiple(total, 1, e)
    for a in keys:
        for b in keys:
            if a != b:
                assert not H.multiply(ids[a], ids[b])
    assert total == H.one()


def test_d0_trivial():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((1,)), 0)
    assert H.dim() == 1
    assert H.multiply(H.one(), H.one()) == H.one()


def _diagram_dims(comp, contents):
    """Ungraded dim e(I) T^λ e(J) for every pair of idempotents of each content."""
    dims = {}
    for alpha in contents:
        keys = comp.idems(comp.datum.root(alpha))
        for a in keys:
            for b in keys:
                dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
    return dims


def test_bk_certificate_sl2():
    d = sl2()
    q = default_q_matrix(d)
    for coords in [(1,), (2,)]:
        lam = d.weight(coords)
        comp = BlockComputer(d, q, (lam,))
        for dd in (1, 2):
            H = HeckeAlgebra(d, lam, dd)
            rep = bk_check(H, d, lam, _diagram_dims(comp, [(dd,)]))
            assert rep["ok"], rep


def _sl2_level2(dd):
    d = sl2()
    lam = d.weight((2,))
    comp = BlockComputer(d, default_q_matrix(d), (lam,))
    return d, lam, HeckeAlgebra(d, lam, dd), _diagram_dims(comp, [(dd,)])


@pytest.mark.parametrize("dd,entries", [(1, 4), (2, 32), (3, 384)])
def test_bk_check_fills_one_product_per_basis_key_and_exponent(dd, entries, monkeypatch):
    # the right-action memo holds (x^{e_A} w_A)·x^e in at most one slot per
    # basis key A and exponent e, |basis|·N^d; only a unit exponent e = ε_k
    # is rewritten, once per (A, k), and every other slot is built from
    # those, so outside the normal forms of x_k^N multiply_raw sees at most
    # |basis|·d products A·x_k; a pairwise table would fill |basis|²
    d, lam, H, dims = _sl2_level2(dd)
    units = {((0,) * k + (1,) + (0,) * (dd - 1 - k), tuple(range(dd))) for k in range(dd)}
    rewrites = []
    multiply_raw = H.multiply_raw

    def counted(a, b):
        if sys._getframe(1).f_code.co_name not in ("_reduce_monomial", "_xk_power_reduction", "_mixed_power"):
            rewrites.append((tuple(a.items()), tuple(b.items())))
        return multiply_raw(a, b)

    monkeypatch.setattr(H, "multiply_raw", counted)
    rep = bk_check(H, d, lam, dims)
    assert rep["ok"], rep
    assert all(len(a) == 1 and a[0][0] in H.index and a[0][1] == 1 for a, _b in rewrites)
    assert {b for _a, b in rewrites} <= {((x, 1),) for x in units}
    assert 0 < len(set(rewrites)) == len(rewrites) <= len(H.basis) * dd
    assert 0 < len(H._right_x) <= len(H.basis) * H.level**dd == entries


def test_bk_certificate_fails_on_a_doubled_idempotent(monkeypatch):
    d, lam, H, dims = _sl2_level2(2)
    honest = hecke.weight_idempotents
    doubled = min(honest(H))

    def with_one_doubled(H):
        ids = honest(H)
        ids[doubled] = add_multiple({}, Fraction(2), ids[doubled])
        return ids

    monkeypatch.setattr(hecke, "weight_idempotents", with_one_doubled)
    rep = bk_check(H, d, lam, dims)
    assert rep["ok"] is False
    assert rep["relations"][f"e{doubled} idempotent"] is False


def test_bk_certificate_fails_on_a_wrong_block_dimension():
    d, lam, H, dims = _sl2_level2(2)
    I, J = wrong = next(iter(dims))
    dims[wrong] += 1
    rep = bk_check(H, d, lam, dims)
    assert rep["ok"] is False
    wrong_key = f"{tuple(i + 1 for i in I)}|{tuple(j + 1 for j in J)}"
    assert rep["dims"][wrong_key]["match"] is False
    assert all(v["match"] for k, v in rep["dims"].items() if k != wrong_key)


def test_block_dimension_is_the_rank_of_every_sandwiched_row():
    """``block_dimension``, the trace of a ↦ e(I)·a·e(J), is an ``int`` and
    equals the rank of the rows e(I)·b·e(J) over every basis key b."""
    nonzero = 0
    cases = [(sl2, (2,), 2), (sl2, (3,), 2), (lambda: type_a(2), (1, 1), 2), (sl2, (2,), 3)]
    for datum_f, coords, dd in cases:
        d = datum_f()
        H = HeckeAlgebra(d, d.weight(coords), dd)
        ids = list(weight_idempotents(H).values())
        for eI in ids:
            for eJ in ids:
                rows = [H.coords(H.multiply(H.multiply(eI, {b: Fraction(1)}), eJ)) for b in H.basis]
                got = hecke.block_dimension(H, eI, eJ)
                assert type(got) is int
                assert got == rank(rows, QQ)
                nonzero += got > 0
    assert nonzero >= 10


def test_d3_associativity_and_completeness():
    # regression: corrections of s·x^e must carry the exponents at the
    # untouched positions (only visible with three or more strands)
    import random

    d = sl2()
    H = HeckeAlgebra(d, d.weight((2,)), 3)
    rng = random.Random(1)
    for _ in range(60):
        b1, b2, b3 = (dict([(rng.choice(H.basis), Fraction(1))]) for _ in range(3))
        assert H.multiply(H.multiply(b1, b2), b3) == H.multiply(b1, H.multiply(b2, b3))
    ids = weight_idempotents(H)
    total = {}
    for e in ids.values():
        assert H.multiply(e, e) == e
        add_multiple(total, 1, e)
    assert total == H.one()


def test_bk_certificate_sl3_fundamental():
    d = type_a(2)
    q = default_q_matrix(d)
    lam = d.fundamental_weight(0)
    comp = BlockComputer(d, q, (lam,))
    for dd in (1, 2):
        H = HeckeAlgebra(d, lam, dd)
        dims = _diagram_dims(comp, [(c1, dd - c1) for c1 in range(dd + 1)])
        rep = bk_check(H, d, lam, dims)
        assert rep["ok"], rep


def _apply_poly(mat, roots):
    """Π (mat - r)^m for the (root, multiplicity) pairs, as a matrix."""
    n = len(mat)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for r, m in roots:
        shifted = [[mat[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(m):
            out = [[sum(out[i][k] * shifted[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out


def test_x_spectra_is_the_minimal_polynomial_of_left_multiplication():
    d = sl2()
    H = HeckeAlgebra(d, d.weight((2,)), 2)
    spectra = x_spectra(H)
    for k, roots in enumerate(spectra):
        assert roots == sorted(roots)
        # reference L_{x_k}: column j is x_k · b_j
        x = H.gen_x(k)
        cols = [H.coords(H.multiply(x, {b: Fraction(1)})) for b in H.basis]
        mat = [[cols[j].get(i, Fraction(0)) for j in range(H.dim())] for i in range(H.dim())]
        assert not any(any(row) for row in _apply_poly(mat, roots))
        # no proper monic divisor annihilates: drop one factor of each root
        for t, (r, m) in enumerate(roots):
            smaller = roots[:t] + [(r, m - 1)] + roots[t + 1:]
            assert any(any(row) for row in _apply_poly(mat, smaller))


# -- the integer product against the plain rewriting loop -----------------------------------

TABLE_CASES = {
    "sl2 (2), d=3": (sl2, (2,), 3),
    "A2 (1,1), d=2": (lambda: type_a(2), (1, 1), 2),
    "sl2 (3), d=2": (sl2, (3,), 2),
}
_TABLE_ALGEBRAS: dict = {}


def _table_algebra(name):
    """One algebra per case, so its memo tables fill across examples."""
    if name not in _TABLE_ALGEBRAS:
        datum_f, coords, dd = TABLE_CASES[name]
        d = datum_f()
        _TABLE_ALGEBRAS[name] = HeckeAlgebra(d, d.weight(coords), dd)
    return _TABLE_ALGEBRAS[name]


def _reference_reduce(H, terms, xk_power):
    """The rewriting loop without memo tables: rewrite one out-of-range
    term x^e w as x^{e - N ε_k} · (x_k^N rewritten) · w until none is left."""
    ident = tuple(range(H.d))
    out = {}
    work = dict(terms)
    while work:
        (e, w), c = work.popitem()
        k = next((j for j in range(H.d) if e[j] >= H.level), None)
        if k is None:
            add_multiple(out, c, {(e, w): 1})
            continue
        ne = list(e)
        ne[k] -= H.level
        prod = H.multiply_raw({(tuple(ne), ident): Fraction(1)}, xk_power(k))
        prod = H.multiply_raw(prod, {((0,) * H.d, w): Fraction(1)})
        add_multiple(work, c, prod)
    return out


def _reference_xk_power(H):
    """x_k^N rewritten by the reference loop, from the cyclotomic polynomial
    and x_k^N = s x_{k-1}^N s + ((u+v)^N - u^N)."""
    memo = {}

    def xk_power(k):
        if k not in memo:
            ident = tuple(range(H.d))
            if k == 0:
                memo[k] = {
                    (tuple(j if i == 0 else 0 for i in range(H.d)), ident): Fraction(-H.cyc[j])
                    for j in range(H.level)
                    if H.cyc[j]
                }
            else:
                s = H.gen_s(k - 1)
                conj = H.multiply_raw(H.multiply_raw(s, xk_power(k - 1)), s)
                memo[k] = _reference_reduce(H, add_multiple(conj, 1, H._mixed_power(k, H.level)), xk_power)
        return memo[k]

    return xk_power


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_IDEMPOTENTS: dict = {}


def _draw_element(data, H):
    """A few basis keys plus several permutations on one shared exponent (up
    to 12 terms), so that ``multiply`` groups terms of its right factor."""
    keys = data.draw(st.lists(st.sampled_from(H.basis), max_size=6, unique=True))
    e = data.draw(st.sampled_from(H.basis))[0]
    perms = data.draw(st.lists(st.sampled_from(sorted({w for _, w in H.basis})), max_size=6, unique=True))
    keys = list(dict.fromkeys(keys + [(e, w) for w in perms]))
    return {k: c for k in keys if (c := data.draw(small_rationals))}


def _draw_factor(data, name):
    """A drawn element or, one time in four, a weight idempotent e(I)."""
    H = _table_algebra(name)
    if data.draw(st.integers(0, 3)):
        return _draw_element(data, H)
    if name not in _IDEMPOTENTS:
        _IDEMPOTENTS[name] = weight_idempotents(H)
    return _IDEMPOTENTS[name][data.draw(st.sampled_from(sorted(_IDEMPOTENTS[name])))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TABLE_CASES)), st.data())
def test_multiply_matches_the_reference_rewriting(name, data):
    H = _table_algebra(name)
    a, b, c = (_draw_factor(data, name) for _ in range(3))
    ab = H.multiply(a, b)
    # each coefficient is an int, or a Fraction with a real denominator
    assert all(v and (type(v) is int or (type(v) is Fraction and v.denominator > 1)) for v in ab.values())
    assert ab == _reference_reduce(H, H.multiply_raw(a, b), _reference_xk_power(H))
    assert H.multiply(ab, c) == H.multiply(a, H.multiply(b, c))
    assert H._right_x and all(type(v) is int for terms in H._right_x.values() for _k, v in terms)
