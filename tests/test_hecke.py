from fractions import Fraction

import pytest

from tensoralg.cartan import default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import BlockComputer
from tensoralg.hecke import HeckeAlgebra, bk_check, weight_idempotents, x_spectra


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
        rhs = H.add(H.multiply(H.gen_x(i + 1), s), H.scale(one, Fraction(-1)))
        assert lhs == rhs
        # s_i x_{i+1} = x_i s_i + 1
        lhs = H.multiply(s, H.gen_x(i + 1))
        rhs = H.add(H.multiply(H.gen_x(i), s), one)
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
    total = H.zero()
    keys = sorted(ids)
    for k in keys:
        e = ids[k]
        assert H.multiply(e, e) == e
        total = H.add(total, e)
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


def test_bk_certificate_sl2():
    d = sl2()
    q = default_q_matrix(d)
    for coords in [(1,), (2,)]:
        lam = d.weight(coords)
        comp = BlockComputer(d, q, (lam,))
        for dd in (1, 2):
            H = HeckeAlgebra(d, lam, dd)
            dims = {}
            keys = comp.idems(d.root((dd,)))
            for a in keys:
                for b in keys:
                    dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
            rep = bk_check(H, d, lam, dims)
            assert rep["ok"], rep


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
    total = H.zero()
    for e in ids.values():
        assert H.multiply(e, e) == e
        total = H.add(total, e)
    assert total == H.one()


def test_bk_certificate_sl3_fundamental():
    d = type_a(2)
    q = default_q_matrix(d)
    lam = d.fundamental_weight(0)
    comp = BlockComputer(d, q, (lam,))
    for dd in (1, 2):
        H = HeckeAlgebra(d, lam, dd)
        dims = {}
        for coords in [(c1, dd - c1) for c1 in range(dd + 1)]:
            keys = comp.idems(d.root(coords))
            for a in keys:
                for b in keys:
                    dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
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
        cols = [H.to_vector(H.multiply(x, {b: Fraction(1)})) for b in H.basis]
        mat = [[cols[j][i] for j in range(H.dim())] for i in range(H.dim())]
        assert not any(any(row) for row in _apply_poly(mat, roots))
        # no proper monic divisor annihilates: drop one factor of each root
        for t, (r, m) in enumerate(roots):
            smaller = roots[:t] + [(r, m - 1)] + roots[t + 1:]
            assert any(any(row) for row in _apply_poly(mat, smaller))
