import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from tensoralg.cartan import b2, sl2, type_a
from tensoralg.laurent import ONE, ZERO, LaurentPoly, qint
from tensoralg.qtensor import MalformedKappaError, TensorSpace, arrangements


def sl2_space(*weights):
    d = sl2()
    return d, TensorSpace(d, tuple(d.weight((w,)) for w in weights))


# -- apply_F / apply_E frozen examples ---------------------------------------------


def test_apply_f_single_factor():
    d, sp = sl2_space(1)
    v = sp.apply_f(0, sp.highest())
    assert v.terms == {((0,),): ONE}


def test_apply_f_two_factors_coproduct():
    # Δ(F)(v ⊗ v) = q^{-1} (Fv) ⊗ v + v ⊗ (Fv)
    d, sp = sl2_space(1, 1)
    v = sp.apply_f(0, sp.highest())
    assert v.terms == {((0,), ()): LaurentPoly.q_power(-1), ((), (0,)): ONE}


def test_apply_f_linear_zero():
    d, sp = sl2_space(1)
    z = sp.highest() - sp.highest()
    assert sp.apply_f(0, z).is_zero()


def test_apply_e_kills_highest():
    d, sp = sl2_space(1)
    assert sp.apply_e(0, sp.highest()).is_zero()


@pytest.mark.parametrize("lam,expect", [(1, qint(1, 1)), (2, qint(2, 1))])
def test_apply_e_commutator_scalar(lam, expect):
    d, sp = sl2_space(lam)
    fv = sp.apply_f(0, sp.highest())
    ev = sp.apply_e(0, fv)
    assert ev.terms == {((),): expect}


# -- vkappa / skappa ------------------------------------------------------------


def test_vkappa_base_and_examples():
    d, sp = sl2_space(1, 1)
    assert sp.vkappa((), (0, 0)).terms == {((), ()): ONE}
    assert sp.vkappa((0,), (0, 1)).terms == {((0,), ()): ONE}
    v = sp.vkappa((0,), (0, 0))
    assert v.terms == {((0,), ()): LaurentPoly.q_power(-1), ((), (0,)): ONE}


def test_vkappa_violating_is_zero():
    d, sp = sl2_space(1, 1)
    assert sp.vkappa((0,), (1, 1)).is_zero()


def test_vkappa_malformed():
    d, sp = sl2_space(1, 1)
    with pytest.raises(MalformedKappaError):
        sp.vkappa((0,), (1, 0))
    with pytest.raises(MalformedKappaError):
        sp.vkappa((0,), (0, 2))


def test_skappa_examples():
    d, sp = sl2_space(1, 1)
    assert sp.skappa((), (0, 0)).terms == {((), ()): ONE}
    assert sp.skappa((0,), (0, 1)).terms == {((0,), ()): ONE}
    assert sp.skappa((0,), (0, 0)).terms == {((), (0,)): ONE}


# -- the form ---------------------------------------------------------------------


def test_form_base_cases():
    d, sp = sl2_space(1, 1)
    assert sp.form_vv(((), (0, 0)), ((), (0, 0))) == ONE
    d1, sp1 = sl2_space(1)
    assert sp1.form_vv(((0,), (0,)), ((0,), (0,))) == ONE


def test_form_weight_orthogonality():
    d, sp = sl2_space(1, 1)
    assert sp.form_vv(((0,), (0, 0)), ((), (0, 0))) == ZERO


def test_form_golden_2x2():
    # the weight-0 block of V_ω ⊗ V_ω, verified by hand against the
    # five-diagram description of the algebra side
    d, sp = sl2_space(1, 1)
    a = ((0,), (0, 0))
    b = ((0,), (0, 1))
    assert sp.form_vv(a, a) == LaurentPoly({0: 1, 2: 1})
    assert sp.form_vv(b, b) == ONE
    assert sp.form_vv(a, b) == LaurentPoly.q_power(1)
    assert sp.form_vv(b, a) == LaurentPoly.q_power(1)


def test_form_single_red_matches_cyclotomic_dims():
    d, sp = sl2_space(2)
    a1 = ((0,), (0,))
    a2 = ((0, 0), (0,))
    assert sp.form_vv(a1, a1) == LaurentPoly({0: 1, 2: 1})
    assert sp.form_vv(a2, a2) == LaurentPoly({-2: 1, 0: 2, 2: 1})
    d1, sp1 = sl2_space(1)
    assert sp1.form_vv(((0, 0), (0,)), ((0, 0), (0,))) == ZERO


def test_form_symmetric_on_spanning_vectors():
    d = type_a(2)
    sp = TensorSpace(d, (d.fundamental_weight(0), d.fundamental_weight(1)))
    keys = sp.spanning_keys(d.root((1, 1)))
    for a in keys:
        for b in keys:
            assert sp.form_vv(a, b) == sp.form_vv(b, a)


def test_adjunction_identity_on_spanning_vectors():
    # form(F_i x, y) = q_i^{-1} q^{<α_i, wt(y)+α_i>} form(x, E_i y), with
    # F_i x realized by appending a letter and E_i y expanded structurally
    d = sl2()
    sp = TensorSpace(d, (d.weight((1,)), d.weight((2,))))
    rng = random.Random(0)
    keys = sp.spanning_keys(d.root((1,))) + sp.spanning_keys(d.root((2,)))
    for _ in range(20):
        x = rng.choice(keys)
        y = rng.choice(keys)
        fx = (x[0] + (0,), x[1])
        lhs = sp.form_vv(fx, y)
        mu = sp.vkey_weight(y)
        exp = -d.sym[0] + d.root_pairing_coeff(0, mu) + 2 * d.sym[0]
        rhs = ZERO
        for c, key in sp.e_expand(0, y):
            rhs = rhs + c * sp.form_vv(x, key)
        assert lhs == LaurentPoly.q_power(exp) * rhs


def test_commutator_scalar_on_gram_quotient():
    # (E_i F_i - F_i E_i) acts on the weight-μ space as [α_i^∨(μ)], seen
    # through forms against the spanning vectors
    from tensoralg.laurent import qint_signed

    d = sl2()
    sp = TensorSpace(d, (d.weight((1,)), d.weight((2,))))
    for content in [(1,), (2,)]:
        keys = sp.spanning_keys(d.root(content))
        for b in keys:
            mu = sp.vkey_weight(b)
            scal = qint_signed(mu.coords[0], d.sym[0])
            for a in keys:
                # E F b: append the letter, then expand E structurally
                fb = (b[0] + (0,), b[1])
                ef = ZERO
                for c, k2 in sp.e_expand(0, fb):
                    ef = ef + c * sp.form_vv(a, k2)
                # F E b: expand E, then append the letter to each term
                fe = ZERO
                for c, k2 in sp.e_expand(0, b):
                    fe = fe + c * sp.form_vv(a, (k2[0] + (0,), k2[1]))
                assert ef - fe == scal * sp.form_vv(a, b), (a, b)


def test_e_expand_matches_apply_e():
    # structural expansion of E on v-vectors against the raw coproduct action
    for datum, lams, content in [
        (sl2(), ((1,), (1,)), (2,)),
        (sl2(), ((2,),), (2,)),
        (type_a(2), ((1, 0), (0, 1)), (1, 1)),
    ]:
        d = datum
        sp = TensorSpace(d, tuple(d.weight(l) for l in lams))
        for key in sp.spanning_keys(d.root(content)):
            v = sp.vkappa(*key)
            for i in range(d.rank):
                direct = sp.apply_e(i, v)
                expanded = sp.apply_e(i, sp.highest()) - sp.apply_e(i, sp.highest())
                for c, k2 in sp.e_expand(i, key):
                    expanded = expanded + sp.vkappa(*k2).scale(c)
                assert direct.terms == expanded.terms, (key, i)


def test_isometry_under_appending_highest_factor():
    d = sl2()
    sp2 = TensorSpace(d, (d.weight((1,)), d.weight((2,))))
    sp3 = TensorSpace(d, (d.weight((1,)), d.weight((2,)), d.weight((1,))))
    keys = sp2.spanning_keys(d.root((2,)))
    for a in keys:
        for b in keys:
            a3 = (a[0], a[1] + (len(a[0]),))
            b3 = (b[0], b[1] + (len(b[0]),))
            assert sp2.form_vv(a, b) == sp3.form_vv(a3, b3)


# -- weight dims against an independent character oracle ---------------------------


def sl2_tensor_char(weights):
    """Weight multiplicities of ⊗ V_{w} by direct character product."""
    char = Counter({0: 1})
    for w in weights:
        new = Counter()
        for mu, m in char.items():
            for k in range(-w, w + 1, 2):
                new[mu + k] += m
        char = new
    return char


@pytest.mark.parametrize("weights", [(1, 1), (2,), (2, 1), (1, 1, 1)])
def test_weight_dim_against_characters(weights):
    d = sl2()
    sp = TensorSpace(d, tuple(d.weight((w,)) for w in weights))
    char = sl2_tensor_char(weights)
    total = sum(weights)
    for mu, mult in sorted(char.items()):
        assert sp.weight_dim(d.weight((mu,))) == mult, mu
    assert sp.weight_dim(d.weight((total + 2,))) == 0


def test_weight_dim_a2_adjoint():
    # V_{ω1} ⊗ V_{ω2} = adjoint ⊕ trivial for sl3: the zero weight space
    # has dimension 3 (2 Cartan directions + 1 from the trivial summand)
    d = type_a(2)
    sp = TensorSpace(d, (d.fundamental_weight(0), d.fundamental_weight(1)))
    assert sp.weight_dim(d.weight((0, 0))) == 3
    assert sp.weight_dim(d.weight((1, 1))) == 1
    assert sp.weight_dim(d.weight((-1, -1))) == 1


# -- filtration identity -------------------------------------------------------------


@pytest.mark.parametrize(
    "lams,I,kappa",
    [
        (((1,), (1,)), (0,), (0, 0)),
        (((1,), (1,)), (0,), (0, 1)),
        (((1,), (1,)), (0, 0), (0, 0)),
        (((2,), (1,)), (0, 0), (0, 1)),
    ],
)
def test_filtration_identity_sl2(lams, I, kappa):
    d = sl2()
    sp = TensorSpace(d, tuple(d.weight(l) for l in lams))
    ok, cert = sp.filtration_identity(I, kappa)
    assert ok
    assert cert["layers"][0]["deg"] == 0  # identity layer first


def test_filtration_identity_b2():
    d = b2()
    sp = TensorSpace(d, (d.weight((1, 0)), d.weight((0, 1))))
    ok, _ = sp.filtration_identity((0, 1), (0, 1))
    assert ok


def test_s_in_v_unitriangular():
    d, sp = sl2_space(1, 1)
    exp = sp.s_in_v((0,), (0, 0))
    assert exp[((0,), (0, 0))] == ONE
    assert exp[((0,), (0, 1))] == -LaurentPoly.q_power(-1)


@given(st.lists(st.integers(0, 2), max_size=6))
def test_arrangements_are_the_sorted_distinct_permutations(letters):
    assert list(arrangements(letters)) == sorted(set(permutations(letters)))


@given(st.lists(st.integers(0, 2), max_size=4), st.integers(0, 3))
def test_spanning_and_violating_keys_split_every_idempotent(coords_list, ell):
    """Every (I, κ) with κ weakly increasing in [0, n] is either nonzero
    (κ(1) = 0, or no reds and no blacks) or violating (κ(1) >= 1), and
    each list is in lexicographic order."""
    d = type_a(3)
    coords = (coords_list + [0, 0, 0])[:3]
    sp = TensorSpace(d, tuple(d.fundamental_weight(0) for _ in range(ell)))
    alpha = d.root(coords)
    letters = alpha.letters()
    assert d.content(letters) == alpha
    n = len(letters)
    every = sorted(
        (I, k)
        for I in set(permutations(letters))
        for k in product(range(n + 1), repeat=ell)
        if list(k) == sorted(k)
    )
    nonzero = [(I, k) for I, k in every if (k[0] == 0 if k else n == 0)]
    violating = [(I, k) for I, k in every if k and k[0] >= 1]
    assert sp.spanning_keys(alpha) == nonzero
    assert sp.violating_keys(alpha) == violating
