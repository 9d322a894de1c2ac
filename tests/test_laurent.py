import random

import pytest
from hypothesis import given, strategies as st

from tensoralg.laurent import ONE, ZERO, LaurentPoly, qint, qint_signed


def rand_poly(rng, span=6, terms=4):
    return LaurentPoly({rng.randrange(-span, span + 1): rng.randrange(-5, 6) for _ in range(terms)})


def test_units_and_identities():
    q = LaurentPoly.q_power(1)
    qinv = LaurentPoly.q_power(-1)
    assert q * qinv == ONE
    a = LaurentPoly({3: 2, -1: 5})
    assert a + ZERO == a
    assert a * ONE == a


def test_expansion_example():
    s = LaurentPoly({1: 1, -1: 1})
    assert (s * s) == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert a - a == ZERO


def test_bar_is_ring_involution():
    rng = random.Random(1)
    for _ in range(30):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


@pytest.mark.parametrize(
    "n,d,expect",
    [
        (2, 1, {1: 1, -1: 1}),
        (1, 3, {0: 1}),
        (3, 1, {2: 1, 0: 1, -2: 1}),
        (0, 1, {}),
    ],
)
def test_qint_values(n, d, expect):
    assert qint(n, d) == LaurentPoly(expect)


def test_qint_rejects_negative():
    with pytest.raises(ValueError):
        qint(-1, 1)
    assert qint_signed(-2, 1) == -qint(2, 1)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=3))
def test_qint_product_identity(n, d):
    lhs = qint(n, d) * (LaurentPoly.q_power(d) - LaurentPoly.q_power(-d))
    rhs = LaurentPoly.q_power(d * n) - LaurentPoly.q_power(-d * n)
    assert lhs == rhs


def test_qint_bar_invariant_and_eval():
    for n in range(8):
        p = qint(n, 2)
        assert p.is_bar_invariant()
        assert p.eval_at_1() == n


def test_eval_examples():
    assert LaurentPoly({1: 1, -1: 1}).eval_at_1() == 2
    assert ZERO.eval_at_1() == 0
    assert LaurentPoly({5: 1}).eval_at_1() == 1


def test_text_rendering_and_json():
    p = LaurentPoly({-2: 1, 0: 3, 2: 1})
    assert p.text() == "q^-2 + 3 + q^2"
    assert p.to_json() == [[-2, 1], [0, 3], [2, 1]]
    assert ZERO.text() == "0"
    assert LaurentPoly({1: -2, 0: 1}).text() == "1 - 2*q"
