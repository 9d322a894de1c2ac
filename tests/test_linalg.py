import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tensoralg.laurent import LaurentPoly
from tensoralg.linalg import (
    IncrementalRREF,
    laurent_rank,
    min_poly,
    nullspace,
    rank,
    rational_roots,
    reduce_against,
    row_reduce,
    solve,
)
from tensoralg.scalars import QQ, PrimeField


def F(x):
    return Fraction(x)


def test_row_reduce_and_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    rref, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert rank(rows, QQ) == 2
    assert not any(reduce_against([F(1), F(3), F(4)], rref, piv))
    assert any(reduce_against([F(0), F(0), F(1)], rref, piv))


def test_nullspace_and_solve():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    null = nullspace(rows, QQ)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) == 0
    sol = solve(rows, [F(1), F(2), F(1)], QQ)
    assert sol is not None
    assert [sol[0] * rows[0][c] + sol[1] * rows[1][c] for c in range(3)] == [F(1), F(2), F(1)]
    assert solve(rows, [F(0), F(0), F(1)], QQ) is None


def test_prime_field_reduction():
    gf = PrimeField(5)
    rows = [[gf.from_int(2), gf.from_int(1)], [gf.from_int(4), gf.from_int(2)]]
    assert rank(rows, gf) == 1


def _reference_rref(rows, field):
    """Column-by-column Gauss–Jordan elimination of the whole matrix."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one() / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _reference_nullspace(rows, field):
    ncols = len(rows[0])
    rref, pivots = _reference_rref(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


FIELDS = [QQ, PrimeField(7)]


@st.composite
def int_matrices(draw, max_rows=7):
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.sampled_from(FIELDS), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_elimination_matches_reference_gauss_jordan(ints, field, rhs_ints):
    rows = [[field.from_int(x) for x in r] for r in ints]
    want = _reference_rref(rows, field)
    assert row_reduce(rows, field) == want
    assert rank(rows, field) == len(want[1])
    if not rows:
        return
    ncols = len(rows[0])
    assert nullspace(rows, field) == _reference_nullspace(rows, field)
    # solve reads the RREF of the augmented transpose [rows^T | rhs]
    for rhs in ([field.from_int(x) for x in rhs_ints[:ncols]], [sum(col) for col in zip(*rows)]):
        aug = [[rows[j][c] for j in range(len(rows))] + [rhs[c]] for c in range(ncols)]
        rref, pivots = _reference_rref(aug, field)
        x = solve(rows, rhs, field)
        if len(rows) in pivots:
            assert x is None
        else:
            assert x is not None
            want_x = [field.zero()] * len(rows)
            for row, pc in zip(rref, pivots):
                want_x[pc] = row[-1]
            assert x == want_x
            assert [sum((xj * r[c] for xj, r in zip(x, rows)), field.zero()) for c in range(ncols)] == rhs


def test_incremental_matches_batch():
    rng = random.Random(0)
    for field in FIELDS:
        for _ in range(20):
            rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(5)] for _ in range(7)]
            inc = IncrementalRREF(field)
            for k, r in enumerate(rows):
                before = inc.rank
                grew = inc.add(r)
                # after every row the space is the reduced echelon form of the prefix
                assert (inc.rows, inc.pivots) == _reference_rref(rows[: k + 1], field)
                assert grew == (inc.rank == before + 1)
            assert (inc.rows, inc.pivots) == row_reduce(rows, field)
            for r in rows:
                assert not any(reduce_against(r, inc.rows, inc.pivots))


def test_laurent_rank_vs_rational_specialization():
    rng = random.Random(1)
    # Generic Laurent matrices have the same rank as a rational sample at
    # q = 2 unless degeneration happens; build matrices from products so
    # the specialization check is a genuine lower bound.
    for _ in range(10):
        rows = []
        for _i in range(4):
            rows.append(
                [
                    LaurentPoly({rng.randrange(-2, 3): rng.randrange(-2, 3) for _ in range(2)})
                    for _j in range(4)
                ]
            )
        r = laurent_rank(rows)
        spec = [[sum(c * Fraction(2) ** e for e, c in zip([e for e, _ in p.to_json()], [c for _, c in p.to_json()])) for p in row] for row in rows]
        assert r >= rank(spec, QQ)


def test_laurent_rank_exact_cases():
    one = LaurentPoly.one()
    q = LaurentPoly.q_power(1)
    assert laurent_rank([[one, q], [q, q * q]]) == 1
    assert laurent_rank([[one, q], [q, one]]) == 2
    assert laurent_rank([]) == 0


def _times_linear(coeffs, r):
    """coeffs(t) * (t - r), coefficients low to high."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= c * r
    return out


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(small_rationals, st.integers(1, 3)), max_size=4),
    small_rationals.filter(bool),
)
def test_rational_roots_recovers_the_multiset(factors, lead):
    coeffs = [lead]
    want = Counter()
    for r, m in factors:
        want[r] += m
        for _ in range(m):
            coeffs = _times_linear(coeffs, r)
    got = rational_roots(coeffs)
    assert got is not None
    assert len({r for r, _m in got}) == len(got)
    assert Counter(dict(got)) == want


def test_rational_roots_rejects_a_polynomial_that_does_not_split():
    assert rational_roots([F(-2), F(0), F(1)]) is None
    # (t^2 - 2)(t - 1): one rational root, then an irreducible quadratic
    assert rational_roots(_times_linear([F(-2), F(0), F(1)], F(1))) is None


def test_min_poly_of_a_diagonal_action():
    diag = [F(1), F(1), F(2)]
    mp = min_poly([F(1)] * 3, lambda v: [d * x for d, x in zip(diag, v)])
    assert mp == _times_linear(_times_linear([F(1)], F(1)), F(2))
    # the cyclic space of (1, 1, 0) only sees the eigenvalue 1
    assert min_poly([F(1), F(1), F(0)], lambda v: [d * x for d, x in zip(diag, v)]) == [F(-1), F(1)]
