import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tensoralg.laurent import LaurentPoly
from tensoralg.linalg import (
    IncrementalRREF,
    add_multiple,
    laurent_rank,
    nullspace,
    rank,
    rational_roots,
    reduce_against,
    row_reduce,
    solve,
    spectral_idempotents,
)
from tensoralg.scalars import QQ, PrimeField


def F(x):
    return Fraction(x)


def sparse(row):
    """A dense row as a sparse {column: value} row."""
    return {c: x for c, x in enumerate(row) if x}


def dense(row, ncols, field=QQ):
    out = [field.from_int(0)] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def test_row_reduce_and_rank():
    rows = [sparse(r) for r in [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]]
    rref, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert rank(rows, QQ) == 2
    assert not reduce_against(sparse([F(1), F(3), F(4)]), dict(zip(piv, rref)))
    assert reduce_against(sparse([F(0), F(0), F(1)]), dict(zip(piv, rref)))


def test_nullspace_and_solve():
    rows = [sparse(r) for r in [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]]
    null = nullspace(rows, 3, QQ)
    assert len(null) == 1
    v = dense(null[0], 3)
    for r in rows:
        assert sum(a * b for a, b in zip(dense(r, 3), v)) == 0
    sol = solve(rows, sparse([F(1), F(2), F(1)]), QQ)
    assert sol is not None
    sol = dense(sol, 2)
    dense_rows = [dense(r, 3) for r in rows]
    assert [sol[0] * dense_rows[0][c] + sol[1] * dense_rows[1][c] for c in range(3)] == [F(1), F(2), F(1)]
    assert solve(rows, sparse([F(0), F(0), F(1)]), QQ) is None


def test_prime_field_reduction():
    gf = PrimeField(5)
    rows = [sparse(r) for r in [[gf.from_int(2), gf.from_int(1)], [gf.from_int(4), gf.from_int(2)]]]
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
        inv = field.inv(m[r][c])
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
        v = [field.from_int(0)] * ncols
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
    ncols = len(rows[0]) if rows else 0
    sparse_rows = [sparse(r) for r in rows]
    rref, pivots = row_reduce(sparse_rows, field)
    assert ([dense(r, ncols, field) for r in rref], pivots) == want
    assert rank(sparse_rows, field) == len(want[1])
    if not rows:
        return
    got_null = [dense(v, ncols, field) for v in nullspace(sparse_rows, ncols, field)]
    assert got_null == _reference_nullspace(rows, field)
    # solve reads the RREF of the augmented transpose [rows^T | rhs]
    for rhs in ([field.from_int(x) for x in rhs_ints[:ncols]], [sum(col) for col in zip(*rows)]):
        aug = [[rows[j][c] for j in range(len(rows))] + [rhs[c]] for c in range(ncols)]
        rref, pivots = _reference_rref(aug, field)
        x = solve(sparse_rows, sparse(rhs), field)
        if len(rows) in pivots:
            assert x is None
        else:
            assert x is not None
            x = dense(x, len(rows), field)
            want_x = [field.from_int(0)] * len(rows)
            for row, pc in zip(rref, pivots):
                want_x[pc] = row[-1]
            assert x == want_x
            assert [sum((xj * r[c] for xj, r in zip(x, rows)), field.from_int(0)) for c in range(ncols)] == rhs


def test_incremental_matches_batch():
    rng = random.Random(0)
    for field in FIELDS:
        for _ in range(20):
            rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(5)] for _ in range(7)]
            inc = IncrementalRREF(field)
            for k, r in enumerate(rows):
                before = inc.rank
                grew = inc.add(sparse(r))
                # after every row the space is the reduced echelon form of the prefix
                held = [dense(row, 5, field) for row in inc.rows]
                assert (held, inc.pivots) == _reference_rref(rows[: k + 1], field)
                assert grew == (inc.rank == before + 1)
            assert (inc.rows, inc.pivots) == row_reduce([sparse(r) for r in rows], field)
            for r in rows:
                assert not reduce_against(sparse(r), inc.pivot_rows)


def _reference_remainder(vec, rref, pivots):
    """Dense elimination of ``vec`` by every reduced row in turn."""
    v = list(vec)
    for row, c in zip(rref, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return v


@st.composite
def sparse_int_rows(draw, max_rows=10):
    """(ncols, rows, probe): sparse integer rows whose values are nonzero
    over Q and over GF(7), plus one more sparse row to reduce."""
    ncols = draw(st.integers(1, 12))
    value = st.integers(-13, 13).filter(lambda x: x % 7)
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=min(ncols, 4))
    return ncols, draw(st.lists(row, max_size=max_rows)), draw(row)


@settings(max_examples=200, deadline=None)
@given(sparse_int_rows(), st.sampled_from(FIELDS))
def test_sparse_elimination_matches_the_dense_reference(spec, field):
    ncols, int_rows, int_probe = spec
    rows = [{c: field.from_int(x) for c, x in r.items()} for r in int_rows]
    probe = {c: field.from_int(x) for c, x in int_probe.items()}
    inc = IncrementalRREF(field)
    for k, r in enumerate(rows):
        offered = dict(r)
        inc.add(r)
        assert r == offered
        held = [dense(row, ncols, field) for row in inc.rows]
        prefix = [dense(x, ncols, field) for x in rows[: k + 1]]
        assert (held, inc.pivots) == _reference_rref(prefix, field)
        assert inc.pivot_rows == dict(zip(inc.pivots, inc.rows))
        assert all(x for row in inc.rows for x in row.values())
        rem = reduce_against(probe, inc.pivot_rows)
        assert all(rem.values())
        assert dense(rem, ncols, field) == _reference_remainder(dense(probe, ncols, field), held, inc.pivots)


class _Integers:
    """ℤ as plain ``int``, the engine's coefficients."""

    @staticmethod
    def from_int(n):
        return n


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([_Integers, QQ, PrimeField(7)]),
    st.dictionaries(st.integers(0, 7), st.integers(-9, 9), max_size=6),
    st.dictionaries(st.integers(0, 7), st.integers(-9, 9), max_size=6),
    st.integers(-9, 9),
)
def test_add_multiple_matches_the_dense_sum(field, v_ints, row_ints, f_int):
    # sparse rows store no zero, in the field as well as over ℤ
    v = {k: field.from_int(x) for k, x in v_ints.items() if field.from_int(x)}
    row = {k: field.from_int(x) for k, x in row_ints.items() if field.from_int(x)}
    f = field.from_int(f_int)
    before, row_before = dict(v), dict(row)
    out = add_multiple(v, f, row)
    assert out is v
    assert row == row_before
    assert all(out.values())
    want = [before.get(k, field.from_int(0)) + f * row.get(k, field.from_int(0)) for k in range(8)]
    assert dense(out, 8, field) == want
    if not f:
        assert out == before


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
        assert r >= rank([sparse(row) for row in spec], QQ)


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


def test_spectral_idempotents_of_a_diagonal_action():
    diag = [F(1), F(1), F(2)]

    def times_diag(v):
        return {c: diag[c] * x for c, x in v.items()}

    # minimal polynomial (t - 1)(t - 2): two simple roots
    split = spectral_idempotents(sparse([F(1)] * 3), times_diag)
    assert [(r, m) for r, m, _e in split] == [(F(1), 1), (F(2), 1)]
    assert [e for _r, _m, e in split] == [sparse([F(1), F(1), F(0)]), sparse([F(0), F(0), F(1)])]
    # the cyclic space of (1, 1, 0) only sees the eigenvalue 1
    start = sparse([F(1), F(1), F(0)])
    assert spectral_idempotents(start, times_diag) == [(F(1), 1, start)]


def _mat_mul(a, b):
    """Product of two sparse matrices keyed by (row, column)."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                add_multiple(out, x, {(i, j): y})
    return out


def _check_spectral_split(x, n):
    """The split of x on M_n(Q) (start the unit, times_x right
    multiplication) is a set of pairwise orthogonal idempotents summing to
    the unit, one per root, each killed by (x − v)^m; returns it."""
    unit = {(i, i): F(1) for i in range(n)}
    split = spectral_idempotents(unit, lambda p: _mat_mul(p, x))
    assert split is not None
    total = {}
    for v, m, e in split:
        assert e and _mat_mul(e, e) == e
        for u, _mu, f in split:
            if u != v:
                assert _mat_mul(e, f) == {}
        add_multiple(total, F(1), e)
        shifted = add_multiple(dict(x), -v, unit)
        power = e
        for _ in range(m):
            power = _mat_mul(power, shifted)
        assert power == {}
    assert total == unit
    return split


def test_spectral_idempotents_split_a_repeated_root():
    # x = E11 + E22 + E12 has μ = t(t − 1)²: a Jordan block at 1 beside 0,
    # where a Lagrange product is not idempotent
    x = {(0, 0): F(1), (1, 1): F(1), (0, 1): F(1)}
    split = _check_spectral_split(x, 3)
    assert sorted((v, m) for v, m, _e in split) == [(F(0), 1), (F(1), 2)]
    assert dict((v, e) for v, _m, e in split)[F(1)] == {(0, 0): F(1), (1, 1): F(1)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=3, max_size=3), st.lists(small_rationals, min_size=3, max_size=3))
def test_spectral_idempotents_of_a_triangular_matrix(upper, diagonal):
    # an upper triangular x splits over Q with roots among its diagonal;
    # repeated diagonal entries with a nonzero entry above give Jordan blocks
    entries = zip([(0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2)], [F(a) for a in upper] + diagonal)
    x = {ij: a for ij, a in entries if a}
    split = _check_spectral_split(x, 3)
    assert Counter({v: m for v, m, _e in split}) <= Counter(diagonal)


def test_spectral_idempotents_reject_a_polynomial_that_does_not_split():
    # rotation by 90°: μ = t² + 1
    x = {(0, 1): F(-1), (1, 0): F(1)}
    assert spectral_idempotents({(0, 0): F(1), (1, 1): F(1)}, lambda p: _mat_mul(p, x)) is None
