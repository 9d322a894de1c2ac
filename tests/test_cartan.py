import json
import random

import pytest

from tensoralg.cartan import (
    CartanDataError,
    CartanDatum,
    DatumMismatchError,
    QMatrix,
    a1_x_a1,
    b2,
    default_q_matrix,
    load_datum_file,
    sl2,
    type_a,
)


def test_pairing_examples():
    d = sl2()
    alpha = d.simple_root(0)
    omega = d.fundamental_weight(0)
    assert d.pairing(alpha, alpha) == 2
    assert d.pairing(alpha, omega) == 1
    a2 = type_a(2)
    assert a2.pairing(a2.simple_root(0), a2.simple_root(1)) == -1


def test_pairing_symmetry_and_coroot_normalization():
    rng = random.Random(0)
    for datum in (sl2(), type_a(3), b2(), a1_x_a1()):
        for _ in range(10):
            lam = datum.weight([rng.randrange(-3, 4) for _ in range(datum.rank)])
            for i in range(datum.rank):
                ai = datum.simple_root(i)
                assert datum.pairing(ai, lam) == datum.sym[i] * lam.coords[i]
            a = datum.root([rng.randrange(-2, 3) for _ in range(datum.rank)])
            b = datum.root([rng.randrange(-2, 3) for _ in range(datum.rank)])
            assert datum.pairing(a, b) == datum.pairing(b, a)


def test_datum_mismatch_rejected():
    with pytest.raises(DatumMismatchError):
        sl2().pairing(sl2().simple_root(0), type_a(2).simple_root(0))


def test_weights_and_roots_are_values():
    d = type_a(2)
    w, r = d.weight((1, -1)), d.root((1, -1))
    assert w == type_a(2).weight([1, -1]) and hash(w) == hash(type_a(2).weight([1, -1]))
    assert r == type_a(2).root([1, -1]) and hash(r) == hash(type_a(2).root([1, -1]))
    assert w != d.weight((1, 0)) and r != d.root((1, 0))
    assert w != r and r != w
    assert w != b2().weight((1, -1))
    assert len({w, r, d.weight((1, -1))}) == 2
    assert repr(w) == "Weight(datum=CartanDatum(nodes=['1', '2']), coords=(1, -1))"
    assert repr(r) == "RootVector(datum=CartanDatum(nodes=['1', '2']), coords=(1, -1))"
    assert w + w == d.weight((2, -2)) and r - r == d.root((0, 0))
    assert d.simple_root(0).to_weight() == d.weight((2, -1))
    with pytest.raises(DatumMismatchError):
        d.weight((1,))
    with pytest.raises(DatumMismatchError):
        d.root((1, 0, 0))
    for v in (w, r):
        with pytest.raises(AttributeError):
            v.coords = (0, 0)
        with pytest.raises(AttributeError):
            v.datum = sl2()
        with pytest.raises(AttributeError):
            v.extra = 1
        with pytest.raises(AttributeError):
            del v.coords
    assert w.coords == (1, -1) and w.datum is d


def test_invalid_cartan_data():
    with pytest.raises(CartanDataError):
        CartanDatum(["1"], [[1]], [1])
    with pytest.raises(CartanDataError):
        CartanDatum(["1", "2"], [[2, 1], [1, 2]], [1, 1])
    with pytest.raises(CartanDataError):
        CartanDatum(["1", "2"], [[2, -1], [0, 2]], [1, 1])
    with pytest.raises(CartanDataError):
        # not symmetrizable by these d's
        CartanDatum(["1", "2"], [[2, -2], [-1, 2]], [1, 1])


def test_default_q_examples():
    a2 = type_a(2)
    q = default_q_matrix(a2)
    assert q.entry(0, 1) == {(1, 0): 1, (0, 1): 1}  # u + v
    assert q.entry(0, 0) == {}
    ax = a1_x_a1()
    qx = default_q_matrix(ax)
    assert qx.entry(0, 1) == {(0, 0): 1}  # orthogonal nodes: Q_ij = 1


def test_q_matrix_invariants_scanned():
    for datum in (type_a(2), type_a(3), b2()):
        q = default_q_matrix(datum)
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i == j:
                    continue
                pij = q.entry(i, j)
                assert {(b, a): c for (a, b), c in pij.items()} == q.entry(j, i)
                target = -2 * datum.sym[j] * datum.cartan[i][j]
                for (a, b), _c in pij.items():
                    assert 2 * datum.sym[i] * a + 2 * datum.sym[j] * b == target
                assert q.t(i, j) != 0


def test_q_matrix_rejects_zero_tij():
    a2 = type_a(2)
    with pytest.raises(CartanDataError):
        QMatrix(a2, {(0, 1): {(0, 1): 1}, (1, 0): {(1, 0): 1}})


def test_json_roundtrip(tmp_path):
    datum = b2()
    q = default_q_matrix(datum)
    blob = datum.to_json()
    blob["Q"] = q.to_json()
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(blob))
    d2, q2 = load_datum_file(str(path))
    assert d2 == datum
    assert q2.entries == q.entries


def test_root_to_weight():
    a2 = type_a(2)
    alpha1 = a2.simple_root(0)
    wt = alpha1.to_weight()
    assert wt.coords == (2, -1)
    assert a2.root((1, 1)).height() == 2
