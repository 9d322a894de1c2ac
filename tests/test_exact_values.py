"""Over Q a stored value is an ``int``, or a ``Fraction`` with a real
denominator, and never a ``float``; over GF(p) it is a ``GFElement``.

The CLI runs below record every ``QuotientBlock``, simple module, Hecke
weight idempotent and ``IncrementalRREF`` they make, and every value those
hold is checked.
"""

from fractions import Fraction

import pytest

from tensoralg import hecke, linalg, modules, workbench
from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, QuotientBlock
from tensoralg.linalg import IncrementalRREF
from tensoralg.modules import radical
from tensoralg.scalars import QQ, GFElement, PrimeField, exact
from tensoralg.spectral import spectral_idempotents


def is_exact(v) -> bool:
    """v is a rational stored as an ``int`` (not a ``bool``), or as a
    ``Fraction`` whose denominator is above 1."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _values(rows):
    """Every value of an iterable of sparse rows."""
    return [x for row in rows for x in row.values()]


@pytest.fixture
def recorded(monkeypatch):
    """Spies on the objects a run makes: the quotient blocks, the simples,
    the Hecke weight idempotents and every ``IncrementalRREF``."""
    seen = {"blocks": [], "simples": [], "idempotents": [], "rrefs": {}}
    build, simples, weight_idempotents, add = (
        QuotientBlock._build,
        modules.simples,
        hecke.weight_idempotents,
        IncrementalRREF.add,
    )

    def spy_build(self):
        seen["blocks"].append(self)
        return build(self)

    def spy_simples(block):
        out = simples(block)
        seen["simples"].extend(out)
        return out

    def spy_weight_idempotents(H):
        out = weight_idempotents(H)
        seen["idempotents"].extend(out.values())
        return out

    def spy_add(self, row):
        seen["rrefs"][id(self)] = self
        return add(self, row)

    monkeypatch.setattr(QuotientBlock, "_build", spy_build)
    monkeypatch.setattr(modules, "simples", spy_simples)
    monkeypatch.setattr(hecke, "weight_idempotents", spy_weight_idempotents)
    monkeypatch.setattr(linalg.IncrementalRREF, "add", spy_add)
    return seen


def _held_values(rrefs):
    """Every value of every held row and pivot row of the recorded
    reductions."""
    return [x for inc in rrefs.values() for x in _values(inc.rows) + _values(inc.pivot_rows.values())]


def test_crystal_holds_exact_rationals(recorded, capsys):
    args = ["--datum", "sl2", "--lambda", "1;1;1", "--task", "crystal", "--max-strands", "2"]
    assert workbench.main(args) == 0
    capsys.readouterr()
    blocks, simples = recorded["blocks"], recorded["simples"]
    assert blocks and simples and recorded["rrefs"]
    mult = _values(m for b in blocks for m in b._mult.values())
    rad = [x for b in blocks for x in _values(radical(b))]
    chars = [n for S in simples for n in S.character.values()]
    held = _held_values(recorded["rrefs"])
    assert mult and rad and chars and held
    for values in (mult, rad, held):
        assert all(is_exact(x) and x for x in values)
    assert all(type(n) is int and n > 0 for n in chars)


def test_hecke_check_holds_exact_rationals(recorded, capsys):
    args = ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "3"]
    assert workbench.main(args) == 0
    capsys.readouterr()
    idems = _values(recorded["idempotents"])
    held = _held_values(recorded["rrefs"])
    assert idems and held
    assert all(is_exact(x) and x for x in idems + held)
    assert any(type(x) is Fraction for x in idems)


def test_prime_field_blocks_hold_only_prime_field_values(recorded):
    d = sl2()
    gf = PrimeField(7)
    comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight((1,)) for _ in range(3)), gf)
    for n in (1, 2):
        QuotientBlock(comp, d.root((n,)))
    mult = _values(m for b in recorded["blocks"] for m in b._mult.values())
    held = _held_values(recorded["rrefs"])
    assert mult and held
    assert all(type(x) is GFElement and x.p == 7 and x for x in mult + held)


def test_rational_inverse():
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(Fraction(-1, 2)) == -2 and type(QQ.inv(Fraction(-1, 2))) is int
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


def test_prime_field_inverse():
    gf = PrimeField(7)
    for n in range(1, 7):
        x = gf.from_int(n)
        assert gf.inv(x) * x == gf.one()
    with pytest.raises(ZeroDivisionError):
        gf.inv(gf.from_int(0))


def test_exact_turns_a_cancelled_fraction_into_its_numerator():
    assert type(exact(Fraction(1, 2) + Fraction(1, 2))) is int
    assert exact(Fraction(4, -2)) == -2 and type(exact(Fraction(4, -2))) is int
    assert type(exact(Fraction(1, 2))) is Fraction
    x = GFElement(3, 7)
    assert exact(x) is x


def test_integer_spectrum_splits_to_integer_idempotents():
    # x = [[1, 1], [0, 2]] on M_2(Q): roots 1 and 2, whose idempotents
    # [[1, -1], [0, 0]] and [[0, 1], [0, 1]] have integer entries
    x = {(0, 0): 1, (0, 1): 1, (1, 1): 2}

    def times_x(p):
        out = {}
        for (i, k), a in p.items():
            for (k2, j), b in x.items():
                if k == k2:
                    linalg.add_multiple(out, a * b, {(i, j): 1})
        return out

    split = spectral_idempotents({(0, 0): 1, (1, 1): 1}, times_x)
    assert [(v, m) for v, m, _e in split] == [(1, 1), (2, 1)]
    assert [e for _v, _m, e in split] == [{(0, 0): 1, (0, 1): -1}, {(0, 1): 1, (1, 1): 1}]
    assert all(type(v) is int for v, _m, _e in split)
    assert all(type(c) is int for _v, _m, e in split for c in e.values())
    # a rational root keeps its Fraction, and the idempotents stay exact
    diagonal = {0: Fraction(1, 2), 1: 2}
    split = spectral_idempotents({0: 1, 1: 1}, lambda p: {j: a * diagonal[j] for j, a in p.items()})
    assert [(v, m) for v, m, _e in split] == [(Fraction(1, 2), 1), (2, 1)]
    assert all(is_exact(c) for _v, _m, e in split for c in e.values())
