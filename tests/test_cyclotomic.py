import functools
import json
from pathlib import Path

import pytest

from tensoralg.cartan import default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import (
    BlockComputer,
    QuotientBlock,
    cyclotomic_ideal_space,
    double_centralizer_data,
    frobenius_certificate,
    kernel_equals_cyclotomic,
    theta_kappa,
    y_idempotent_dots,
)
from tensoralg.diagrams import Element, idem_key
from tensoralg.laurent import ONE, ZERO, LaurentPoly
from tensoralg.linalg import IncrementalRREF
from tensoralg.qtensor import GradedHomTable, arrangements
from tensoralg.workbench import block_contents

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.fixture(scope="module")
def sl2_11():
    d = sl2()
    return d, BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))))


def test_golden_block_totals(sl2_11):
    d, comp = sl2_11
    for n, expected in [(0, 1), (1, 5), (2, 9)]:
        table = comp.graded_hom_table(d.root((n,)))
        assert table.total_at_1() == expected, n
        assert table.is_symmetric()


def test_golden_entries(sl2_11):
    d, comp = sl2_11
    a = ((0,), (0, 0))
    b = ((0,), (0, 1))
    assert comp.graded_hom(a, a) == LaurentPoly({0: 1, 2: 1})
    assert comp.graded_hom(a, b) == LaurentPoly.q_power(1)
    assert comp.graded_hom(b, b) == ONE


def test_trivial_hom_n0(sl2_11):
    d, comp = sl2_11
    assert comp.graded_hom(((), (0, 0)), ((), (0, 0))) == ONE


def test_euler_form_equality(sl2_11):
    d, comp = sl2_11
    for n in range(3):
        keys = comp.idems(d.root((n,)))
        for a in keys:
            for b in keys:
                assert comp.graded_hom(a, b) == comp.space.form_vv(a, b)


def test_kernel_component_examples(sl2_11):
    d, comp = sl2_11
    # the violating idempotent block itself dies entirely
    e_v = idem_key((0,), (1, 1))
    tb = comp.tilde_basis(e_v, e_v, 0)
    rows, piv = comp.kernel_space(e_v, e_v, 0)
    assert len(tb) == 1 and len(piv) == 1
    # degree below minimum: empty component
    a = ((0,), (0, 0))
    assert comp.tilde_basis(idem_key(*a), idem_key(*a), -1) == []


def test_single_red_cyclotomic_ideal():
    d = sl2()
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((2,)),))
    e = idem_key((0,), (0,))
    # at degree 2: T~ has {y e}; kernel = cyclotomic ideal = span{y^2 e}? no:
    # y_1^{λ^i} = y^2, so degree-4 kernel contains y^2 e; degree 2 kernel empty
    assert comp.quotient_dim(e, e, 2) == 1
    assert comp.quotient_dim(e, e, 4) == 0
    rows, piv = cyclotomic_ideal_space(comp, e, e, 4)
    assert len(piv) == 1
    assert kernel_equals_cyclotomic(comp, e, e, 8)


@pytest.mark.parametrize("lam_coord", [1, 2, 3])
def test_kernel_equals_cyclotomic_sl2(lam_coord):
    d = sl2()
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((lam_coord,)),))
    for n in (1, 2):
        for a in comp.idems(d.root((n,))):
            for b in comp.idems(d.root((n,))):
                e = comp.graded_hom(a, b)
                dmax = (e.max_exp() if not e.is_zero() else 0) + 3
                assert kernel_equals_cyclotomic(comp, a, b, dmax)


def test_standard_dims_golden(sl2_11):
    d, comp = sl2_11
    a = ((0,), (0, 0))
    b = ((0,), (0, 1))
    assert comp.standard_dims(a, a) == ONE
    assert comp.standard_dims(a, b) == ZERO
    assert comp.standard_dims(b, a) == LaurentPoly.q_power(1)
    assert comp.standard_dims(b, b) == ONE


def test_standard_maximal_kappa_equals_projective(sl2_11):
    # κ with all letters in the leftmost blocks has no higher projectives:
    # S = P and the column equals the graded Hom column
    d, comp = sl2_11
    b = ((0,), (0, 1))
    for col in comp.idems(d.root((1,))):
        assert comp.standard_dims(b, col) == comp.graded_hom(b, col)


def test_standard_space_starts_from_the_kernel_state(sl2_11):
    """standard_space copies the cached kernel state and adds the x_φ
    products: the result equals re-adding every kernel row to an empty
    space first, and the cached kernel is left as it was."""
    d, comp = sl2_11
    checked = grown = 0
    for n in (1, 2):
        keys = comp.idems(d.root((n,)))
        for key in keys:
            for col in keys:
                bottom, top = idem_key(*key), idem_key(*col)
                dmin = comp.min_degree(bottom, top)
                if dmin is None:
                    continue
                for deg in range(dmin, dmin + 5):
                    k_rows, k_pivots = comp.kernel_space(bottom, top, deg)
                    kernel = (list(k_rows), dict(k_pivots))
                    got = comp.standard_space(key, col, deg)
                    ref = IncrementalRREF(comp.field)
                    for r in k_rows:
                        ref.add(r)
                    lefts = ((el, mid, deg - degx) for el, mid, degx in comp.x_phi_elements(key))
                    comp.saturate(ref, bottom, top, deg, lefts)
                    assert got == (ref.rows, ref.pivots)
                    assert comp.kernel_space(bottom, top, deg) == kernel
                    checked += 1
                    grown += len(got[1]) > len(k_pivots)
    assert checked >= 20 and grown >= 1


def test_standard_filtration_certificates(sl2_11):
    d, comp = sl2_11
    for n in (1, 2):
        for key in comp.idems(d.root((n,))):
            ok, cert = comp.standard_filtration_check(key)
            assert ok, (key, cert)


def test_structure_constants_block(sl2_11):
    d, comp = sl2_11
    blk = QuotientBlock(comp, d.root((2,)))
    assert blk.dim == 9
    one = blk.identity_vector()
    assert blk.multiply_vectors(one, one) == one
    # identity acts as unit on every basis element
    for i in range(blk.dim):
        v = {i: comp.field.one()}
        assert blk.multiply_vectors(one, v) == v
        assert blk.multiply_vectors(v, one) == v
    # associativity on a full sweep of basis triples (small block)
    triples = [({i: comp.field.one()}, {j: comp.field.one()}, {k: comp.field.one()})
               for i in range(3) for j in range(3) for k in range(3)]
    assert blk.check_associative(triples)


def test_top_weight_block_is_scalar(sl2_11):
    d, comp = sl2_11
    blk = QuotientBlock(comp, d.root((0,)))
    assert blk.dim == 1


def test_theta_and_y_elements(sl2_11):
    d, comp = sl2_11
    th = theta_kappa(comp, ((0,), (0, 1)))
    assert len(th.terms) == 1
    y = y_idempotent_dots(comp, ((0,), (0, 1)))
    ((idem, w, dots),) = y.terms
    assert idem == idem_key((0,), (0, 0)) and dots == (1,)
    # κ = 0 gives the bare idempotent
    y0 = y_idempotent_dots(comp, ((0,), (0, 0)))
    ((idem0, w0, dots0),) = y0.terms
    assert dots0 == (0,)


def test_double_centralizer(sl2_11):
    d, comp = sl2_11
    single = BlockComputer(d, default_q_matrix(d), (d.weight((2,)),))
    for key in comp.idems(d.root((1,))):
        cert = double_centralizer_data(comp, key, single)
        assert cert["ok"], cert


def test_frobenius_sl2():
    d = sl2()
    for lam, nmax in [(1, 1), (2, 2)]:
        comp = BlockComputer(d, default_q_matrix(d), (d.weight((lam,)),))
        for n in range(nmax + 1):
            blk = QuotientBlock(comp, d.root((n,)))
            if blk.dim == 0:
                continue
            cert = frobenius_certificate(blk)
            assert cert["ok"], (lam, n)


def test_integrity_error_on_wrong_oracle(sl2_11):
    d, comp = sl2_11
    # ask for a component between mismatched weights: the oracle says 0 and
    # the diagrams agree; but an empty component with nonzero prediction
    # must raise. Simulate by pairing idempotents of different content.
    a = ((0,), (0, 0))
    c = ((0, 0), (0, 0))
    assert comp.graded_hom(a, c) == ZERO


def test_a2_single_red_euler():
    d = type_a(2)
    comp = BlockComputer(d, default_q_matrix(d), (d.fundamental_weight(0),))
    for coords in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
        keys = comp.idems(d.root(coords))
        for a in keys:
            for b in keys:
                assert comp.graded_hom(a, b) == comp.space.form_vv(a, b)


def test_idems_checks_strand_bound_before_enumerating(monkeypatch):
    d = sl2()
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)),), max_strands=2)

    def refuse(alpha):
        raise AssertionError("spanning_keys enumerated a block over the strand bound")

    monkeypatch.setattr(comp.space, "spanning_keys", refuse)
    with pytest.raises(ValueError, match="strand bound"):
        comp.idems(d.root((3,)))


def _cyclotomic_space_reference(comp, bottom, top, d):
    """Every product b · y_1^{λ^{i_1}} e(I) · b' is formed, with no stop at
    saturation, and the rows are row-reduced at the end; also returns the
    number of rows."""
    lam = comp.lambdas[0]
    rows = []
    for I2 in arrangements(bottom[0]):
        mid = idem_key(I2, (0,))
        a1 = lam.coords[I2[0]]
        ident = tuple(range(len(comp.alg.merged(mid))))
        gen = Element(comp.alg, {(mid, ident, (a1,) + (0,) * (len(I2) - 1)): 1})
        gdeg = 2 * comp.datum.sym[I2[0]] * a1
        d1min, d2min = comp.min_degree(bottom, mid), comp.min_degree(mid, top)
        if d1min is None or d2min is None:
            continue
        for d1 in range(d1min, d - gdeg - d2min + 1):
            for bl in comp.tilde_basis(bottom, mid, d1):
                left = Element(comp.alg, {bl: 1}).multiply(gen)
                for br in comp.tilde_basis(mid, top, d - gdeg - d1):
                    el = left.multiply(Element(comp.alg, {br: 1}))
                    if not el.is_zero():
                        rows.append(comp.element_coords(el, bottom, top, d))
    ncols = len(comp.tilde_basis(bottom, top, d))
    inc = IncrementalRREF(comp.field)
    for row in rows:
        if inc.rank == ncols:
            # rows spanning the whole component reduce to the identity,
            # whatever rows follow them
            break
        inc.add(row)
    return (inc.rows, inc.pivots), len(rows)


@pytest.mark.parametrize("lam_coord", [2, 3])
def test_cyclotomic_space_matches_the_unsaturated_reference(lam_coord):
    d = sl2()
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((lam_coord,)),))
    components = cut = 0
    for n in (1, 2, 3):
        (key,) = comp.idems(d.root((n,)))
        e = idem_key(*key)
        entry = comp.graded_hom(key, key)
        dmax = (entry.max_exp() if not entry.is_zero() else 0) + 3
        for deg in range(comp.min_degree(e, e), dmax + 1):
            got = cyclotomic_ideal_space(comp, e, e, deg)
            want, formed = _cyclotomic_space_reference(comp, e, e, deg)
            assert got == want, (n, deg)
            components += 1
            cut += 0 < len(got[1]) == len(comp.tilde_basis(e, e, deg)) < formed
    # the saturation stop could cut the assembly short somewhere
    assert components >= 24 and cut >= 1


def test_kernel_assembly_order_is_pinned(monkeypatch):
    """Products formed and rows offered while filling every entry of the
    A2 (ω1, ω2) contents (1,1) and (2,1) on a fresh computer: the kernel
    assembler forms one crossing product per left factor and run by word,
    offers its rows in a fixed order and stops at saturation."""
    d = type_a(2)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1, 0)), d.weight((0, 1))))
    seen = {"products": 0, "zero": 0, "offered": 0, "independent": 0}
    multiply, add = Element.multiply, IncrementalRREF.add

    def counted_multiply(self, other):
        out = multiply(self, other)
        seen["products"] += 1
        seen["zero"] += out.is_zero()
        return out

    def counted_add(self, row):
        grew = add(self, row)
        seen["offered"] += 1
        seen["independent"] += grew
        return grew

    monkeypatch.setattr(Element, "multiply", counted_multiply)
    monkeypatch.setattr(IncrementalRREF, "add", counted_add)
    for coords in [(1, 1), (2, 1)]:
        keys = comp.idems(d.root(coords))
        for a in keys:
            for b in keys:
                comp.graded_hom(a, b)
    assert seen == {"products": 2000, "zero": 195, "offered": 2230, "independent": 917}


def _pairwise_saturate(comp, inc, bottom, top, d, lefts):
    """Reference assembler: every product l·r with r one basis diagram of
    (mid T~ top)_{d2}, formed pair by pair, in the order of ``saturate``."""
    full = len(comp.tilde_basis(bottom, top, d))
    if inc.rank == full:
        return inc
    last = rights = None
    for el_l, mid, d2 in lefts:
        if (mid, d2) != last:
            last = (mid, d2)
            d2min = comp.min_degree(mid, top)
            if d2min is None or d2 < d2min:
                rights = []
            else:
                rights = [Element(comp.alg, {br: 1}) for br in comp.tilde_basis(mid, top, d2)]
        for el_r in rights:
            el = el_l.multiply(el_r)
            if not el.is_zero():
                inc.add(comp.element_coords(el, bottom, top, d))
                if inc.rank == full:
                    return inc
    return inc


# name: (datum, red labels, contents); the single-red cases also run the
# cyclotomic ideal, which needs one red strand
PAIRWISE_CASES = {
    "sl2 (w,2w)": (sl2, ((1,), (2,)), [(1,), (2,), (3,)]),
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1)), [(1, 1), (2, 1)]),
    "sl2 (3w)": (sl2, ((3,),), [(1,), (2,), (3,)]),
    "A2 (w1)": (lambda: type_a(2), ((1, 0),), [(1, 1), (2, 1)]),
}


@pytest.mark.parametrize("case", sorted(PAIRWISE_CASES))
def test_runs_by_word_offer_the_pairwise_rows(case, monkeypatch):
    """On every component of the case's blocks, over the graded Hom
    window, ``saturate`` offers the same rows in the same order as the
    pair-by-pair reference and ends in the same row space, for the
    kernel, the standard-module space and the cyclotomic ideal."""
    datum_f, lams, contents = PAIRWISE_CASES[case]
    d = datum_f()

    def computer():
        return BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))

    comp, ref = computer(), computer()
    monkeypatch.setattr(ref, "saturate", functools.partial(_pairwise_saturate, ref))
    offered: list = []
    add = IncrementalRREF.add

    def logged_add(self, row):
        offered.append(dict(row))
        return add(self, row)

    monkeypatch.setattr(IncrementalRREF, "add", logged_add)

    def logged(fn, *args):
        offered.clear()
        out = fn(*args)
        return list(offered), out

    spaces = [
        lambda c, key, col, deg: c.kernel_space(idem_key(*key), idem_key(*col), deg),
        lambda c, key, col, deg: c.standard_space(key, col, deg),
    ]
    if len(lams) == 1:
        spaces.append(lambda c, key, col, deg: cyclotomic_ideal_space(c, idem_key(*key), idem_key(*col), deg))
    components = rows = cut = 0
    for coords in contents:
        keys = comp.idems(d.root(coords))
        for key in keys:
            for col in keys:
                bottom, top = idem_key(*key), idem_key(*col)
                dmin = comp.min_degree(bottom, top)
                if dmin is None:
                    continue
                pred = comp.space.form_vv(key, col)
                dmax = max(pred.max_exp() if not pred.is_zero() else dmin, dmin) + comp.tail
                for deg in range(dmin, dmax + 1):
                    for space in spaces:
                        got = logged(space, comp, key, col, deg)
                        assert got == logged(space, ref, key, col, deg), (key, col, deg)
                        components += 1
                        rows += len(got[0])
                        cut += 0 < len(got[1][1]) == len(comp.tilde_basis(bottom, top, deg))
    assert components >= 100 and rows >= 100 and cut >= 5


def test_a2_table_matches_the_benchmark_golden():
    """Every entry of the a2-table benchmark workload (A2, reds (ω1, ω2),
    all contents with at most three strands plus (4,0) and (0,4)) on a
    fresh computer reproduces its golden Laurent polynomial."""
    golden = json.loads((GOLDEN / "a2-table.json").read_text())["items"]
    d = type_a(2)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1, 0)), d.weight((0, 1))))
    label = GradedHomTable.idem_label
    items = {}
    for alpha in [*block_contents(d, 3), d.root((4, 0)), d.root((0, 4))]:
        keys = comp.idems(alpha)
        for a in keys:
            for b in keys:
                items[f"{label(a)}|{label(b)}"] = comp.graded_hom(a, b).to_json()
    assert items == golden
