import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tensoralg.cartan import a1_x_a1, b2, default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import (
    DEFAULT_TAIL,
    BlockComputer,
    IntegrityError,
    QuotientBlock,
    cyclotomic_ideal_space,
    double_centralizer_data,
    frobenius_certificate,
    kernel_equals_cyclotomic,
    theta_kappa,
    y_idempotent_dots,
)
from tensoralg import diagrams
from tensoralg.diagrams import Element, idem_key
from tensoralg.laurent import ONE, ZERO, LaurentPoly
from tensoralg.linalg import IncrementalRREF, rank, reduce_against
from tensoralg.qtensor import GradedHomTable, arrangements
from tensoralg.scalars import QQ, PrimeField
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
    """Each block's certificate has the degree found before its Gram went
    through ``QuotientBlock.pairing``, and the Gram t(b_i·b_j) of the
    returned functional, summed here over every (i, j), has full rank."""
    d = sl2()
    degrees = {(1, 0): 0, (1, 1): 0, (2, 0): 0, (2, 1): 2, (2, 2): 0}
    for lam, nmax in [(1, 1), (2, 2)]:
        comp = BlockComputer(d, default_q_matrix(d), (d.weight((lam,)),))
        for n in range(nmax + 1):
            blk = QuotientBlock(comp, d.root((n,)))
            if blk.dim == 0:
                continue
            cert = frobenius_certificate(blk)
            assert cert["ok"], (lam, n)
            assert cert["degree"] == degrees[lam, n]
            t = {int(k): Fraction(v) for k, v in cert["functional"].items()}
            gram = []
            for i in range(blk.dim):
                row = {}
                for j in range(blk.dim):
                    x = sum(c * t.get(k, 0) for k, c in blk.multiply_vectors({i: 1}, {j: 1}).items())
                    if x:
                        row[j] = x
                gram.append(row)
            assert rank(gram, QQ) == blk.dim, (lam, n)


def test_integrity_error_on_wrong_oracle(sl2_11):
    d, comp = sl2_11
    # ask for a component between mismatched weights: the oracle says 0 and
    # the diagrams agree; but an empty component with nonzero prediction
    # must raise. Simulate by pairing idempotents of different content.
    a = ((0,), (0, 0))
    c = ((0, 0), (0, 0))
    assert comp.graded_hom(a, c) == ZERO


A, B, P = ((0,), (0, 0)), ((0,), (0, 1)), ((0, 0), (0, 2))


@pytest.mark.parametrize(
    "entry, oracle, message",
    [
        (("graded_hom", A, A), LaurentPoly({0: 1, 2: 2}), r"component .* degree 2: dimension 1 below oracle 2"),
        (("graded_hom", A, A), ONE, r"component .* degree 2: dimension 1 exceeds oracle 0"),
        (("graded_hom", A, ((0, 0), (0, 0))), ONE, r"component .*: empty component but oracle predicts 1"),
        (("standard_dims", B, A), LaurentPoly({1: 2}), r"standard module column .* degree 1: dimension 1 below oracle 2"),
        (("standard_dims", B, A), ONE, r"standard module column .* degree 1: dimension 1 exceeds oracle 0"),
        (("graded_hom", A, A), LaurentPoly({-2: 5, 0: 1, 2: 1}), r"component .* degree -2: dimension 0 below oracle 5"),
        (("graded_hom", P, P), LaurentPoly({2: 3}), r"component .* degree 2: dimension 0 below oracle 3"),
    ],
)
def test_a_wrong_oracle_is_an_integrity_error(monkeypatch, entry, oracle, message):
    # sl2 (ω, ω): Hom(A, A) = 1 + q², S-column (B, A) = q; e(P) ∈ K is
    # proven (its prefix e(0,0 | 0) has two strands right of red 1, λ = 1),
    # so Hom(P, P) = 0 with no degree window at all
    d = sl2()
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))))
    method, row, col = entry
    monkeypatch.setattr(comp.space, "form_vv" if method == "graded_hom" else "form_vs", lambda x, y: oracle)
    with pytest.raises(IntegrityError, match=message):
        getattr(comp, method)(row, col)


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


def _count_assembly(monkeypatch) -> dict:
    """Counters of products formed (and zero) and rows offered (and
    independent), kept by wrappers on ``Element.multiply`` and
    ``IncrementalRREF.add`` for the rest of the test."""
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
    return seen


def _a2_w1_w2():
    d = type_a(2)
    return d, BlockComputer(d, default_q_matrix(d), (d.weight((1, 0)), d.weight((0, 1))))


def test_kernel_assembly_order_is_pinned(monkeypatch):
    """Products formed and rows offered while filling every entry of the
    A2 (ω1, ω2) contents (1,1) and (2,1) on a fresh computer: the kernel
    assembler fills a component whose bottom or top idempotent lies in K
    (``_in_K``) without a product, puts the basis diagrams past a dot bound
    in as unit rows without offering them, forms one crossing product per
    left factor and run by word elsewhere, offers its rows in a fixed
    order and stops at saturation.  An entry with an end in K forms no
    product of its own, and the others read the kernels of their
    ``_free_rep`` representatives, assembled through one violating
    idempotent per class."""
    d, comp = _a2_w1_w2()
    seen = _count_assembly(monkeypatch)
    for coords in [(1, 1), (2, 1)]:
        keys = comp.idems(d.root(coords))
        for a in keys:
            for b in keys:
                comp.graded_hom(a, b)
    assert seen == {"products": 152, "zero": 26, "offered": 160, "independent": 44}


def test_assembly_counts_do_not_depend_on_the_entry_order(monkeypatch):
    """The A2 (ω1, ω2) content-(2,1) table filled in two shuffled orders,
    each on a fresh computer, forms the same products and offers the same
    rows: whether a component is filled without products depends on the
    component alone, never on what an earlier entry cached."""
    d = type_a(2)
    seen = _count_assembly(monkeypatch)
    counts, tables = [], []
    for seed in (1, 2):
        _, comp = _a2_w1_w2()
        keys = comp.idems(d.root((2, 1)))
        pairs = list(itertools.product(keys, keys))
        random.Random(seed).shuffle(pairs)
        for key in seen:
            seen[key] = 0
        tables.append({(a, b): comp.graded_hom(a, b) for a, b in pairs})
        counts.append(dict(seen))
    assert counts[0] == counts[1] and counts[0]["products"] > 0
    assert tables[0] == tables[1]


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


def _certificate_off(monkeypatch, comp):
    """Make ``comp`` assemble every kernel component by products alone:
    no end in K (so no entry zeroed by one), no dot bound, each entry on
    its own idempotents and every violating idempotent a mid."""
    monkeypatch.setattr(comp, "_in_K", lambda x: False)
    monkeypatch.setattr(comp, "_proven", lambda x: None)
    monkeypatch.setattr(comp, "_dot_bounds", lambda x: (None,) * len(x[0]))
    monkeypatch.setattr(comp, "_free_rep", lambda x: x)


def _hom_window(comp, key, col):
    """The degrees ``graded_hom`` checks for the entry (key, col)."""
    bottom, top = idem_key(*key), idem_key(*col)
    return comp.checked_window(bottom, top, comp.space.form_vv(bottom, top)) or range(0)


# name: (datum, red labels, contents); the single-red cases also run the
# cyclotomic ideal, which needs one red strand
PAIRWISE_CASES = {
    "sl2 (w,2w)": (sl2, ((1,), (2,)), [(1,), (2,), (3,)]),
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1)), [(1, 1), (2, 1)]),
    "sl2 (3w)": (sl2, ((3,),), [(1,), (2,), (3,)]),
    "A2 (w1)": (lambda: type_a(2), ((1, 0),), [(1, 1), (2, 1)]),
}


def _case_computer(case):
    """The case's datum, a fresh computer for its red labels, and its contents."""
    datum_f, lams, contents = PAIRWISE_CASES[case]
    d = datum_f()
    return d, BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams)), contents


@pytest.mark.parametrize("case", sorted(PAIRWISE_CASES))
def test_runs_by_word_offer_the_pairwise_rows(case, monkeypatch):
    """On every component of the case's blocks, over the graded Hom
    window, ``saturate`` offers the same rows in the same order as the
    pair-by-pair reference and ends in the same row space, for the
    kernel, the standard-module space and the cyclotomic ideal; both
    computers assemble every kernel by products."""
    d, comp, contents = _case_computer(case)
    _, ref, _ = _case_computer(case)
    monkeypatch.setattr(ref, "saturate", functools.partial(_pairwise_saturate, ref))
    # with vanishing idempotents filled without products, too few
    # components would reach either assembler
    for c in (comp, ref):
        _certificate_off(monkeypatch, c)
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
    if comp.space.ell == 1:
        spaces.append(lambda c, key, col, deg: cyclotomic_ideal_space(c, idem_key(*key), idem_key(*col), deg))
    components = rows = cut = 0
    for coords in contents:
        keys = comp.idems(d.root(coords))
        for key in keys:
            for col in keys:
                bottom, top = idem_key(*key), idem_key(*col)
                for deg in _hom_window(comp, key, col):
                    for space in spaces:
                        got = logged(space, comp, key, col, deg)
                        assert got == logged(space, ref, key, col, deg), (key, col, deg)
                        components += 1
                        rows += len(got[0])
                        cut += 0 < len(got[1][1]) == len(comp.tilde_basis(bottom, top, deg))
    assert components >= 100 and rows >= 100 and cut >= 5


def test_connecting_permutations_keep_the_red_order():
    """Every connecting permutation between two idempotents of the
    ``PAIRWISE_CASES`` blocks, violating ones included, passes
    ``check_red_order``: red j goes to the top slot of red j, and those
    slots increase with j, so ``connecting_perms`` need not check."""
    checked = 0
    for case in sorted(PAIRWISE_CASES):
        d, comp, contents = _case_computer(case)
        for coords in contents:
            alpha = d.root(coords)
            keys = comp.idems(alpha) + comp.space.violating_keys(alpha)
            for bottom, top in itertools.product(keys, keys):
                for w in diagrams.connecting_perms(comp.alg, bottom, top):
                    comp.alg.check_red_order(bottom, w)
                    checked += comp.space.ell > 1
    assert checked >= 1000


def _ends_black(x):
    I, kappa = x
    return bool(I) and kappa[-1] < len(I)


# more contents per case for the test below: rule (a) of ``_in_K``
# proves e((0, 1, 0, 0), (0, 2)) of A2 (ω1, ω2) from its prefix
# e((0, 1, 0), (0, 2)), which rule (b) proves and ``_proven`` does not
VANISHING_CONTENTS = {"A2 (w1,w2)": [(1, 2), (3, 1)]}


def test_vanishing_idempotents_keep_every_space(monkeypatch):
    """On every component of the ``PAIRWISE_CASES`` blocks, over the graded
    Hom window, the kernel and the standard-module space equal those of a
    computer that assembles every kernel by products; ``_proven``, rules
    (a) and (b) of ``_in_K`` and the dot bounds each fill or seed some
    component."""
    fired: Counter = Counter()
    for case in sorted(PAIRWISE_CASES):
        d, comp, contents = _case_computer(case)
        _, ref, _ = _case_computer(case)
        _certificate_off(monkeypatch, ref)
        contents = contents + VANISHING_CONTENTS.get(case, [])
        proven: dict = {}
        in_K = comp._in_K

        def logged(x):
            proven[x] = in_K(x)
            return proven[x]

        monkeypatch.setattr(comp, "_in_K", logged)
        for coords in contents:
            keys = comp.idems(d.root(coords))
            for key in keys:
                for col in keys:
                    bottom, top = idem_key(*key), idem_key(*col)
                    for deg in _hom_window(comp, key, col):
                        got = comp.kernel_space(bottom, top, deg)
                        assert got == ref.kernel_space(bottom, top, deg), (case, key, col, deg)
                        got = comp.standard_space(key, col, deg)
                        assert got == ref.standard_space(key, col, deg), (case, key, col, deg)
                        if proven.get(bottom) or proven.get(top):
                            continue
                        bounds = comp._dot_bounds(top)
                        fired["dot bound"] += any(
                            b is not None and a[k] >= b
                            for _, _, a in comp.tilde_basis(bottom, top, deg)
                            for k, b in enumerate(bounds)
                        )
        for x, ok in proven.items():
            if ok and comp._proven(x):
                fired["proven"] += 1
            elif ok and _ends_black(x) and proven.get((x[0][:-1], x[1])):
                fired["rule (a)"] += 1
            elif ok:
                fired["rule (b)"] += 1
    assert min(fired[rule] for rule in ("proven", "rule (a)", "rule (b)", "dot bound")) >= 1


def test_a_vanishing_prefix_kills_the_idempotent(monkeypatch):
    """The lemma behind rule (a): for every idempotent x of at most three
    strands of the ``PAIRWISE_CASES`` data whose last strand is black, if
    the kernel fills (x′ T~ x′)_0 for the prefix x′ = (I[:-1], κ), it fills
    (x T~ x)_0, each assembled by products."""
    premises = 0
    for case in sorted(PAIRWISE_CASES):
        d, comp, _ = _case_computer(case)
        _certificate_off(monkeypatch, comp)

        def full(x):
            return len(comp.kernel_space(x, x, 0)[1]) == len(comp.tilde_basis(x, x, 0))

        for alpha in block_contents(d, 3):
            for I, kappa in comp.idems(alpha):
                if _ends_black((I, kappa)) and full((I[:-1], kappa)):
                    premises += 1
                    assert full((I, kappa)), (case, I, kappa)
    assert premises >= 5


# name: (datum, red labels) of the exactness test below
MEMBERSHIP_CASES = {
    "sl2 (w,2w)": (sl2, ((1,), (2,))),
    "sl2 (3w)": (sl2, ((3,),)),
    "sl2 (w,w)": (sl2, ((1,), (1,))),
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1))),
    "A2 (w1)": (lambda: type_a(2), ((1, 0),)),
    "B2 (w1,w2)": (b2, ((1, 0), (0, 1))),
    "a1xa1 (w1+w2,w1)": (a1_x_a1, ((1, 1), (1, 0))),
}


def test_membership_is_decided_exactly(monkeypatch):
    """``_in_K(x)`` is the truth: for every idempotent x of at most three
    strands of the ``MEMBERSHIP_CASES`` data, over Q and GF(2), it holds
    exactly when the kernel of a computer that assembles every kernel by
    products fills (x T~ x)_0.  Proven ends, ends in K by rule (a) or (b)
    only, and ends not in K each occur."""
    seen: Counter = Counter()
    for case, (datum_f, lams) in sorted(MEMBERSHIP_CASES.items()):
        d = datum_f()
        weights = tuple(d.weight(l) for l in lams)
        for field in (QQ, PrimeField(2)):
            comp, ref = (BlockComputer(d, default_q_matrix(d), weights, field) for _ in range(2))
            _certificate_off(monkeypatch, ref)
            for alpha in block_contents(d, 3):
                for x in comp.idems(alpha):
                    want = len(ref.kernel_space(x, x, 0)[1]) == len(ref.tilde_basis(x, x, 0))
                    assert comp._in_K(x) == want, (case, field, x)
                    seen["proven" if comp._proven(x) else "rule (a) or (b)" if want else "not in K"] += 1
    assert min(seen[outcome] for outcome in ("proven", "rule (a) or (b)", "not in K")) >= 1


# more red labels for the soundness test below: the cyclotomic nilHecke
# rule proves e(2ω; 1,1,1) of sl2, at its bound m = λ + 1, and the run
# right of the second red of sl2 (ω, ω) has bound B = 1 + 1 = 2
SOUNDNESS_CASES = {**PAIRWISE_CASES, "sl2 (2w)": (sl2, ((2,),), []), "sl2 (w,w)": (sl2, ((1,), (1,)), [])}

# (case, x, proven): the nilHecke rules at their bounds.  e(3ω; 1,1,1) has
# m = 3 = λ, and e(ω, ω; 1,1) has m = 2 = B, so neither lies in K (its
# degree-0 quotient is 2-dimensional); one more strand, m = B + 1, is proven
SHARP_CASES = [
    ("sl2 (3w)", ((0, 0, 0), (0,)), False),
    ("sl2 (w,w)", ((0, 0), (0, 0)), False),
    ("sl2 (w,w)", ((0, 0, 0), (0, 0)), True),
]


def test_product_free_proofs_hold_in_the_assembled_kernel(monkeypatch):
    """Soundness of ``_proven`` and ``_dot_bounds``, against kernels
    assembled by products alone: for every idempotent x of at most three
    strands of the ``SOUNDNESS_CASES`` data that ``_proven`` proves, the
    kernel fills (x T~ x)_0, and for every bound N_k of an x it does not
    prove, y_k^{N_k} e(x) lies in the kernel.  The prefix cut, the red
    bigon, the cyclotomic nilHecke rule, the nilHecke run past several
    reds and a dot bound each fire, and the nilHecke rules are sharp
    (``SHARP_CASES``)."""
    fired: Counter = Counter()
    sharp = {(case, x): proven for case, x, proven in SHARP_CASES}
    for case, (datum_f, lams, _) in sorted(SOUNDNESS_CASES.items()):
        d = datum_f()
        comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))
        ref = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))
        _certificate_off(monkeypatch, ref)
        for alpha in block_contents(d, 3):
            for x in comp.idems(alpha):
                rule = comp._proven(x)
                full = len(ref.kernel_space(x, x, 0)[1]) == len(ref.tilde_basis(x, x, 0))
                assert full or not rule, (case, x, rule)
                fired[rule] += 1
                if (case, x) in sharp:
                    assert full == bool(rule) == sharp[case, x], (case, x, rule)
                    fired["sharp"] += 1
                for k, bound in enumerate(comp._dot_bounds(x)):
                    if rule or bound is None:
                        continue
                    dots = tuple(bound if j == k else 0 for j in range(len(x[0])))
                    el = Element.idempotent(comp.alg, *x).times_top_dots(dots)
                    deg = el.degree()
                    _, pivot_rows = ref.kernel_space(x, x, deg)
                    assert not reduce_against(ref.element_coords(el, x, x, deg), pivot_rows), (case, x, k, bound)
                    fired["dot bound"] += 1
    assert min(fired[rule] for rule in ("prefix", "bigon", "nilhecke", "run", "dot bound")) >= 1
    assert fired["sharp"] == len(SHARP_CASES)


# name: (datum, red labels); every black strand passes red 2 of sl2 (ω, 0)
# freely, and the strands of label 2 (1) pass red 1 (2) of A2 (ω1, ω2)
CLASS_CASES = {
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1))),
    "A2 (w1)": (lambda: type_a(2), ((1, 0),)),
    "sl2 (w,0)": (sl2, ((1,), (0,))),
}


def _class_mismatches(monkeypatch, free_rep=None):
    """Yield each place where a class of isomorphic idempotents does not
    share its spaces, over every pair of idempotents of at most three
    strands of the ``CLASS_CASES`` data and every degree of its graded
    Hom window.  Three computers per case: ``comp`` as it is (with
    ``free_rep(comp, x)`` as its ``_free_rep`` if given), the products-only
    reference ``ref``, and ``per_class``, products-only but with the mids
    of ``comp``'s classes.  Compared: ``graded_hom`` of ``comp`` and of
    ``ref`` (an ``IntegrityError`` counts as a mismatch), the quotient
    dimensions of ``ref`` at (x, y) and at the representatives, and the
    kernels of ``per_class`` and of ``ref``."""
    for case, (datum_f, lams) in sorted(CLASS_CASES.items()):
        d = datum_f()
        comp, ref, per_class = (
            BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams)) for _ in range(3)
        )
        if free_rep is not None:
            monkeypatch.setattr(comp, "_free_rep", functools.partial(free_rep, comp))
        for c in (ref, per_class):
            _certificate_off(monkeypatch, c)
        monkeypatch.setattr(per_class, "_free_rep", comp._free_rep)
        for alpha in block_contents(d, 3):
            keys = comp.idems(alpha)
            for x, y in itertools.product(keys, keys):
                try:
                    got = comp.graded_hom(x, y)
                except IntegrityError:
                    got = None
                if got != ref.graded_hom(x, y):
                    yield case, x, y, "graded_hom"
                rx, ry = comp._free_rep(x), comp._free_rep(y)
                for deg in _hom_window(ref, x, y):
                    if ref.quotient_dim(x, y, deg) != ref.quotient_dim(rx, ry, deg):
                        yield case, x, y, deg, "quotient_dim"
                    if per_class.kernel_space(x, y, deg) != ref.kernel_space(x, y, deg):
                        yield case, x, y, deg, "kernel_space"


def _slide_past_one(comp, x):
    """A wrong ``_free_rep``: it also slides a red past a strand whose
    label i has λ_j^i = 1, where the bigon is a dot, not the identity."""
    I, kappa = x
    slid: list = []
    for j, k in enumerate(kappa):
        stop = slid[-1] if slid else 0
        while k > stop and comp.lambdas[j].coords[I[k - 1]] <= 1:
            k -= 1
        slid.append(k)
    return I, tuple(slid)


def test_isomorphic_idempotents_share_every_quotient(monkeypatch):
    """Soundness of ``_free_rep`` and of one violating mid per class,
    against computers that assemble every kernel by products through
    every violating idempotent (``_class_mismatches``): no mismatch, on
    data where classes do merge idempotents and mids; and a ``_free_rep``
    that slides past a red with λ_j^i = 1 is caught."""
    assert list(_class_mismatches(monkeypatch)) == []
    merged = 0
    for datum_f, lams in CLASS_CASES.values():
        d = datum_f()
        comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))
        for alpha in block_contents(d, 3):
            keys = comp.idems(alpha)
            merged += len({comp._free_rep(x) for x in keys}) < len(keys)
            merged += len(comp._violating_mids(alpha.letters())) < len(comp.space.violating_keys(alpha))
    assert merged >= 10
    assert next(_class_mismatches(monkeypatch, _slide_past_one), None) is not None


# name: (datum, red labels, field, extra contents) of the table workloads
TABLE_WORKLOADS = {
    "a2-table": (lambda: type_a(2), ((1, 0), (0, 1)), QQ, ((4, 0), (0, 4))),
    "sl2-wide-gfp": (sl2, ((1,), (2,)), PrimeField(2147483647), ()),
}


@pytest.mark.parametrize("name", sorted(TABLE_WORKLOADS))
def test_table_matches_the_benchmark_golden(name):
    """Every entry of a table benchmark workload (all contents with at
    most three strands, plus the extra ones) on a fresh computer over the
    workload's field reproduces its golden Laurent polynomial: a2-table is
    A2 with reds (ω1, ω2) over Q plus (4,0) and (0,4), sl2-wide-gfp is sl2
    with reds (ω, 2ω) over GF(2147483647)."""
    golden = json.loads((GOLDEN / f"{name}.json").read_text())["items"]
    datum_f, lams, field, extra = TABLE_WORKLOADS[name]
    d = datum_f()
    comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams), field)
    label = GradedHomTable.idem_label
    items = {}
    for alpha in [*block_contents(d, 3), *(d.root(c) for c in extra)]:
        keys = comp.idems(alpha)
        for a in keys:
            for b in keys:
                items[f"{label(a)}|{label(b)}"] = comp.graded_hom(a, b).to_json()
    assert items == golden


def test_component_geometry_is_enumerated_once_per_pair(monkeypatch):
    """Building every entry of two A2 (ω1, ω2) blocks walks the connecting
    permutations of each (bottom, top) pair at most once, and components
    with the same dot budget share their dot-vector tuples."""
    calls = {}
    original = diagrams.connecting_perms

    def counted(alg, bottom, top):
        calls[(bottom, top)] = calls.get((bottom, top), 0) + 1
        return original(alg, bottom, top)

    monkeypatch.setattr(diagrams, "connecting_perms", counted)
    d = type_a(2)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1, 0)), d.weight((0, 1))))
    alphas = [d.root((1, 1)), d.root((2, 1))]
    for alpha in alphas:
        comp.graded_hom_table(alpha)
    # every dot weight is 2 in A2, so equal dot vectors come from one memo entry
    first: dict = {}
    components: dict = {}
    for alpha in alphas:
        keys = comp.idems(alpha)
        for bottom, top in itertools.product(keys, keys):
            dmin = comp.min_degree(bottom, top)
            for deg in range(dmin, dmin + 6) if dmin is not None else ():
                for _, _, dots in comp.tilde_basis(bottom, top, deg):
                    assert first.setdefault(dots, dots) is dots
                    components.setdefault(dots, set()).add((bottom, top))
    assert calls and max(calls.values()) == 1
    assert sum(len(c) > 1 for c in components.values()) >= 10
    w = (2,) * 3
    assert comp.alg.dot_vectors(w, 4) is comp.alg.dot_vectors(w, 4)


# name: (datum, red labels, strand bound) of the module-theory blocks below;
# B2 has entries that only their window checks (its long-root dots have
# degree 4), the others have none at the default tail
BLOCK_CASES = {
    "sl2 (w,w,w)": (sl2, ((1,), (1,), (1,)), 2),
    "sl2 (2w,w)": (sl2, ((2,), (1,)), 2),
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1)), 3),
    "B2 (w1,w2)": (b2, ((1, 0), (0, 1)), 2),
}
UNCERTIFIED_BLOCKS = {"B2 (w1,w2)"}


def _block_computer(case, **options):
    datum_f, lams, strands = BLOCK_CASES[case]
    d = datum_f()
    return d, BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams), **options), strands


def _pairwise_mult(block):
    """Reference structure constants: every pair of basis elements with
    b1 == a2 multiplied by ``Element.multiply`` and reduced."""
    alg = block.comp.alg
    out = {}
    for i, (a1, b1, d1, k1) in enumerate(block.basis):
        for j, (a2, b2, d2, k2) in enumerate(block.basis):
            if b1 == a2:
                prod = Element(alg, {k1: 1}).multiply(Element(alg, {k2: 1}))
                out[(i, j)] = block._reduce(prod, a1, b2, d1 + d2)
    return out


def _certified_zero(comp, row, col, deg):
    """Whether the quotient (row T~ col)_deg is zero by what ``graded_hom``
    proved (``certified_through``): an end of the representatives in K, a
    degree through its window where the entry is 0, or any degree above a
    window that reaches the certificate's E."""
    return deg <= comp.certified_through(row, col) and not comp.graded_hom(row, col).coeff(deg)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_structure_constants_form_only_the_products_they_read(case, monkeypatch):
    """On every block of the case, ``QuotientBlock._mult`` equals the
    pairwise reference, and ``_build`` forms e1·ψ_w once for each left
    basis element e1 and word w that reaches a target not certified zero
    (``_certified_zero``), and no other product; some targets are.  Only
    the blocks with uncertified entries (``UNCERTIFIED_BLOCKS``) form a
    product above a target's checked window."""
    d, comp, strands = _block_computer(case)
    formed: list = []
    multiply = Element.multiply

    def logged(self, other):
        ((left, _),) = self.terms.items()
        ((right, _),) = other.terms.items()
        formed.append((left, right[1]))
        return multiply(self, other)

    skipped = above = 0
    for alpha in block_contents(d, strands):
        if not comp.idems(alpha):
            continue
        # the reference assembles every kernel the block reads, so that the
        # second build forms its structure-constant products alone
        want = _pairwise_mult(QuotientBlock(comp, alpha))
        monkeypatch.setattr(Element, "multiply", logged)
        formed.clear()
        block = QuotientBlock(comp, alpha)
        monkeypatch.setattr(Element, "multiply", multiply)
        assert block._mult == want, alpha
        wanted = set()
        for a1, b1, d1, k1 in block.basis:
            for a2, b2, d2, k2 in block.basis:
                if b1 == a2:
                    if _certified_zero(comp, a1, b2, d1 + d2):
                        skipped += 1
                    else:
                        wanted.add((k1, k2[1]))
                        above += d1 + d2 > _hom_window(comp, a1, b2)[-1]
        assert sorted(formed) == sorted(wanted), alpha
    assert skipped >= 1
    assert (above > 0) == (case in UNCERTIFIED_BLOCKS)


def test_a_product_above_the_window_is_reduced_against_its_kernel(monkeypatch):
    """Above a checked window that stops short of the certificate's E (on
    a ``tail=1`` computer), a product is reduced against its assembled
    kernel: with one such kernel emptied, ``_build`` raises the "escaped"
    ``IntegrityError`` instead of dropping the product."""
    d, comp, _ = _block_computer("sl2 (w,w,w)", tail=1)
    alpha = d.root((2,))
    above = []
    reduce = QuotientBlock._reduce

    def logged(self, el, bottom, top, deg):
        if not el.is_zero() and deg > _hom_window(comp, bottom, top)[-1]:
            above.append((bottom, top, deg))
        return reduce(self, el, bottom, top, deg)

    monkeypatch.setattr(QuotientBlock, "_reduce", logged)
    QuotientBlock(comp, alpha)
    assert above
    target = above[0]
    _, comp, _ = _block_computer("sl2 (w,w,w)", tail=1)
    kernel_space = comp.kernel_space
    monkeypatch.setattr(comp, "kernel_space", lambda *key: ([], {}) if key == target else kernel_space(*key))
    with pytest.raises(IntegrityError, match="escaped"):
        QuotientBlock(comp, alpha)


def _certificate_bound(comp, row, col):
    """(E, g) of the dot-at-the-top certificate for the entry (row, col) of
    a nonempty component: E = max(W, t + g), with W the top degree of the
    dotless diagrams between the ``_free_rep`` ends, g the largest dot
    degree 2·d_i on a black strand of the top, and t the entry's top
    degree, or dmin − 1 for a zero entry."""
    bottom, top = comp._free_rep(idem_key(*row)), comp._free_rep(idem_key(*col))
    dotless = [deg for _, deg in comp.alg.component(bottom, top)]
    entry = comp.graded_hom(row, col)
    g = max((2 * comp.datum.sym[i] for i in top[0]), default=0)
    t = min(dotless) - 1 if entry.is_zero() else entry.max_exp()
    return max(max(dotless), t + g), g


def _window_entries(comp, alphas):
    """(row, col, entry, window) for every entry of the contents ``alphas``
    that a window check covers: no ``_free_rep`` end in K and a nonempty
    component."""
    for alpha in alphas:
        for row, col in itertools.product(comp.idems(alpha), repeat=2):
            bottom, top = comp._free_rep(idem_key(*row)), comp._free_rep(idem_key(*col))
            entry = comp.graded_hom(row, col)
            if not (comp._in_K(bottom) or comp._in_K(top)):
                window = comp.checked_window(bottom, top, entry)
                if window is not None:
                    yield row, col, entry, window


def _certificate_cases():
    """(case, datum, red labels, contents) over the ``PAIRWISE_CASES`` and
    ``BLOCK_CASES`` data."""
    for case, (datum_f, lams, contents) in sorted(PAIRWISE_CASES.items()):
        d = datum_f()
        yield f"pairwise {case}", d, lams, [d.root(c) for c in contents]
    for case, (datum_f, lams, strands) in sorted(BLOCK_CASES.items()):
        d = datum_f()
        yield f"block {case}", d, lams, list(block_contents(d, strands))


def test_a_certified_entry_is_zero_above_its_window(monkeypatch):
    """Soundness of the dot-at-the-top certificate: for every entry of the
    ``_certificate_cases`` with no end in K that ``certified_through``
    certifies in every degree, a computer that assembles every kernel by
    products fills the component at the degrees E + 1 … E + g + 2
    (``_certificate_bound``).  Every case has such entries, and only B2
    has entries that are not certified."""
    seen: Counter = Counter()
    for case, d, lams, alphas in _certificate_cases():
        weights = tuple(d.weight(l) for l in lams)
        comp, ref = (BlockComputer(d, default_q_matrix(d), weights) for _ in range(2))
        _certificate_off(monkeypatch, ref)
        for row, col, entry, _ in _window_entries(comp, alphas):
            if comp.certified_through(row, col) < math.inf:
                seen[case, "window only"] += 1
                continue
            E, g = _certificate_bound(comp, row, col)
            for deg in range(E + 1, E + g + 3):
                assert ref.quotient_dim(idem_key(*row), idem_key(*col), deg) == 0, (case, row, col, deg)
            seen[case, "certified"] += 1
    cases = [case for case, *_ in _certificate_cases()]
    assert all(seen[case, "certified"] >= 1 for case in cases), seen
    assert [case for case in cases if seen[case, "window only"]] == ["block B2 (w1,w2)"], seen


def test_a_window_short_of_the_certificate_certifies_only_itself():
    """On sl2 (ω, ω, ω) at two strands with ``tail=1``, an entry with no end
    in K is certified in every degree exactly when its window reaches E,
    and through the window's last degree otherwise; some entries stop
    short, and each of those is certified in every degree at the default
    tail."""
    d, comp, strands = _block_computer("sl2 (w,w,w)", tail=1)
    _, default, _ = _block_computer("sl2 (w,w,w)")
    short = reached = 0
    for row, col, entry, window in _window_entries(comp, block_contents(d, strands)):
        E, _ = _certificate_bound(comp, row, col)
        through = comp.certified_through(row, col)
        if window[-1] >= E:
            assert through == math.inf, (row, col)
            reached += 1
        else:
            assert through == window[-1], (row, col)
            assert default.certified_through(row, col) == math.inf, (row, col)
            short += 1
    assert short >= 1 and reached >= 1


@pytest.mark.parametrize("tail", [DEFAULT_TAIL, 1], ids=["default tail", "tail=1"])
def test_the_record_keeps_the_degree_its_check_certifies(tail):
    """The degree ``graded_hom`` records beside each entry of the
    ``_certificate_cases`` (``certified_through``) is the one the
    independent derivation of ``_certificate_bound`` gives: every degree
    for an end in K or an empty component, every degree when the window
    reaches E, and the window's last degree otherwise.  Both kinds occur."""
    seen: Counter = Counter()
    for case, d, lams, alphas in _certificate_cases():
        comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams), tail=tail)
        windows = {(row, col): window for row, col, _, window in _window_entries(comp, alphas)}
        for alpha in alphas:
            for row, col in itertools.product(comp.idems(alpha), repeat=2):
                window = windows.get((row, col))
                short = window is not None and window[-1] < _certificate_bound(comp, row, col)[0]
                assert comp.certified_through(row, col) == (window[-1] if short else math.inf), (case, row, col)
                seen[short] += 1
    assert seen[True] >= 1 and seen[False] >= 1, seen


def test_the_certificate_needs_the_window_to_reach_every_dotless_diagram(monkeypatch):
    """``min_degree``, ``checked_window`` and the record all read the
    component's kept ``degree_range``, and E includes W.  No entry of the
    test data has W above t + g, so on a fresh computer the range of a
    certified entry's ``_free_rep`` ends is patched to start one degree
    lower and to put a dotless diagram above the window: ``min_degree`` and
    the window start one degree lower, and the entry, unchanged, is
    certified only through its window."""
    d, comp, _ = _block_computer("sl2 (w,w,w)")
    row, col, entry, window = next(e for e in _window_entries(comp, [d.root((2,))]) if not e[2].is_zero())
    assert comp.certified_through(row, col) == math.inf
    ends = comp._free_rep(idem_key(*row)), comp._free_rep(idem_key(*col))
    _, comp, _ = _block_computer("sl2 (w,w,w)")
    degree_range = comp.alg.degree_range
    moved = (window[0] - 1, window[-1] + 1)
    monkeypatch.setattr(comp.alg, "degree_range", lambda *key: moved if key == ends else degree_range(*key))
    assert comp.min_degree(*ends) == window[0] - 1
    assert comp.checked_window(*ends, entry) == range(window[0] - 1, window.stop)
    assert comp.graded_hom(row, col) == entry
    assert comp.certified_through(row, col) == window[-1]


def test_the_certificate_rests_on_checked_degrees(monkeypatch):
    """The degrees (E − g, E] that the certificate's induction starts from
    are checked by the window: on a certified entry with a nonempty
    component at such a degree, emptying that kernel makes ``graded_hom``
    raise ``IntegrityError``."""
    d, comp, strands = _block_computer("sl2 (w,w,w)")

    def bases():
        for row, col, entry, _ in _window_entries(comp, block_contents(d, strands)):
            if comp.certified_through(row, col) < math.inf:
                continue
            bottom, top = comp._free_rep(idem_key(*row)), comp._free_rep(idem_key(*col))
            E, g = _certificate_bound(comp, row, col)
            for deg in range(E - g + 1, E + 1):
                if comp.tilde_basis(bottom, top, deg):
                    yield row, col, (bottom, top, deg)

    row, col, target = next(bases())
    _, comp, _ = _block_computer("sl2 (w,w,w)")
    kernel_space = comp.kernel_space
    monkeypatch.setattr(comp, "kernel_space", lambda *key: ([], {}) if key == target else kernel_space(*key))
    with pytest.raises(IntegrityError, match=rf"degree {target[2]}: dimension \d+ exceeds oracle 0"):
        comp.graded_hom(row, col)


# name: (datum, red labels, strand bound, entries, entries only their
# window checks) of the tables below
CERTIFIED_TABLES = {
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1)), 4, 2133, 0),
    "sl2 (2w,w)": (sl2, ((2,), (1,)), 4, 55, 0),
    "B2 (w1,w2)": (b2, ((1, 0), (0, 1)), 3, 383, 50),
}


@pytest.mark.parametrize("case", sorted(CERTIFIED_TABLES))
def test_where_the_certificate_holds(case):
    """At the default tail every entry of A2 (ω1, ω2) and of sl2 (2ω, ω) up
    to four strands is certified in every degree; B2 (ω1, ω2) at three
    strands is not, since its long-root dots (g = 4) put E above the
    window of some entries."""
    datum_f, lams, strands, entries, window_only = CERTIFIED_TABLES[case]
    d = datum_f()
    comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams), max_strands=strands)
    through = [
        comp.certified_through(a, b)
        for alpha in block_contents(d, strands)
        for a, b in itertools.product(comp.idems(alpha), repeat=2)
    ]
    assert (len(through), sum(t < math.inf for t in through)) == (entries, window_only)
