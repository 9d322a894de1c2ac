from fractions import Fraction

import pytest

from tensoralg import modules
from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from tensoralg.linalg import nullspace, row_reduce, solve, transpose
from tensoralg.modules import (
    FinDimModule,
    SemisimpleQuotient,
    UnsupportedCharacteristicError,
    central_primitive_idempotents,
    cosocle,
    crystal_e,
    crystal_f,
    hom_dim,
    identify_simple,
    induce,
    radical,
    regular_module,
    restrict,
    simples,
    socle,
    trace_form,
)
from tensoralg.scalars import QQ, PrimeField

ONE = Fraction(1)


@pytest.fixture(scope="module")
def sl2_setup():
    d = sl2()
    q = default_q_matrix(d)
    comp11 = BlockComputer(d, q, (d.weight((1,)), d.weight((1,))))
    comp2 = BlockComputer(d, q, (d.weight((2,)),))
    return d, comp11, comp2


def test_matrix_block_semisimple(sl2_setup):
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((2,)))
    assert radical(blk) == []
    ss = simples(blk)
    assert len(ss) == 1
    assert ss[0].dim == 3
    char = ss[0].graded_char()
    assert char is not None and char.is_bar_invariant()


def test_weight0_block_two_simples(sl2_setup):
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((1,)))
    assert len(radical(blk)) == 3
    ss = simples(blk)
    assert len(ss) == 2
    assert sorted(s.dim for s in ss) == [1, 1]
    for s in ss:
        assert s.graded_char().is_bar_invariant()


def test_local_block_radical(sl2_setup):
    # e(1) T^{2ω} e(1) at one strand is K[x]/(x^2): radical is the dot span
    d, _, comp2 = sl2_setup
    blk = QuotientBlock(comp2, d.root((1,)))
    assert blk.dim == 2
    rad = radical(blk)
    assert len(rad) == 1
    ss = simples(blk)
    assert len(ss) == 1 and ss[0].dim == 1


def test_zero_block(sl2_setup):
    d, _, comp2 = sl2_setup
    blk = QuotientBlock(comp2, d.root((3,)))
    assert blk.dim == 0
    assert radical(blk) == []
    assert simples(blk) == []


def test_simple_count_matches_weight_dim(sl2_setup):
    d, comp11, comp2 = sl2_setup
    total11 = d.weight((2,))
    for comp, lamsum, nmax in ((comp11, 2, 2), (comp2, 2, 2)):
        for n in range(nmax + 1):
            blk = QuotientBlock(comp, d.root((n,)))
            mu = d.weight((lamsum - 2 * n,))
            want = comp.space.weight_dim(mu)
            got = len(simples(blk)) if blk.dim else 0
            assert got == want, (n, got, want)


def test_prime_field_radical_unsupported():
    d = sl2()
    gf = PrimeField(5)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))), field=gf)
    blk = QuotientBlock(comp, d.root((1,)))
    with pytest.raises(UnsupportedCharacteristicError):
        radical(blk)


def test_induce_zero_and_dims(sl2_setup):
    d, _, comp2 = sl2_setup
    blocks = {n: QuotientBlock(comp2, d.root((n,))) for n in range(4)}
    # F on the zero module is zero
    M0 = regular_module(blocks[3])
    assert M0.dim == 0
    # F applied to the 1-dim top module of T^{2ω}
    top = regular_module(blocks[0])
    FM = induce(top, 0, blocks[1])
    assert FM.dim == 2  # the weight-0 projective of T^{2ω}
    # beyond integrability depth the target block is zero
    M2 = regular_module(blocks[2])
    F3 = induce(M2, 0, blocks[3])
    assert F3.dim == 0


def test_adjunction_dims(sl2_setup):
    d, _, comp2 = sl2_setup
    blocks = {n: QuotientBlock(comp2, d.root((n,))) for n in range(3)}
    M = regular_module(blocks[1])
    N = regular_module(blocks[2])
    FM = induce(M, 0, blocks[2])
    EN = restrict(N, 0, blocks[1])
    assert hom_dim(FM, N) == hom_dim(M, EN)


def test_restrict_keeps_only_the_image_of_the_unit(sl2_setup):
    """E_0 L = L·ν_0(1) is 0 for the content-1 simple of sl2 (ω, ω) with
    tag 0, which no idempotent ending in a strand labelled 0 reaches;
    the other simple restricts to the content-0 simple."""
    d, comp11, _ = sl2_setup
    b0, b1 = (QuotientBlock(comp11, d.root((n,))) for n in (0, 1))
    L0, L1 = simples(b1)
    assert L0.tag == 0 and L0.dim == 1
    assert restrict(L0, 0, b0).dim == 0
    assert crystal_e(L0, 0, b0, simples(b0)) is None
    assert restrict(L1, 0, b0).dim == 1


def test_the_source_unit_acts_as_the_identity_on_restrictions(sl2_setup):
    d, comp11, comp2 = sl2_setup
    checked = 0
    for comp in (comp11, comp2):
        blocks = [QuotientBlock(comp, d.root((n,))) for n in range(3)]
        for src, dst in zip(blocks, blocks[1:]):
            if not dst.dim:
                continue
            for N in [regular_module(dst), cosocle(regular_module(dst))] + simples(dst):
                EN = restrict(N, 0, src)
                one = src.identity_vector()
                for r in range(EN.dim):
                    assert EN.act_vec({r: ONE}, one) == {r: ONE}
                checked += EN.dim
    assert checked


def _direct_sum(M, N):
    """M ⊕ N, with M's basis first."""

    def act(i):
        return M.action(i) + [{M.dim + c: x for c, x in row.items()} for row in N.action(i)]

    return FinDimModule(M.block, M.dim + N.dim, act)


def test_identify_simple_reads_the_primitive_idempotents(sl2_setup):
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((1,)))
    sims = simples(blk)
    for S in sims:
        assert identify_simple(S, sims) is S
        assert identify_simple(_direct_sum(S, S), sims) is S
    # the cosocle of the regular module is S_0 ⊕ S_1: not one simple
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        identify_simple(cosocle(regular_module(blk)), sims)
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        identify_simple(_direct_sum(sims[0], sims[1]), sims)
    # a part that no listed simple accounts for
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        identify_simple(_direct_sum(sims[0], sims[1]), sims[:1])
    assert identify_simple(FinDimModule(blk, 0, lambda i: []), sims) is None


def test_crystal_string_b2(sl2_setup):
    d, _, comp2 = sl2_setup
    blocks = {n: QuotientBlock(comp2, d.root((n,))) for n in range(4)}
    sims = {n: (simples(blocks[n]) if blocks[n].dim else []) for n in range(4)}
    chain = [sims[0][0]]
    n = 0
    while n + 1 < 4 and blocks[n + 1].dim:
        nxt = crystal_f(chain[-1], 0, blocks[n + 1], sims[n + 1])
        if nxt is None:
            break
        chain.append(nxt)
        n += 1
    assert len(chain) == 3  # B(2) string has λ^i + 1 = 3 nodes
    # round trip f then e
    back = crystal_e(chain[1], 0, blocks[0], sims[0])
    assert back is not None and back.tag == chain[0].tag


def test_crystal_e_inverts_crystal_f_on_every_edge(sl2_setup):
    """f-edges L → L' and e-edges L' → L are the same set: sl2 (2ω) up
    to three strands (the string B(2)) and (ω, ω) up to two (B(2) ⊕ B(0)),
    so ``crystal_e`` runs ``restrict`` and ``socle`` on every edge."""
    d, comp11, comp2 = sl2_setup
    for comp, nmax in ((comp2, 3), (comp11, 2)):
        blocks = {n: QuotientBlock(comp, d.root((n,))) for n in range(nmax + 1)}
        sims = {n: simples(blocks[n]) if blocks[n].dim else [] for n in blocks}
        f_edges, e_edges = set(), set()
        for n in range(nmax):
            if not blocks[n + 1].dim:
                continue
            for L in sims[n]:
                img = crystal_f(L, 0, blocks[n + 1], sims[n + 1])
                if img is not None:
                    f_edges.add((n, L.tag, img.tag))
            for L in sims[n + 1]:
                pre = crystal_e(L, 0, blocks[n], sims[n])
                if pre is not None:
                    e_edges.add((n, pre.tag, L.tag))
        assert len(f_edges) == 2
        assert e_edges == f_edges


def _reference_action(basis, image, i):
    """Each image solved against the reduced basis, one ``solve`` per
    vector."""
    mat = [solve(basis, image(v, i), QQ) for v in basis]
    assert None not in mat
    return mat


def test_submodule_actions_equal_solved_coordinates(sl2_setup):
    """Every simple's action matrices and degrees, and the socle of the
    regular module's, equal those solved for against the reduced basis."""
    d, comp11, comp2 = sl2_setup
    checked = 0
    for comp in (comp11, comp2):
        for n in range(3):
            blk = QuotientBlock(comp, d.root((n,)))
            if not blk.dim:
                continue
            S = SemisimpleQuotient(blk)
            for L, c in zip(simples(blk), central_primitive_idempotents(S)):
                f = modules._split_primitive(S, c)
                basis = row_reduce([S.multiply(f, {i: ONE}) for i in range(S.dim)], QQ)[0]
                assert L.degrees == [S.is_homogeneous(v) for v in basis]
                image = lambda v, i: S.multiply(v, S.project({i: ONE}))
                for i in range(blk.dim):
                    assert L.action(i) == _reference_action(basis, image, i)
                    checked += any(L.action(i))
            M = regular_module(blk)
            cons = []
            for x in radical(blk):
                cons.extend(transpose([M.act_vec({r: ONE}, x) for r in range(M.dim)]).values())
            basis = row_reduce(nullspace(cons, M.dim, QQ), QQ)[0]
            soc = socle(M)
            for i in range(blk.dim):
                assert soc.action(i) == _reference_action(basis, lambda v, i: M.act_vec(v, {i: ONE}), i)
                checked += any(soc.action(i))
    assert checked


def test_an_unstable_span_is_an_integrity_error(sl2_setup):
    """A basis vector of the regular module that the action moves out of
    its span is not a submodule; the whole space is, with the regular
    action."""
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((1,)))
    M = regular_module(blk)
    image = lambda v, i: M.act_vec(v, {i: ONE})
    k, i = next((k, i) for k in range(blk.dim) for i in range(blk.dim) if set(M.action(i)[k]) - {k})
    with pytest.raises(IntegrityError, match="span is not stable"):
        modules._submodule(blk, [{k: ONE}], image, "span").action(i)
    whole = modules._submodule(blk, [{c: ONE} for c in range(blk.dim)], image, "span")
    assert all(whole.action(i) == M.action(i) for i in range(blk.dim))


def test_socle_cosocle_of_projective(sl2_setup):
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((1,)))
    reg = regular_module(blk)
    top = cosocle(reg)
    assert top.dim == 2  # two simples, one copy each in A/rad of the regular
    soc = socle(reg)
    assert 1 <= soc.dim <= blk.dim


def _full_trace_form(blk):
    """tr(L_{b_i} L_{b_j}) summed over every pair, with no degree or
    symmetry shortcut."""
    n = blk.dim
    tr = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l, c in blk._mult.get((j, k), {}).items():
                    tr[i][j] += c * blk._mult.get((i, l), {}).get(k, 0)
    return tr


def test_pruned_trace_form_equals_the_full_form(sl2_setup):
    d, _, comp2 = sl2_setup
    comp111 = BlockComputer(d, default_q_matrix(d), (d.weight((1,)),) * 3)
    checked = 0
    for comp in (comp111, comp2):
        for n in range(3):
            blk = QuotientBlock(comp, d.root((n,)))
            full = _full_trace_form(blk)
            assert trace_form(blk) == full
            deg = blk.degrees()
            for i in range(blk.dim):
                for j in range(blk.dim):
                    if deg[i] + deg[j]:
                        assert full[i][j] == 0
            checked += any(any(row) for row in full)
    assert checked  # the comparison saw nonzero forms


def test_radical_is_computed_once_per_block(sl2_setup, monkeypatch):
    d, comp11, _ = sl2_setup
    calls = []
    original = modules.trace_form
    monkeypatch.setattr(modules, "trace_form", lambda blk: calls.append(blk) or original(blk))
    blk = QuotientBlock(comp11, d.root((1,)))
    rad = radical(blk)
    top = cosocle(regular_module(blk))
    socle(regular_module(blk))
    simples(blk)
    assert radical(blk) is rad
    assert calls == [blk]
    assert top.dim == 2
