from fractions import Fraction

import pytest

from tensoralg import modules
from tensoralg.cartan import PRESETS, default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from tensoralg.linalg import add_multiple, nullspace, row_reduce, solve, transpose
from tensoralg.modules import (
    FinDimModule,
    SemisimpleQuotient,
    UnsupportedCharacteristicError,
    central_primitive_idempotents,
    crystal_f,
    identify_simple,
    radical,
    regular_module,
    regular_trace,
    restrict,
    simples,
    socle,
)
from tensoralg.scalars import QQ, PrimeField
from tensoralg.workbench import block_contents

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


# (datum, red labels, strands): the hand-worked crystals of the crystal task's
# test in tests/test_workbench.py, and sl2 (ω, ω, ω) to two strands
CRYSTAL_CASES = [
    ("sl2", ((2,), (1,)), 3),
    ("sl2", ((1,), (1,)), 2),
    ("sl2", ((1,), (1,), (1,)), 2),
    ("a2", ((1, 0), (0, 1)), 3),
    ("b2", ((1, 0),), 4),
    ("b2", ((0, 1),), 3),
]


# The number of crystal edges of each case, the sum of its hand-worked
# string lengths: B(3) ⊕ B(1) has 3 + 1; B(2) ⊕ B(0) has 2; B(3) ⊕ 2·B(1)
# cut at two strands has 2 + 1 + 1; the a2 case 3 per node; the b2 vector
# representation 2 + 2 and the spin representation 1 + 2.
EDGES = dict(zip(CRYSTAL_CASES, [4, 2, 4, 6, 4, 3]))


@pytest.fixture(scope="module")
def crystal_cases():
    """Per case, the block computer, Σλ and {content: (block, simples)}
    for every content up to the strand bound that has an idempotent, as
    the crystal task builds them."""
    out = {}
    for name, lambdas, strands in CRYSTAL_CASES:
        d = PRESETS[name]()
        lams = tuple(d.weight(lam) for lam in lambdas)
        comp = BlockComputer(d, default_q_matrix(d), lams, max_strands=strands)
        blocks = {}
        for alpha in block_contents(d, strands):
            if comp.idems(alpha):
                blk = QuotientBlock(comp, alpha)
                blocks[alpha] = (blk, simples(blk) if blk.dim else [])
        out[name, lambdas, strands] = (comp, sum(lams, d.zero_weight()), blocks)
    return out


def test_simple_count_matches_weight_dim(sl2_setup, crystal_cases):
    """The simples of block α are as many as the dimension of the weight
    space Σλ − α of the tensor product, so ``simples`` lists every simple,
    which ``crystal_f`` relies on."""
    d, comp11, comp2 = sl2_setup
    for comp, lamsum, nmax in ((comp11, 2, 2), (comp2, 2, 2)):
        for n in range(nmax + 1):
            blk = QuotientBlock(comp, d.root((n,)))
            mu = d.weight((lamsum - 2 * n,))
            want = comp.space.weight_dim(mu)
            got = len(simples(blk)) if blk.dim else 0
            assert got == want, (n, got, want)
    for case, (comp, total, blocks) in crystal_cases.items():
        for alpha in block_contents(comp.datum, case[2]):
            want = comp.space.weight_dim(total - alpha.to_weight())
            got = len(blocks[alpha][1]) if alpha in blocks else 0
            assert got == want, (case, alpha.coords, got, want)


def test_prime_field_radical_unsupported():
    d = sl2()
    gf = PrimeField(5)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))), field=gf)
    blk = QuotientBlock(comp, d.root((1,)))
    with pytest.raises(UnsupportedCharacteristicError):
        radical(blk)


def test_restrict_keeps_only_the_image_of_the_unit(sl2_setup):
    """E_0 L = L·ν_0(1) is 0 for the content-1 simple of sl2 (ω, ω) with
    tag 0, which no idempotent ending in a strand labelled 0 reaches;
    the other simple restricts to the content-0 simple."""
    d, comp11, _ = sl2_setup
    b0, b1 = (QuotientBlock(comp11, d.root((n,))) for n in (0, 1))
    L0, L1 = simples(b1)
    assert L0.tag == 0 and L0.dim == 1
    assert restrict(L0, 0, b0).dim == 0
    assert crystal_f(simples(b0), 0, [L0]) == [None]
    assert restrict(L1, 0, b0).dim == 1


def test_the_source_unit_acts_as_the_identity_on_restrictions(sl2_setup):
    d, comp11, comp2 = sl2_setup
    checked = 0
    for comp in (comp11, comp2):
        blocks = [QuotientBlock(comp, d.root((n,))) for n in range(3)]
        for src, dst in zip(blocks, blocks[1:]):
            if not dst.dim:
                continue
            for N in [regular_module(dst)] + simples(dst):
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
        (nxt,) = crystal_f([chain[-1]], 0, sims[n + 1])
        if nxt is None:
            break
        chain.append(nxt)
        n += 1
    assert len(chain) == 3  # B(2) string has λ^i + 1 = 3 nodes


def _case_id(case):
    name, lambdas, _ = case
    return name + "-" + ";".join(",".join(map(str, lam)) for lam in lambdas)


def _hom_dim(M, L):
    """dim Hom_A(M, L) by solving the intertwiner equations
    φ(m·a) = φ(m)·a exactly, for the nm x nl unknowns φ_{r,c} at column
    r·nl + c: the reference that ``crystal_f``'s socles are checked
    against."""
    nm, nl = M.dim, L.dim
    if nm == 0 or nl == 0:
        return 0
    rows = []
    for i in range(M.block.dim):
        ma = M.action(i)
        la_cols = transpose(L.action(i))
        for r in range(nm):
            for c in range(nl):
                row = {k * nl + c: x for k, x in ma[r].items()}
                add_multiple(row, -1, {r * nl + k: x for k, x in la_cols.get(c, {}).items()})
                if row:
                    rows.append(row)
    return nm * nl - len(row_reduce(rows, QQ)[1])


@pytest.mark.parametrize("case", CRYSTAL_CASES, ids=_case_id)
def test_crystal_f_is_the_one_simple_with_a_hom_into_its_restriction(crystal_cases, case):
    """h(L, S′) = dim Hom_A(L, E_i S′) is 0 or 1, each L and each S′ has at
    most one nonzero h, and f̃_i L is the S′ with h = 1 (None if there is
    none), on every pair of blocks α, α + α_i."""
    comp, _, blocks = crystal_cases[case]
    edges = 0
    for alpha, (src, sims) in blocks.items():
        for i in range(comp.datum.rank):
            target = comp.datum.root([c + (j == i) for j, c in enumerate(alpha.coords)])
            if target not in blocks:
                continue
            dst_sims = blocks[target][1]
            h = {(L.tag, S.tag): _hom_dim(L, restrict(S, i, src)) for L in sims for S in dst_sims}
            assert set(h.values()) <= {0, 1}
            imgs = crystal_f(sims, i, dst_sims)
            assert len(imgs) == len(sims)
            for L, img in zip(sims, imgs):
                assert sum(h[L.tag, S.tag] for S in dst_sims) <= 1
                assert [S for S in dst_sims if h[L.tag, S.tag]] == ([] if img is None else [img])
                edges += img is not None
            for S in dst_sims:
                assert sum(h[L.tag, S.tag] for L in sims) <= 1
    assert edges == EDGES[case]


def test_crystal_f_rejects_a_simple_listed_twice(sl2_setup):
    """A target listed twice has two nonzero Homs: ``IntegrityError``."""
    d, _, comp2 = sl2_setup
    b0, b1 = (QuotientBlock(comp2, d.root((n,))) for n in (0, 1))
    (L,) = simples(b0)
    (S,) = simples(b1)
    assert crystal_f([L], 0, [S]) == [S]
    assert crystal_f([], 0, [S]) == []
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        crystal_f([L], 0, [S, S])


def test_crystal_f_needs_every_simple_of_the_source_block(sl2_setup):
    """soc(E_0 S′) for the content-2 simple S′ of sl2 (ω, ω) is the
    content-1 simple with tag 1; with only the tag-0 simple listed, no
    listed simple accounts for it: ``IntegrityError``."""
    d, comp11, _ = sl2_setup
    b1, b2 = (QuotientBlock(comp11, d.root((n,))) for n in (1, 2))
    L0, L1 = simples(b1)
    (S,) = simples(b2)
    assert crystal_f([L0, L1], 0, [S]) == [None, S]
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        crystal_f([L0], 0, [S])


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
    assert SemisimpleQuotient(blk).dim == 2  # two one-dimensional simples, one copy each in A/rad
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


def test_regular_trace_pairing_equals_the_full_trace_form(sl2_setup, crystal_cases):
    """The pairing τ(b_i·b_j) of the regular trace is the trace form, on
    sl2 (ω, ω, ω) and (2ω) to two strands, A2 (ω1, ω2) to three and B2
    (ω1) to four; τ lives on degree-0 basis elements and the form is
    symmetric."""
    d, _, comp2 = sl2_setup
    comp111 = BlockComputer(d, default_q_matrix(d), (d.weight((1,)),) * 3)
    blocks = [QuotientBlock(comp, d.root((n,))) for comp in (comp111, comp2) for n in range(3)]
    for case in (("a2", ((1, 0), (0, 1)), 3), ("b2", ((1, 0),), 4)):
        blocks.extend(blk for blk, _ in crystal_cases[case][2].values())
    checked = 0
    for blk in blocks:
        tau = regular_trace(blk)
        assert all(blk.basis_degree(l) == 0 for l in tau)
        form = blk.pairing(tau)
        assert form == [{j: x for j, x in enumerate(row) if x} for row in _full_trace_form(blk)]
        for i, row in enumerate(form):
            for j, x in row.items():
                assert form[j].get(i) == x
        checked += any(form)
    assert checked >= 10  # the comparison saw nonzero forms


def test_radical_is_computed_once_per_block(sl2_setup, monkeypatch):
    d, comp11, _ = sl2_setup
    calls = []
    original = QuotientBlock.pairing
    monkeypatch.setattr(QuotientBlock, "pairing", lambda blk, t: calls.append(blk) or original(blk, t))
    blk = QuotientBlock(comp11, d.root((1,)))
    rad = radical(blk)
    top = SemisimpleQuotient(blk)
    socle(regular_module(blk))
    simples(blk)
    assert radical(blk) is rad
    assert calls == [blk]
    assert top.dim == 2
