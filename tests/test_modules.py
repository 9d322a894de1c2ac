from collections import Counter
from fractions import Fraction

import pytest

from tensoralg import modules
from tensoralg.cartan import PRESETS, default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from tensoralg.diagrams import Element, idem_key
from tensoralg.linalg import add_multiple, reduce_against, row_reduce, solve, transpose
from tensoralg.modules import (
    SemisimpleQuotient,
    UnsupportedCharacteristicError,
    central_primitive_idempotents,
    crystal_f,
    radical,
    regular_trace,
    simples,
)
from tensoralg.scalars import QQ, PrimeField
from tensoralg.standard import weight_dim
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
# test in tests/test_workbench.py, sl2 (ω, ω, ω) to two strands, and
# A2 (ω1, ω2) to four, whose content-(2,2) block has idempotents that are
# not their own coset representatives
CRYSTAL_CASES = [
    ("sl2", ((2,), (1,)), 3),
    ("sl2", ((1,), (1,)), 2),
    ("sl2", ((1,), (1,), (1,)), 2),
    ("a2", ((1, 0), (0, 1)), 3),
    ("a2", ((1, 0), (0, 1)), 4),
    ("b2", ((1, 0),), 4),
    ("b2", ((0, 1),), 3),
]


# The number of crystal edges of each case, the sum of its hand-worked
# string lengths: B(3) ⊕ B(1) has 3 + 1; B(2) ⊕ B(0) has 2; B(3) ⊕ 2·B(1)
# cut at two strands has 2 + 1 + 1; the a2 case 3 per node at three
# strands, and 4 per node at four, where the lowest weight of the adjoint
# representation, content (2,2), adds one edge of each node; the b2 vector
# representation 2 + 2 and the spin representation 1 + 2.
EDGES = dict(zip(CRYSTAL_CASES, [4, 2, 4, 6, 8, 4, 3]))


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
            want = weight_dim(comp.space, mu)
            got = len(simples(blk)) if blk.dim else 0
            assert got == want, (n, got, want)
    for case, (comp, total, blocks) in crystal_cases.items():
        for alpha in block_contents(comp.datum, case[2]):
            want = weight_dim(comp.space, total - alpha.to_weight())
            got = len(blocks[alpha][1]) if alpha in blocks else 0
            assert got == want, (case, alpha.coords, got, want)


def test_prime_field_radical_unsupported():
    d = sl2()
    gf = PrimeField(5)
    comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))), field=gf)
    blk = QuotientBlock(comp, d.root((1,)))
    with pytest.raises(UnsupportedCharacteristicError):
        radical(blk)


# -- the referee: modules by action matrices, restricted along the add-a-strand map ----


class _Module:
    """A right module over a quotient block by its action matrices:
    ``action[i]`` is the matrix of the i-th block basis element as a list
    of sparse rows, row r the image of the r-th module basis vector."""

    def __init__(self, block, dim, action, degrees=None):
        self.block = block
        self.dim = dim
        self.action = action
        self.degrees = degrees

    def act_vec(self, v, x):
        """v·x for a module vector v and a block element x."""
        out = {}
        for bi, c in x.items():
            for r, vr in v.items():
                add_multiple(out, vr * c, self.action[bi][r])
        return out


def _regular(block):
    n = block.dim
    return _Module(block, n, [[block._mult.get((r, i), {}) for r in range(n)] for i in range(n)])


def _submodule(block, rows, image, what, degree=None):
    """The submodule spanned by ``rows`` on the basis of their reduced row
    space, where the block basis element i sends a basis vector v to
    ``image(v, i)``; ``degree(v)``, if given, grades the basis.  A reduced
    row b_j is 1 at its pivot p_j and every other row is 0 there, so the
    coordinates of an image in the span are read off the pivots; an image
    with a nonzero remainder is an ``IntegrityError``."""
    basis, pivots = row_reduce(rows, QQ)
    pivot_rows = dict(zip(pivots, basis))
    action = []
    for i in range(block.dim):
        mat = []
        for v in basis:
            u = image(v, i)
            if reduce_against(u, pivot_rows):
                raise IntegrityError(f"{what} is not stable")
            mat.append({j: u[p] for j, p in enumerate(pivots) if p in u})
        action.append(mat)
    return _Module(block, len(basis), action, [degree(v) for v in basis] if degree else None)


def _rebuilt_simples(block):
    """The simples of ``block`` as modules, in ``simples``' order: L = f·S
    for the primitive idempotent f that ``_split_primitive`` finds under
    each central primitive idempotent of S = A/rad."""
    S = SemisimpleQuotient(block)
    if S.dim == 0:
        return []
    images = [S.project({i: 1}) for i in range(block.dim)]
    rebuilt = []
    for c in central_primitive_idempotents(S):
        f = modules._split_primitive(S, c)
        rows = [S.multiply(f, {i: 1}) for i in range(S.dim)]
        rebuilt.append(
            _submodule(block, rows, lambda v, i: S.multiply(v, images[i]), "simple module", S.is_homogeneous)
        )
    return rebuilt


def _trace_character(M):
    """ch(M)[x], the trace Σ_r (e_r·e(x))_r of each idempotent e(x) on M,
    where it is not zero."""
    ch = {}
    for x in M.block.idems:
        ex = M.block.idem_vector(x)
        n = sum(M.act_vec({r: 1}, ex).get(r, 0) for r in range(M.dim))
        if n:
            ch[x] = n
    return ch


@pytest.fixture(scope="module")
def rebuilt(crystal_cases):
    """Per case, {content: the simples of its block rebuilt as modules}."""
    return {
        case: {alpha: _rebuilt_simples(blk) for alpha, (blk, _) in blocks.items()}
        for case, (_, _, blocks) in crystal_cases.items()
    }


def _nu_map(i, block_src, block_dst):
    """The add-a-strand algebra map on quotient blocks: append a black
    strand labelled i at the far right and reduce in the target block."""
    src, dst = block_src.comp.alg, block_dst.comp.alg

    def nu(vi):
        _, _, _, ((I, kappa), w, dots) = block_src.basis[vi]
        nbottom = idem_key(I + (i,), kappa)
        nw = tuple(w) + (len(src.merged((I, kappa))),)
        ndots = tuple(dots) + (0,)
        el = Element(dst, {(nbottom, nw, ndots): 1})
        return block_dst._reduce(el, nbottom, dst.top_idem(nbottom, nw), dst.diagram_degree(nbottom, nw, ndots))

    return nu


def _restrict(N, i, block_src):
    """E_i N = N·ν_i(1), acted on through ν_i: the module that
    ``crystal_f``'s edges are checked against.

    ν_i(1), the image of the source block's unit, is the sum of the
    idempotents of N's block that end in a strand labelled i.  It is an
    idempotent and ν_i(a) = ν_i(1)·ν_i(a)·ν_i(1), so N·ν_i(1) is a
    submodule on which the source block's unit acts as the identity.
    """
    nu = _nu_map(i, block_src, N.block)
    images = [nu(j) for j in range(block_src.dim)]
    unit = {}
    for j, c in block_src.identity_vector().items():
        add_multiple(unit, c, images[j])
    rows = [N.act_vec({r: 1}, unit) for r in range(N.dim)]
    return _submodule(block_src, rows, lambda v, j: N.act_vec(v, images[j]), "E_i N")


def test_restrict_keeps_only_the_image_of_the_unit(sl2_setup):
    """E_0 L = L·ν_0(1) is 0 for the content-1 simple of sl2 (ω, ω) with
    tag 0, which no idempotent ending in a strand labelled 0 reaches;
    the other simple restricts to the content-0 simple."""
    d, comp11, _ = sl2_setup
    b0, b1 = (QuotientBlock(comp11, d.root((n,))) for n in (0, 1))
    L0, L1 = simples(b1)
    M0, M1 = _rebuilt_simples(b1)
    assert L0.tag == 0 and L0.dim == M0.dim == 1
    assert _restrict(M0, 0, b0).dim == 0
    assert crystal_f(simples(b0), 0, [L0]) == [None]
    assert _restrict(M1, 0, b0).dim == 1


def test_the_source_unit_acts_as_the_identity_on_restrictions(sl2_setup):
    d, comp11, comp2 = sl2_setup
    checked = 0
    for comp in (comp11, comp2):
        blocks = [QuotientBlock(comp, d.root((n,))) for n in range(3)]
        for src, dst in zip(blocks, blocks[1:]):
            if not dst.dim:
                continue
            for N in [_regular(dst)] + _rebuilt_simples(dst):
                EN = _restrict(N, 0, src)
                one = src.identity_vector()
                for r in range(EN.dim):
                    assert EN.act_vec({r: ONE}, one) == {r: ONE}
                checked += EN.dim
    assert checked


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
    """datum-red labels, and @strands where an earlier case has the same
    datum and red labels."""
    name, lambdas, strands = case
    base = name + "-" + ";".join(",".join(map(str, lam)) for lam in lambdas)
    earlier = [c[:2] for c in CRYSTAL_CASES[: CRYSTAL_CASES.index(case)]]
    return f"{base}@{strands}" if case[:2] in earlier else base


def _hom_dim(M, L):
    """dim Hom_A(M, L) by solving the intertwiner equations
    φ(m·a) = φ(m)·a exactly, for the nm x nl unknowns φ_{r,c} at column
    r·nl + c: with ``_restrict``, the referee that ``crystal_f``'s edges
    are checked against."""
    nm, nl = M.dim, L.dim
    if nm == 0 or nl == 0:
        return 0
    rows = []
    for i in range(M.block.dim):
        ma = M.action[i]
        la_cols = transpose(L.action[i])
        for r in range(nm):
            for c in range(nl):
                row = {k * nl + c: x for k, x in ma[r].items()}
                add_multiple(row, -1, {r * nl + k: x for k, x in la_cols.get(c, {}).items()})
                if row:
                    rows.append(row)
    return nm * nl - len(row_reduce(rows, QQ)[1])


def test_the_characters_of_a_simple_add_up_to_its_dimension(crystal_cases):
    """On every block of the cases, A2 (ω1, ω2) content (2,2) included,
    the identity vector is a two-sided unit, so the traces ch(L)[x] of the
    idempotents e(x) add up to dim L for every simple L."""
    checked = 0
    for comp, _, blocks in crystal_cases.values():
        for blk, sims in blocks.values():
            one = blk.identity_vector()
            for i in range(blk.dim):
                assert blk.multiply_vectors(one, {i: 1}) == {i: 1} == blk.multiply_vectors({i: 1}, one)
            for L in sims:
                assert all(n > 0 for n in L.character.values())
                assert sum(L.character.values()) == L.dim
                checked += 1
    assert checked >= 40


def test_each_simple_carries_the_trace_character_of_its_rebuilt_module(crystal_cases, rebuilt):
    """On every block of the cases, ``L.character`` is the trace of each
    e(x) on the referee's rebuilt module, with ``int`` values, and
    ``L.degrees`` are the degrees of its reduced basis."""
    checked = 0
    for case, (_, _, blocks) in crystal_cases.items():
        for alpha, (_, sims) in blocks.items():
            assert len(sims) == len(rebuilt[case][alpha])
            for L, M in zip(sims, rebuilt[case][alpha]):
                assert L.character == _trace_character(M)
                assert all(type(n) is int for n in L.character.values())
                assert L.degrees == M.degrees and L.dim == M.dim
                checked += 1
    assert checked >= 40


def _plus(comp, alpha, i):
    """The content α + α_i."""
    return comp.datum.root([c + (j == i) for j, c in enumerate(alpha.coords)])


def _block_pairs(comp, blocks):
    """(i, source block, its simples, target simples) for every pair of
    blocks α, α + α_i of a case."""
    for alpha, (src, sims) in blocks.items():
        for i in range(comp.datum.rank):
            target = _plus(comp, alpha, i)
            if target in blocks:
                yield i, src, sims, blocks[target][1]


@pytest.fixture(scope="module")
def referee(crystal_cases, rebuilt):
    """Per case, h(L, S′) = dim Hom_A(L, E_i S′) keyed by (α, i, L.tag,
    S′.tag) over every pair of blocks α, α + α_i, on the rebuilt modules."""
    out = {}
    for case, (comp, _, blocks) in crystal_cases.items():
        mods = rebuilt[case]
        out[case] = {
            (src.alpha, i, tag, dst_tag): _hom_dim(L, _restrict(S, i, src))
            for i, src, _, _ in _block_pairs(comp, blocks)
            for tag, L in enumerate(mods[src.alpha])
            for dst_tag, S in enumerate(mods[_plus(comp, src.alpha, i)])
        }
    return out


def _edges(comp, blocks):
    """{(α, i, L.tag, f̃_i L's tag)} over every pair of blocks, by
    ``crystal_f``."""
    return {
        (src.alpha, i, L.tag, img.tag)
        for i, src, sims, dst_sims in _block_pairs(comp, blocks)
        for L, img in zip(sims, crystal_f(sims, i, dst_sims))
        if img is not None
    }


@pytest.mark.parametrize("case", CRYSTAL_CASES, ids=_case_id)
def test_crystal_f_is_the_one_simple_with_a_hom_into_its_restriction(crystal_cases, referee, case):
    """h(L, S′) = dim Hom_A(L, E_i S′) is 0 or 1, each L and each S′ has at
    most one nonzero h, and f̃_i L is the S′ with h = 1 (None if there is
    none), on every pair of blocks α, α + α_i."""
    comp, _, blocks = crystal_cases[case]
    h = referee[case]
    edges = 0
    for i, src, sims, dst_sims in _block_pairs(comp, blocks):
        hi = {(L.tag, S.tag): h[src.alpha, i, L.tag, S.tag] for L in sims for S in dst_sims}
        assert set(hi.values()) <= {0, 1}
        imgs = crystal_f(sims, i, dst_sims)
        assert len(imgs) == len(sims)
        for L, img in zip(sims, imgs):
            assert sum(hi[L.tag, S.tag] for S in dst_sims) <= 1
            assert [S for S in dst_sims if hi[L.tag, S.tag]] == ([] if img is None else [img])
            edges += img is not None
        for S in dst_sims:
            assert sum(hi[L.tag, S.tag] for L in sims) <= 1
    assert edges == EDGES[case]


def _caught(crystal_cases, referee, cases):
    """Whether ``crystal_f`` raises ``IntegrityError`` or draws other edges
    than the referee on some case of ``cases``."""
    for case in cases:
        comp, _, blocks = crystal_cases[case]
        want = {key for key, n in referee[case].items() if n}
        try:
            if _edges(comp, blocks) != want:
                return True
        except IntegrityError:
            return True
    return False


def test_every_character_entry_off_by_one_is_caught(crystal_cases, referee, monkeypatch):
    """For every simple M with an edge, raising ch(M)[x] by one at the x
    with the most last letters of one label is caught, by an
    ``IntegrityError`` or by the referee."""
    assert not _caught(crystal_cases, referee, CRYSTAL_CASES)
    mutated = 0
    for case in CRYSTAL_CASES:
        comp, _, blocks = crystal_cases[case]
        ends = set()  # (content, tag) of each end of an edge
        for (alpha, i, src_tag, dst_tag), n in referee[case].items():
            if n:
                ends.add((alpha.coords, src_tag))
                ends.add((tuple(c + (j == i) for j, c in enumerate(alpha.coords)), dst_tag))
        for alpha, (_, sims) in blocks.items():
            for M in sims:
                if (alpha.coords, M.tag) not in ends:
                    continue
                ch = M.character
                x0 = max(ch, key=lambda x: max(modules._last_letters(x, i) for i in range(comp.datum.rank)))
                with monkeypatch.context() as m:
                    m.setitem(ch, x0, ch[x0] + 1)
                    assert _caught(crystal_cases, referee, [case]), (case, alpha.coords, M.tag, x0)
                mutated += 1
    assert mutated == 40  # every end of an edge of the cases


def test_last_letters_left_of_a_red_are_caught(crystal_cases, referee, monkeypatch):
    """Counting ε_i over trailing strands labelled i that lie left of a
    red is caught on the cases with more than one red."""

    def through_reds(x, i):
        I, _ = x
        k = 0
        while k < len(I) and I[-1 - k] == i:
            k += 1
        return k

    monkeypatch.setattr(modules, "_last_letters", through_reds)
    for case in CRYSTAL_CASES:
        assert _caught(crystal_cases, referee, [case]) == (len(case[1]) > 1), case


def test_an_undivided_stripped_character_is_caught(crystal_cases, referee, monkeypatch):
    """Dropping the division by k! in ``_strip`` is caught on every case
    with a string of three nodes or more, where ε_i reaches 2: all but the
    b2 spin representation, whose strings have two."""
    monkeypatch.setattr(modules, "factorial", lambda k: 1)
    for case in CRYSTAL_CASES:
        assert _caught(crystal_cases, referee, [case]) == (case != ("b2", ((0, 1),), 3)), case


def test_crystal_f_rejects_a_simple_listed_twice(sl2_setup):
    """A target listed twice reaches its source simple twice:
    ``IntegrityError``."""
    d, _, comp2 = sl2_setup
    b0, b1 = (QuotientBlock(comp2, d.root((n,))) for n in (0, 1))
    (L,) = simples(b0)
    (S,) = simples(b1)
    assert crystal_f([L], 0, [S]) == [S]
    assert crystal_f([], 0, [S]) == []
    with pytest.raises(IntegrityError, match="not a sum of copies of one simple"):
        crystal_f([L], 0, [S, S])


def test_crystal_f_needs_every_simple_of_the_source_block(sl2_setup):
    """ẽ_0 S′ for the content-2 simple S′ of sl2 (ω, ω) is the content-1
    simple with tag 1; with only the tag-0 simple listed, no listed simple
    has its last letters: ``IntegrityError``."""
    d, comp11, _ = sl2_setup
    b1, b2 = (QuotientBlock(comp11, d.root((n,))) for n in (1, 2))
    L0, L1 = simples(b1)
    (S,) = simples(b2)
    assert crystal_f([L0, L1], 0, [S]) == [None, S]
    with pytest.raises(IntegrityError, match="0 listed simples"):
        crystal_f([L0], 0, [S])


def _reference_action(basis, image, i):
    """Each image solved against the reduced basis, one ``solve`` per
    vector."""
    mat = [solve(basis, image(v, i), QQ) for v in basis]
    assert None not in mat
    return mat


def test_submodule_actions_equal_solved_coordinates(sl2_setup):
    """Every rebuilt simple's action matrices, read off the pivots, equal
    those solved for against the reduced basis, and its degrees and the
    simple's are those of the basis."""
    d, comp11, comp2 = sl2_setup
    checked = 0
    for comp in (comp11, comp2):
        for n in range(3):
            blk = QuotientBlock(comp, d.root((n,)))
            if not blk.dim:
                continue
            S = SemisimpleQuotient(blk)
            for L, M, c in zip(simples(blk), _rebuilt_simples(blk), central_primitive_idempotents(S)):
                f = modules._split_primitive(S, c)
                basis = row_reduce([S.multiply(f, {i: ONE}) for i in range(S.dim)], QQ)[0]
                assert L.degrees == M.degrees == [S.is_homogeneous(v) for v in basis]
                image = lambda v, i: S.multiply(v, S.project({i: ONE}))
                for i in range(blk.dim):
                    assert M.action[i] == _reference_action(basis, image, i)
                    checked += any(M.action[i])
    assert checked


def test_an_unstable_span_is_an_integrity_error(sl2_setup):
    """A basis vector of the regular module that the action moves out of
    its span is not a submodule for the referee; the whole space is, with
    the regular action."""
    d, comp11, _ = sl2_setup
    blk = QuotientBlock(comp11, d.root((1,)))
    M = _regular(blk)
    image = lambda v, i: M.act_vec(v, {i: ONE})
    k = next(k for k in range(blk.dim) for i in range(blk.dim) if set(M.action[i][k]) - {k})
    with pytest.raises(IntegrityError, match="span is not stable"):
        _submodule(blk, [{k: ONE}], image, "span")
    whole = _submodule(blk, [{c: ONE} for c in range(blk.dim)], image, "span")
    assert whole.action == M.action


def test_a_simple_with_two_basis_rows_merged_is_caught(crystal_cases, monkeypatch):
    """Replacing the last two reduced basis rows of every simple by their
    sum is caught on each of the 15 blocks of the cases with a simple of
    dimension 2 or more: on 9 the block moves the merged span out of
    itself, "simple module is not stable", and on the other 6 the merged
    row mixes degrees."""
    split, reduce_rows = modules._split_primitive, modules.row_reduce
    pending = []  # set once ``_split_primitive`` returns: the next reduction is of f·S

    def marked_split(S, e):
        f = split(S, e)
        pending.append(f)
        return f

    def merged_rows(rows, field):
        basis, pivots = reduce_rows(rows, field)
        if pending and len(basis) > 1:
            basis = basis[:-2] + [add_multiple(dict(basis[-2]), 1, basis[-1])]
            pivots = pivots[:-1]
        pending.clear()
        return basis, pivots

    raised = Counter()
    for _, _, blocks in crystal_cases.values():
        for blk, sims in blocks.values():
            if not any(L.dim > 1 for L in sims):
                continue
            with monkeypatch.context() as m:
                m.setattr(modules, "_split_primitive", marked_split)
                m.setattr(modules, "row_reduce", merged_rows)
                with pytest.raises(IntegrityError) as exc:
                    simples(blk)
            raised[str(exc.value)] += 1
    assert raised == {"simple module is not stable": 9, "element is not nonzero and homogeneous": 6}


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
    simples(blk)
    assert radical(blk) is rad
    assert calls == [blk]
    assert top.dim == 2
