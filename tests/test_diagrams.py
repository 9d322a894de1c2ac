import itertools
import random
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from tensoralg.cartan import b2, default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import BlockComputer
from tensoralg.diagrams import (
    DiagramAlgebra,
    Element,
    RedCrossingError,
    WordError,
    basis_enumerate,
    canonical_word,
    connecting_perms,
    diagram_from_text,
    diagram_text,
    idem_key,
    inversions,
    perm_of_word,
    tits_moves,
)
from tensoralg.polyrep import (
    LabeledPoly,
    apply_element,
    module_axiom_holds,
    one_poly,
    random_poly,
)
from tensoralg.linalg import add_multiple
from tensoralg.scalars import QQ, GFElement, PrimeField


def sl2_algebra(*weights):
    d = sl2()
    return d, DiagramAlgebra(d, default_q_matrix(d), tuple(d.weight((w,)) for w in weights))


def a2_algebra(*weights):
    d = type_a(2)
    return d, DiagramAlgebra(d, default_q_matrix(d), tuple(d.weight(w) for w in weights))


# -- word / permutation plumbing -------------------------------------------------


def test_canonical_word_roundtrip():
    rng = random.Random(0)
    for m in range(1, 7):
        for _ in range(20):
            w = list(range(m))
            rng.shuffle(w)
            w = tuple(w)
            cw = canonical_word(w)
            assert perm_of_word(cw, m) == w
            inv = sum(1 for x in range(m) for y in range(x + 1, m) if w[x] > w[y])
            assert len(cw) == inv  # reduced


def test_canonical_word_is_straight_selection():
    # the word starts by bubbling the strand bound for slot 0 to the front
    w = (2, 0, 3, 1)
    x = w.index(0)
    cw = canonical_word(w)
    assert cw[:x] == tuple(range(x - 1, -1, -1))


@st.composite
def reduced_words(draw):
    """A random reduced word on m strands, built by a random walk that
    appends s_p only when the length grows."""
    m = draw(st.integers(2, 6))
    word: tuple[int, ...] = ()
    for p in draw(st.lists(st.integers(0, m - 2), max_size=20)):
        if len(inversions(perm_of_word(word + (p,), m))) > len(word):
            word += (p,)
    return m, word


@settings(max_examples=200, deadline=None)
@example((3, (0, 1, 0)))
@example((3, (1, 0, 1)))
@example((4, (2, 0)))
@given(reduced_words())
def test_tits_moves_connect_reduced_words(sample):
    # every move is a legal commutation or braid, and the path ends at the
    # canonical word of the same permutation
    m, word = sample
    cw = canonical_word(perm_of_word(word, m))
    cur = list(word)
    for kind, t in tits_moves(word, cw):
        if kind == "c":
            assert abs(cur[t] - cur[t + 1]) >= 2
            cur[t], cur[t + 1] = cur[t + 1], cur[t]
        else:
            a, b = cur[t], cur[t + 1]
            assert kind == "b" and cur[t + 2] == a and abs(a - b) == 1
            cur[t : t + 3] = [b, a, b]
    assert cur == list(cw)


# -- degrees ---------------------------------------------------------------------


def test_degree_examples():
    d, alg = sl2_algebra(1, 1)
    e = idem_key((0,), (0, 1))
    m = len(alg.merged(e))
    assert alg.diagram_degree(e, tuple(range(m)), (0,)) == 0
    assert alg.diagram_degree(e, tuple(range(m)), (1,)) == 2
    # single red/black crossing for λ = ω has degree 1
    c = Element.from_word(alg, (0,), (0, 0), [("s", 1)])
    assert c.degree() == 1


def test_degree_black_crossings():
    d, alg = a2_algebra((1, 1))
    e = idem_key((0, 1), (0,))
    # distinct labels: -<α_1, α_2> = 1; equal labels: -2
    c = Element.from_word(alg, (0, 1), (0,), [("s", 1)])
    assert c.degree() == 1
    e2 = idem_key((0, 0), (0,))
    c2 = Element.from_word(alg, (0, 0), (0,), [("s", 1)])
    assert c2.degree() == -2


# -- local relations -------------------------------------------------------------


def test_same_label_double_crossing_is_zero():
    d, alg = sl2_algebra(2)
    z = Element.from_word(alg, (0, 0), (0,), [("s", 1), ("s", 1)])
    assert z.is_zero()


def test_distinct_label_double_crossing_is_q():
    d, alg = a2_algebra((1, 1))
    z = Element.from_word(alg, (0, 1), (0,), [("s", 1), ("s", 1)])
    # Q_01(y_1, y_2) = y_1 + y_2 on straight strands
    keys = {(k[1], k[2]): c for k, c in z.terms.items()}
    assert keys == {((0, 1, 2), (1, 0)): 1, ((0, 1, 2), (0, 1)): 1}


def test_red_black_bigon_costs_dots():
    d, alg = sl2_algebra(2)
    # black left of red, out and back: λ^i = 2 dots
    out = Element.from_word(alg, (0,), (1,), [("s", 0), ("s", 0)])
    ((idem, w, dots),) = out.terms
    assert dots == (2,)
    assert list(w) == [0, 1]


def test_dot_slide_corrections():
    d, alg = sl2_algebra(2)
    lhs = Element.from_word(alg, (0, 0), (0,), [("s", 1), ("y", 1)])
    rhs = Element.from_word(alg, (0, 0), (0,), [("y", 2), ("s", 1)])
    e = Element.idempotent(alg, (0, 0), (0,))
    assert lhs - rhs == e
    lhs2 = Element.from_word(alg, (0, 0), (0,), [("y", 1), ("s", 1)])
    rhs2 = Element.from_word(alg, (0, 0), (0,), [("s", 1), ("y", 2)])
    assert lhs2 - rhs2 == e


def test_braid_correction_iji():
    d, alg = a2_algebra((1, 1))
    lhs = Element.from_word(alg, (0, 1, 0), (0,), [("s", 1), ("s", 2), ("s", 1)])
    rhs = Element.from_word(alg, (0, 1, 0), (0,), [("s", 2), ("s", 1), ("s", 2)])
    e = Element.idempotent(alg, (0, 1, 0), (0,))
    # (Q(y3,y2) - Q(y1,y2))/(y3-y1) = 1 for Q = u + v
    assert lhs - rhs == e


def test_braid_exact_same_labels():
    d, alg = sl2_algebra(3)
    lhs = Element.from_word(alg, (0, 0, 0), (0,), [("s", 1), ("s", 2), ("s", 1)])
    rhs = Element.from_word(alg, (0, 0, 0), (0,), [("s", 2), ("s", 1), ("s", 2)])
    assert lhs == rhs


def test_black_crossing_past_red_correction():
    # (black, red λ, black), same black labels: braid correction is
    # Σ_{a+b+1=λ^i} y_left^b y_right^a
    d, alg = sl2_algebra(2)
    lhs = Element.from_word(alg, (0, 0), (1,), [("s", 0), ("s", 1), ("s", 0)])
    rhs = Element.from_word(alg, (0, 0), (1,), [("s", 1), ("s", 0), ("s", 1)])
    diff = lhs - rhs
    got = {k[2]: c for k, c in diff.terms.items()}
    assert got == {(1, 0): 1, (0, 1): 1}


def test_red_red_crossing_rejected():
    d, alg = sl2_algebra(1, 1)
    with pytest.raises(RedCrossingError):
        Element.from_word(alg, (), (0, 0), [("s", 0)])
    with pytest.raises(RedCrossingError):
        Element.basis_diagram(alg, (), (0, 0), (1, 0), ())


def test_malformed_word_rejected():
    d, alg = sl2_algebra(1)
    with pytest.raises(WordError):
        Element.from_word(alg, (0,), (0,), [("s", 5)])


# -- multiplication ---------------------------------------------------------------


def test_idempotent_orthogonality():
    d, alg = sl2_algebra(1, 1)
    e1 = Element.idempotent(alg, (0,), (0, 0))
    e2 = Element.idempotent(alg, (0,), (0, 1))
    assert e1.multiply(e1) == e1
    assert e1.multiply(e2).is_zero()


def test_psi_squared_adjacent_equal_labels():
    d, alg = sl2_algebra(2)
    psi = Element.from_word(alg, (0, 0), (0,), [("s", 1)])
    assert psi.multiply(psi).is_zero()


def random_pool(alg, idems, lo=-8, hi=8):
    pool = []
    for a in idems:
        for b in idems:
            for d in range(lo, hi + 1):
                pool += basis_enumerate(alg, a, b, d)
    return pool


@pytest.mark.parametrize(
    "datum_f,lams,content",
    [
        (sl2, ((1,), (1,)), (3,)),
        (type_a(2).__class__ and (lambda: type_a(2)), ((1, 1),), (2, 1)),
        (b2, ((1, 1),), (1, 2)),
    ],
)
def test_associativity_random(datum_f, lams, content):
    d = datum_f()
    alg = DiagramAlgebra(d, default_q_matrix(d), tuple(d.weight(l if isinstance(l, tuple) else (l,)) for l in lams))
    letters = [i for i, c in enumerate(content) for _ in range(c)]
    idems = []
    for I in sorted(set(itertools.permutations(letters))):
        for kappa in itertools.combinations_with_replacement(range(len(letters) + 1), len(lams)):
            if kappa[0] == 0:
                idems.append(idem_key(I, kappa))
    rng = random.Random(42)
    pool = random_pool(alg, idems)
    for _ in range(40):
        k1, k2, k3 = (rng.choice(pool) for _ in range(3))
        a, b, c = (Element(alg, {k: 1}) for k in (k1, k2, k3))
        assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


def test_degree_additivity_random():
    d, alg = sl2_algebra(1, 1)
    idems = [idem_key((0, 0), k) for k in [(0, 0), (0, 1), (0, 2)]]
    rng = random.Random(5)
    pool = random_pool(alg, idems)
    for _ in range(50):
        k1, k2 = rng.choice(pool), rng.choice(pool)
        a = Element(alg, {k1: 1})
        b = Element(alg, {k2: 1})
        ab = a.multiply(b)
        if not ab.is_zero():
            assert ab.degree() == alg.diagram_degree(*k1) + alg.diagram_degree(*k2)


def umax_length(alg, idem, word):
    """℧-length of a crossing word: reduce with braid moves plus the
    squashing rules s² = s (equal labels) and s² = 1 (distinct labels),
    searching the braid/commutation closure for reducible patterns."""
    bot = alg.merged(idem)
    base = tuple(alg.strand_label(idem, s) for s in bot)

    def labels_at(wd, t):
        arr = list(base)
        for q in wd[:t]:
            arr[q], arr[q + 1] = arr[q + 1], arr[q]
        return arr

    word = tuple(word)
    while True:
        seen = {word}
        frontier = [word]
        reduced = None
        while frontier and reduced is None:
            nxt = []
            for wd in frontier:
                for t in range(len(wd) - 1):
                    if wd[t] == wd[t + 1]:
                        arr = labels_at(wd, t)
                        la, lb = arr[wd[t]], arr[wd[t] + 1]
                        if la[0] == "b" and lb[0] == "b" and la[1] == lb[1]:
                            reduced = wd[:t] + (wd[t],) + wd[t + 2 :]
                        else:
                            reduced = wd[:t] + wd[t + 2 :]
                        break
                if reduced is not None:
                    break
                for t in range(len(wd) - 1):
                    if abs(wd[t] - wd[t + 1]) >= 2:
                        new = wd[:t] + (wd[t + 1], wd[t]) + wd[t + 2 :]
                        if new not in seen:
                            seen.add(new)
                            nxt.append(new)
                for t in range(len(wd) - 2):
                    a, b, c = wd[t : t + 3]
                    if a == c and abs(a - b) == 1:
                        new = wd[:t] + (b, a, b) + wd[t + 3 :]
                        if new not in seen:
                            seen.add(new)
                            nxt.append(new)
            frontier = nxt
        if reduced is None:
            return len(word)
        word = reduced


def test_bruhat_leading_term_bound():
    d, alg = a2_algebra((1, 1))
    idems = [idem_key(I, (0,)) for I in sorted(set(itertools.permutations((0, 1, 0))))]
    rng = random.Random(9)
    pool = [k for k in random_pool(alg, idems, -4, 4) if len(canonical_word(k[1])) <= 3]
    checked = 0
    for _ in range(200):
        k1, k2 = rng.choice(pool), rng.choice(pool)
        if alg.top_idem(k1[0], k1[1]) != k2[0]:
            continue
        a = Element(alg, {k1: 1})
        b = Element(alg, {k2: 1})
        bound = umax_length(alg, k1[0], canonical_word(k1[1]) + canonical_word(k2[1]))
        ab = a.multiply(b)
        checked += 1
        at_bound = set()
        for (idem, w, dots), _c in ab.terms.items():
            ell = sum(1 for x in range(len(w)) for y in range(x + 1, len(w)) if w[x] > w[y])
            assert ell <= bound
            if ell == bound:
                at_bound.add(w)
        assert len(at_bound) <= 1
    assert checked >= 20


# -- flip --------------------------------------------------------------------------


def test_flip_properties():
    d, alg = sl2_algebra(1, 1)
    idems = [idem_key((0, 0), k) for k in [(0, 0), (0, 1), (0, 2)]]
    rng = random.Random(11)
    pool = random_pool(alg, idems)
    e = Element.idempotent(alg, (0, 0), (0, 1))
    assert e.flip() == e
    for _ in range(25):
        k1, k2 = rng.choice(pool), rng.choice(pool)
        a = Element(alg, {k1: 1})
        b = Element(alg, {k2: 1})
        assert a.flip().flip() == a
        assert a.multiply(b).flip() == b.flip().multiply(a.flip())


FLIP_CASES = {
    "sl2 (w,2w)": (sl2, ((1,), (2,)), (2,)),
    "A2 (w1,w2)": (lambda: type_a(2), ((1, 0), (0, 1)), (1, 1)),
}
_FLIP_POOLS: dict = {}


def _flip_pool(name):
    """(algebra, idempotents, basis diagrams by (bottom, top)) of one
    content block, built once per case."""
    if name not in _FLIP_POOLS:
        datum_f, lams, content = FLIP_CASES[name]
        d = datum_f()
        alg = DiagramAlgebra(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))
        letters = [i for i, c in enumerate(content) for _ in range(c)]
        idems = [
            idem_key(I, kappa)
            for I in sorted(set(itertools.permutations(letters)))
            for kappa in itertools.combinations_with_replacement(range(len(letters) + 1), len(lams))
        ]
        pool = {(x, y): [k for d in range(-6, 7) for k in basis_enumerate(alg, x, y, d)] for x in idems for y in idems}
        _FLIP_POOLS[name] = (alg, idems, pool)
    return _FLIP_POOLS[name]


def _peeled_times_s(alg, idem, w, dots, p):
    """The dot slide one dot at a time: at equal labels, peel a dot off
    the crossed pair by y_k ψ = ψ y_{k+1} + e (or y_{k+1} ψ = ψ y_k − e),
    recurse, and put the dot back above the crossing; then cross, the
    pair's dots swapped."""
    if not any(dots):
        return alg.crossing_on_basis(idem, w, p)
    _, labels, black = alg.boundary(alg.top_idem(idem, w))
    la, lb = labels[p], labels[p + 1]
    moved = dots
    if la[0] == "b" and lb[0] == "b":
        ka = black[p]
        if la[1] == lb[1] and (dots[ka] or dots[ka + 1]):
            k, slot, sign = (ka, p + 1, 1) if dots[ka] else (ka + 1, p, -1)
            nd = list(dots)
            nd[k] -= 1
            nd = tuple(nd)
            out = alg._acc_dot(idem, _peeled_times_s(alg, idem, w, nd, p), slot)
            return add_multiple(out, sign, {(w, nd): 1})
        nd = list(dots)
        nd[ka], nd[ka + 1] = nd[ka + 1], nd[ka]
        moved = tuple(nd)
    return {(w2, tuple(map(add, d2, moved))): c for (w2, d2), c in alg.crossing_on_basis(idem, w, p).items()}


@pytest.mark.parametrize("case", sorted(FLIP_CASES))
def test_the_closed_form_dot_slide_matches_the_peeled_one(case):
    # sl2 (ω, 2ω) crosses two strands of one label, A2 (ω1, ω2) two of
    # different labels; the terms come in the same order too, so every
    # sum downstream is formed alike
    alg, idems, _ = _flip_pool(case)
    seen = set()
    for x, y in itertools.product(idems, idems):
        for w, _ in alg.component(x, y):
            _, labels, black = alg.boundary(y)
            for p in range(len(w) - 1):
                if labels[p][0] != "b" or labels[p + 1][0] != "b":
                    continue
                seen.add(labels[p][1] == labels[p + 1][1])
                k = black[p]
                for a, b in itertools.product(range(7), range(7)):
                    if a + b > 6:
                        continue
                    dots = [0] * len(x[0])
                    dots[k], dots[k + 1] = a, b
                    got = alg.term_times_s(x, w, tuple(dots), p)
                    want = _peeled_times_s(alg, x, w, tuple(dots), p)
                    assert list(got.items()) == list(want.items()), (x, w, dots, p)
    assert seen == {case.startswith("sl2")}


@st.composite
def composable_elements(draw, min_terms=0, cases=tuple(sorted(FLIP_CASES))):
    """Random integer combinations a of (x T y) and b of (y T z), mixed in
    degree, in one content block of one of ``cases`` (sl2 (ω, 2ω) or
    A2 (ω1, ω2)), with at most three terms each and at least
    ``min_terms`` where the component has that many diagrams."""
    alg, idems, pool = _flip_pool(draw(st.sampled_from(cases)))
    x, y, z = (draw(st.sampled_from(idems)) for _ in range(3))

    def element(bottom, top):
        keys = pool[(bottom, top)]
        size = min(min_terms, len(keys))
        chosen = draw(st.lists(st.sampled_from(keys), min_size=size, max_size=3, unique=True)) if keys else []
        return Element(alg, {k: draw(st.integers(-3, 3).filter(bool)) for k in chosen})

    return element(x, y), element(y, z)


@settings(max_examples=100, deadline=None)
@given(composable_elements())
def test_flip_is_an_anti_automorphism(pair):
    a, b = pair
    assert a.multiply(b).flip() == b.flip().multiply(a.flip())


@settings(max_examples=100, deadline=None)
@given(composable_elements(cases=("sl2 (w,2w)",)), st.randoms(use_true_random=False))
def test_a_product_acts_as_the_composite_action(pair, rng):
    # apply(a·b, f) == apply(a, apply(b, f)) as labeled polynomials; both
    # sides are often zero, parked at different idempotents
    a, b = pair
    alg = a.algebra
    for idem, w, _ in list(b.terms)[:1]:
        f = random_poly(alg, alg.top_idem(idem, w), rng)
        assert apply_element(alg, a.multiply(b), f) == apply_element(alg, a, apply_element(alg, b, f))


def test_zero_labeled_polynomials_are_equal_at_any_idempotent():
    x, y = idem_key((0, 0), (0, 1)), idem_key((0, 0), (1, 2))
    assert LabeledPoly(x, {}) == LabeledPoly(y, {})
    assert LabeledPoly(x, {(1, 0): 1}) != LabeledPoly(y, {(1, 0): 1})
    assert LabeledPoly(x, {(1, 0): 1}) != LabeledPoly(x, {(0, 1): 1})


def _termwise_product(a, b):
    """Σ c·c′ (t·t′) over the terms c·t of a and c′·t′ of b, each product
    of two basis diagrams straightened on its own."""
    alg = a.algebra
    total = Element(alg)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            total = total + Element(alg, {ka: 1}).multiply(Element(alg, {kb: 1})).scale(ca * cb)
    return total


@settings(max_examples=100, deadline=None)
@given(composable_elements(min_terms=2), st.randoms(use_true_random=False))
def test_multi_term_products_are_sums_of_termwise_products(pair, rng):
    # the polynomial representation checks each termwise product too
    a, b = pair
    assert a.multiply(b) == _termwise_product(a, b)
    alg = a.algebra
    for kb in b.terms:
        assert module_axiom_holds(alg, a, b, random_poly(alg, alg.top_idem(kb[0], kb[1]), rng))


def test_terms_that_cancel_inside_the_crossing_walk(monkeypatch):
    # sl2 (ω, 2ω): l = e(1,1|0,1)·ψ·y2 times r = e(1,1|0,0)·ψ·y2 walks the
    # crossings of r through a running sum of several terms, and at one
    # crossing two of those terms straighten onto one diagram with
    # opposite coefficients
    alg, _, pool = _flip_pool("sl2 (w,2w)")
    x, y = idem_key((0, 0), (0, 1)), idem_key((0, 0), (0, 0))
    l, r = (x, (0, 2, 1, 3), (0, 1)), (y, (0, 2, 3, 1), (0, 1))
    assert l in pool[(x, y)] and r in pool[(y, alg.top_idem(y, r[1]))]
    cancelled = []
    acc_times_s = alg.acc_times_s

    def spy(idem, acc, p):
        if len(acc) > 1:
            raw: dict = {}
            for (w, dots), c in acc.items():
                for k, v in alg.term_times_s(idem, w, dots, p).items():
                    raw[k] = raw.get(k, 0) + c * v
            cancelled.extend(k for k, v in raw.items() if not v)
        return acc_times_s(idem, acc, p)

    a = Element(alg, {l: 2, (x, (0, 2, 1, 3), (1, 0)): -1})
    b = Element(alg, {r: 1, (y, (0, 2, 3, 1), (0, 2)): 3})
    # the first product fills the memos, so the spy sees only the walk
    prod = a.multiply(b)
    monkeypatch.setattr(alg, "acc_times_s", spy)
    assert a.multiply(b) == prod
    assert cancelled
    assert prod == _termwise_product(a, b)
    assert module_axiom_holds(alg, a, b, random_poly(alg, alg.top_idem(y, r[1]), random.Random(5)))


@st.composite
def diagram_pairs(draw):
    """Basis diagrams l of (x T y) and r = e·ψ_w·y^a of (y T z), in one
    content block of sl2 (ω, 2ω) or A2 (ω1, ω2)."""
    alg, idems, pool = _flip_pool(draw(st.sampled_from(sorted(FLIP_CASES))))
    x, y = draw(st.sampled_from(sorted(xy for xy, keys in pool.items() if keys)))
    z = draw(st.sampled_from([z for z in idems if pool[(y, z)]]))
    return alg, draw(st.sampled_from(pool[(x, y)])), draw(st.sampled_from(pool[(y, z)]))


def _word_events(alg, key):
    """The generic word of a basis diagram: its canonical word, then one
    dot event per dot at the top."""
    idem, w, dots = key
    black = alg.boundary(alg.top_idem(idem, w))[2]
    events = [("s", p) for p in alg.canonical_word(w)]
    return events + [("y", slot) for slot, k in enumerate(black) if k is not None for _ in range(dots[k])]


@settings(max_examples=150, deadline=None)
@given(diagram_pairs())
def test_dot_variants_share_the_crossing_product(pair):
    # l·(ψ_w y^a) = (l·ψ_w)·y^a, checked against the straightened word of
    # l followed by r; zero whenever l·ψ_w is
    alg, kl, kr = pair
    idem, w, dots = kr
    left = Element(alg, {kl: 1})
    cross = left.multiply(Element(alg, {(idem, w, (0,) * len(dots)): 1}))
    prod = left.multiply(Element(alg, {kr: 1}))
    (I, kappa), _, _ = kl
    assert prod == Element.from_word(alg, I, kappa, _word_events(alg, kl) + _word_events(alg, kr))
    assert prod == cross.times_top_dots(dots)
    assert prod.is_zero() == cross.is_zero()


def test_a_zero_crossing_product_kills_every_dot_variant():
    # two black strands of one label crossing twice: ψ_s·ψ_s = 0
    alg, _, pool = _flip_pool("sl2 (w,2w)")
    e = idem_key((0, 0), (0, 0))
    s = (0, 1, 3, 2)
    left = Element(alg, {(e, s, (0, 0)): 1})
    assert left.multiply(Element(alg, {(e, s, (0, 0)): 1})).is_zero()
    variants = [k for k in pool[(e, e)] if k[1] == s]
    assert len(variants) > 3
    assert all(left.multiply(Element(alg, {k: 1})).is_zero() for k in variants)


def test_flip_moves_dots_through():
    d, alg = sl2_algebra(1)
    y = Element.from_word(alg, (0,), (0,), [("y", 1)])
    assert y.flip() == y


# -- polynomial representation ------------------------------------------------------


def test_polyrep_dot_and_demazure():
    d, alg = sl2_algebra(2)
    e = idem_key((0, 0), (0,))
    dot = Element.from_word(alg, (0, 0), (0,), [("y", 1)])
    g = apply_element(alg, dot, one_poly(alg, e))
    assert g.poly == {(1, 0): 1}
    cross = Element.from_word(alg, (0, 0), (0,), [("s", 1)])
    fy = LabeledPoly(e, {(1, 0): 1})
    assert apply_element(alg, cross, fy).poly == {(0, 0): 1}


def test_polyrep_right_red_crossing_multiplies():
    d, alg = sl2_algebra(2)
    # black right of red moving right... bottom (black, red): y^{λ^i}
    e_top = idem_key((0,), (0,))  # top: red then black
    cross = Element.from_word(alg, (0,), (1,), [("s", 0)])
    f = one_poly(alg, alg.top_idem(idem_key((0,), (1,)), (1, 0)))
    g = apply_element(alg, cross, f)
    assert g.poly == {(2,): 1}


def test_polyrep_oracle_random_products():
    d, alg = a2_algebra((1, 0), (0, 1))
    letters = (0, 1)
    idems = []
    for I in sorted(set(itertools.permutations(letters))):
        for kappa in [(0, 0), (0, 1), (0, 2)]:
            idems.append(idem_key(I, kappa))
    rng = random.Random(21)
    pool = random_pool(alg, idems, -6, 8)
    for _ in range(60):
        k1, k2 = rng.choice(pool), rng.choice(pool)
        a = Element(alg, {k1: 1})
        b = Element(alg, {k2: 1})
        f = random_poly(alg, alg.top_idem(k2[0], k2[1]), rng)
        assert module_axiom_holds(alg, a, b, f)


@st.composite
def generic_words(draw):
    """An algebra, an idempotent and a random generic word over it that
    never crosses two reds or dots a red."""
    datum, lams = draw(st.sampled_from([(sl2(), ((1,), (2,))), (type_a(2), ((1, 0), (0, 1)))]))
    alg = DiagramAlgebra(datum, default_q_matrix(datum), tuple(datum.weight(l) for l in lams))
    n = draw(st.integers(1, 3))
    I = tuple(draw(st.lists(st.integers(0, datum.rank - 1), min_size=n, max_size=n)))
    kappa = tuple(sorted(draw(st.lists(st.integers(0, n), min_size=len(lams), max_size=len(lams)))))
    kinds = [kind for kind, _ in alg.merged(idem_key(I, kappa))]
    events = []
    for _ in range(draw(st.integers(0, 6))):
        crossable = [p for p in range(len(kinds) - 1) if "b" in kinds[p : p + 2]]
        if crossable and draw(st.booleans()):
            p = draw(st.sampled_from(crossable))
            kinds[p], kinds[p + 1] = kinds[p + 1], kinds[p]
            events.append(("s", p))
        else:
            events.append(("y", draw(st.sampled_from([p for p, k in enumerate(kinds) if k == "b"]))))
    return alg, I, kappa, events


@settings(max_examples=80, deadline=None)
@given(generic_words(), st.randoms(use_true_random=False))
def test_word_normal_form_acts_like_the_word(word, rng):
    # The straightened word acts on polynomials as the composite of its
    # generators, each a single crossing or dot, topmost acting first.
    alg, I, kappa, events = word
    el = Element.from_word(alg, I, kappa, events)
    assert all(type(c) is int for c in el.terms.values())
    idem = idem_key(I, kappa)
    gens = []
    for ev, p in events:
        m = len(alg.merged(idem))
        dots = [0] * len(I)
        if ev == "s":
            w = perm_of_word([p], m)
        else:
            w = tuple(range(m))
            dots[sum(1 for kind, _ in alg.merged(idem)[:p] if kind == "b")] = 1
        gens.append(Element.basis_diagram(alg, idem[0], idem[1], w, dots))
        idem = alg.top_idem(idem, w)
    f = random_poly(alg, idem, rng)
    assert all(type(c) is int for c in f.poly.values())
    g = f
    for gen in reversed(gens):
        g = apply_element(alg, gen, g)
    got = apply_element(alg, el, f)
    assert got.poly == g.poly
    assert all(type(c) is int for c in got.poly.values())


def test_prime_field_engine():
    # The engine is integral; over GF(7) the field enters only through
    # BlockComputer.element_coords, so coordinates and kernel rows on each
    # component are the Q ones reduced mod 7.
    d = sl2()
    q = default_q_matrix(d)
    lams = (d.weight((1,)), d.weight((1,)))
    comp_q = BlockComputer(d, q, lams, QQ)
    comp_7 = BlockComputer(d, q, lams, PrimeField(7))
    alg = comp_7.alg
    e = Element.idempotent(alg, (0,), (0, 0))
    assert e.multiply(e) == e
    c1 = Element.from_word(alg, (0,), (0, 0), [("s", 1)])
    c2 = Element.from_word(alg, (0,), (0, 1), [("s", 1)])
    big = c1.multiply(c2)
    ((idem, w, dots),) = big.terms
    assert dots == (1,)

    def mod7(x):
        return GFElement(x.numerator * pow(x.denominator, -1, 7), 7)

    def row_mod7(row):
        return {c: mod7(x) for c, x in row.items() if mod7(x)}

    coords = kernels = 0
    for alpha in (d.root((2,)), d.root((3,))):
        keys = comp_q.idems(alpha)
        for bottom, top in itertools.product(keys, keys):
            dmin = comp_q.min_degree(bottom, top)
            if dmin is None:
                continue
            for deg in range(dmin, dmin + 5):
                if not comp_q.tilde_basis(bottom, top, deg):
                    continue
                rows_q, piv_q = comp_q.kernel_space(bottom, top, deg)
                rows_7, piv_7 = comp_7.kernel_space(bottom, top, deg)
                assert sorted(piv_7) == sorted(piv_q)
                assert rows_7 == [row_mod7(row) for row in rows_q]
                kernels += 1
        mid = keys[-1]
        left = [k for d in range(-4, 5) for k in basis_enumerate(alg, keys[0], mid, d)]
        right = [k for d in range(-4, 5) for k in basis_enumerate(alg, mid, keys[0], d)]
        for k1, k2 in itertools.product(left, right):
            el = Element(alg, {k1: 1}).multiply(Element(alg, {k2: 1}))
            if el.is_zero():
                continue
            deg = alg.diagram_degree(*k1) + alg.diagram_degree(*k2)
            vq = comp_q.element_coords(el, keys[0], keys[0], deg)
            assert all(x.denominator == 1 for x in vq.values())
            assert comp_7.element_coords(el, keys[0], keys[0], deg) == row_mod7(vq)
            coords += 1
    assert kernels >= 20 and coords >= 20


# -- enumeration / serialization ----------------------------------------------------


def test_basis_enumerate_examples():
    d, alg = sl2_algebra(1, 1)
    e01 = idem_key((0,), (0, 1))
    out = basis_enumerate(alg, e01, e01, 0)
    assert len(out) == 1
    (idem, w, dots) = out[0]
    assert list(w) == [0, 1, 2] and dots == (0,)
    # unreachable pairing: mismatched content
    e_other = idem_key((0, 0), (0, 1))
    assert all(basis_enumerate(alg, e01, e_other, d) == [] for d in range(11))
    # below minimal degree: empty
    assert all(basis_enumerate(alg, e01, e01, d) == [] for d in range(-5, 0))


def _reference_enumerate(alg, bottom, top, d):
    """The enumeration before the component and dot-vector memos: walk the
    connecting permutations, and for each every dot vector up to degree
    d, kept when its degree is d."""
    zero_dots = (0,) * len(bottom[0])
    weights = [2 * alg.datum.sym[i] for i in top[0]]
    out = []
    for w in connecting_perms(alg, bottom, top):
        base = alg.diagram_degree(bottom, w, zero_dots)
        for dots in itertools.product(*(range((d - base) // wt + 1) for wt in weights)):
            if sum(a * wt for a, wt in zip(dots, weights)) == d - base:
                out.append((bottom, w, dots))
    return out


# name -> (datum, red labels, contents with at most three strands)
ORDER_CASES = {
    "sl2 (w,2w)": (sl2, [(1,), (2,)], [(n,) for n in range(4)]),
    "A2 (w1,w2)": (lambda: type_a(2), [(1, 0), (0, 1)], [(a, b) for a in range(4) for b in range(4 - a)]),
    "B2 (w1)": (b2, [(1, 0)], [(a, b) for a in range(4) for b in range(4 - a)]),
}
_ORDER_COMPUTERS: dict = {}


def _order_computer(name):
    if name not in _ORDER_COMPUTERS:
        datum_f, lams, contents = ORDER_CASES[name]
        d = datum_f()
        comp = BlockComputer(d, default_q_matrix(d), tuple(d.weight(l) for l in lams))
        blocks = [comp.idems(d.root(c)) for c in contents]
        _ORDER_COMPUTERS[name] = (comp, [b for b in blocks if b])
    return _ORDER_COMPUTERS[name]


@st.composite
def enumeration_degrees(draw):
    """A (bottom, top) pair, mostly inside one content block, and a
    degree, negative ones included."""
    comp, blocks = _order_computer(draw(st.sampled_from(sorted(ORDER_CASES))))
    block = draw(st.sampled_from(blocks))
    bottom = draw(st.sampled_from(block))
    top = draw(st.sampled_from(draw(st.one_of(st.just(block), st.sampled_from(blocks)))))
    return comp, bottom, top, draw(st.integers(-10, 12))


@settings(max_examples=300, deadline=None)
@given(enumeration_degrees())
def test_basis_enumerate_keeps_the_basis_order(case):
    comp, bottom, top, d = case
    want = _reference_enumerate(comp.alg, bottom, top, d)
    assert basis_enumerate(comp.alg, bottom, top, d) == want
    assert comp.tilde_basis(bottom, top, d) == want
    runs = comp.alg.runs(bottom, top, d)
    assert [(bottom, w, a) for w, vectors in runs for a in vectors] == want
    assert all(vectors for _, vectors in runs) and len({w for w, _ in runs}) == len(runs)
    zero_dots = (0,) * len(bottom[0])
    degs = [comp.alg.diagram_degree(bottom, w, zero_dots) for w in connecting_perms(comp.alg, bottom, top)]
    assert comp.min_degree(bottom, top) == min(degs, default=None)


def test_text_roundtrip():
    d, alg = sl2_algebra(1, 1)
    el = Element.from_word(alg, (0, 0), (0, 1), [("s", 2), ("y", 1)])
    for key in el.terms:
        text = diagram_text(alg, key)
        back = diagram_from_text(alg, text)
        assert key in back.terms


@pytest.mark.parametrize("label", ["0", "2"])
def test_text_rejects_a_node_index_out_of_range(label):
    _, alg = sl2_algebra(1, 1)
    with pytest.raises(WordError, match="node index out of range"):
        diagram_from_text(alg, f"e[{label}|R@0,1] ; 1 ; 1")


def test_split_strands_dimension_match():
    # merging the two reds of (ω, ω) over an empty position matches the
    # single-red algebra for 2ω, degree by degree
    d = sl2()
    alg2 = DiagramAlgebra(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))))
    alg1 = DiagramAlgebra(d, default_q_matrix(d), (d.weight((2,)),))
    e2 = idem_key((0, 0), (0, 0))
    e1 = idem_key((0, 0), (0,))
    for deg in range(-4, 8):
        b2_ = basis_enumerate(alg2, e2, e2, deg)
        b1_ = basis_enumerate(alg1, e1, e1, deg)
        assert len(b2_) == len(b1_), deg


def test_split_strands_preserves_products():
    # the merge bijection (delete the second red slot) intertwines
    # multiplication on the doubled-red components
    d = sl2()
    alg2 = DiagramAlgebra(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))))
    alg1 = DiagramAlgebra(d, default_q_matrix(d), (d.weight((2,)),))
    e2 = idem_key((0, 0), (0, 0))
    e1 = idem_key((0, 0), (0,))

    def merge_key(key):
        (idem, w, dots) = key
        assert w[0] == 0 and w[1] == 1
        w1 = (0,) + tuple(x - 1 for x in w[2:])
        return (e1, w1, dots)

    def merge_el(el):
        out = {}
        for key, c in el.terms.items():
            out[merge_key(key)] = c
        return Element(alg1, out)

    pool = [k for d in range(-4, 7) for k in basis_enumerate(alg2, e2, e2, d)]
    rng = random.Random(3)
    for _ in range(30):
        k1, k2 = rng.choice(pool), rng.choice(pool)
        a2_el = Element(alg2, {k1: 1})
        b2_el = Element(alg2, {k2: 1})
        a1_el = Element(alg1, {merge_key(k1): 1})
        b1_el = Element(alg1, {merge_key(k2): 1})
        assert merge_el(a2_el.multiply(b2_el)) == a1_el.multiply(b1_el)
