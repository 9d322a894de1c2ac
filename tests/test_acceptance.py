"""The acceptance gate: one test per criterion, each printing a pass/fail
line.  All comparisons are exact (integer or Laurent-polynomial equality);
criteria 1 and 2 also enforce their stated wall-clock budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import random
import time

import pytest

from tensoralg.cartan import default_q_matrix, sl2, type_a
from tensoralg.cyclotomic import (
    BlockComputer,
    QuotientBlock,
    frobenius_certificate,
    kernel_equals_cyclotomic,
)
from tensoralg.diagrams import Element, basis_enumerate, canonical_word, idem_key
from tensoralg.hecke import HeckeAlgebra, bk_check
from tensoralg.modules import radical, simples
from tensoralg.polyrep import module_axiom_holds, random_poly


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def computers():
    d2 = sl2()
    a2 = type_a(2)
    q2 = default_q_matrix(d2)
    qa = default_q_matrix(a2)
    return {
        "sl2": d2,
        "a2": a2,
        "sl2:(1)": BlockComputer(d2, q2, (d2.weight((1,)),)),
        "sl2:(2)": BlockComputer(d2, q2, (d2.weight((2,)),)),
        "sl2:(3)": BlockComputer(d2, q2, (d2.weight((3,)),)),
        "sl2:(1,1)": BlockComputer(d2, q2, (d2.weight((1,)), d2.weight((1,)))),
        "sl2:(2,1)": BlockComputer(d2, q2, (d2.weight((2,)), d2.weight((1,)))),
        "a2:(w1)": BlockComputer(a2, qa, (a2.fundamental_weight(0),)),
        "a2:(w1,w2)": BlockComputer(a2, qa, (a2.fundamental_weight(0), a2.fundamental_weight(1))),
    }


def contents(datum, n):
    for combo in itertools.combinations_with_replacement(range(datum.rank), n):
        counts = [0] * datum.rank
        for i in combo:
            counts[i] += 1
        yield datum.root(counts)


def all_contents(datum, max_n):
    for n in range(max_n + 1):
        yield from contents(datum, n)


CRIT2_CASES = ["sl2:(1)", "sl2:(2)", "sl2:(1,1)", "sl2:(2,1)", "a2:(w1)", "a2:(w1,w2)"]


def test_criterion_1_golden_dims(computers):
    t0 = time.time()
    d = computers["sl2"]
    comp = computers["sl2:(1,1)"]
    got = {}
    for n, weight in [(0, 2), (1, 0), (2, -2)]:
        table = comp.graded_hom_table(d.root((n,)))
        got[weight] = table.total_at_1()
    elapsed = time.time() - t0
    ok = got == {2: 1, 0: 5, -2: 9} and elapsed < 60
    report(1, ok, f"sl2 (1,1) totals at weights 2/0/-2 = {got[2]}/{got[0]}/{got[-2]} "
                  f"(want 1/5/9), {elapsed:.1f}s < 60s")


def test_criterion_2_euler_equals_shapovalov(computers):
    t0 = time.time()
    checked = 0
    for name in CRIT2_CASES:
        comp = computers[name]
        datum = comp.datum
        for alpha in all_contents(datum, 4):
            keys = comp.idems(alpha)
            for a in keys:
                for b in keys:
                    entry = comp.graded_hom(a, b)
                    pred = comp.space.form_vv(a, b)
                    assert entry == pred, (name, a, b, entry.text(), pred.text())
                    checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 600
    report(2, ok, f"{checked} graded Hom components equal the tensor-space form exactly "
                  f"across {len(CRIT2_CASES)} weight sequences, {elapsed:.1f}s < 600s")


def test_criterion_3_cyclotomic_identification(computers):
    checked = 0
    cases = ["sl2:(1)", "sl2:(2)", "sl2:(3)", "a2:(w1)"]
    for name in cases:
        comp = computers[name]
        datum = comp.datum
        nmax = 3 if datum.rank == 1 else 2
        for alpha in all_contents(datum, nmax):
            if alpha.height() == 0:
                continue
            keys = comp.idems(alpha)
            for a in keys:
                for b in keys:
                    entry = comp.graded_hom(a, b)
                    # single red strand: the Euler form is <F_I v, F_J v>
                    assert entry == comp.space.form_vv(a, b)
                    dmax = (entry.max_exp() if not entry.is_zero() else 0) + 3
                    assert kernel_equals_cyclotomic(comp, idem_key(*a), idem_key(*b), dmax), (name, a, b)
                    checked += 1
    report(3, True, f"{checked} single-red components: violating-ideal quotient matches the "
                    "cyclotomic presentation (dims and ideals)")


def test_criterion_4_standard_modules(computers):
    checked_cols = 0
    checked_filt = 0
    for name in CRIT2_CASES:
        comp = computers[name]
        datum = comp.datum
        for alpha in all_contents(datum, 4):
            keys = comp.idems(alpha)
            for key in keys:
                for col in keys:
                    got = comp.standard_dims(key, col)
                    want = comp.space.form_vs(col, key)
                    assert got == want, (name, key, col)
                    checked_cols += 1
                ok, cert = comp.standard_filtration_check(key)
                assert ok, (name, key, cert)
                checked_filt += 1
    report(4, True, f"η([S]) = s verified on {checked_cols} columns and "
                    f"{checked_filt} filtration certificates "
                    "(vectors q^-deg, dimensions q^+deg, globally consistent)")


def test_criterion_5_rewriting_soundness(computers):
    blocks = [
        ("sl2:(1,1)", (2,)),
        ("a2:(w1,w2)", (1, 1)),
        ("sl2:(2,1)", (2,)),
    ]
    total_assoc = 0
    total_oracle = 0
    for name, coords in blocks:
        comp = computers[name]
        datum = comp.datum
        alg = comp.alg
        rng = random.Random(2024)
        keys = comp.idems(datum.root(coords))
        pool = []
        for a in keys:
            for b in keys:
                ka, kb = idem_key(*a), idem_key(*b)
                dmin = comp.min_degree(ka, kb)
                if dmin is None:
                    continue
                pool += basis_enumerate(alg, ka, kb, dmin, min(dmin + 8, 12))
        assert pool
        for _ in range(500):
            k1, k2, k3 = (rng.choice(pool) for _ in range(3))
            x, y, z = (Element(alg, {k: 1}) for k in (k1, k2, k3))
            assert x.multiply(y).multiply(z) == x.multiply(y.multiply(z))
            total_assoc += 1
        for _ in range(200):
            k1, k2 = rng.choice(pool), rng.choice(pool)
            x = Element(alg, {k1: 1})
            y = Element(alg, {k2: 1})
            top = alg.top_idem(k2[0], k2[1])
            for _f in range(5):
                f = random_poly(alg, top, rng)
                assert module_axiom_holds(alg, x, y, f), (name, k1, k2)
            # Bruhat bound, weak form: crossings never increase
            if alg.top_idem(k1[0], k1[1]) == k2[0]:
                bound = len(canonical_word(k1[1])) + len(canonical_word(k2[1]))
                for (_, w, _d), _c in x.multiply(y).terms.items():
                    ell = sum(
                        1 for p in range(len(w)) for r in range(p + 1, len(w)) if w[p] > w[r]
                    )
                    assert ell <= bound
            total_oracle += 1
    report(5, True, f"{total_assoc} associativity triples and {total_oracle}x5 polynomial-oracle "
                    "products exact; crossing-count bound never violated")


def test_criterion_6_semisimple_sanity(computers):
    d = computers["sl2"]
    comp = computers["sl2:(1,1)"]
    blk2 = QuotientBlock(comp, d.root((2,)))
    rad2 = radical(blk2)
    ss2 = simples(blk2)
    ok_a = len(rad2) == 0 and len(ss2) == 1 and ss2[0].dim == 3
    blk1 = QuotientBlock(comp, d.root((1,)))
    ss1 = simples(blk1)
    ok_b = len(ss1) == 2 == comp.space.weight_dim(d.weight((0,)))
    report(6, ok_a and ok_b,
           f"weight -2 block: radical {len(rad2)}, simples {[(s.dim) for s in ss2]} (want one 3-dim); "
           f"weight 0 block: {len(ss1)} simples (want 2)")


def test_criterion_7_hecke_oracle(computers):
    def fact(n):
        out = 1
        for k in range(2, n + 1):
            out *= k
        return out

    dims_ok = True
    for name in ["sl2:(1)", "sl2:(2)", "a2:(w1)"]:
        comp = computers[name]
        lam = comp.lambdas[0]
        N = sum(lam.coords)
        for dd in (1, 2, 3):
            H = HeckeAlgebra(comp.datum, lam, dd)
            dims_ok = dims_ok and H.dim() == N**dd * fact(dd)
    certs_ok = True
    for name, dmax in [("sl2:(1)", 3), ("sl2:(2)", 3), ("a2:(w1)", 2)]:
        comp = computers[name]
        lam = comp.lambdas[0]
        datum = comp.datum
        for dd in range(1, dmax + 1):
            H = HeckeAlgebra(datum, lam, dd)
            dims = {}
            for alpha in contents(datum, dd):
                keys = comp.idems(alpha)
                for a in keys:
                    for b in keys:
                        dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
            rep = bk_check(H, datum, lam, dims)
            certs_ok = certs_ok and rep["ok"]
    report(7, dims_ok and certs_ok,
           "dim H^λ_d = N^d d! for d ≤ 3 at levels ≤ 2; relation images and ungraded "
           "block dims match for sl2 ω, sl2 2ω, sl3 ω1")


def test_criterion_8_frobenius(computers):
    d = computers["sl2"]
    results = []
    for name, nmax in [("sl2:(1)", 2), ("sl2:(2)", 3)]:
        comp = computers[name]
        for n in range(nmax + 1):
            blk = QuotientBlock(comp, d.root((n,)))
            if blk.dim == 0:
                continue
            cert = frobenius_certificate(blk)
            results.append(((name, n), cert["ok"], cert.get("degree")))
    ok = all(r[1] for r in results)
    report(8, ok, f"nondegenerate homogeneous traces found on all {len(results)} computed "
                  f"single-red blocks: {[(r[0][1], r[2]) for r in results]}")
