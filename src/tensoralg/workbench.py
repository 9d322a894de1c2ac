"""Batch front end: load a Cartan/Q configuration, run one task, emit
tables and verification certificates.

Exit codes: 0 success, 1 a verification certificate failed, 2 bad
configuration, 3 internal integrity error (engine/oracle mismatch — a
bug, not bad input).

Module theory (``modules``), the Hecke comparison (``hecke``) and the
polynomial representation (``polyrep``) serve only ``crystal``,
``hecke-check`` and ``multiply``, so they load on first use: importing this
module registers each of them in ``sys.modules`` (and on the package) with
``importlib.util.LazyLoader``, and a module's code is compiled and run the
first time one of its attributes is read.  A ``dims``, ``standard`` or
``verify-*`` run never compiles them.  They are registered at import, not
imported inside the tasks, because the benchmark's tracer imports this
module alone and then looks every traced layer up in ``sys.modules``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import sys
from itertools import combinations_with_replacement

from .cartan import PRESETS, CartanDatum, default_q_matrix, load_datum_file, type_a
from .cyclotomic import DEFAULT_MAX_STRANDS, DEFAULT_TAIL, BlockComputer, IntegrityError, QuotientBlock
from .diagrams import Element
from .qtensor import GradedHomTable
from .scalars import parse_field


def _lazy(name: str):
    """The submodule ``name`` of this package, registered now and run on
    first attribute access.  A module already in ``sys.modules`` is returned
    as it is: a second copy would hold second copies of its classes."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


hecke = _lazy("hecke")
modules = _lazy("modules")
polyrep = _lazy("polyrep")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tpa-workbench",
        description="exact workbench for red/black strand diagram algebras",
    )
    p.add_argument("--datum", required=True, help="preset name (sl2, a2, a3, b2, a1xa1) or JSON path")
    p.add_argument("--lambda", dest="lambdas", required=True,
                   help="red labels as coroot pairings, factors separated by ';', coords by ',' (e.g. '1;1' or '1,0;0,1')")
    p.add_argument("--task", required=True,
                   choices=["dims", "multiply", "standard", "verify-euler", "verify-filtration", "crystal", "hecke-check"])
    p.add_argument("--max-strands", type=int, default=DEFAULT_MAX_STRANDS)
    p.add_argument("--tail", type=int, default=DEFAULT_TAIL)
    p.add_argument("--field", default="q", help="'q' for rationals or 'p:PRIME'")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=25, help="random products per block for the multiply task")
    return p


def parse_lambdas(datum: CartanDatum, text: str):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [int(x) for x in chunk.split(",")]
        if len(coords) != datum.rank:
            raise ValueError(f"weight {chunk!r} has {len(coords)} coords; rank is {datum.rank}")
        out.append(datum.weight(coords))
    return out


def load_configuration(args):
    if args.datum in PRESETS:
        datum = PRESETS[args.datum]()
        q = default_q_matrix(datum)
    elif os.path.exists(args.datum):
        datum, q = load_datum_file(args.datum)
    else:
        raise ValueError(f"unknown datum {args.datum!r}")
    lambdas = parse_lambdas(datum, args.lambdas)
    for lam in lambdas:
        if not lam.is_dominant():
            raise ValueError(f"red label {lam.coords} is not dominant")
    field = parse_field(args.field)
    if field.characteristic:
        q.require_units_mod(field.characteristic)
    for flag, value in (("--tail", args.tail), ("--max-strands", args.max_strands), ("--samples", args.samples)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative")
    if args.task == "hecke-check":
        if len(lambdas) != 1:
            raise ValueError("hecke-check needs a single red label")
        if sum(lambdas[0].coords) == 0:
            raise ValueError("hecke-check needs a red label of positive level")
        if datum.cartan != type_a(datum.rank).cartan:
            raise ValueError("hecke-check needs a type A datum: the degenerate Hecke comparison holds only for A_n")
    if args.task == "crystal" and field.characteristic != 0:
        raise ValueError("crystal needs characteristic 0: the radical uses the Dickson criterion")
    return datum, q, lambdas, field


def block_contents(datum: CartanDatum, max_strands: int):
    """All letter multisets with at most max_strands letters."""
    for n in range(max_strands + 1):
        for combo in combinations_with_replacement(range(datum.rank), n):
            counts = [0] * datum.rank
            for i in combo:
                counts[i] += 1
            yield datum.root(counts)


def emit(args, payload):
    if args.format == "csv" and isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def task_dims(args, comp: BlockComputer) -> int:
    result = {}
    csv_lines = [GradedHomTable.CSV_HEADER]
    for alpha in block_contents(comp.datum, args.max_strands):
        table = comp.graded_hom_table(alpha)
        if not table.entries:
            continue
        label = ",".join(str(c) for c in alpha.coords)
        result[f"content [{label}]"] = {
            "table": table.to_json(),
            "total_at_q=1": table.total_at_1(),
        }
        csv_lines.extend(table.csv_rows())
    if args.format == "csv":
        emit(args, "\n".join(csv_lines) + "\n")
    else:
        emit(args, result)
    return EXIT_OK


def task_verify_euler(args, comp: BlockComputer) -> int:
    space = comp.space
    report = {}
    ok = True
    for alpha in block_contents(comp.datum, args.max_strands):
        keys = comp.idems(alpha)
        for a in keys:
            for b in keys:
                entry = comp.graded_hom(a, b)
                pred = space.form_vv(a, b)
                match = entry == pred
                ok = ok and match
                if not match:
                    report[f"{GradedHomTable.idem_label(a)}|{GradedHomTable.idem_label(b)}"] = {
                        "diagram": entry.text(),
                        "oracle": pred.text(),
                    }
    payload = {"task": "verify-euler", "ok": ok, "mismatches": report}
    emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFY


def task_verify_filtration(args, comp: BlockComputer) -> int:
    ok = True
    certs = {}
    for alpha in block_contents(comp.datum, args.max_strands):
        for key in comp.idems(alpha):
            good, cert = comp.standard_filtration_check(key)
            ok = ok and good
            certs[GradedHomTable.idem_label(key)] = {"ok": good, "layers": len(cert["layers"])}
    emit(args, {"task": "verify-filtration", "ok": ok, "certificates": certs})
    return EXIT_OK if ok else EXIT_VERIFY


def task_standard(args, comp: BlockComputer) -> int:
    result = {}
    for alpha in block_contents(comp.datum, args.max_strands):
        keys = comp.idems(alpha)
        for key in keys:
            col = {}
            for j in keys:
                col[GradedHomTable.idem_label(j)] = comp.standard_dims(key, j).to_json()
            result[GradedHomTable.idem_label(key)] = col
    emit(args, {"task": "standard", "columns": result})
    return EXIT_OK


def task_multiply(args, comp: BlockComputer) -> int:
    rng = random.Random(args.seed)
    checked = 0
    failed = 0
    for alpha in block_contents(comp.datum, args.max_strands):
        keys = comp.idems(alpha)
        if not keys:
            continue
        pool = []
        for a in keys:
            for b in keys:
                dmin = comp.min_degree(a, b)
                if dmin is None:
                    continue
                for d in range(dmin, min(dmin + 6, 12) + 1):
                    pool.extend(comp.tilde_basis(a, b, d))
        if not pool:
            continue
        for _ in range(args.samples):
            k1 = rng.choice(pool)
            k2 = rng.choice(pool)
            a = Element(comp.alg, {k1: 1})
            b = Element(comp.alg, {k2: 1})
            top = comp.alg.top_idem(k2[0], k2[1])
            f = polyrep.random_poly(comp.alg, top, rng)
            if not polyrep.module_axiom_holds(comp.alg, a, b, f):
                failed += 1
            checked += 1
    emit(args, {"task": "multiply", "checked": checked, "failed": failed, "seed": args.seed})
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def task_crystal(args, comp: BlockComputer) -> int:
    blocks = {}
    simples_by_alpha = {}
    edges = []
    contents = list(block_contents(comp.datum, args.max_strands))
    for alpha in contents:
        keys = comp.idems(alpha)
        if not keys:
            continue
        blk = QuotientBlock(comp, alpha)
        if blk.dim == 0:
            continue
        blocks[alpha.coords] = blk
        simples_by_alpha[alpha.coords] = modules.simples(blk)
    for coords, blk in blocks.items():
        for i in range(comp.datum.rank):
            target = tuple(c + (1 if j == i else 0) for j, c in enumerate(coords))
            if target not in blocks:
                continue
            sims = simples_by_alpha[coords]
            for L, img in zip(sims, modules.crystal_f(sims, i, simples_by_alpha[target])):
                if img is not None:
                    edges.append(
                        {
                            "from": {"content": list(coords), "simple": L.tag},
                            "to": {"content": list(target), "simple": img.tag},
                            "node": comp.datum.nodes[i],
                        }
                    )
    payload = {
        "task": "crystal",
        "simples": {
            str(list(c)): [{"tag": s.tag, "dim": s.dim, "char": s.graded_char().to_json()} for s in ss]
            for c, ss in simples_by_alpha.items()
        },
        "edges": edges,
    }
    emit(args, payload)
    return EXIT_OK


def task_hecke_check(args, comp: BlockComputer) -> int:
    datum = comp.datum
    (lam,) = comp.lambdas
    reports = {}
    ok = True
    for d in range(0, min(args.max_strands, 3) + 1):
        if d == 0:
            reports["d=0"] = {"ok": True, "dim": 1}
            continue
        H = hecke.HeckeAlgebra(datum, lam, d)
        dims = {}
        for alpha in block_contents(datum, d):
            if sum(alpha.coords) != d:
                continue
            keys = comp.idems(alpha)
            for a in keys:
                for b in keys:
                    dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
        rep = hecke.bk_check(H, datum, lam, dims)
        rep["dim"] = H.dim()
        rep["dim_expected"] = H.level**d * math.factorial(d)
        rep["dim_ok"] = rep["dim"] == rep["dim_expected"]
        ok = ok and rep["ok"] and rep["dim_ok"]
        reports[f"d={d}"] = rep
    emit(args, {"task": "hecke-check", "ok": ok, "reports": reports})
    return EXIT_OK if ok else EXIT_VERIFY


TASKS = {
    "dims": task_dims,
    "multiply": task_multiply,
    "standard": task_standard,
    "verify-euler": task_verify_euler,
    "verify-filtration": task_verify_filtration,
    "crystal": task_crystal,
    "hecke-check": task_hecke_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        datum, q, lambdas, field = load_configuration(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        comp = BlockComputer(datum, q, lambdas, field, tail=args.tail, max_strands=args.max_strands)
        return TASKS[args.task](args, comp)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
