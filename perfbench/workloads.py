"""The benchmark's workloads: inputs, one pass over them, and the items a
pass produces for the golden comparison.

A pass returns ``{item_id: value}``.  An item whose computation raised, or
whose certificate failed, carries ``{"error": "..."}`` instead of a value;
everything else is compared to the committed golden output by ``run.py``.
All inputs go through ``tensoralg``'s public API and its CLI parser, the
way a ``tpa-workbench`` user reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def import_tensoralg():
    """Put the checkout's ``src`` first on the path and import the CLI module."""
    sys.path.insert(0, str(SRC))
    from tensoralg import workbench

    return workbench


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


class TableWorkload:
    """Every graded Hom entry of the listed contents, each checked against
    the quantum-group oracle ``TensorSpace.form_vv``.

    The seed shuffles the (row, col) order inside each content block; the
    entries themselves must not depend on it.
    """

    kind = "table"

    def __init__(self, datum: str, lambdas: str, field: str, max_strands: int, extra: tuple = ()):
        self.datum = datum
        self.lambdas = lambdas
        self.field = field
        self.max_strands = max_strands
        self.extra = extra

    def setup(self, field: str | None = None):
        workbench = import_tensoralg()
        args = workbench.build_parser().parse_args(
            ["--datum", self.datum, "--lambda", self.lambdas, "--task", "dims",
             "--field", field or self.field]
        )
        datum, q, lambdas, fld = workbench.load_configuration(args)
        contents = list(workbench.block_contents(datum, self.max_strands))
        contents += [datum.root(c) for c in self.extra]
        strands = max(sum(alpha.coords) for alpha in contents)
        return workbench.BlockComputer(datum, q, lambdas, fld, max_strands=strands), contents

    def run(self, state, seed: int) -> dict:
        from tensoralg.cyclotomic import IntegrityError
        from tensoralg.qtensor import GradedHomTable

        comp, contents = state
        rng = random.Random(seed)
        label = GradedHomTable.idem_label
        out = {}
        for alpha in contents:
            keys = comp.idems(alpha)
            pairs = [(a, b) for a in keys for b in keys]
            rng.shuffle(pairs)
            for a, b in pairs:
                item = f"{label(a)}|{label(b)}"
                try:
                    entry = comp.graded_hom(a, b)
                    oracle = comp.space.form_vv(a, b)
                except IntegrityError as exc:
                    out[item] = _error(exc)
                    continue
                if entry != oracle:
                    out[item] = {"error": f"diagram {entry.text()} != oracle {oracle.text()}"}
                else:
                    out[item] = entry.to_json()
        return out


class CliWorkload:
    """``tpa-workbench`` runs through ``tensoralg.workbench.main``; each
    report in each JSON payload is one item, and a report whose
    certificate says ``ok: false`` is an error."""

    kind = "cli"
    field = "q"

    def __init__(self, runs: list[list[str]]):
        self.runs = runs

    def setup(self, field: str | None = None):
        # What main() does before its first entry, done once per CLI run here
        # so that set-up time is measured on its own.
        workbench = import_tensoralg()
        for argv in self.runs:
            args = workbench.build_parser().parse_args(argv)
            datum, q, lambdas, fld = workbench.load_configuration(args)
            workbench.BlockComputer(datum, q, lambdas, fld, tail=args.tail, max_strands=args.max_strands)
        return workbench

    def run(self, workbench, seed: int) -> dict:
        out = {}
        for argv in self.runs:
            task = argv[argv.index("--task") + 1]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = workbench.main(argv)
                payload = json.loads(buf.getvalue())
            except Exception as exc:  # one failing run must not hide the other
                out[f"{task}:run"] = _error(exc)
                continue
            if code != 0:
                out[f"{task}:run"] = {"error": f"exit code {code}"}
                continue
            for item, value in _cli_items(task, payload).items():
                certified = not isinstance(value, dict) or (value.get("ok", True) and value.get("dim_ok", True))
                out[f"{task}:{item}"] = value if certified else {"error": "certificate failed", "report": value}
        return out


def _cli_items(task: str, payload: dict) -> dict:
    if task == "crystal":
        items = {f"simples{c}": s for c, s in payload["simples"].items()}
        items["edges"] = payload["edges"]
        return items
    if task == "hecke-check":
        return dict(payload["reports"])
    raise ValueError(f"no item split for task {task!r}")


# Why each workload is here is recorded in perfbench/README.md.
WORKLOADS = {
    "a2-table": TableWorkload("a2", "1,0;0,1", "q", max_strands=3, extra=((4, 0), (0, 4))),
    "sl2-wide-gfp": TableWorkload("sl2", "1;2", "p:2147483647", max_strands=3),
    "modules-hecke": CliWorkload([
        ["--datum", "sl2", "--lambda", "1;1;1", "--task", "crystal", "--max-strands", "2"],
        ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "3"],
    ]),
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"
