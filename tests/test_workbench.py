import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import tensoralg
from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer
from tensoralg.laurent import ONE
from tensoralg.qtensor import TensorSpace
from tensoralg import workbench
from tensoralg.workbench import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
CRYSTAL_GOLDEN = Path(__file__).resolve().parent / "golden" / "crystal"
HECKE_GOLDEN = Path(__file__).resolve().parent / "golden" / "hecke"
TABLE_GOLDEN = Path(__file__).resolve().parent / "golden"

BASE = ["--datum", "sl2", "--lambda", "1;1"]


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_dims_golden_totals(capsys):
    code, out = run_main(BASE + ["--task", "dims", "--max-strands", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["content [0]"]["total_at_q=1"] == 1
    assert payload["content [1]"]["total_at_q=1"] == 5
    assert payload["content [2]"]["total_at_q=1"] == 9


def test_dims_csv_format(tmp_path, capsys):
    out_file = tmp_path / "dims.csv"
    code, _ = run_main(
        BASE + ["--task", "dims", "--max-strands", "1", "--format", "csv", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "row_idem,col_idem,laurent"
    assert any("e[1|R@0,0]" in ln for ln in lines[1:])


def test_verify_euler_passes(capsys):
    code, out = run_main(BASE + ["--task", "verify-euler", "--max-strands", "2"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_euler_empty_lambda(capsys):
    code, out = run_main(
        ["--datum", "sl2", "--lambda", ";", "--task", "verify-euler", "--max-strands", "0"], capsys
    )
    assert code == 0


def test_verify_filtration(capsys):
    code, out = run_main(BASE + ["--task", "verify-filtration", "--max-strands", "2"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_multiply_task_seeded(capsys):
    args = BASE + ["--task", "multiply", "--max-strands", "2", "--samples", "10", "--seed", "5"]
    code, out = run_main(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["checked"] > 0
    code2, out2 = run_main(args, capsys)
    assert out2 == out  # deterministic reruns


def test_standard_task(capsys):
    code, out = run_main(BASE + ["--task", "standard", "--max-strands", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "e[1|R@0,1]" in payload["columns"]


def test_crystal_task(capsys):
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "2", "--task", "crystal", "--max-strands", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"], "expected at least one crystal edge"


def _crystal_strings(payload):
    """Lengths, in edges, of the i-strings of the crystal graph, sorted, per
    node label i: for each i, every node (content, simple) has at most one
    i-edge in and one out, and each i-string starts at a node with no
    i-edge in."""
    nodes = {(c, s["tag"]) for c, ss in payload["simples"].items() for s in ss}
    succ = {}  # node label -> {source node: target node}
    for e in payload["edges"]:
        src = (str(e["from"]["content"]), e["from"]["simple"])
        dst = (str(e["to"]["content"]), e["to"]["simple"])
        step = succ.setdefault(e["node"], {})
        assert src in nodes and dst in nodes and src not in step
        step[src] = dst
    strings = {}
    for label, step in succ.items():
        assert len(set(step.values())) == len(step)
        lengths = []
        for node in nodes - set(step.values()):
            n = 0
            while node in step:
                node, n = step[node], n + 1
            lengths.append(n)
        assert sum(lengths) + len(lengths) == len(nodes)
        strings[label] = sorted(lengths)
    return strings


@pytest.mark.parametrize(
    "datum,lambdas,strands,counts,strings",
    [
        # B(2) ⊗ B(1) = B(3) ⊕ B(1)
        ("sl2", "2;1", "3", {(0,): 1, (1,): 2, (2,): 2, (3,): 1}, {"1": [1, 3]}),
        # B(1) ⊗ B(1) = B(2) ⊕ B(0)
        ("sl2", "1;1", "2", {(0,): 1, (1,): 2, (2,): 1}, {"1": [0, 2]}),
        # B(ω1) ⊗ B(ω2) = B(θ) ⊕ B(0) of sl3, cut at three strands
        (
            "a2",
            "1,0;0,1",
            "3",
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 1, (1, 2): 1},
            {"1": [0, 0, 0, 1, 2], "2": [0, 0, 0, 1, 2]},
        ),
        # the 5-dimensional vector representation of so5
        (
            "b2",
            "1,0",
            "4",
            {(0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1},
            {"1": [0, 1, 1], "2": [0, 0, 2]},
        ),
        # the 4-dimensional spin representation of so5
        (
            "b2",
            "0,1",
            "3",
            {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1},
            {"1": [0, 0, 1], "2": [1, 1]},
        ),
    ],
    ids=["B(2)xB(1)", "B(1)xB(1)", "a2-B(w1)xB(w2)", "b2-vector", "b2-spin"],
)
def test_crystal_task_matches_the_tensor_product_crystal(capsys, datum, lambdas, strands, counts, strings):
    """The crystal task reproduces crystals worked by hand: the number of
    simples per content is the weight multiplicity, and the i-strings of
    each node i have the lengths of the summands' strings."""
    code, out = run_main(
        ["--datum", datum, "--lambda", lambdas, "--task", "crystal", "--max-strands", strands], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert {c: len(payload["simples"][str(list(c))]) for c in counts} == counts
    assert len(payload["simples"]) == len(counts)
    assert _crystal_strings(payload) == strings


def test_hecke_task(capsys):
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_module_and_hecke_runs_match_the_benchmark_golden(capsys):
    """The two CLI runs of the modules-hecke benchmark workload (block
    structure constants, radicals, simples, characters, the crystal and
    the Hecke bridge) reproduce its golden items: the crystal's simples per
    content and its edges, and one Hecke report per d."""
    golden = json.loads((GOLDEN / "modules-hecke.json").read_text())["items"]
    items = {}
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "1;1;1", "--task", "crystal", "--max-strands", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    items.update({f"crystal:simples{c}": s for c, s in payload["simples"].items()})
    items["crystal:edges"] = payload["edges"]
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "3"], capsys
    )
    assert code == 0
    items.update({f"hecke-check:{k}": v for k, v in json.loads(out)["reports"].items()})
    assert items == golden


@pytest.mark.parametrize(
    "golden, datum, lambdas, strands",
    [
        ("a2_10_01_3", "a2", "1,0;0,1", "3"),
        ("b2_10_01_2", "b2", "1,0;0,1", "2"),
        ("sl2_3_3", "sl2", "3", "3"),
        ("a3_100_3", "a3", "1,0,0", "3"),
        ("a2_11_3", "a2", "1,1", "3"),
        ("sl2_21_3", "sl2", "2;1", "3"),
        ("sl2_111_3", "sl2", "1;1;1", "3"),
    ],
)
def test_crystal_output_matches_its_golden_byte_for_byte(capsys, golden, datum, lambdas, strands):
    """The crystal task's stdout (simples, characters and edges) equals a
    recorded run, byte for byte."""
    code, out = run_main(
        ["--datum", datum, "--lambda", lambdas, "--task", "crystal", "--max-strands", strands], capsys
    )
    assert code == 0
    assert out == (CRYSTAL_GOLDEN / f"{golden}.json").read_text()


def test_crystal_output_on_a_short_window_matches_its_golden(capsys):
    """With ``--tail 1`` the windows of sl2 (ω, ω, ω) stop short of the
    certificate's E, so the structure constants reduce products above them
    against assembled kernels; the output is still the recorded run's."""
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "1;1;1", "--task", "crystal", "--max-strands", "3", "--tail", "1"], capsys
    )
    assert code == 0
    assert out == (CRYSTAL_GOLDEN / "sl2_111_3.json").read_text()


@pytest.mark.parametrize(
    "golden, datum, lam, strands",
    [
        ("a2_11_3", "a2", "1,1", "3"),
        ("sl2_3_2", "sl2", "3", "2"),
        ("sl2_3_3", "sl2", "3", "3"),
    ],
)
def test_hecke_check_output_matches_its_golden_byte_for_byte(capsys, golden, datum, lam, strands):
    """The hecke-check task's stdout (relations, block dimensions and
    algebra dimensions per d) equals a recorded run, byte for byte."""
    code, out = run_main(["--datum", datum, "--lambda", lam, "--task", "hecke-check", "--max-strands", strands], capsys)
    assert code == 0
    assert out == (HECKE_GOLDEN / f"{golden}.json").read_text()


@pytest.mark.parametrize(
    "golden, args",
    [
        (
            "dims/a1xa1_11_10_4.csv",
            ["--datum", "a1xa1", "--lambda", "1,1;1,0", "--task", "dims", "--max-strands", "4", "--format", "csv"],
        ),
        ("standard/a2_10_01_3.json", ["--datum", "a2", "--lambda", "1,0;0,1", "--task", "standard", "--max-strands", "3"]),
        (
            "standard/a2_10_01_3_filtration.json",
            ["--datum", "a2", "--lambda", "1,0;0,1", "--task", "verify-filtration", "--max-strands", "3"],
        ),
        ("standard/b2_10_01_3.json", ["--datum", "b2", "--lambda", "1,0;0,1", "--task", "standard", "--max-strands", "3"]),
        (
            "standard/b2_10_01_3_filtration.json",
            ["--datum", "b2", "--lambda", "1,0;0,1", "--task", "verify-filtration", "--max-strands", "3"],
        ),
    ],
)
def test_table_output_matches_its_golden_byte_for_byte(capsys, golden, args):
    """The dims, standard and verify-filtration tasks' stdout (every graded
    Hom entry, every standard-module column and every filtration
    certificate) equals a recorded run, byte for byte."""
    code, out = run_main(args, capsys)
    assert code == 0
    assert out == (TABLE_GOLDEN / golden).read_text()


def test_config_errors(capsys):
    assert main(["--datum", "nosuch", "--lambda", "1", "--task", "dims"]) == 2
    assert main(["--datum", "sl2", "--lambda", "1,0", "--task", "dims"]) == 2
    assert main(["--datum", "sl2", "--lambda", "-1", "--task", "dims"]) == 2


def test_a_negative_tail_is_a_configuration_error(capsys):
    # a window ending below the oracle's top degree would skip the check
    # from above and print truncated dimensions
    assert main(BASE + ["--task", "dims", "--max-strands", "2", "--tail", "-5"]) == 2
    assert "configuration error: --tail must be non-negative" in capsys.readouterr().err
    d = sl2()
    with pytest.raises(ValueError, match="tail must be non-negative"):
        BlockComputer(d, default_q_matrix(d), (d.weight((1,)),), tail=-1)


@pytest.mark.parametrize(
    "args",
    [
        BASE + ["--task", "dims", "--max-strands", "-1"],
        BASE + ["--task", "verify-euler", "--max-strands", "-1"],
        ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "-1"],
    ],
)
def test_a_negative_strand_bound_is_a_configuration_error(capsys, args):
    # no block would be checked, and the certificates would read ok
    assert main(args) == 2
    assert "configuration error: --max-strands must be non-negative" in capsys.readouterr().err


def test_a_negative_sample_count_is_a_configuration_error(capsys):
    assert main(BASE + ["--task", "multiply", "--max-strands", "2", "--samples", "-1"]) == 2
    assert "configuration error: --samples must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, reason", [("missing/dims.json", "is in no existing directory"), (".", "is a directory")]
)
def test_an_unwritable_out_is_a_configuration_error_before_any_block(tmp_path, monkeypatch, capsys, path, reason):
    """``--out`` in a directory that does not exist, or naming a directory,
    exits 2 before a block computer is built, not with a traceback once
    the whole task has run."""
    out = str(tmp_path / path)
    monkeypatch.setattr(workbench, "BlockComputer", lambda *args, **kwargs: pytest.fail("a block was computed"))
    assert main(BASE + ["--task", "dims", "--max-strands", "2", "--out", out]) == 2
    assert capsys.readouterr().err == f"configuration error: --out {out!r} {reason}\n"


def test_an_integrity_error_exits_3(monkeypatch, capsys):
    form_vv = TensorSpace.form_vv
    monkeypatch.setattr(TensorSpace, "form_vv", lambda self, a, b: form_vv(self, a, b) + ONE)
    assert main(BASE + ["--task", "dims", "--max-strands", "1"]) == 3
    assert capsys.readouterr().err.startswith("integrity error: component ")


def test_hecke_check_with_two_reds_is_a_configuration_error(capsys):
    code = main(["--datum", "sl2", "--lambda", "1;1", "--task", "hecke-check", "--max-strands", "2"])
    assert code == 2
    assert "configuration error: hecke-check needs a single red label" in capsys.readouterr().err


def test_hecke_check_at_level_zero_is_a_configuration_error(capsys):
    for datum, lam in (("sl2", "0"), ("a2", "0,0")):
        code = main(["--datum", datum, "--lambda", lam, "--task", "hecke-check", "--max-strands", "2"])
        assert code == 2
        assert "configuration error: hecke-check needs a red label of positive level" in capsys.readouterr().err


def test_hecke_check_outside_type_a_is_a_configuration_error(capsys):
    # the degenerate cyclotomic Hecke comparison holds only for A_n
    for datum, lam in (("b2", "1,0"), ("a1xa1", "1,1")):
        code = main(["--datum", datum, "--lambda", lam, "--task", "hecke-check", "--max-strands", "2"])
        assert code == 2
        assert "configuration error: hecke-check needs a type A datum" in capsys.readouterr().err


def test_crystal_over_a_prime_field_is_a_configuration_error(capsys):
    code = main(["--datum", "sl2", "--lambda", "1;1", "--task", "crystal", "--field", "p:7", "--max-strands", "2"])
    assert code == 2
    assert "configuration error: crystal needs characteristic 0" in capsys.readouterr().err


def test_datum_file_and_field_flag(tmp_path, capsys):
    from tensoralg.cartan import default_q_matrix, type_a

    d = type_a(2)
    blob = d.to_json()
    blob["Q"] = default_q_matrix(d).to_json()
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(blob))
    code, out = run_main(
        ["--datum", str(path), "--lambda", "1,0", "--task", "dims", "--max-strands", "1",
         "--field", "p:7"],
        capsys,
    )
    assert code == 0


def test_dims_output_is_field_independent(capsys):
    """The dims, standard and verify-* outputs over a small and a large
    prime are the rational ones, byte for byte."""
    a2 = ["--datum", "a2", "--lambda", "1,0;0,1", "--max-strands", "3"]
    for args in (
        a2 + ["--task", "dims"],
        BASE + ["--task", "standard", "--max-strands", "3"],
        a2 + ["--task", "verify-euler"],
        a2 + ["--task", "verify-filtration"],
    ):
        code_q, out_q = run_main(args + ["--field", "q"], capsys)
        for field in ("p:7", "p:2147483647"):
            code_p, out_p = run_main(args + ["--field", field], capsys)
            assert code_q == code_p == 0, field
            assert out_p == out_q, field


@pytest.mark.parametrize(
    "args",
    [
        ["--datum", "a1xa1", "--lambda", "1,1;1,0", "--max-strands", "3"],
        ["--datum", "a1xa1", "--lambda", "1,1", "--max-strands", "4"],
        ["--datum", "a3", "--lambda", "1,0,0;0,0,1", "--max-strands", "3"],
    ],
)
def test_dims_over_gf2_equals_dims_over_q_with_orthogonal_nodes(capsys, args):
    """The default Q-matrix is the Khovanov-Lauda one over GF(2) too: for
    orthogonal nodes Q_ij = 1, not u^0 + v^0 = 2 = 0, so the GF(2) table is
    the rational one."""
    code_q, out_q = run_main(args + ["--task", "dims", "--field", "q"], capsys)
    code_2, out_2 = run_main(args + ["--task", "dims", "--field", "p:2"], capsys)
    assert code_q == code_2 == 0
    assert out_2 == out_q


def test_a_leading_coefficient_zero_in_the_field_is_a_configuration_error(tmp_path, capsys):
    """t_ij must be a unit of the field: t_01 = 2 loads over Q and is
    refused over GF(2), naming i, j and p."""
    from tensoralg.cartan import a1_x_a1

    blob = a1_x_a1().to_json()
    blob["Q"] = {"0,1": [[2, 0, 0]], "1,0": [[2, 0, 0]]}
    path = tmp_path / "a1xa1_t2.json"
    path.write_text(json.dumps(blob))
    args = ["--datum", str(path), "--lambda", "1,1;1,0", "--task", "dims", "--max-strands", "3"]
    assert main(args + ["--field", "p:2"]) == 2
    assert "configuration error: t_01 = 2 (coefficient of u^0 in Q[0,1]) is zero in GF(2)" in capsys.readouterr().err
    assert main(args + ["--field", "q"]) == 0


def test_every_preset_loads_over_gf2():
    from tensoralg.cartan import PRESETS
    from tensoralg.workbench import build_parser, load_configuration

    for name, make in PRESETS.items():
        lam = ",".join("1" * make().rank)
        args = build_parser().parse_args(["--datum", name, "--lambda", lam, "--task", "dims", "--field", "p:2"])
        assert load_configuration(args)[3].characteristic == 2


def child_env():
    """The environment of a child interpreter that imports the package this
    test imported, installed or not."""
    env = dict(os.environ)
    src = str(Path(tensoralg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_loads_every_traced_module():
    """``import tensoralg.workbench``, in a fresh interpreter, loads every
    module whose entry points the benchmark's tracer wraps: the tracer
    imports the CLI alone and then looks each of them up in
    ``sys.modules``, so a layer imported lazily would fail the traced
    benchmark passes."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    traced = sorted({module for points in tracing["SPANS"].values() for module, _ in points})
    assert "tensoralg.modules" in traced and "tensoralg.hecke" in traced
    env = child_env()
    code = "import json, sys, tensoralg.workbench; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(traced) <= set(json.loads(proc.stdout))


def test_module_theory_hecke_and_polyrep_run_on_first_use():
    """In a fresh interpreter, ``import tensoralg.workbench`` registers the
    five lazy modules in ``sys.modules`` and on the package but runs none of
    them, and each task, in an interpreter of its own, runs the ones it uses
    and no other: ``dims`` and ``verify-euler`` none, the standard tasks
    ``standard`` alone, ``crystal`` module theory and the spectral splitter,
    ``hecke-check`` the Hecke algebra and the splitter, ``multiply`` the
    polynomial representation.  A registered module that has not run is
    not yet of type ``types.ModuleType``."""
    code = """
import contextlib, io, json, sys, types
import tensoralg, tensoralg.workbench as wb
LAZY = ("hecke", "modules", "polyrep", "spectral", "standard")
assert all(sys.modules["tensoralg." + n] is getattr(tensoralg, n) for n in LAZY)
def ran():
    return [n for n in LAZY if type(sys.modules["tensoralg." + n]) is types.ModuleType]
seen = [ran()]
with contextlib.redirect_stdout(io.StringIO()):
    assert wb.main(["--datum", "sl2", "--lambda", sys.argv[1], "--task", sys.argv[2], "--max-strands", "2"]) == 0
seen.append(ran())
print(json.dumps(seen))
"""
    seen = {}
    for lam, task in (
        ("1;1", "dims"),
        ("1;1", "verify-euler"),
        ("1;1", "standard"),
        ("1;1", "verify-filtration"),
        ("1;1", "crystal"),
        ("2", "hecke-check"),
        ("1;1", "multiply"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, lam, task], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        at_import, seen[task] = json.loads(proc.stdout)
        assert at_import == [], task
    assert seen == {
        "dims": [],
        "verify-euler": [],
        "standard": ["standard"],
        "verify-filtration": ["standard"],
        "crystal": ["modules", "spectral"],
        "hecke-check": ["hecke", "spectral"],
        "multiply": ["polyrep"],
    }


def test_every_module_binding_a_traced_function_is_loaded_by_the_cli():
    """The tracer rebinds a traced function such as ``linalg.solve`` only in
    the modules it finds in ``sys.modules`` after ``import
    tensoralg.workbench``; a module that binds one by ``from .x import`` and
    is imported only when another module runs would keep the untraced
    function, and its calls would drop out of the layer counts.  So every
    such module is loaded, or registered lazily, by that import.  The
    functions are the entries of the tracer's ``SPANS`` that name no
    class (a "Class.method" entry is wrapped on its class)."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    traced = {
        (module.rpartition(".")[2], attr)
        for points in tracing["SPANS"].values()
        for module, attr in points
        if "." not in attr
    }
    assert ("linalg", "solve") in traced and ("diagrams", "basis_enumerate") in traced
    package = Path(tensoralg.__file__).resolve().parent
    binders = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if any((node.module, alias.name) in traced for alias in node.names):
                    binders.add(f"tensoralg.{path.stem}")
    assert {"tensoralg.spectral", "tensoralg.standard", "tensoralg.cyclotomic"} <= binders
    code = "import json, sys, tensoralg.workbench; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert binders - set(json.loads(proc.stdout)) == set()


def test_importing_the_cli_loads_no_introspection_machinery():
    """Start-up cost: in a fresh interpreter, ``import tensoralg.workbench``
    loads none of the modules behind ``dataclasses`` (each CLI run and each
    benchmark pass pays for every module it imports)."""
    code = (
        "import json, sys; before = set(sys.modules); import tensoralg.workbench; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stdout))
    assert "tensoralg.cartan" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis"}


def test_console_script_entrypoint():
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "tensoralg.workbench"] + BASE + ["--task", "dims", "--max-strands", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = child_env()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_run():
    assert len(DEMOS) == 5
