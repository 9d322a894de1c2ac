import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensoralg
from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer
from tensoralg.laurent import ONE
from tensoralg.qtensor import TensorSpace
from tensoralg.workbench import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

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


def test_hecke_task(capsys):
    code, out = run_main(
        ["--datum", "sl2", "--lambda", "2", "--task", "hecke-check", "--max-strands", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_module_and_hecke_runs_match_the_benchmark_golden(capsys):
    """The two CLI runs of the modules-hecke benchmark workload (block
    structure constants, radicals, simples, induction, the crystal and the
    Hecke bridge) reproduce its golden items: the crystal's simples per
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


def test_an_integrity_error_exits_3(monkeypatch, capsys):
    form_vv = TensorSpace.form_vv
    monkeypatch.setattr(TensorSpace, "form_vv", lambda self, a, b: form_vv(self, a, b) + ONE)
    assert main(BASE + ["--task", "dims", "--max-strands", "1"]) == 3
    assert capsys.readouterr().err.startswith("integrity error: component ")


def test_hecke_check_with_two_reds_is_a_configuration_error(capsys):
    code = main(["--datum", "sl2", "--lambda", "1;1", "--task", "hecke-check", "--max-strands", "2"])
    assert code == 2
    assert "configuration error: hecke-check needs a single red label" in capsys.readouterr().err


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
    for args in (
        ["--datum", "a2", "--lambda", "1,0;0,1", "--task", "dims", "--max-strands", "3"],
        BASE + ["--task", "standard", "--max-strands", "3"],
    ):
        code_q, out_q = run_main(args + ["--field", "q"], capsys)
        code_p, out_p = run_main(args + ["--field", "p:2147483647"], capsys)
        assert code_q == code_p == 0
        assert out_p == out_q


def test_console_script_entrypoint():
    # the child imports the package this test imported, installed or not
    env = dict(os.environ)
    src = str(Path(tensoralg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tensoralg.workbench"] + BASE + ["--task", "dims", "--max-strands", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)
