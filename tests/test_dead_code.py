"""Every top-level function and method of ``src/tensoralg`` is used by the
program: referenced in ``src/``, ``demos/`` or ``perfbench/`` outside its
own definition.

A method is referenced only through an attribute or a dotted string
naming it (the benchmark tracer wraps entry points it names in strings,
such as ``"BlockComputer.kernel_space"``), so a local variable or a
function of the same name does not hide it; a top-level function is
referenced by those and by a bare name or string too.  Dunder methods are
exempt, and so are the certificates, reference implementations and API
that only the tests call, listed by name in ``TEST_FACING``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tensoralg"
USERS = ("src", "demos", "perfbench")

TEST_FACING = {
    # cartan.py
    "height",
    "t",
    # cyclotomic.py
    "check_associative",
    "double_centralizer_data",
    "frobenius_certificate",
    "kernel_equals_cyclotomic",
    # diagrams.py
    "degree",
    "diagram_from_text",
    "idempotent",
    # hecke.py
    "gen_s",
    "regular_rank",
    "x_spectra",
    # laurent.py
    "is_bar_invariant",
    # modules.py
    "regular_module",
    # polyrep.py
    "one_poly",
    # qtensor.py
    "apply_e",
    "is_symmetric",
    "vkey_weight",
}


def _references(tree, method: bool) -> Counter:
    """References in ``tree`` to a method (``method`` true): attributes
    and the parts of dotted strings; to a top-level function: bare names
    and undotted strings too."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not method:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not method or "." in node.value:
                out.update(part for part in node.value.split(".") if part.isidentifier())
    return out


def _definitions():
    """(file name, def node, is a method) for each top-level function and
    each method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            method = isinstance(node, ast.ClassDef)
            for f in node.body if method else [node]:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path.name, f, method


def test_every_function_and_method_is_used():
    trees = [ast.parse(path.read_text()) for top in USERS for path in sorted((ROOT / top).rglob("*.py"))]
    refs = {method: sum((_references(t, method) for t in trees), Counter()) for method in (False, True)}
    unused = {}  # name -> file
    for file, f, method in _definitions():
        if f.name.startswith("__") and f.name.endswith("__"):
            continue
        if refs[method][f.name] - _references(f, method)[f.name] <= 0:
            unused[f.name] = file
    assert {n: unused[n] for n in unused.keys() - TEST_FACING} == {}
    # an exemption for a name the program uses is stale
    assert TEST_FACING - unused.keys() == set()


def test_every_test_facing_name_is_tested():
    tests = Counter()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            tests += _references(ast.parse(path.read_text()), method=False)
    assert sorted(n for n in TEST_FACING if not tests[n]) == []
