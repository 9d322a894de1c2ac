"""Every top-level function and method of ``src/tensoralg`` is used by the
program: referenced in ``src/``, ``demos/`` or ``perfbench/`` outside its
own definition.

A method is referenced only through an attribute or a string ``"C.m"``
naming it (the benchmark tracer wraps entry points it names in strings,
such as ``"BlockComputer.kernel_space"``), so a local variable, a function
or a metric name of the same name does not hide it.  Where the receiver is
known, the reference is keyed on the owning class: ``C.m``, ``"C.m"`` and
``self.m`` written inside class C count only for the method m that C
defines or inherits from a class of the package, so a same-named method of
another class does not hide it either.  An attribute on any other
receiver counts for every method of that name.  A top-level function is
referenced by any attribute, bare name or string of its name.  Dunder
methods are exempt, and so are the certificates, reference
implementations and API that only the tests call, listed in
``TEST_FACING`` as ``C.m`` or by function name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tensoralg"
USERS = ("src", "demos", "perfbench")

TEST_FACING = {
    # cartan.py
    "RootVector.height",
    "QMatrix.t",
    # cyclotomic.py
    "QuotientBlock.check_associative",
    "double_centralizer_data",
    "frobenius_certificate",
    "kernel_equals_cyclotomic",
    # diagrams.py
    "Element.degree",
    "diagram_from_text",
    "Element.idempotent",
    # hecke.py
    "HeckeAlgebra.gen_s",
    "HeckeAlgebra.regular_rank",
    "x_spectra",
    # laurent.py
    "LaurentPoly.is_bar_invariant",
    # modules.py
    "regular_module",
    # polyrep.py
    "one_poly",
    # qtensor.py
    "TensorSpace.apply_e",
    "GradedHomTable.is_symmetric",
    "TensorSpace.vkey_weight",
}


def _classes() -> dict:
    """{name: (method names, base class names)} for each top-level class of
    the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
                out[node.name] = (methods, [b.id for b in node.bases if isinstance(b, ast.Name)])
    return out


CLASSES = _classes()


def _owner(cls: str, name: str):
    """The package class whose method ``name`` ``cls`` defines or inherits,
    or None."""
    if cls not in CLASSES:
        return None
    methods, bases = CLASSES[cls]
    if name in methods:
        return cls
    return next(filter(None, (_owner(base, name) for base in bases)), None)


def _keyed(cls: str, name: str) -> str:
    """``"C.m"`` for the class C whose method ``name`` ``cls`` calls (C is
    None, so the key matches nothing, when no package class defines it)."""
    return f"{_owner(cls, name)}.{name}"


def _references(tree, method: bool, cls: str | None = None) -> Counter:
    """References in ``tree``, written inside class ``cls``, to a method
    (``method`` true): ``C.m`` keys for a receiver that names its class and
    for a string ``"C.m"``, bare names for attributes on any other
    receiver; to a top-level function: bare names of every name, attribute
    and string part."""
    out = Counter()

    def walk(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Name) and not method:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if method and receiver == "self" and cls:
                out[_keyed(cls, node.attr)] += 1
            elif method and receiver in CLASSES:
                out[_keyed(receiver, node.attr)] += 1
            else:
                out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if not method:
                out.update(part for part in parts if part.isidentifier())
            elif len(parts) == 2 and parts[0] in CLASSES:
                out[_keyed(*parts)] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, cls)

    walk(tree, cls)
    return out


def _definitions():
    """(file name, def node, owning class or None) for each top-level
    function and each method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            for f in node.body if cls else [node]:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path.name, f, cls


def test_every_function_and_method_is_used():
    trees = [ast.parse(path.read_text()) for top in USERS for path in sorted((ROOT / top).rglob("*.py"))]
    refs = {method: sum((_references(t, method) for t in trees), Counter()) for method in (False, True)}
    unused = {}  # function name or C.m -> file
    for file, f, cls in _definitions():
        if f.name.startswith("__") and f.name.endswith("__"):
            continue
        method = cls is not None
        own = _references(f, method, cls)
        names = (f.name, f"{cls}.{f.name}") if method else (f.name,)
        if sum(refs[method][n] - own[n] for n in names) <= 0:
            unused[names[-1]] = file
    assert {n: unused[n] for n in unused.keys() - TEST_FACING} == {}
    # an exemption for a name the program uses is stale
    assert TEST_FACING - unused.keys() == set()


def test_every_test_facing_name_is_tested():
    tests = Counter()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            tests += _references(ast.parse(path.read_text()), method=False)
    assert sorted(n for n in TEST_FACING if not tests[n.split(".")[-1]]) == []
