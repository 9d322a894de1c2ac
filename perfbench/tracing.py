"""Layer tracing from outside the program: wrap each layer's public entry
points where they are looked up, and aggregate spans by name.

Functions are rebound in every ``tensoralg`` module that imported them by
name (``cyclotomic`` binds ``basis_enumerate``, ``rank``, ...; ``modules``
binds ``nullspace``, ``solve``, ...); call sites that import lazily from
``tensoralg.linalg`` inside a function pick the wrapper up from the defining
module.  Methods are wrapped on their class.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are folded into per-name totals as they close, so the
trace costs no memory per call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of each entry point it covers.  An
# attribute "Class.method" is wrapped on the class.
SPANS = {
    "diagrams.multiply": [("tensoralg.diagrams", "Element.multiply")],
    "diagrams.basis_enumerate": [("tensoralg.diagrams", "basis_enumerate")],
    "cyclotomic.graded_hom": [("tensoralg.cyclotomic", "BlockComputer.graded_hom")],
    "cyclotomic.kernel_space": [("tensoralg.cyclotomic", "BlockComputer.kernel_space")],
    "cyclotomic.QuotientBlock": [("tensoralg.cyclotomic", "QuotientBlock.__init__")],
    "linalg.rref_add": [("tensoralg.linalg", "IncrementalRREF.add")],
    "linalg.dense": [
        ("tensoralg.linalg", name)
        for name in ("row_reduce", "rank", "solve", "nullspace", "reduce_against")
    ],
    "qtensor.form_vv": [("tensoralg.qtensor", "TensorSpace.form_vv")],
    "modules.radical": [("tensoralg.modules", "radical")],
    "modules.simples": [("tensoralg.modules", "simples")],
    "modules.crystal_f": [("tensoralg.modules", "crystal_f")],
    "hecke.bk_check": [("tensoralg.hecke", "bk_check")],
    "hecke.multiply": [("tensoralg.hecke", "HeckeAlgebra.multiply")],
    "workbench.main": [("tensoralg.workbench", "main")],
}

# Counts taken from the results of the spanned calls.
COUNTS = (
    "diagrams.multiply.zero",
    "linalg.rref_add.independent",
    "cyclotomic.kernel_space.saturated",
    "cyclotomic.kernel_space.tilde_dim_sum",
)

# The diagram engine's memo tables, read at the end of a pass.
DIAGRAM_MEMOS = ("_cross_memo", "_word_memo")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack = [[0.0]]  # per open span: time covered by its children
        self._algebras = []
        self._components = set()

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` runs once the
        span has closed, to take counts from the call."""
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - children[0]
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts taken at span boundaries -------------------------------------------

    def _after_multiply(self, result, args):
        if result.is_zero():
            self.counts["diagrams.multiply.zero"] += 1

    def _after_rref_add(self, grew, args):
        if grew:
            self.counts["linalg.rref_add.independent"] += 1

    def _after_kernel_space(self, result, args):
        comp, bottom, top, d = args
        key = (id(comp), bottom, top, d)
        if key in self._components:
            return
        self._components.add(key)
        nb = len(comp.tilde_basis(bottom, top, d))  # cached by kernel_space
        self.counts["cyclotomic.kernel_space.tilde_dim_sum"] += nb
        if nb and len(result[1]) == nb:
            self.counts["cyclotomic.kernel_space.saturated"] += 1

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap every entry point in ``SPANS``; returns the number of
        bindings replaced per span name."""
        import tensoralg.diagrams
        import tensoralg.workbench  # noqa: F401  (imports every layer)

        after = {
            "diagrams.multiply": self._after_multiply,
            "linalg.rref_add": self._after_rref_add,
            "cyclotomic.kernel_space": self._after_kernel_space,
        }
        package = [m for n, m in list(sys.modules.items()) if n == "tensoralg" or n.startswith("tensoralg.")]
        bound = Counter()
        for name, points in SPANS.items():
            for module, attr in points:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.span(name, getattr(cls, meth), after.get(name)))
                    bound[name] += 1
                    continue
                original = getattr(owner, attr)
                wrapped = self.span(name, original, after.get(name))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            bound[name] += 1

        algebra = tensoralg.diagrams.DiagramAlgebra
        init = algebra.__init__

        def init_and_record(alg, *args, **kwargs):
            init(alg, *args, **kwargs)
            self._algebras.append(alg)

        algebra.__init__ = init_and_record
        return dict(bound)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name; every span reports calls and self time."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["diagrams.memo_entries"] = sum(
            len(getattr(alg, memo, ())) for alg in self._algebras for memo in DIAGRAM_MEMOS
        )
        return out
