"""Benchmark entry point: cold passes of one workload, checked against golden
outputs, reported as one JSON line.

    python3 perfbench/run.py --workload a2-table --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout.  Each pass is a fresh process with a
fresh ``BlockComputer`` (a ``tpa-workbench`` user pays the memo fill on
every run); passes run one after another, a closed loop with one client.

``--trace 0`` runs untraced passes for about ``--seconds`` and reports the
end-to-end metrics as medians over passes.  Times are put on a fixed speed
scale by the host-speed probe that samples each pass (see ``probe.py``):
they read as seconds on a host where one probe takes ``REFERENCE_PROBE_S``;
the ``pass`` lines keep the raw times.  ``--trace 1`` runs one untraced and
one traced pass (two traced passes at two seeds on ``a2-table``, whose
counts and outputs must agree) and reports the per-layer metrics.  The
last line of standard output is the result; the lines before it record the
run's conditions and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from probe import REFERENCE_PROBE_S
from tracing import SPANS
from workloads import ROOT, SRC, WORKLOADS, golden_path
from workpass import now

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 6  # set-up-only processes before each untraced pass, besides its own set-up
PASS_LIMIT_S = 60  # a pass still running after this is stopped and counts as failed
RUN_LIMIT_S = 170  # no pass may run past this point of the run

# Layers the sizing shows at work on each workload: a traced pass in which
# one of these spans records no call fails.
TABLE_LAYERS = ["diagrams.multiply", "diagrams.basis_enumerate", "cyclotomic.graded_hom",
                "cyclotomic.kernel_space", "linalg.rref_add", "qtensor.form_vv"]
WORKING_LAYERS = {
    "a2-table": TABLE_LAYERS,
    "sl2-wide-gfp": TABLE_LAYERS,
    "modules-hecke": ["diagrams.multiply", "cyclotomic.QuotientBlock", "linalg.dense",
                      "modules.radical", "modules.simples", "modules.crystal_f",
                      "hecke.bk_check", "hecke.multiply", "workbench.main"],
}
DETERMINISM_WORKLOADS = ("a2-table",)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["diagrams.multiply.zero_frac"] = "ratio"
    units["linalg.rref_add.independent_frac"] = "ratio"
    units["cyclotomic.kernel_space.saturated"] = "count"
    units["cyclotomic.kernel_space.tilde_dim_sum"] = "count"
    units["diagrams.memo_entries"] = "count"
    units["trace.overhead_frac"] = "ratio"
    units["failed_frac"] = "ratio"
    return units


def log(tag: str, **fields) -> None:
    print(tag, json.dumps(fields, sort_keys=True), flush=True)


# -- one pass ---------------------------------------------------------------------------


def run_pass(workload: str, seed: int, timeout: float, trace=False, setup_only=False) -> dict:
    """Start a pass process and wait for it; never raises for a failed pass."""
    cmd = [sys.executable, str(HERE / "workpass.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ)
    env.pop("WORKBENCH_THREADS", None)  # the CLI then runs its single worker
    t0 = now()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"wall_s": now() - t0, "error": f"timed out after {timeout:.0f} s"}
    wall = now() - t0
    if proc.returncode != 0:
        return {"wall_s": wall, "error": f"exit code {proc.returncode}: {err.strip()[-400:]}"}
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def scale(res: dict) -> float:
    """Factor that puts a pass's times on the reference speed scale."""
    return REFERENCE_PROBE_S / res["probe_s"]


def check_items(items, golden: dict) -> tuple[int, list[str]]:
    """(attempted, failed item ids): an item fails when it is missing,
    raised, failed its certificate, or differs from the golden output."""
    items = items or {}
    ids = sorted(set(golden) | set(items))
    failed = [i for i in ids if i not in items or i not in golden or items[i] != golden[i]]
    return len(ids), failed


# -- run metadata -----------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def field_name(spec: str) -> str:
    return "Q" if spec == "q" else f"GF({spec[2:]})"


# -- the two kinds of run ---------------------------------------------------------------


class Run:
    def __init__(self, args, golden):
        self.args = args
        self.golden = golden
        self.start = now()
        self.order = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (now() - self.start)

    def one(self, seed: int, trace=False, setup_only=False) -> dict:
        kind = "setup" if setup_only else ("traced" if trace else "untraced")
        res = run_pass(self.args.workload, seed, min(PASS_LIMIT_S, self.remaining()), trace, setup_only)
        self.order.append(f"{kind}:{seed}")
        entry = {"n": len(self.order), "kind": kind, "seed": seed, "wall_s": round(res["wall_s"], 4)}
        for key in ("setup_s", "cpu_s", "peak_rss_mb", "probes"):
            if key in res:
                entry[key] = round(res[key], 4)
        if "probe_s" in res:
            entry["probe_ms"] = round(res["probe_s"] * 1e3, 4)
            entry["wall_ref_s"] = round(res["wall_s"] * scale(res), 4)
        if "error" in res:
            entry["error"] = res["error"]
        if not setup_only or "error" in res:
            attempted, failed = check_items(res.get("items"), self.golden)
            self.attempted += attempted
            self.failed += len(failed)
            entry.update(items=attempted, failed=len(failed), failed_ids=failed[:5])
        log("pass", **entry)
        return res

    def untraced(self) -> dict:
        """Rounds of set-up samples and one pass; a round starts only if one
        as long as the last still ends within ``--seconds``."""
        seed = self.args.seed
        setups, passes = [], []
        t0 = now()
        last = 0.0
        while not passes or (now() - t0 + last <= self.args.seconds and self.remaining() > PASS_LIMIT_S):
            r0 = now()
            setups += [r["setup_s"] for r in (self.one(seed, setup_only=True) for _ in range(SETUP_SAMPLES))
                       if "setup_s" in r]
            passes.append(self.one(seed))
            last = now() - r0
        good = [p for p in passes if "error" not in p]
        if not good:
            self.problems.append("no pass completed")
            return {}
        setups += [p["setup_s"] for p in good]
        # Set-up processes are too short to probe; their times take the
        # run's mean speed.
        run_scale = REFERENCE_PROBE_S / statistics.fmean(p["probe_s"] for p in good)
        return {
            "wall_s": statistics.median(p["wall_s"] * scale(p) for p in good),
            "cpu_s": statistics.median(p["cpu_s"] * scale(p) for p in good),
            "setup_s": statistics.median(setups) * run_scale,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }

    def traced(self) -> dict:
        name, seed = self.args.workload, self.args.seed
        first = self.one(seed, trace=True)
        untraced = self.one(seed)
        others = [self.one(seed + 1, trace=True)] if name in DETERMINISM_WORKLOADS else []
        if "error" in first:
            self.problems.append("the traced pass failed")
            return {}
        layers = first["layers"]
        unbound = [s for s in SPANS if not first["bindings"].get(s)]
        if unbound:
            self.problems.append(f"no entry point found for spans {unbound}")
        idle = [s for s in WORKING_LAYERS[name] if not layers[f"{s}.calls"]]
        if idle:
            self.problems.append(f"layers recorded no call: {idle}")
        exact = [k for k in layers if not k.endswith(".self_s")]
        for other in others:
            if "error" in other:
                self.problems.append("the second traced pass failed")
                continue
            moved = {k: (layers[k], other["layers"][k]) for k in exact if layers[k] != other["layers"][k]}
            if moved:
                self.problems.append(f"counts differ between seeds {seed} and {seed + 1}: {moved}")
            if other["items"] != first["items"]:
                self.problems.append(f"outputs differ between seeds {seed} and {seed + 1}")
        log("counts", **{k: layers[k] for k in exact})

        def ratio(num, den):
            return layers[num] / layers[den] if layers[den] else 0.0

        metrics = {k: layers[k] for k in per_layer_units() if k in layers}
        metrics["diagrams.multiply.zero_frac"] = ratio("diagrams.multiply.zero", "diagrams.multiply.calls")
        metrics["linalg.rref_add.independent_frac"] = ratio("linalg.rref_add.independent", "linalg.rref_add.calls")
        if "error" not in untraced:
            walls = [p["wall_s"] * scale(p) for p in [first, *others] if "error" not in p]
            metrics["trace.overhead_frac"] = statistics.median(walls) / (untraced["wall_s"] * scale(untraced)) - 1
        return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "tensoralg" / "__init__.py").is_file():
        print(f"no tensoralg sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    gpath = golden_path(args.workload)
    if not gpath.is_file():
        print(f"missing golden output {gpath}", file=sys.stderr)
        return 2
    golden = json.loads(gpath.read_text())["items"]

    workload = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.kind == "table",
        "field": field_name(workload.field),
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "WORKBENCH_THREADS": None,
    }
    log("meta", **meta)

    run = Run(args, golden)
    metrics = run.traced() if args.trace else run.untraced()
    units = per_layer_units() if args.trace else END_TO_END
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    if args.trace:
        metrics["failed_frac"] = failed_frac
    missing = [k for k in units if k not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    for problem in run.problems:
        log("problem", text=problem)
    log("summary", pass_order=run.order, failed_frac=failed_frac,
        attempted=run.attempted, failed=run.failed)
    for k, unit in units.items():
        if k in metrics:
            print(f"metric {k} = {metrics[k]:.6g} {unit}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
