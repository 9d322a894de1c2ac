"""Run-to-run spread of the end-to-end metrics, for every workload.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S]

Runs ``run.py --trace 0`` once per seed and workload, one run after
another, and prints for each end-to-end metric its median and the distance
between its first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the bound in ``BENCHMARK.json``.  The
workloads default to all of those in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import ROOT


def spread(spec: dict, workload: str, seeds: range, seconds: int) -> bool:
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seeds:
        out = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    for metric in spec["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[metric["name"]], n=4)
        print(f"{workload} {metric['name']}: median {med:.4g}, spread {(q3 - q1) / med:.3f} "
              f"(bound {metric['bound']}, target below {metric['bound'] / 3:.3f})")
    print(f"{workload}: {'all runs correct' if ok else 'SOME RUNS INCORRECT'}", flush=True)
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    results = [spread(spec, w, range(lo, hi + 1), args.seconds) for w in args.workload]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
