"""One cold pass of one workload, in its own process.

    python3 perfbench/workpass.py --workload NAME --seed N --t0 T [--trace] [--setup-only]

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, imports, parsing of
the configuration and ``BlockComputer`` construction.  Prints one JSON
object: set-up time, process CPU time and peak RSS, the items produced,
the mean time of the speed probes that ran during the pass (see
``probe.py``) and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from probe import SpeedProbe
from workloads import WORKLOADS, import_tensoralg


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        import_tensoralg()
        tracer = Tracer()
        bound = tracer.install()
    state = workload.setup()
    result = {"setup_s": now() - args.t0}
    if not args.setup_only:
        probe = SpeedProbe()
        probe.start()
        try:
            result["items"] = workload.run(state, args.seed)
        finally:
            probe.stop()
        result["probe_s"] = probe.mean_s()
        result["probes"] = len(probe.samples)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["bindings"] = bound
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
