"""Write the golden outputs the benchmark checks every pass against.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run once, from the root of a checkout of the commit whose outputs are the
reference.  Every item must come out without error.  The ``sl2-wide-gfp``
table is also computed over Q: if any entry differs between the two
fields, nothing is written for it and the difference is reported, since
results must not depend on the field.
"""

from __future__ import annotations

import json
import sys

from run import commit, field_name
from workloads import WORKLOADS, golden_path

CROSS_FIELD = {"sl2-wide-gfp": "q"}


def compute(name: str, field: str | None = None) -> dict:
    workload = WORKLOADS[name]
    return workload.run(workload.setup(field), seed=0)


def main(names) -> int:
    status = 0
    for name in names or WORKLOADS:
        items = compute(name)
        errors = {k: v for k, v in items.items() if isinstance(v, dict) and "error" in v}
        if errors:
            print(f"{name}: {len(errors)} items failed, not written: {errors}", file=sys.stderr)
            status = 1
            continue
        if name in CROSS_FIELD:
            other = compute(name, CROSS_FIELD[name])
            differ = {k: (items.get(k), other.get(k)) for k in set(items) | set(other)
                      if items.get(k) != other.get(k)}
            if differ:
                print(f"{name}: entries differ between {field_name(WORKLOADS[name].field)} and "
                      f"{field_name(CROSS_FIELD[name])}, not written: {differ}", file=sys.stderr)
                status = 1
                continue
        golden = {
            "workload": name,
            "field": field_name(WORKLOADS[name].field),
            "checked_against_field": field_name(CROSS_FIELD[name]) if name in CROSS_FIELD else None,
            "generated_from": commit(),
            "items": items,
        }
        path = golden_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(items)} items written to {path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
