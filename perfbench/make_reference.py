"""Write perfbench/reference.json from the solver in this checkout.

    python3 perfbench/make_reference.py

For every instance any seed can draw it records the sha256 of the solve
report under the workload's profile, and for batch-small instances with at
most 12 rings the brute-force optimum (`oracle.brute_force_opt`).  The
benchmark gates dual bounds against the optima and only reports how many
digests differ, so rerun this when a change to the solver is meant to
change reports.  Takes about 40 s.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    run._import_solver()
    from ringpack.cli import format_report
    from ringpack.oracle import MAX_RING_COUNT, brute_force_opt
    from ringpack.solver import solve

    out = {}
    for workload in workloads.WORKLOADS:
        config = workloads.config(workload)
        entries = {}
        for case in workloads.pool(workload):
            instance = workloads.build(case)
            text = format_report(solve(instance, config))
            entry = {"digest": hashlib.sha256(text.encode()).hexdigest()}
            if workload == "batch-small" and instance.ring_count <= MAX_RING_COUNT:
                entry["opt"] = brute_force_opt(instance)
            entries[case.name] = entry
        out[workload] = entries
        print(f"{workload}: {len(entries)} instances", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps({"workloads": out}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
