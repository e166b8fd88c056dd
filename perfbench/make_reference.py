#!/usr/bin/env python3
"""Regenerate reference.json: the status and objective of every instance of
every workload for the default seed, at full and at smoke size.

    python3 perfbench/make_reference.py

Every answer must first pass the correctness gate without a reference
(direct equation check, c . x, planted upper bound, oracle where the op runs
it).  Regenerate only when a workload's generator changes, never to make a
solver change pass.
"""

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    bfre = run.load_bfre()
    from bfre.cli import load_problem

    ref = {"seed": run.DEFAULT_SEED, "full": {}, "smoke": {}}
    for size, smoke in (("full", False), ("smoke", True)):
        for name, workload in sorted(WORKLOADS.items()):
            op, _ = run.make_op(bfre, workload)
            rows = []
            for k, (problem, planted) in enumerate(workload.instances(run.DEFAULT_SEED, smoke)):
                sol, oracle_optimum = op(load_problem(problem))
                why = run.gate(run.Instance(k, problem, planted, None), sol, oracle_optimum, None)
                if why is not None:
                    print(f"error: {name} ({size}) instance {k}: {why}", file=sys.stderr)
                    return 1
                rows.append([sol.status.value, sol.objective])
            ref[size][name] = rows
            print(f"{name} ({size}): {len(rows)} instances")
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
