"""Smoke run: every workload at a tiny size, untraced and traced.

    python3 bench/smoke.py

Fails (exit 1) unless each run emits exactly the metrics BENCHMARK.json
names for its mode and no operation failed.  It makes no timing
assertions, so it can run anywhere the program runs.
"""

import json
import os
import sys

import run

SCALE = 0.05   # input sizes and trial counts relative to the real run


def main():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            details, result = run.measure(workload, 1, 0.0, trace, SCALE)
            names = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            tag = f"{workload} trace={trace}"
            if got != names:
                problems.append(f"{tag}: missing {sorted(names - got)}, "
                                f"unexpected {sorted(got - names)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} failed: "
                                f"{details['failures']}")
            print(f"{tag}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
