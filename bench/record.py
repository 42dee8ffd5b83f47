"""Record the reference outcomes that benchmark runs are checked against.

    python3 bench/record.py --seeds 0-9

Runs one pass of each workload per seed at the current source tree and
merges the outcomes (exit code, status, iterations, final point,
verdicts; suite violations, trials and min_margin; table values) into
bench/reference/<workload>.json, keyed by seed and operation id.  Record
only at a commit whose outputs are the accepted ones: later runs fail any
operation whose outcome moves by more than 1e-12.
"""

import argparse
import json
import os
import sys
import tempfile
import time

import run

REFERENCE_DIR = os.path.join(run.BENCH_DIR, "reference")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description="record reference outcomes")
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="a seed or an inclusive range such as 0-9")
    args = ap.parse_args(argv)
    root = os.getcwd()
    env = run.worker_env(root)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in run.WORKLOADS:
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        recorded = {}
        if os.path.exists(path):
            with open(path) as f:
                recorded = json.load(f)
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                out = os.path.join(tmp, "outcomes.json")
                run.run_worker(["--workload", workload, "--seed", str(seed),
                                "--runs-dir", tmp, "--record", out], env,
                               time.monotonic() + 600.0)
                with open(out) as f:
                    recorded[str(seed)] = json.load(f)
            print(f"{workload} seed {seed}: {len(recorded[str(seed)])} ops",
                  file=sys.stderr)
        with open(path, "w") as f:
            json.dump(dict(sorted(recorded.items(), key=lambda kv:
                                  int(kv[0]))), f, separators=(",", ":"))
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
