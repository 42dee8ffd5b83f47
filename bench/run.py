"""geomean benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload small-means --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `geomean` is imported from its `src/`.
Workloads (see bench/METRICS.md for why each exists):

  bulk-mean       `geomean mean` at N = 1000 on S^2 and H^2, p in {2, 3}
  small-means     ~200 `geomean mean` calls at N in [3, 8] on all six spaces
  certify-suites  `geomean check` comparison/tethering/hull and
                  `geomean stepsize --table`

Every run uses fresh worker processes with GEOMEAN_SEED removed (it would
override the CLI's --seed) and BLAS/OpenMP threads pinned to 1.  With
--trace 0 several set-up-only workers run first and `setup_s` is the
median over them and the measuring worker.  Times are normalised by a
speed probe in the worker (see SpeedProbe in worker.py).  Prints a details line, then
as the last line {"correct", "attempted", "failed", "metrics"}.  Exits 1
without a result when a worker fails, 2 outside a checkout of geomean.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk-mean", "small-means", "certify-suites")
SUITES = ("comparison", "tethering", "hull")   # `geomean check` suites
SETUP_PROBES = 4          # extra fresh processes that only set up
# a run may take --seconds plus this: set-up workers, the measuring
# worker's set-up and its last pass, and the traced run's two passes
RUN_SLACK_S = 140.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env(root):
    env = dict(os.environ)
    env.pop("GEOMEAN_SEED", None)
    for var in THREAD_PINS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, env, deadline):
    """Run one worker to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, scale=1.0):
    """Run the workload once from the current directory, a checkout of
    geomean; returns (details, result)."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geomean", "__init__.py")):
        raise FileNotFoundError(f"{root} has no src/geomean to benchmark")
    env = worker_env(root)
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    base = ["--workload", workload, "--seed", str(seed), "--scale",
            str(scale), "--runs-dir", os.path.join(root, ".bench_runs")]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(base + ["--setup-only"], env, deadline))
    rep = run_worker(base + ["--seconds", str(seconds), "--trace",
                             str(trace)], env, deadline)
    result, details = rep["result"], rep["details"]
    if not trace:
        setups.append(rep)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s"}
        details["setup_samples_s"] = [s["setup_s"] for s in setups]
        details["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
    return details, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="geomean benchmark run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        details, result = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    except (FileNotFoundError, WorkerError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2 if isinstance(e, FileNotFoundError) else 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
