"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --base OLD --change NEW \\
        --workload certify-suites --seed 3 --pairs 5

Each pair runs `bench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout, T being the base checkout's `run_seconds` in
`BENCHMARK.json`, with the checkout as working directory.  The side
that runs first alternates from pair to pair, so a drift in the host's
speed falls on both sides alike.  It prints each run's result line (the
last stdout line of `bench/run.py`) as it arrives.  Then, for each
metric, it prints the median and quartiles per side, the median of the
per-pair ratios change / base, in how many pairs the change won, in
the direction `BENCHMARK.json` gives the metric, and a verdict:

- "gain": the change won at least 9 of 10 pairs, and its median is
  better than the base's by more than the base's quartile spread;
- "worse than bound": its median is worse than the base's by more than
  the metric's `bound` in `BENCHMARK.json`, a fraction of the base's;
- "unresolved": neither.

Exits 1 when a run fails, or reports `correct: false` or `failed > 0`.  The runs write no
Python bytecode, so nothing is written under `bench/`; run.py keeps its
own records in `.bench_runs/` at the root of each checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root, workload, seed, seconds):
    """One `bench/run.py` run in checkout `root`; returns its result line."""
    argv = [sys.executable, os.path.join("bench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return lines[-1]


def problems(side, line):
    """Why a result line does not count: empty when the run reports
    `correct: true` and no failed operation."""
    result = json.loads(line)
    out = []
    if result.get("correct") is not True:
        out.append(f"{side}: correct is {result.get('correct')}")
    if not result.get("failed") == 0:
        out.append(f"{side}: {result.get('failed')} failed of "
                   f"{result.get('attempted')}")
    return out


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _sign(better):
    return 1.0 if better == "higher" else -1.0


def _won(base, change, better):
    """The pairs in which the change is better than the base."""
    return sum(_sign(better) * (c - b) > 0 for b, c in zip(base, change))


def verdict(base, change, better, bound=None):
    """"gain", "worse than bound" or "unresolved" for a metric's values
    in paired runs (see the module docstring); a metric without a bound
    is never worse than it."""
    q1, median, q3 = _quartiles(base)
    ahead = _sign(better) * (statistics.median(change) - median)
    if 10 * _won(base, change, better) >= 9 * len(base) and ahead > q3 - q1:
        return "gain"
    if bound is not None and ahead < -bound * abs(median):
        return "worse than bound"
    return "unresolved"


def summarize(pairs, better, bounds=None):
    """Report lines for (base, change) pairs of result lines.  `better`
    maps a metric name to "higher" or "lower"; a metric it does not name
    gets no win count and no verdict.  `bounds` maps a metric name to the
    fraction by which it may worsen."""
    bounds = bounds or {}
    sides = [[json.loads(line)["metrics"] for line in side]
             for side in zip(*pairs)]
    lines = []
    for name in sides[0][0]:
        if not all(name in m for side in sides for m in side):
            continue
        base, change = ([m[name]["value"] for m in side] for side in sides)
        cells = []
        for label, values in (("base", base), ("change", change)):
            q1, q2, q3 = _quartiles(values)
            cells.append(f"{label} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
        ratios = [c / b for b, c in zip(base, change) if b]
        if ratios:
            cells.append(f"ratio {statistics.median(ratios) - 1.0:+.1%}")
        if name in better:
            won = _won(base, change, better[name])
            cells.append(f"change won {won}/{len(pairs)}")
            cells.append(verdict(base, change, better[name],
                                 bounds.get(name)))
        lines.append(f"{name} ({sides[0][0][name].get('unit', '')}): "
                     + "  ".join(cells))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout to compare against")
    ap.add_argument("--change", required=True, help="checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    roots = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs, bad = [], []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            try:
                got[side] = run_side(roots[side], args.workload, args.seed,
                                     spec["run_seconds"])
            except RuntimeError as e:
                print(e, file=sys.stderr)
                return 1
            bad += problems(f"pair {i} {side}", got[side])
            print(f"pair {i} {side}: {got[side]}", flush=True)
        pairs.append((got["base"], got["change"]))
    print("\n".join(summarize(pairs, better, bounds)))
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
