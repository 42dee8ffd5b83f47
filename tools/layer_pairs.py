"""Time per-layer units on two checkouts in alternating subprocesses.

    python3 tools/layer_pairs.py --against OTHER [--pairs 10]

The units, at fixed seeds and sizes (`units`):

- `comparison-hyperbolic-128`, `tethering-sphere-128`, `hull-sphere-128`:
  one 128-trial block of each Monte Carlo suite, draws and report
  included (comparison on H^2, where it takes the intersection oracle);
- `comparison-sphere-128`, `tethering-so3-128`: the same on S^2 and
  SO(3), where the geometry is light and phase 1 of the sampler (the
  Generator calls) bounds a block;
- `cost_gradient-sphere-p2-n5`, `cost_gradient-sphere-p2-n1000`,
  `cost_gradient-hyperbolic-p3-n5`, `cost_gradient-hyperbolic-p3-n1000`:
  one `frechet.cost_gradient` call on points drawn in a ball;
- `descend-iteration-sphere-n5`: `solver.descend` with max_iters = 1 on
  5 points of S^2, so one step and its monitors between two
  evaluations of the data;
- `sn-grid-1000`: `kernels.sn` at 500 lengths in [0, 3) for kappa = 1
  and again for kappa = -1;
- `distance-<space>`, `exp-<space>`, `log-<space>` for `sphere`,
  `hyperbolic` and `so3` (S^2, H^2, SO(3)): one per-pair call on two
  points drawn in a ball of radius 0.5, exp along the log between them;
- `exit_time_bounds-sphere-rho-third`: `stepsize.exit_time_bounds`
  with the arguments of the step-size table's `exit_sphere_rho_third`
  row (delta = 0, Delta = 1, rho = (pi/2)/3, rho' = pi/2);
- `stepsize_table`: `experiments.stepsize_table`, the whole table.

Each pair runs one subprocess per checkout, the side that runs first
alternating from pair to pair: this script with `--time ROOT`, which
imports `geomean` from ROOT/src and prints one JSON object, each unit's
milliseconds per call (the best of 5 `timeit` repeats of an
`autorange` count).  Then each unit gets one JSON line: the median and
quartiles of each side, the median of the per-pair ratios change /
base, the pairs the change won, and the verdict of
`tools/bench_pairs.py`'s `verdict` (lower is better) against a bound
of 0.25 of the base's median (BOUND, the end-to-end timing bound of
BENCHMARK.json).  OTHER is the base and the checkout holding this
script the change.  The subprocesses write no Python bytecode, so
nothing is written in either checkout.
"""

import argparse
import functools
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import timeit

_HERE = os.path.dirname(os.path.abspath(__file__))
BOUND = 0.25   # how much slower a unit may read before "worse than bound"
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(_HERE, "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def units():
    """The units of the module docstring: name -> the callable timed,
    built from the `geomean` on sys.path."""
    import math
    import numpy as np
    from geomean import (experiments, frechet, geocheck, kernels,
                         manifolds, solver, stepsize)

    s2, h2 = manifolds.Sphere(2), manifolds.Hyperbolic(2)
    so3 = manifolds.SO3()

    def problem(space, count):
        rng = np.random.Generator(np.random.Philox(7))
        o = space.random_point(rng)
        pts = space.random_points_in_ball(o, 0.5, count, rng)
        return (frechet.make_dataset(space, pts, None, o, 0.5),
                space.random_in_ball(o, 0.5, rng))

    out = {
        "comparison-hyperbolic-128": functools.partial(
            geocheck.comparison_check, h2, 128, 12),
        "tethering-sphere-128": functools.partial(
            geocheck.tethering_check, s2, 128, (0.25, 0.5, 0.75, 1.0), 12),
        "hull-sphere-128": functools.partial(geocheck.hull_check, s2, 128,
                                             12),
        "comparison-sphere-128": functools.partial(
            geocheck.comparison_check, s2, 128, 12),
        "tethering-so3-128": functools.partial(
            geocheck.tethering_check, so3, 128, (0.25, 0.5, 0.75, 1.0), 12),
    }
    for space, p in ((s2, 2.0), (h2, 3.0)):
        for count in (5, 1000):
            ds, x = problem(space, count)
            out[f"cost_gradient-{space.kind}-p{p:g}-n{count}"] = \
                functools.partial(frechet.cost_gradient, ds, p, x)
    ds, _ = problem(s2, 5)
    out["descend-iteration-sphere-n5"] = functools.partial(
        solver.descend, ds, solver.SolverConfig(p=2.0, step=1.0, max_iters=1))
    grid = [3.0 * i / 500 for i in range(500)]
    out["sn-grid-1000"] = lambda: [kernels.sn(kappa, r)
                                   for kappa in (1.0, -1.0) for r in grid]
    for space in (s2, h2, so3):
        ds, y = problem(space, 1)
        x = ds.points[0]
        v = space.log(x, y)
        out[f"distance-{space.kind}"] = functools.partial(space.distance, x, y)
        out[f"exp-{space.kind}"] = functools.partial(space.exp, x, v)
        out[f"log-{space.kind}"] = functools.partial(space.log, x, y)
    hp = math.pi / 2.0
    out["exit_time_bounds-sphere-rho-third"] = functools.partial(
        stepsize.exit_time_bounds, 0.0, 1.0, hp / 3.0, hp)
    out["stepsize_table"] = experiments.stepsize_table
    return out


def time_units(root):
    """Each unit's milliseconds per call with `geomean` from root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    times = {}
    for name, call in units().items():
        timer = timeit.Timer(call)
        number, _ = timer.autorange()
        times[name] = 1e3 * min(timer.repeat(5, number)) / number
    return times


def run_side(root):
    """One timing subprocess for checkout `root`, run by this script;
    its unit times."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time", root],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs, bound):
    """One dict per unit of (base, change) pairs of unit times: medians
    and quartiles in ms, the median per-pair ratio change / base - 1, the
    pairs the change won, and bench_pairs' verdict against `bound`."""
    lines = []
    for name in pairs[0][0]:
        base, change = ([side[name] for side in sides]
                        for sides in zip(*pairs))
        line = {"unit": name, "pairs": len(pairs)}
        for label, values in (("base", base), ("change", change)):
            q1, q2, q3 = bench_pairs._quartiles(values)
            line[f"{label}_ms"] = [round(v, 6) for v in (q2, q1, q3)]
        line["ratio"] = round(statistics.median(
            c / b for b, c in zip(base, change)) - 1.0, 4)
        line["won"] = bench_pairs._won(base, change, "lower")
        line["verdict"] = bench_pairs.verdict(base, change, "lower", bound)
        lines.append(line)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--time", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.time:
        print(json.dumps(time_units(os.path.abspath(args.time))))
        return 0
    if not args.against:
        ap.error("--against is required")
    roots = {"base": os.path.abspath(args.against),
             "change": os.path.dirname(_HERE)}
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            try:
                got[side] = run_side(roots[side])
            except RuntimeError as e:
                print(e, file=sys.stderr)
                return 1
        pairs.append((got["base"], got["change"]))
        print(f"# pair {i} done", file=sys.stderr, flush=True)
    for line in summarize(pairs, BOUND):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
