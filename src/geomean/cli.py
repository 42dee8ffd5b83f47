"""Command-line front end.

Subcommands:
  mean           compute the L^p center of mass of a dataset JSON file
  stepsize       print the resolved step-size policies / the exit-time table
  circle-example run the scripted circle scenarios
  sphere-configs run the cross/pair configurations on S^2
  check          Monte Carlo suites: comparison | tethering | hull
"""

import argparse
import functools
import json
import math
import os
import sys

from . import emit, experiments, frechet, geocheck, solver, stepsize
from .errors import CutLocusError, DomainError, GeomeanError, PreconditionError
from .manifolds import KINDS, make_space
from .solver import SolverConfig, descend, minimal_ball_estimate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CUT_LOCUS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PRECONDITION = 4


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _build_policy(args):
    kind = args.policy or ("conjecture" if args.t is None else "user_constant")
    return stepsize.StepPolicy(kind, t=args.t, rho_prime=args.rho_prime)


def cmd_mean(args):
    out = _outdir(args)
    try:
        with open(args.dataset) as f:
            obj = json.load(f)
        ds = frechet.dataset_from_json(obj, ball_fallback=minimal_ball_estimate)
    except PreconditionError:   # points too wide for the ball estimate
        raise
    except (OSError, ValueError, KeyError, DomainError, RecursionError) as e:
        print(f"error: cannot load dataset: {e}", file=sys.stderr)
        return EXIT_PARSE

    policy = _build_policy(args)
    try:
        t = policy.resolve(ds.space, ds.ball_radius, args.p)
    except (PreconditionError, DomainError) as e:
        print(f"error: step policy: {e}", file=sys.stderr)
        return EXIT_PRECONDITION

    cfg = SolverConfig(p=args.p, step=t, grad_tol=args.grad_tol,
                       max_iters=args.max_iters)
    tr = descend(ds, cfg)
    emit.write_trace_csv(os.path.join(out, "trace.csv"), tr)
    rate = solver.trailing_rate(ds, tr, t)
    summary = {
        "status": tr.status,
        "uniqueness_certified": ds.uniqueness_certified,
        "policy": policy.kind,
        "step": t,
        "p": args.p,
        "iterations": tr.n_iters,
        "final": [float(c) for c in tr.final],
        "final_cost": tr.records[-1].cost,
        "final_grad_norm": tr.records[-1].grad_norm,
        "verdicts": tr.verdicts,
        "predicted_q": None if rate is None else rate.q,
        "empirical_q": solver.fit_tail_rate(tr),
    }
    if not ds.uniqueness_certified:
        summary["warning"] = "rho exceeds r_cx: uniqueness not certified"
    print(emit.write_json(os.path.join(out, "summary.json"), summary))
    return tr.exit_code


def cmd_stepsize(args):
    out = _outdir(args)
    if args.table:
        rows = experiments.run_stepsize_table(out)
        for r in rows:
            print(f"{r['label']:28s} value={r['value']:.6f} "
                  f"reference={r['reference']:.4f} abs_error={r['abs_error']:.2e}")
        return EXIT_OK
    space = make_space(args.space, args.dim, args.kappa)
    rows = []
    for kind in [k for k in stepsize.POLICIES if k != "user_constant"]:
        pol = stepsize.StepPolicy(kind, rho_prime=args.rho_prime)
        try:
            t = pol.resolve(space, args.rho, args.p)
            stay = (stepsize.resolve_spread_compromise(space, args.rho, args.p)
                    .stay_ball_radius if kind == "spread_compromise"
                    else args.rho)
            rows.append({"policy": kind, "resolved_t": t, "stay_ball": stay,
                         "preconditions": "ok"})
        except GeomeanError as e:
            rows.append({"policy": kind, "resolved_t": math.nan,
                         "stay_ball": math.nan, "preconditions": str(e)})
    header = ["policy", "resolved_t", "stay_ball", "preconditions"]
    emit.write_csv(os.path.join(out, "stepsize_policies.csv"), header,
                   [[r[h] for h in header] for r in rows])
    print(json.dumps(rows, indent=2, default=str))
    return EXIT_OK


def cmd_circle_example(args):
    out = _outdir(args)
    report = experiments.run_circle_example(out)
    print(emit.write_json(os.path.join(out, "circle_report.json"), report))
    return EXIT_OK


def cmd_sphere_configs(args):
    out = _outdir(args)
    report = experiments.run_sphere_configs(args.rho_list, args.t, out,
                                            args.seed)
    print(emit.write_json(os.path.join(out, "sphere_configs_report.json"),
                          report))
    return EXIT_OK


def cmd_check(args):
    out = _outdir(args)
    space = make_space(args.space, args.dim, args.kappa)
    if args.suite == "comparison":
        rep = geocheck.comparison_check(space, args.trials, args.seed)
    elif args.suite == "tethering":
        rep = geocheck.tethering_check(space, args.trials, (0.25, 0.5, 1.0),
                                       args.seed)
    else:
        rep = geocheck.hull_check(space, args.trials, args.seed)
    print(emit.write_json(os.path.join(out, f"check_{args.suite}.json"), rep))
    return EXIT_OK


def float_list(text):
    """The argparse type of --rho-list: comma-separated floats."""
    return tuple(float(r) for r in text.split(","))


def nonnegative_int(text):
    """The argparse type of --seed, the Philox key of the run's draws."""
    value = int(text)
    if value < 0:
        raise ValueError(text)   # argparse reports the text it was given
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections exit EXIT_PARSE, not 2 (the
    cut-locus code); subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The argparse tree, built once per process; each parse_args call
    still returns a fresh Namespace."""
    ap = _Parser(
        prog="geomean",
        description="Riemannian L^p centers of mass on constant-curvature spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--space", default="sphere", choices=KINDS)
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--kappa", type=float, default=1.0)
        if seed:   # stepsize draws nothing
            p.add_argument("--seed", type=nonnegative_int, default=0)
        p.add_argument("--out", default=None)

    pm = sub.add_parser("mean", help="compute a center of mass")
    pm.add_argument("dataset", help="dataset JSON file")
    pm.add_argument("--p", type=float, default=2.0)
    pm.add_argument("--policy", default=None, choices=stepsize.POLICIES)
    pm.add_argument("--t", type=float, default=None)
    pm.add_argument("--rho-prime", dest="rho_prime", type=float, default=None)
    pm.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-10)
    pm.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    pm.add_argument("--out", default=None)

    ps = sub.add_parser("stepsize", help="resolve step-size policies")
    common(ps, seed=False)
    ps.add_argument("--p", type=float, default=2.0)
    ps.add_argument("--rho", type=float, default=0.5)
    ps.add_argument("--rho-prime", dest="rho_prime", type=float, default=None)
    ps.add_argument("--table", action="store_true",
                    help="emit the exit-time reference table")

    pc = sub.add_parser("circle-example", help="scripted circle scenarios")
    pc.add_argument("--out", default=None)

    pg = sub.add_parser("sphere-configs", help="cross/pair configurations")
    pg.add_argument("--rho-list", dest="rho_list", type=float_list,
                    default=experiments.SPHERE_RHOS,
                    help="comma-separated rho values")
    pg.add_argument("--t", type=float, default=1.0)
    pg.add_argument("--seed", type=nonnegative_int, default=0)
    pg.add_argument("--out", default=None)

    pk = sub.add_parser("check", help="Monte Carlo verification suites")
    pk.add_argument("suite", choices=["comparison", "tethering", "hull"])
    common(pk)
    pk.add_argument("--trials", type=int, default=1000)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up on every call, not bound into the parser built once, so
    # that a wrapped or patched cmd_* is the one that runs
    command = {"mean": cmd_mean, "stepsize": cmd_stepsize,
               "circle-example": cmd_circle_example,
               "sphere-configs": cmd_sphere_configs,
               "check": cmd_check}[args.command]
    try:
        return command(args)
    except CutLocusError as e:
        print(f"error: cut locus: {e}", file=sys.stderr)
        return EXIT_CUT_LOCUS
    except PreconditionError as e:
        print(f"error: precondition: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except GeomeanError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:   # cmd_mean reports its unreadable dataset itself
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
