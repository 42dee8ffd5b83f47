"""Scripted experiments: the circle two-point example, the sphere
cross/pair configurations, and the exit-time step-size table."""

import json
import math
import os

import numpy as np

from . import emit, frechet, solver, stepsize
from .kernels import c_upper, ct
from .manifolds import Circle, Hyperbolic, Sphere
from .solver import SolverConfig, descend

TH1 = 2.0 * math.pi / 5.0
TH2 = -2.0 * math.pi / 5.0
SPHERE_RHOS = (0.35 * math.pi, 0.47 * math.pi)  # sphere-configs default


def circle_f2(theta, w1, w2):
    """Closed-form f_2 on the circle for two points at TH1 > 0 > TH2.

    The outer branches use the wrap-around distances theta - TH1 + 2 pi
    and theta - TH2 - 2 pi, so the plotted minima sit where descent
    actually converges.
    """
    if theta <= TH1 - math.pi:
        d1, d2 = theta - TH1 + 2.0 * math.pi, theta - TH2
    elif theta <= TH2 + math.pi:
        d1, d2 = theta - TH1, theta - TH2
    else:
        d1, d2 = theta - TH1, theta - TH2 - 2.0 * math.pi
    return 0.5 * (w1 * d1 * d1 + w2 * d2 * d2)


def _circle_dataset(weights):
    space = Circle(1.0)
    pts = [space.point_from_angle(TH1), space.point_from_angle(TH2)]
    o = space.point_from_angle(0.0)
    return frechet.make_dataset(space, pts, weights, o, TH1)


def run_circle_example(out=None):
    """Four scripted descent runs on the circle with two weighted points.

    Returns a report with each scenario's final angle and status; when
    `out` is given, also writes per-scenario trace CSVs and an SVG of the
    closed-form f_2 for both weight pairs.
    """
    scenarios = [
        ("w09_t1", (0.1, 0.9), 1.0),
        ("w09_t25_18", (0.1, 0.9), 25.0 / 18.0),
        ("w34_t1", (0.25, 0.75), 1.0),
        ("w34_t11_6", (0.25, 0.75), 11.0 / 6.0),
    ]
    space = Circle(1.0)
    report = {"experiment": "circle_example", "scenarios": [],
              "notes": ("closed-form f2 uses wrap-around branches "
                        "theta -+ 2 pi on the outer intervals")}
    for name, w, t in scenarios:
        ds = _circle_dataset(w)
        cfg = SolverConfig(p=2.0, step=t, grad_tol=1e-13, max_iters=500)
        tr = descend(ds, cfg, x0=ds.points[0])
        entry = {"name": name, "weights": list(w), "t": t,
                 "status": tr.status,
                 "final_theta": space.angle(tr.final),
                 "iters": tr.n_iters,
                 "verdicts": tr.verdicts}
        report["scenarios"].append(entry)
        if out:
            emit.write_trace_csv(os.path.join(out, f"circle_{name}.csv"), tr)
    if out:
        thetas = np.linspace(-math.pi + 1e-9, math.pi, 2001)
        series = [
            emit.PlotSeries("w=(0.1,0.9)",
                            thetas, [circle_f2(q, 0.1, 0.9) for q in thetas]),
            emit.PlotSeries("w=(1/4,3/4)",
                            thetas, [circle_f2(q, 0.25, 0.75) for q in thetas]),
        ]
        emit.write_svg(os.path.join(out, "circle_f2.svg"), series,
                       title="f2 on the circle, two-point datasets",
                       x_label="theta", y_label="f2")
        with open(os.path.join(out, "circle_report.json"), "w") as f:
            json.dump(report, f, indent=2)
    return report


def cross_config(rho):
    """Four points at distance rho from the pole along +-e1, +-e2 on S^2."""
    space = Sphere(2)
    o = np.array([0.0, 0.0, 1.0])
    dirs = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    pts = [space.exp(o, rho * u) for u in dirs]
    return frechet.make_dataset(space, pts, [0.25] * 4, o, rho)


def pair_config(rho):
    """Four points (two coincident pairs) at +-rho along e1 on S^2."""
    space = Sphere(2)
    o = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    a, b = space.exp(o, rho * u), space.exp(o, -rho * u)
    return frechet.make_dataset(space, [a, b, a.copy(), b.copy()],
                                [0.25] * 4, o, rho)


def eigenvalue_report(ds, rho):
    """Predicted vs finite-difference f_2 Hessian eigenvalues at o."""
    space = ds.space
    o = ds.ball_center
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    fd1 = frechet.fd_hessian_quadratic_form(ds, 2.0, o, e1)
    fd2 = frechet.fd_hessian_quadratic_form(ds, 2.0, o, e2)
    return {"fd_along_x1": fd1, "fd_perpendicular": fd2,
            "rho_ct_rho": rho * ct(space.kappa, rho)}


def iters_to_tol(trace):
    """First iteration index with d(x^k, final) < 1e-6; None if never."""
    for rec, d in zip(trace.records, trace.dist_to_final):
        if d < 1e-6:
            return rec.k
    return None


def run_sphere_configs(rho_list=SPHERE_RHOS, t=1.0, out=None, seed=0):
    """Descent on the cross and pair configurations at each rho.

    Starts from a seeded uniform point in B(o, rho), records d(x^k, xbar)
    per iteration, and compares the predicted Hessian eigenvalues at o
    with finite differences.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    report = {"experiment": "sphere_configs", "t": t, "seed": seed, "runs": []}
    series = []
    for rho in rho_list:
        for label, build in (("cross", cross_config), ("pair", pair_config)):
            ds = build(rho)
            x0 = ds.space.random_in_ball(ds.ball_center, rho, rng)
            cfg = SolverConfig(p=2.0, step=t, grad_tol=1e-12, max_iters=5000)
            tr = descend(ds, cfg, x0=x0)
            eig = eigenvalue_report(ds, rho)
            predicted = ({"both": 0.5 * (eig["rho_ct_rho"] + 1.0)}
                         if label == "cross"
                         else {"along_x1": 1.0, "perpendicular": eig["rho_ct_rho"]})
            run = {"config": label, "rho": rho, "status": tr.status,
                   "iters": tr.n_iters, "iters_to_1e6": iters_to_tol(tr),
                   "eigenvalues_fd": eig, "eigenvalues_predicted": predicted,
                   "verdicts": tr.verdicts}
            report["runs"].append(run)
            name = f"{label}_rho{rho / math.pi:.2f}pi"
            series.append(emit.PlotSeries(
                name, [r.k for r in tr.records], tr.dist_to_final))
            if out:
                emit.write_trace_csv(
                    os.path.join(out, f"sphere_{name}.csv"), tr)
    if out:
        emit.write_svg(os.path.join(out, "sphere_configs.svg"), series,
                       title="distance to the center of mass per iteration",
                       x_label="k", y_label="d(x^k, xbar)", y_log=True)
        with open(os.path.join(out, "sphere_configs_report.json"), "w") as f:
            json.dump(report, f, indent=2)
    return report


def _largest_rho(f, rho_prime):
    """Largest rho in (0, rho') with f(rho) >= 0, by bisection; 0 when f
    is already negative at the bottom of the range.  Stops once the
    midpoint no longer falls strictly between lo and hi: the result is
    then that midpoint, as it would be after any further steps."""
    lo, hi = 1e-9 * rho_prime, rho_prime * (1.0 - 1e-9)
    if f(lo) < 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stepsize_table():
    """Rows of the exit-time step-size table with reference values.

    Reference values are the recorded four-decimal figures for these
    inputs; abs_error records how far this implementation's results land
    from them.
    """
    hp = math.pi / 2.0
    rows = []

    def add(label, delta, Delta, rho, rho_prime, value, reference):
        rows.append({"label": label, "delta": delta, "Delta": Delta,
                     "rho": rho, "rho_prime": rho_prime, "value": value,
                     "reference": reference,
                     "abs_error": abs(value - reference)})

    add("exit_sphere_rho_third", 0.0, 1.0, hp / 3.0, hp,
        stepsize.resolve_exit_compromise_bounds(0.0, 1.0, hp / 3.0, hp), 0.3965)
    add("exit_sphere_rho_090", 0.0, 1.0, 0.9 * hp, hp,
        stepsize.resolve_exit_compromise_bounds(0.0, 1.0, 0.9 * hp, hp), 0.0353)
    add("exit_sphere_rho_099", 0.0, 1.0, 0.99 * hp, hp,
        stepsize.resolve_exit_compromise_bounds(0.0, 1.0, 0.99 * hp, hp), 0.0033)
    add("exit_hyperbolic_rho_third", -1.0, 0.0, hp / 3.0, hp,
        stepsize.resolve_exit_compromise_bounds(-1.0, 0.0, hp / 3.0, hp), 0.3022)
    # largest rho whose resolved exit-compromise step is still >= 1
    r1 = _largest_rho(lambda rho: stepsize.resolve_exit_compromise_bounds(
        0.0, 1.0, rho, hp) - 1.0, hp)
    add("r1_over_rcx", 0.0, 1.0, r1, hp, r1 / hp, 0.0303)
    # largest rho with t_exit >= 1/c_delta(rho + rho')
    r2 = _largest_rho(lambda rho: stepsize.exit_time_bounds(-1.0, 0.0, rho, hp)
                      - 1.0 / c_upper(-1.0, rho + hp), hp)
    add("r2_over_rho_prime", -1.0, 0.0, r2, hp, r2 / hp, 0.1950)
    # spread-compromise guidance value for the same hyperbolic ball
    spread = stepsize.resolve_spread_compromise(Hyperbolic(2, -1.0),
                                                math.pi / 6.0, 2.0)
    add("spread_hyperbolic_rho_pi6", -1.0, -1.0, math.pi / 6.0, math.nan,
        spread.t_base, 0.4632)
    return rows


def run_stepsize_table(out=None):
    rows = stepsize_table()
    if out:
        header = ["label", "delta", "Delta", "rho", "rho_prime",
                  "value", "reference", "abs_error"]
        emit.write_csv(os.path.join(out, "stepsize_table.csv"), header,
                       [[r[h] for h in header] for r in rows])
        with open(os.path.join(out, "stepsize_table.json"), "w") as f:
            json.dump(rows, f, indent=2)
    return rows
