"""Acceptance suite: one criterion per test, one printed verdict line each.

Verdict lines go through pytest's terminal reporter so they appear in the
run log for passing and failing criteria alike.
"""

import math
import sys
import time

import numpy as np
import pytest

from geomean import experiments, frechet, geocheck, solver, stepsize
from geomean.errors import CutLocusError
from geomean.experiments import cross_config, pair_config
from geomean.frechet import (cost, fd_hessian_quadratic_form, make_dataset)
from geomean.kernels import b_lower, c_upper, secant_sphere
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere)
from geomean.solver import SolverConfig, descend

from conftest import one_step, random_unit_tangent, sample_triangle


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _capture_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.getplugin("terminalreporter")


def _verdict(label, ok, detail=""):
    line = f"CRITERION {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stderr__)
    assert ok, line


def test_criterion_1_circle_exactness():
    t0 = time.perf_counter()
    rep = experiments.run_circle_example()
    finals = {s["name"]: s for s in rep["scenarios"]}
    ok = True
    ok &= abs(finals["w09_t1"]["final_theta"] - (-8 * math.pi / 25)) <= 1e-10
    ok &= abs(finals["w34_t1"]["final_theta"] - (-math.pi / 5)) <= 1e-10
    ok &= abs(finals["w34_t11_6"]["final_theta"] - (-7 * math.pi / 10)) <= 1e-10

    ci = Circle(1.0)
    ds = experiments._circle_dataset((0.1, 0.9))
    x1 = ci.point_from_angle(experiments.TH1)
    y = one_step(ds, 2, x1, 25.0 / 18.0)
    ok &= abs(ci.angle(y) - (-3 * math.pi / 5)) <= 1e-12
    ok &= finals["w09_t25_18"]["status"] == "cut_locus"
    try:
        frechet.cost_gradient(ds, 2, y)
        ok = False
    except CutLocusError:
        pass
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict("1 circle example exactness", ok, f"{elapsed:.2f} s")


_TABLE_TOL = {"exit_sphere_rho_third": 1e-3, "exit_sphere_rho_090": 1e-3,
              "exit_sphere_rho_099": 5e-4, "exit_hyperbolic_rho_third": 1e-3,
              "r1_over_rcx": 1e-3, "r2_over_rho_prime": 1e-3,
              "spread_hyperbolic_rho_pi6": 1e-3}


@pytest.fixture(scope="module")
def table_rows():
    t0 = time.perf_counter()
    rows = experiments.stepsize_table()
    assert time.perf_counter() - t0 < 5.0
    return {r["label"]: r for r in rows}


@pytest.mark.parametrize("label", sorted(_TABLE_TOL))
def test_criterion_2_stepsize_table(table_rows, label):
    row = table_rows[label]
    tol = _TABLE_TOL[label]
    ok = row["abs_error"] <= tol
    _verdict(f"2 step-size table {label}", ok,
             f"value={row['value']:.6f} reference={row['reference']:.4f} "
             f"tol={tol:g}")


def test_criterion_3_comparison_theorem():
    t0 = time.perf_counter()
    rep = geocheck.comparison_check(Sphere(2), 10000, seed=2024)
    ok = rep["violations"] == 0 and rep["min_margin"] >= -1e-12

    rng = np.random.Generator(np.random.Philox(2025))
    sp = Sphere(2)
    worst = 0.0
    done = 0
    while done < 1000:
        _, _, x, y1, y2 = sample_triangle(
            sp, rng, max_radius=sp.constants().r_cx / 2.2)
        b, c, alpha = geocheck.triangle_data(sp, x, y1, y2)
        if min(b, c) < 1e-5 or not 1e-5 < alpha < math.pi - 1e-5:
            continue
        a1 = alpha * rng.uniform()
        z = secant_sphere(b, c, a1, alpha - a1)
        zo = geocheck.secant_by_intersection(sp, x, y1, y2, a1)
        worst = max(worst, abs(z - zo))
        done += 1
    ok &= worst <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict("3 spherical comparison theorem", ok,
             f"violations={rep['violations']} oracle_max_diff={worst:.2e} "
             f"{elapsed:.1f} s")


def test_criterion_4_tethering_and_hull_trap():
    t0 = time.perf_counter()
    total_violations = 0
    for space in (Sphere(2), Sphere(3), SO3(), RealProjective(2)):
        rep = geocheck.tethering_check(space, 2500, (0.25, 0.5, 0.75, 1.0),
                                       seed=99)
        total_violations += rep["violations"]
    hull = geocheck.hull_check(Sphere(2), 1000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = (total_violations == 0 and hull["violations"] == 0 and elapsed < 60.0)
    _verdict("4 tethering and hull trap", ok,
             f"tether_violations={total_violations} "
             f"hull_violations={hull['violations']} {elapsed:.1f} s")


def test_criterion_5_hessian_sandwich():
    rng = np.random.Generator(np.random.Philox(55))
    ok = True
    for space in (Sphere(2), Hyperbolic(2), RealProjective(2), SO3(),
                  Euclidean(3)):
        cst = space.constants()
        top = cst.inj
        if cst.Delta > 0:
            top = min(top, math.pi / math.sqrt(cst.Delta))
        for _ in range(1000):
            o = space.random_point(rng)
            d = min(top, 3.0) * (0.02 + 0.9 * rng.uniform())
            y = space.exp(o, d * random_unit_tangent(space, o, rng))
            ds = make_dataset(space, [y], None, y, 1e-6)
            u = random_unit_tangent(space, o, rng)
            for p in (2.0, 3.0, 4.0):
                q = fd_hessian_quadratic_form(ds, p, o, u)
                lo = d ** (p - 2) * min(p - 1, b_lower(cst.Delta, d))
                hi = d ** (p - 2) * max(p - 1, c_upper(cst.delta, d))
                ok &= lo - 1e-4 <= q <= hi + 1e-4

    o = np.array([0.0, 0.0, 1.0])
    e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    for rho in (math.pi / 4, 0.35 * math.pi, 0.47 * math.pi):
        pred = 0.5 * (rho / math.tan(rho) + 1.0)
        dsc, dsp = cross_config(rho), pair_config(rho)
        for u in (e1, e2):
            ok &= abs(fd_hessian_quadratic_form(dsc, 2, o, u) - pred) <= 1e-5
        ok &= abs(fd_hessian_quadratic_form(dsp, 2, o, e1) - 1.0) <= 1e-5
        ok &= abs(fd_hessian_quadratic_form(dsp, 2, o, e2)
                  - rho / math.tan(rho)) <= 1e-5
    _verdict("5 Hessian bound sandwich", ok)


def _rate_trial(space, rho, rng):
    """One spread-compromise descent; returns True if the envelope holds."""
    o = space.random_point(rng)
    n = int(rng.integers(2, 6))
    pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
    ds = make_dataset(space, pts, rng.dirichlet(np.ones(n)), o, rho)
    step = stepsize.resolve_spread_compromise(space, rho, 2.0)
    x0 = space.random_in_ball(o, rho, rng)
    tr = descend(ds, SolverConfig(p=2.0, step=step.t_base, grad_tol=1e-12,
                                  max_iters=2000,
                                  monitor_radius=step.stay_ball_radius), x0=x0)
    if tr.status != "converged":
        return False
    # radial Hessian bounds on the smallest ball around the final point
    # holding the whole trace and the data
    est = solver.trailing_rate(ds, tr, step.t_base, k_start=0)
    if est is None:
        return False
    return all(d <= est.K * est.q ** (k / 2.0) * (1.0 + 1e-9)
               for k, d in enumerate(tr.dist_to_final))


def test_criterion_6_rate_bound():
    rng = np.random.Generator(np.random.Philox(66))
    sp, hy = Sphere(2), Hyperbolic(2)
    ok = True
    for _ in range(50):
        rho = 0.7 * sp.constants().r_cx / 3.0 * (0.2 + 0.8 * rng.uniform())
        ok &= _rate_trial(sp, rho, rng)
    for _ in range(50):
        ok &= _rate_trial(hy, 0.1 + 0.7 * rng.uniform(), rng)

    # Euclidean alpha = 1: q = 0 and one exact step
    eu = Euclidean(3)
    pts = rng.standard_normal((5, 3))
    w = rng.dirichlet(np.ones(5))
    o = w @ pts
    rad = max(np.linalg.norm(p - o) for p in pts) + 1e-9
    ds = make_dataset(eu, pts, w, o, rad)
    tr = descend(ds, SolverConfig(p=2.0, step=1.0, grad_tol=1e-12), x0=pts[0])
    est = stepsize.rate_estimate(1.0, 1.0, 1.0, 1.0)
    ok &= est.q == 0.0 and tr.n_iters == 1 and tr.status == "converged"
    _verdict("6 linear rate bound", ok)


def test_criterion_7_config_iteration_ordering():
    rep = experiments.run_sphere_configs(seed=0)
    runs = {(r["config"], round(r["rho"], 9)): r["iters_to_1e6"]
            for r in rep["runs"]}
    r35, r47 = round(0.35 * math.pi, 9), round(0.47 * math.pi, 9)
    ok = (runs[("pair", r47)] > runs[("cross", r47)]
          and runs[("cross", r47)] > runs[("cross", r35)]
          and runs[("pair", r47)] > runs[("pair", r35)])
    _verdict("7 cross/pair iteration ordering", ok,
             f"cross {runs[('cross', r35)]}->{runs[('cross', r47)]}, "
             f"pair {runs[('pair', r35)]}->{runs[('pair', r47)]}")


def test_criterion_8_descent_inequality_monitor():
    rng = np.random.Generator(np.random.Philox(88))
    ok = True
    monitored = 0
    for space in (Sphere(2), SO3(), Hyperbolic(2), Euclidean(3)):
        cst = space.constants()
        cap = cst.r_cx if math.isfinite(cst.r_cx) else 1.5
        for _ in range(40):
            o = space.random_point(rng)
            rho = cap * (0.1 + 0.85 * rng.uniform())
            n = int(rng.integers(2, 6))
            pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
            ds = make_dataset(space, pts, None, o, rho)
            H = frechet.uniform_hessian_bound(space, rho, 2.0)
            t = (0.05 + 0.9 * rng.uniform()) * 2.0 / H
            x0 = space.random_in_ball(o, rho, rng)
            tr = descend(ds, SolverConfig(p=2.0, step=t, grad_tol=1e-10,
                                          max_iters=300, hessian_upper=H),
                         x0=x0)
            if tr.verdicts["continuously_stayed"]:
                monitored += 1
                ok &= tr.verdicts["descent_inequality"] is True
    ok &= monitored > 100
    _verdict("8 per-step descent inequality", ok, f"{monitored} runs monitored")
