"""Geometric verification oracles.

Independent cross-checks for the closed-form results elsewhere in the
package: a numerical geodesic-intersection secant, Monte Carlo sweeps of
the secant comparison and of tethering, Riemannian convex combinations,
and convex-hull membership via geodesics-to-lines charts (gnomonic for
positive curvature, Klein for negative, identity for flat).  In a chart
the hull test is a nonnegative least-squares feasibility problem, solved
by the Lawson-Hanson active-set method in numpy; the hull-trap sweep
charts each trial's vertices once.
"""

import math

import numpy as np

from .errors import CutLocusError, DegenerateSecantError, DomainError
from .kernels import secant_euclid, secant_sphere
from . import frechet, solver

_DEFAULT_RADIUS_CAP = 1.5  # sampling cap when r_cx is infinite


class Chart:
    """Geodesics-to-lines chart centered at a point.

    Maps the ball B(center, r_cx) into R^dim so that geodesic segments
    become straight line segments: central (gnomonic) projection for
    kappa > 0, the Klein-model chart for kappa < 0, log coordinates for
    flat spaces.
    """

    def __init__(self, space, center, basis=()):
        """`basis`: leading orthonormal frame vectors at center; the
        frame is completed from the ambient coordinate axes."""
        self.space = space
        self.center = np.asarray(center, dtype=float)
        self.basis = _extend_basis(space, self.center, basis)

    def forward(self, point):
        """Chart coordinates of a point inside the chart domain."""
        sp = self.space
        v = sp.log(self.center, point)
        d = sp.norm(self.center, v)
        if d == 0.0:
            return np.zeros(sp.dim)
        k = sp.kappa
        if k > 0:
            x = math.sqrt(k) * d
            if x >= math.pi / 2.0 - 1e-12:
                raise DomainError(f"chart: point at distance {d} outside gnomonic domain")
            scale = math.tan(x) / (math.sqrt(k) * d)
        elif k < 0:
            x = math.sqrt(-k) * d
            scale = math.tanh(x) / (math.sqrt(-k) * d)
        else:
            scale = 1.0
        w = scale * v
        return np.array([sp.inner(self.center, w, b) for b in self.basis])


def secant_by_intersection(space, x, y1, y2, alpha1):
    """Secant length by explicit geodesic intersection (oracle).

    Launches the geodesic from x at angle alpha1 off side x y1 (rotating
    toward y2) and finds where it meets the minimal geodesic y1 y2 by
    bisection of a chart-based side test; returns d(x, m).
    """
    sp = space
    v1 = sp.log(x, y1)
    v2 = sp.log(x, y2)
    b = sp.norm(x, v1)
    c = sp.norm(x, v2)
    if b < 1e-14 or c < 1e-14:
        return 0.0
    e1 = v1 / b
    w = v2 - sp.inner(x, v2, e1) * e1
    nw = sp.norm(x, w)
    cos_a = min(1.0, max(-1.0, sp.inner(x, v2, e1) / c))
    alpha = math.atan2(nw, c * cos_a)
    if alpha1 < 0 or alpha1 > alpha + 1e-12:
        raise DomainError(f"secant: alpha1={alpha1} outside [0, alpha={alpha}]")
    if alpha1 <= 1e-14:
        return b
    if alpha - alpha1 <= 1e-14:
        return c
    if nw < 1e-14:
        raise DegenerateSecantError("secant: x, y1, y2 are collinear")
    e2 = w / nw

    chart = Chart(sp, x, basis=[e1, e2])
    d1 = math.cos(alpha1)
    d2 = math.sin(alpha1)

    u12 = sp.log(y1, y2)
    a = sp.norm(y1, u12)
    u12 = u12 / a

    def side(s):
        p = chart.forward(sp.exp(y1, s * u12))
        return d1 * p[1] - d2 * p[0]

    lo, hi = 0.0, a
    flo = side(lo)
    if flo > 0:  # orientation guard; should not trigger for valid input
        raise DegenerateSecantError("secant: inconsistent orientation")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if side(mid) <= 0:
            lo = mid
        else:
            hi = mid
    m = sp.exp(y1, 0.5 * (lo + hi) * u12)
    return sp.distance(x, m)


def _extend_basis(space, x, seed):
    """Complete an orthonormal tangent frame starting from seed vectors;
    raises DomainError when no full frame is found."""
    basis = list(seed)
    for i in range(space.ambient_dim):
        if len(basis) == space.dim:
            break
        e = np.zeros(space.ambient_dim)
        e[i] = 1.0
        v = space.tangent_project(x, e)
        for bvec in basis:
            v = v - space.inner(x, v, bvec) * bvec
        n = space.norm(x, v)
        if n > 1e-8:
            basis.append(v / n)
    if len(basis) != space.dim:
        raise DomainError("chart: failed to build a tangent basis")
    return basis


def _sampling_cap(space):
    """Largest radius of a sampled ball: r_cx where it is finite."""
    r_cx = space.constants().r_cx
    return r_cx if math.isfinite(r_cx) else _DEFAULT_RADIUS_CAP


def sample_triangle(space, rng, max_radius=None):
    """Random triangle (x, y1, y2) inside a random ball of radius <= r_cx."""
    cap = _sampling_cap(space) if max_radius is None else max_radius
    center = space.random_point(rng)
    radius = cap * rng.uniform()
    pts = [space.random_in_ball(center, radius, rng) for _ in range(3)]
    return center, radius, pts[0], pts[1], pts[2]


def triangle_data(space, x, y1, y2):
    """Side lengths (b, c) and the vertex angle alpha at x."""
    v1 = space.log(x, y1)
    v2 = space.log(x, y2)
    b = space.norm(x, v1)
    c = space.norm(x, v2)
    if b < 1e-14 or c < 1e-14:
        return b, c, 0.0
    cos_a = min(1.0, max(-1.0, space.inner(x, v1, v2) / (b * c)))
    return b, c, math.acos(cos_a)


def comparison_check(space, n_trials, seed):
    """Monte Carlo sweep of the secant comparison z >= z_euclid.

    For kappa > 0 the spherical trig formula supplies z; zero violations
    are expected.  For kappa <= 0 the suite is exploratory: z comes from
    the intersection oracle and violations are only reported.
    """
    if n_trials < 1:
        raise DomainError(f"comparison_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    min_margin = math.inf
    done = 0
    while done < n_trials:
        _, _, x, y1, y2 = sample_triangle(space, rng)
        b, c, alpha = triangle_data(space, x, y1, y2)
        if alpha <= 1e-9 or alpha >= math.pi - 1e-9:
            continue
        a1 = alpha * rng.uniform()
        a2 = alpha - a1
        zt = secant_euclid(b, c, a1, a2)
        if space.kappa > 0:
            z = secant_sphere(b, c, a1, a2, space.kappa)
        else:
            z = secant_by_intersection(space, x, y1, y2, a1)
        margin = z - zt
        min_margin = min(min_margin, margin)
        if margin < -1e-12:
            violations += 1
        done += 1
    return {"suite": "comparison", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def convex_combination(space, x, points, weights, t=1.0):
    """exp_x(t sum_i w_i log_x x_i), the Riemannian convex combination,
    from one log_dist_many over the points."""
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"convex_combination: t={t} outside [0, 1]")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    logs, _ = space.log_dist_many(x, points)
    return space.exp(x, t * (np.asarray(weights, dtype=float) @ logs))


def hull_membership(space, vertices, query, center=None, tol=1e-9):
    """Membership of query in the geodesic convex hull of vertices.

    Charts the configuration (at `center`, default the query point) so
    geodesics become straight lines, then asks whether the query image is
    a convex combination of the vertex images (`_in_hull`).  Charting at
    the enclosing-ball center keeps the gnomonic domain valid for any ball
    radius <= r_cx.
    """
    chart = Chart(space, query if center is None else center)
    V = np.array([chart.forward(v) for v in np.atleast_2d(vertices)])
    return _in_hull(V, chart.forward(query), tol)


def _in_hull(V, q, tol):
    """Whether the chart point q is a convex combination of the rows of
    V, solved as a nonnegative least-squares feasibility problem."""
    scale = 1.0 + float(np.abs(V).max(initial=0.0))
    # rows: chart coordinates plus a sum-to-one constraint
    A = np.vstack([V.T, scale * np.ones(len(V))])
    bvec = np.concatenate([q, [scale]])
    resid = float(np.linalg.norm(A @ _nnls(A, bvec) - bvec))
    return resid <= tol * scale


def _nnls(A, b):
    """Lawson-Hanson active-set solution of min |A x - b| over x >= 0
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23).

    Each inner step moves at least one index out of the passive set, so
    the inner loop ends within n + 1 solves with x >= 0; the outer loop
    is capped at 3n steps, the usual bound.
    """
    m, n = A.shape
    tol = 10.0 * max(m, n) * np.finfo(float).eps * float(np.abs(A).max())
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = A.T @ (b - A @ x)  # the negative gradient of |A x - b|^2 / 2
        if not (w > tol)[~passive].any():
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        for _ in range(n + 1):
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            neg = passive & (s < 0.0)
            if not neg.any():
                break
            # step from x toward s until the first passive weight hits 0
            ratio = np.full(n, np.inf)
            ratio[neg] = x[neg] / (x[neg] - s[neg])
            j = int(np.argmin(ratio))
            x += ratio[j] * (s - x)
            x[j] = 0.0
            passive &= x > 0.0
        x = s
    return x


def tethering_check(space, n_trials, t_grid, seed):
    """Monte Carlo check that x -> exp_x(-t grad f_2(x)) maps B(o, rho)
    into itself for t in (0, 1] on constant nonnegative curvature.

    Each trial draws a ball, a dataset inside it, a start x inside it and
    a step t from t_grid, applies one descent update and measures the
    boundary margin rho - d(o, image).  On negative curvature (delta < 0)
    the suite is exploratory: violations are only reported.
    """
    if n_trials < 1:
        raise DomainError(f"tethering_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    cap = _sampling_cap(space)
    violations = 0
    min_margin = math.inf
    for _ in range(n_trials):
        o = space.random_point(rng)
        rho = cap * rng.uniform()
        if rho < 1e-6:
            rho = 1e-6
        n = int(rng.integers(1, 9))
        pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
        wts = rng.dirichlet(np.ones(n))
        ds = frechet.make_dataset(space, pts, wts, o, rho)
        x = space.random_in_ball(o, rho, rng)
        t = t_grid[int(rng.integers(len(t_grid)))]
        try:
            y = solver.one_step(ds, 2.0, x, t)
        except CutLocusError:
            continue  # only possible in exploratory mode
        margin = rho - space.distance(o, y)
        min_margin = min(min_margin, margin)
        if margin < -1e-9:
            violations += 1
    return {"suite": "tethering", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def hull_check(space, n_trials, seed):
    """Hull-trap sweep: once a descent iterate enters the convex hull of
    the data, later iterates must stay inside."""
    if n_trials < 1:
        raise DomainError(f"hull_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    cap = _sampling_cap(space)
    violations = 0
    for _ in range(n_trials):
        o = space.random_point(rng)
        rho = cap * (0.1 + 0.9 * rng.uniform())
        n = int(rng.integers(3, 7))
        pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
        ds = frechet.make_dataset(space, pts, None, o, rho)
        x0 = space.random_in_ball(o, rho, rng)
        tr = solver.descend(ds, solver.SolverConfig(
            p=2.0, step=1.0, grad_tol=1e-9, max_iters=60), x0=x0)
        chart = Chart(space, o)
        V = np.array([chart.forward(p) for p in pts])
        entered = False
        for rec in tr.records:
            inside = _in_hull(V, chart.forward(rec.point), 1e-8)
            if entered and not inside:
                violations += 1
                break
            entered = entered or inside
    return {"suite": "hull", "trials": n_trials, "violations": violations,
            "min_margin": math.nan, "seed": seed}
