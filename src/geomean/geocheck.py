"""Geometric verification oracles.

Independent cross-checks for the closed-form results elsewhere in the
package, built on geodesics-to-lines charts (gnomonic for positive
curvature, Klein for negative, identity for flat): a secant read off the
intersection of two chart lines, Monte Carlo sweeps of the secant
comparison and of tethering, and convex-hull membership.  In a chart
the hull test (`in_hull`) is a nonnegative least-squares feasibility
problem, solved by the Lawson-Hanson active-set method in numpy, unless
a separating line through the point already proves the residual too
large, which decides most points outside without the solve.  The
hull-trap sweep charts each trial's vertices and records once,
certifies a record inside when its barycentric coordinates in some
simplex of the vertices are all positive (one stacked solve per trial),
and runs `in_hull` only for the records that certificate does not
cover.

The tethering sweep draws a block of trials one at a time, in Philox
order, then checks the block in array passes (`tethering_check`).
"""

import contextlib
import functools
import itertools
import math

import numpy as np

from .errors import (CutLocusError, DegenerateSecantError, DomainError,
                     GeomeanError)
from .kernels import secant_euclid, secant_sphere
from . import frechet, solver

_DEFAULT_RADIUS_CAP = 1.5  # sampling cap for an infinite r_cx (times R on H)
_MAX_DEGENERATE = 1000    # consecutive degenerate triangles that end a sweep
_MIN_DET = 1e-12    # smallest simplex |det| the hull certificate uses
_MIN_DEPTH = 1e-9   # smallest barycentric coordinate it certifies
_TETHER_BLOCK = 512  # tethering trials drawn, then checked, together


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

    def radial_distance(self, r):
        """Distance from the center of the points that forward sends to
        Euclidean radius r: the inverse of forward's radial law."""
        k = self.space.kappa
        if k > 0:
            return math.atan(math.sqrt(k) * r) / math.sqrt(k)
        if k < 0:
            return math.atanh(math.sqrt(-k) * r) / math.sqrt(-k)
        return r


def secant_by_intersection(space, x, y1, y2, alpha1):
    """Secant length by explicit geodesic intersection (oracle).

    Launches the geodesic from x at angle alpha1 off side x y1 (rotating
    toward y2) and returns d(x, m) for the point m where it meets the
    minimal geodesic y1 y2.  In the geodesics-to-lines chart at x both
    are straight: the ray at angle alpha1 from the origin and the segment
    between the images of y1 and y2, so m is their intersection.  On
    kappa > 0 the gnomonic chart refuses (DomainError) a y1 or y2 at
    pi/(2 sqrt(kappa)) or more from x; `comparison_check` uses
    `secant_sphere` there.
    """
    b, c, alpha, frame = _triangle(space, x, y1, y2)
    if not frame:
        return 0.0
    if alpha1 < 0 or alpha1 > alpha + 1e-12:
        raise DomainError(f"secant: alpha1={alpha1} outside [0, alpha={alpha}]")
    if alpha1 <= 1e-14:
        return b
    if alpha - alpha1 <= 1e-14:
        return c
    if len(frame) < 2:
        raise DegenerateSecantError("secant: x, y1, y2 are collinear")

    chart = Chart(space, x, basis=frame)
    p1, p2 = chart.forward(y1), chart.forward(y2)
    # the side of the ray, linear along the segment: < 0 at p1, > 0 at p2
    s1 = math.cos(alpha1) * p1[1] - math.sin(alpha1) * p1[0]
    s2 = math.cos(alpha1) * p2[1] - math.sin(alpha1) * p2[0]
    m = p1 + s1 / (s1 - s2) * (p2 - p1)
    return chart.radial_distance(math.sqrt(m.dot(m)))


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
    """Largest radius of a sampled ball: r_cx where it is finite, else
    _DEFAULT_RADIUS_CAP, in curvature radii 1/sqrt(-kappa) on H."""
    r_cx = space.constants().r_cx
    if math.isfinite(r_cx):
        return r_cx
    if space.kappa < 0:
        return _DEFAULT_RADIUS_CAP / math.sqrt(-space.kappa)
    return _DEFAULT_RADIUS_CAP


def sample_triangle(space, rng, max_radius=None):
    """(o, radius, x, y1, y2): a random ball B(o, radius), radius uniform
    below max_radius (default the sampling cap, r_cx where finite), and
    a triangle (x, y1, y2) inside it from one random_points_in_ball
    call, which draws the vertices in that order."""
    cap = _sampling_cap(space) if max_radius is None else max_radius
    center = space.random_point(rng)
    radius = cap * rng.random()
    x, y1, y2 = space.random_points_in_ball(center, radius, 3, rng)
    return center, radius, x, y1, y2


def triangle_data(space, x, y1, y2):
    """Side lengths (b, c) and the vertex angle alpha at x."""
    return _triangle(space, x, y1, y2)[:3]


def _triangle(space, x, y1, y2):
    """Sides b = |log_x y1| and c = |log_x y2|, the angle alpha at x (by
    atan2, accurate on thin triangles) and the frame [e1, e2] at x: e1
    along log_x y1, e2 along the part w of log_x y2 normal to e1.  The
    frame is empty (alpha 0) if b or c < 1e-14, and has no e2 if |w| is."""
    v1 = space.log(x, y1)
    v2 = space.log(x, y2)
    b = space.norm(x, v1)
    c = space.norm(x, v2)
    if b < 1e-14 or c < 1e-14:
        return b, c, 0.0, []
    e1 = v1 / b
    along = space.inner(x, v2, e1)
    w = v2 - along * e1
    nw = space.norm(x, w)
    alpha = math.atan2(nw, c * min(1.0, max(-1.0, along / c)))
    return b, c, alpha, [e1] if nw < 1e-14 else [e1, w / nw]


def comparison_check(space, n_trials, seed):
    """Monte Carlo sweep of the secant comparison z >= z_euclid.

    For kappa > 0 the spherical trig formula supplies z; zero violations
    are expected.  For kappa <= 0 the suite is exploratory: z comes from
    the intersection oracle and violations are only reported.  A triangle
    with no angle at x strictly inside (1e-9, pi - 1e-9) is drawn again;
    _MAX_DEGENERATE such draws in a row raise DomainError (on a very
    curved space every side falls below _triangle's 1e-14 floor).
    """
    if n_trials < 1:
        raise DomainError(f"comparison_check: need n_trials >= 1, got {n_trials}")
    if space.dim < 2:   # every triangle is degenerate: no angle to split
        raise DomainError(f"comparison_check: need dim >= 2, got {space.dim}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    min_margin = math.inf
    done = degenerate = 0
    while done < n_trials:
        _, _, x, y1, y2 = sample_triangle(space, rng)
        b, c, alpha = triangle_data(space, x, y1, y2)
        if alpha <= 1e-9 or alpha >= math.pi - 1e-9:
            degenerate += 1
            if degenerate == _MAX_DEGENERATE:
                raise DomainError(
                    f"comparison_check: {degenerate} sampled triangles in a "
                    f"row were degenerate in balls of radius up to "
                    f"{_sampling_cap(space):g}")
            continue
        degenerate = 0
        a1 = alpha * rng.random()
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


def in_hull(V, q, tol):
    """Whether the chart point q is a convex combination of the rows of
    V, solved as a nonnegative least-squares feasibility problem; for
    `Chart.forward` images (a chart at the enclosing-ball center is valid
    for any ball radius <= r_cx) this is geodesic convex-hull membership.

    q is inside when the NNLS residual |A x - b| is at most tol * scale,
    where A stacks V^T over the row scale * 1^T, b = (q, scale) and
    scale = 1 + max |V_ij|.  A separating line decides most points
    outside without the solve.  Let a be the unit vector along
    q - mean(V), h = a.q and m = max_i a.v_i.  For x >= 0 with s = sum x,
    a.(V^T x - q) <= s m - h, so |A x - b|^2 >= (h - s m)_+^2
    + scale^2 (s - 1)^2.  When h > m that is at least
    scale^2 (h - m)^2 / (m^2 + scale^2) for every s >= 0: where
    h - s m >= 0 it is the squared distance from (h - m, 0) to the point
    (s - 1) (m, -scale) of a line that passes at that distance, and
    where h - s m < 0 the term scale^2 (s - 1)^2 alone is as large, as
    s m > h > m puts |s - 1| >= (h - m) / |m|.  So where
    h - m > 2 tol sqrt(m^2 + scale^2), every x >= 0, NNLS's too, leaves
    a residual above twice the tolerance, and q is outside; for a tol far
    above the float epsilon the factor 2 covers the rounding of a, h, m
    and the residual.  This certifies the outside as `_certified_inside`
    certifies the inside.
    """
    scale = 1.0 + float(np.abs(V).max(initial=0.0))
    c = q - V.mean(axis=0)
    nc = math.sqrt(c.dot(c))
    if nc > 0.0:
        a = c / nc
        h, m = float(a.dot(q)), float((V @ a).max())
        if h - m > 2.0 * tol * math.hypot(m, scale):
            return False
    # rows: chart coordinates plus a sum-to-one constraint
    A = np.vstack([V.T, scale * np.ones(len(V))])
    bvec = np.concatenate([q, [scale]])
    resid = float(np.linalg.norm(A @ _nnls(A, bvec) - bvec))
    return resid <= tol * scale


def _certified_inside(V, Q):
    """Which chart points (rows of Q) a simplex certifies to lie in the
    convex hull of the rows of V.

    One stacked solve gives the barycentric coordinates of every row of
    Q in every (dim+1)-vertex simplex of V whose |det| is at least
    _MIN_DET; a row whose coordinates are all >= _MIN_DEPTH in some
    simplex is a convex combination of vertices, so `in_hull` finds it
    inside too.  False elsewhere: outside, on or near a face, or where
    no simplex qualifies (fewer than dim+1 vertices, or vertices in a
    lower-dimensional affine subspace).
    """
    n, dim = V.shape
    inside = np.zeros(len(Q), dtype=bool)
    simplices = _simplices(n, dim)
    if not len(simplices) or not len(Q):
        return inside
    M = np.ones((len(simplices), dim + 1, dim + 1))
    M[:, :dim, :] = V[simplices].transpose(0, 2, 1)
    M = M[np.abs(np.linalg.det(M)) >= _MIN_DET]
    if not len(M):
        return inside
    B = np.ones((dim + 1, len(Q)))
    B[:dim] = Q.T
    depth = np.linalg.solve(M, B).min(axis=1)   # (simplex, row)
    return (depth >= _MIN_DEPTH).any(axis=0)


@functools.cache
def _simplices(n, dim):
    """The (dim+1)-subsets of range(n) in lexicographic order, as the
    rows of a read-only index array (shape (0,) when there are none)."""
    simplices = np.array(list(itertools.combinations(range(n), dim + 1)))
    simplices.flags.writeable = False
    return simplices


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
    boundary margin rho - d(o, image).  The ball's radius is uniform up
    to the sampling cap (r_cx where finite), raised to min(1e-6, cap).
    On negative curvature (delta < 0) the suite is exploratory:
    violations are only reported.

    Trials run in blocks of _TETHER_BLOCK, in flat memory: the draws,
    trial by trial, then the geometry (_tethering_margins).  Report,
    Generator state and first error are, bit for bit, those of one trial
    at a time through make_dataset and one_step (skipping a cut-locus
    refusal), so a failed draw raises after any error of those before.
    """
    if n_trials < 1:
        raise DomainError(f"tethering_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    cap = _sampling_cap(space)
    violations = 0
    min_margin = math.inf
    for start in range(0, n_trials, _TETHER_BLOCK):
        trials = []
        for _ in range(min(_TETHER_BLOCK, n_trials - start)):
            wts = None
            try:
                o = space.random_point(rng)
                rho = max(cap * rng.random(), min(1e-6, cap))
                n = int(rng.integers(1, 9))
                pts = space.random_points_in_ball(o, rho, n, rng)
                wts = rng.dirichlet(np.ones(n))
                x = space.random_in_ball(o, rho, rng)
                t = t_grid[int(rng.integers(len(t_grid)))]
            except Exception:   # earlier trials, then its make_dataset, first
                if trials:
                    _tethering_margins(space, trials)
                if wts is not None:
                    frechet.make_dataset(space, pts, wts, o, rho)
                raise
            trials.append((o, rho, pts, wts, x, t))
        for margin in _tethering_margins(space, trials):
            min_margin = min(min_margin, margin)
            if margin < -1e-9:
                violations += 1
    return {"suite": "tethering", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def _tethering_margins(space, trials):
    """The margins rho - d(o, y) of a block of trials (o, rho, points,
    weights, x, t): one check_points, one dist_many and one log_dist_many
    with a base point per row, then per trial one_step's own gemv
    -(w @ logs), exp and distance.  A block they refuse is replayed."""
    o, rho, pts, wts, x, t = zip(*trials)
    counts = [len(p) for p in pts]
    P = np.array([p for trial in pts for p in trial])
    R = np.repeat(rho, counts)
    try:
        space.check_points(np.concatenate((P, o)))
        inside = (space.dist_many(np.repeat(o, counts, axis=0), P)
                  <= R + 1e-9 * np.maximum(1.0, R))
        logs = space.log_dist_many(np.repeat(x, counts, axis=0), P)[0]
    except GeomeanError:
        inside = None
    # a Dirichlet draw and a drawn rho pass make_dataset's other checks,
    # and leave it the weights w / float(w.sum())
    if inside is None or not inside.all():   # replay the block
        margins = []
        for oi, ri, pi, wi, xi, ti in trials:
            ds = frechet.make_dataset(space, pi, wi, oi, ri)
            with contextlib.suppress(CutLocusError):   # only exploratory
                y = solver.one_step(ds, 2.0, xi, ti)
                margins.append(ri - space.distance(oi, y))
        return margins
    margins, end = [], 0
    for oi, ri, wi, xi, ti, n in zip(o, rho, wts, x, t, counts):
        g = -((wi / float(wi.sum())) @ logs[end:end + n])
        end += n
        margins.append(ri - space.distance(oi, space.exp(xi, -ti * g)))
    return margins


def hull_check(space, n_trials, seed):
    """Hull-trap sweep: once a descent iterate enters the convex hull of
    the data, later iterates must stay inside.

    A record's verdict is the simplex certificate (`_certified_inside`)
    or else `in_hull`.  The records are charted ahead of the sweep, but
    a record the chart refuses raises only if the sweep, which stops at
    the first violation, reaches it.
    """
    if n_trials < 1:
        raise DomainError(f"hull_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    cap = _sampling_cap(space)
    violations = 0
    for _ in range(n_trials):
        o = space.random_point(rng)
        rho = cap * (0.1 + 0.9 * rng.random())
        n = int(rng.integers(3, 7))
        pts = space.random_points_in_ball(o, rho, n, rng)
        ds = frechet.make_dataset(space, pts, None, o, rho)
        x0 = space.random_in_ball(o, rho, rng)
        tr = solver.descend(ds, solver.SolverConfig(
            p=2.0, step=1.0, grad_tol=1e-9, max_iters=60), x0=x0)
        chart = Chart(space, o)
        V = np.array([chart.forward(p) for p in pts])
        Q = []
        for rec in tr.records:
            try:
                Q.append(chart.forward(rec.point))
            except GeomeanError:
                break
        certified = _certified_inside(V, np.reshape(Q, (len(Q), space.dim)))
        entered = False
        for i, rec in enumerate(tr.records):
            if i == len(Q):   # the sweep reached a record forward refused
                chart.forward(rec.point)
            inside = certified[i] or in_hull(V, Q[i], 1e-8)
            if entered and not inside:
                violations += 1
                break
            entered = entered or inside
    return {"suite": "hull", "trials": n_trials, "violations": violations,
            "min_margin": math.nan, "seed": seed}
