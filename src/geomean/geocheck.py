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

The three Monte Carlo sweeps sample in two phases (manifolds.Draws):
a block of trials makes its Generator calls in the order of one trial
at a time, then its points are made in array passes; comparison reads
the block's triangles in arrays too, and hull runs a block's descents
after drawing it.  Where phase 2 refuses a block, the Generator
goes back to its start and the block is drawn again one trial at a
time (`_in_blocks`), so the Philox stream and the first error are those
of one trial at a time.
"""

import contextlib
import functools
import itertools
import math

import numpy as np

from .errors import (CutLocusError, DegenerateSecantError, DomainError,
                     GeomeanError)
from .kernels import secant_euclid, secant_sphere
from . import frechet, manifolds, solver

_DEFAULT_RADIUS_CAP = 1.5  # sampling cap for an infinite r_cx (times R on H)
_MAX_DEGENERATE = 1000    # consecutive degenerate triangles that end a sweep
_MIN_DET = 1e-12    # smallest simplex |det| the hull certificate uses
_MIN_DEPTH = 1e-9   # smallest barycentric coordinate it certifies
_BLOCK = 128  # Monte Carlo trials drawn, then checked, together


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

    Trials run in blocks of up to _BLOCK (_comparison_draws), their
    sides and angles in array passes (_triangles).  A degenerate
    triangle draws no alpha1, so each trial keeps the Generator state
    before that draw, and the first degenerate one sends the Generator
    back there; the next block starts after it, with about twice as many
    trials as the last one kept, so runs of degenerate triangles draw
    little ahead.
    """
    if n_trials < 1:
        raise DomainError(f"comparison_check: need n_trials >= 1, got {n_trials}")
    if space.dim < 2:   # every triangle is degenerate: no angle to split
        raise DomainError(f"comparison_check: need dim >= 2, got {space.dim}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    min_margin = math.inf
    done = degenerate = 0
    size = _BLOCK
    draw = functools.partial(_comparison_draws, space, rng)
    for trials in _in_blocks(rng, draw,
                             iter(lambda: min(size, n_trials - done), 0)):
        size = min(_BLOCK, 2 * len(trials))   # twice the trials kept
        for i, ((x, y1, y2), b, c, alpha, before, u) in enumerate(trials):
            if alpha <= 1e-9 or alpha >= math.pi - 1e-9:
                rng.bit_generator.state = before   # no alpha1 drawn
                size = min(_BLOCK, 2 * i + 1)
                degenerate += 1
                if degenerate == _MAX_DEGENERATE:
                    raise DomainError(
                        f"comparison_check: {degenerate} sampled triangles "
                        f"in a row were degenerate in balls of radius up to "
                        f"{_sampling_cap(space):g}")
                break
            degenerate = 0
            a1 = alpha * u
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


def _comparison_draws(space, rng, count, careful):
    """`count` comparison trials drawn in Philox order, as
    ((x, y1, y2), b, c, alpha, the Generator state before the uniform
    alpha1 is drawn from, that uniform), after phase 2 and _triangles;
    None where either refuses."""
    cap = _sampling_cap(space)
    draws, drawn = manifolds.Draws(space, rng, careful), []
    for _ in range(count):
        tri = draws.ball(draws.point(), cap * rng.random(), 3)
        state = rng.bit_generator.state
        drawn.append((tri, state, rng.random()))
    if not draws.finish():
        return None
    T = np.array([tri for tri, _, _ in drawn])
    try:
        sides = _triangles(space, T[:, 0], T[:, 1], T[:, 2])
    except GeomeanError:
        if careful:
            raise
        return None
    return [(tri, b, c, alpha, state, u) for (tri, state, u), b, c, alpha
            in zip(drawn, *(a.tolist() for a in sides))]


def _triangles(space, X, Y1, Y2):
    """triangle_data over the rows of X, Y1 and Y2, in array passes:
    arrays b, c and alpha, alpha 0 where b or c is below 1e-14."""
    V1 = space.log_dist_many(X, Y1)[0]
    V2 = space.log_dist_many(X, Y2)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.sqrt(np.maximum(space._inner_rows(V1, V1), 0.0))
        c = np.sqrt(np.maximum(space._inner_rows(V2, V2), 0.0))
        E1 = V1 / b[:, np.newaxis]
        along = space._inner_rows(V2, E1)
        W = V2 - along[:, np.newaxis] * E1
        nw = np.sqrt(np.maximum(space._inner_rows(W, W), 0.0))
        alpha = np.arctan2(nw, c * np.clip(along / c, -1.0, 1.0))
    alpha[(b < 1e-14) | (c < 1e-14)] = 0.0
    return b, c, alpha


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

    Trials run in blocks of _BLOCK, in flat memory: the draws, then the
    points in array passes (_dataset_trials), then the geometry
    (_tethering_margins).  Report, Generator state and first error are
    those of one trial at a time through make_dataset and one_step
    (skipping a cut-locus refusal).
    """
    if n_trials < 1:
        raise DomainError(f"tethering_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    min_margin = math.inf
    for trials in _dataset_trials(space, rng, n_trials, t_grid):
        for margin in _tethering_margins(space, trials):
            min_margin = min(min_margin, margin)
            if margin < -1e-9:
                violations += 1
    return {"suite": "tethering", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def _in_blocks(rng, draw, sizes):
    """The blocks of trials draw(count, careful) gives, one for each
    count in `sizes`, each yielded before the next count is read.  Where
    it refuses a block (None), the Generator goes back to the block's
    start and the block is drawn again one careful trial at a time, so
    the first error raises where one trial at a time raises it."""
    for count in sizes:
        state = rng.bit_generator.state
        trials = draw(count, False)
        if trials is not None:
            yield trials
            continue
        rng.bit_generator.state = state
        for _ in range(count):
            yield draw(1, True)


def _dataset_trials(space, rng, n_trials, t_grid):
    """The tethering trials (o, rho, points, weights, x, t), or the hull
    trials where t_grid is None (no weights, no t), in blocks of _BLOCK:
    drawn in Philox order, then filled in by phase 2.  Careful, a trial's
    make_dataset runs before its x draw, as one trial at a time runs it."""
    cap = _sampling_cap(space)

    def draw(count, careful):
        draws, trials = manifolds.Draws(space, rng, careful), []
        for _ in range(count):
            o = draws.point()
            u = rng.random()
            if t_grid is None:
                rho, n = cap * (0.1 + 0.9 * u), int(rng.integers(3, 7))
            else:
                rho, n = max(cap * u, min(1e-6, cap)), int(rng.integers(1, 9))
            pts = draws.ball(o, rho, n)
            wts = None if t_grid is None else rng.dirichlet(np.ones(n))
            if careful:
                frechet.make_dataset(space, pts, wts, o, rho)
            x = draws.ball(o, rho, 1)[0]
            t = None if t_grid is None else t_grid[int(rng.integers(len(t_grid)))]
            trials.append((o, rho, pts, wts, x, t))
        return trials if draws.finish() else None
    sizes = (min(_BLOCK, n_trials - s) for s in range(0, n_trials, _BLOCK))
    return _in_blocks(rng, draw, sizes)


def _tethering_margins(space, trials):
    """The margins rho - d(o, y) of a block of trials (o, rho, points,
    weights, x, t): one check_points, one dist_many and one log_dist_many
    with a base point per row, then per trial one_step's own gemv
    -(w @ logs), exp and distance.  A block they refuse is replayed."""
    o, rho, pts, wts, x, t = zip(*trials)
    counts = [len(p) for p in pts]
    P = np.concatenate(pts)
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

    The trials are drawn in blocks (_dataset_trials); their descents
    draw nothing.  A record's verdict is the simplex certificate
    (`_certified_inside`) or else `in_hull`.  The records are charted
    ahead of the sweep, but a record the chart refuses raises only if
    the sweep, which stops at the first violation, reaches it.
    """
    if n_trials < 1:
        raise DomainError(f"hull_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    for trials in _dataset_trials(space, rng, n_trials, None):
        for o, rho, pts, _, x0, _ in trials:
            ds = frechet.make_dataset(space, pts, None, o, rho)
            violations += _hull_trap_violated(ds, x0)
    return {"suite": "hull", "trials": n_trials, "violations": violations,
            "min_margin": math.nan, "seed": seed}


def _hull_trap_violated(ds, x0):
    """Whether the descent from x0 leaves the hull of ds's points after
    entering it."""
    space = ds.space
    tr = solver.descend(ds, solver.SolverConfig(
        p=2.0, step=1.0, grad_tol=1e-9, max_iters=60), x0=x0)
    chart = Chart(space, ds.ball_center)
    V = np.array([chart.forward(p) for p in ds.points])
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
            return True
        entered = entered or inside
    return False
