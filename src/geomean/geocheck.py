"""Geometric verification oracles.

Independent cross-checks for the closed-form results elsewhere in the
package, built on geodesics-to-lines charts (gnomonic for positive
curvature, Klein for negative, identity for flat): a secant read off the
intersection of two chart lines, Monte Carlo sweeps of the secant
comparison and of tethering, and convex-hull membership.  In a chart a
point lies in the hull of the vertices exactly when some face of 1 to
dim+1 affinely independent vertices holds it (Caratheodory), so
`hull_membership` decides it from one batched least-squares solve over
every face of the vertices and every point, for a whole block of hulls
at once.  The hull-trap sweep charts each trial's vertices and records
once and takes the verdicts of a block's records from one call.

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
_MIN_PIVOT = 1e-12  # smallest face pivot / scale hull_membership solves on
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


def hull_membership(hulls, tol):
    """Whether each chart point is a convex combination of a hull's
    vertices, to within tol: for each (V, Q) of `hulls`, an array with
    one verdict per row of Q on the hull of the rows of V.  For
    `Chart.forward` images (a chart at the enclosing-ball center is
    valid for any ball radius <= r_cx) this is geodesic convex-hull
    membership.

    With scale = 1 + max |V_ij|, q is inside when some x >= 0 leaves
    |A x - b| <= tol * scale, where A stacks V^T over the row scale * 1^T
    and b = (q, scale).  The least such residual is the least-squares
    residual on the face of x's support, whose columns of A are linearly
    independent (Caratheodory), so q is inside exactly when some face of
    1 to dim+1 vertices (`_faces`) has a least-squares solution x >= 0
    with that residual.  The hulls are decided in groups of one shape
    of V: one batched QR factorization of every face of every hull in
    the group, by QR rather than the normal equations so that small or
    thin faces keep their accuracy, then every (face, point) pair of a
    hull solved at once by back-substitution on the face's triangle.  A
    face with a pivot below scale * _MIN_PIVOT has nearly dependent
    columns and is left out: a smaller face holds what it would.  The
    residual is taken from the solution itself, so a face that passes
    proves its point within tol.
    """
    verdicts = [None] * len(hulls)
    groups = {}
    for i, (V, _) in enumerate(hulls):
        groups.setdefault(np.shape(V), []).append(i)
    for (n, dim), members in groups.items():
        Qs = [np.reshape(hulls[i][1], (-1, dim)) for i in members]
        inside = _hull_group(np.array([hulls[i][0] for i in members],
                                      dtype=float), Qs, tol)
        for i, Q, row in zip(members, Qs, inside):
            verdicts[i] = row[:len(Q)]
    return verdicts


def _hull_group(V, Qs, tol):
    """hull_membership's verdicts for hulls of one shape, V of shape
    (hull, n, dim), with the points Qs[h] of hull h: a (hull, point)
    array, the rows padded past each hull's own points."""
    count, n, dim = V.shape
    scale = 1.0 + np.abs(V).max(axis=(1, 2), initial=0.0)
    faces, pad = _faces(n, dim)
    # column n is zero: a face's padded slots add nothing to A x
    Vs = np.zeros((count, dim + 1, n + 1))
    Vs[:, :dim, :n] = V.transpose(0, 2, 1)
    Vs[:, dim, :n] = scale[:, np.newaxis]
    A = Vs[:, :, faces].transpose(0, 2, 1, 3)    # (hull, face, dim+1, slot)
    # the identity below a face's padded slots fits their weights to 0
    U, T = np.linalg.qr(np.concatenate(
        [A, np.broadcast_to(pad, (count,) + pad.shape)], axis=2))
    keep = (np.abs(np.diagonal(T, axis1=2, axis2=3)).min(axis=2)
            >= scale[:, np.newaxis] * _MIN_PIVOT)
    # a face left out solves on the identity, and its verdicts are dropped
    T = np.where(keep[..., np.newaxis, np.newaxis], T, np.eye(dim + 1))
    B = np.zeros((count, 1, dim + 1, max(map(len, Qs))))
    B[:, 0, dim] = scale[:, np.newaxis]
    for b, Q in zip(B, Qs):
        b[0, :dim, :len(Q)] = Q.T
    X = U[..., :dim + 1, :].swapaxes(2, 3) @ B   # (hull, face, slot, point)
    for j in range(dim, -1, -1):                 # back-substitution in place
        X[..., j, :] -= np.einsum("hfs,hfsr->hfr", T[..., j, j + 1:],
                                  X[..., j + 1:, :])
        X[..., j, :] /= T[..., j, j, np.newaxis]
    R = A @ X
    R -= B
    fits = keep[..., np.newaxis] & (X >= 0.0).all(axis=2) & (
        np.einsum("hfir,hfir->hfr", R, R)
        <= ((tol * scale) ** 2)[:, np.newaxis, np.newaxis])
    return fits.any(axis=1)


@functools.cache
def _faces(n, dim):
    """Every face of 1 to dim+1 of n vertices, as rows of dim+1 vertex
    indices padded with n, and the identity on each row's padded slots
    (stacked below a face, it gives the padded slots independent columns
    of their own); read-only arrays."""
    faces = np.array([f + (n,) * (dim + 1 - k)
                      for k in range(1, min(n, dim + 1) + 1)
                      for f in itertools.combinations(range(n), k)])
    pad = (faces == n)[:, :, np.newaxis] * np.eye(dim + 1)
    faces.flags.writeable = pad.flags.writeable = False
    return faces, pad


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
            wts = None if t_grid is None else _flat_dirichlet(rng, n)
            if careful:
                frechet.make_dataset(space, pts, wts, o, rho)
            x = draws.ball(o, rho, 1)[0]
            t = None if t_grid is None else t_grid[int(rng.integers(len(t_grid)))]
            trials.append((o, rho, pts, wts, x, t))
        return trials if draws.finish() else None
    sizes = (min(_BLOCK, n_trials - s) for s in range(0, n_trials, _BLOCK))
    return _in_blocks(rng, draw, sizes)


def _flat_dirichlet(rng, n):
    """rng.dirichlet(np.ones(n)), bit for bit and in its Philox draws,
    at about a third of its cost: numpy draws it as n standard
    exponentials times the inverse of their sum, summed left to right
    (not builtin sum, which compensates from Python 3.12 on, nor
    np.sum, which sums pairwise from 8 terms)."""
    e = rng.standard_exponential(n)
    acc = 0.0
    for v in e.tolist():
        acc += v
    return e * (1.0 / acc)


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
    draw nothing.  A block's trials are descended and charted in the
    chart at their ball centers, then one `hull_membership` call gives
    every record of the block its verdict, and the block is swept trial
    by trial.  The records are charted ahead of the sweep, but a record
    the chart refuses raises only if the sweep, which stops a trial at
    its first violation, reaches it.  Where a trial's dataset, descent
    or chart raises, the trials before it are decided and swept first,
    so the first error is that of one trial at a time.  The report's
    min_margin is NaN: a margin (how deep the records stay inside) would
    change the report, and the benchmark's recorded reference outputs
    hold NaN there, so it waits for a change that may record them again.
    """
    if n_trials < 1:
        raise DomainError(f"hull_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    for trials in _dataset_trials(space, rng, n_trials, None):
        problems = []
        try:
            for trial in trials:
                problems.append(_hull_problem(space, trial))
        finally:   # also where a trial raises: the trials before it first
            violations += _hull_violations(problems)
    return {"suite": "hull", "trials": n_trials, "violations": violations,
            "min_margin": math.nan, "seed": seed}


def _hull_problem(space, trial):
    """A hull trial's points and descent records in the chart at its ball
    center, the records up to the first one the chart refuses, and that
    refusal (None where the chart takes every record)."""
    o, rho, pts, _, x0, _ = trial
    ds = frechet.make_dataset(space, pts, None, o, rho)
    tr = solver.descend(ds, solver.SolverConfig(
        p=2.0, step=1.0, grad_tol=1e-9, max_iters=60), x0=x0)
    chart = Chart(space, ds.ball_center)
    V = np.array([chart.forward(p) for p in ds.points])
    Q, refused = [], None
    for rec in tr.records:
        try:
            Q.append(chart.forward(rec.point))
        except GeomeanError as e:
            refused = e
            break
    return V, np.reshape(Q, (len(Q), space.dim)), refused


def _hull_violations(problems):
    """How many of the _hull_problem trials leave the hull after
    entering it, from one hull_membership call; a trial's refused record
    raises where the sweep, which stops at a violation, reaches it."""
    verdicts = hull_membership([(V, Q) for V, Q, _ in problems], 1e-8)
    violations = 0
    for (_, _, refused), inside in zip(problems, verdicts):
        if inside.any() and not inside[inside.argmax():].all():
            violations += 1   # a record after the first inside one is not
        elif refused is not None:
            raise refused
    return violations
