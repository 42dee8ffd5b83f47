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
in one Chart.forward, a chart per trial, and takes the verdicts of a
block's records from one call.

The three Monte Carlo sweeps draw and run their trials in blocks
(`_in_blocks`).  A block samples in two phases (manifolds.Draws): its
Generator calls in the order of one trial at a time, then its points
in array passes.  Comparison then reads the block's triangles in
arrays, and its intersection oracle takes a trial's chart images from
its row of that reading.  Tethering and hull run a block's descent
steps in lockstep, x <- exp_x(-t grad f_2(x)) with a base point per
row (`_gradients`), after validating the block's points as make_dataset
would in one pass (`_block`): tethering takes one step, and hull each
trial's records of descend(p=2, step=1, grad_tol=1e-9, max_iters=60)
(`_descents`).  One rule replays: where a block refuses or raises, the
Generator goes back to its start and the block is drawn and run again
one careful trial at a time, so the Philox stream and the first error
are those of one trial at a time.
"""

import contextlib
import functools
import itertools
import math

import numpy as np

from .errors import (CutLocusError, DegenerateSecantError, DomainError,
                     GeomeanError)
from .kernels import secant_euclid, secant_sphere
from . import frechet, manifolds

_DEFAULT_RADIUS_CAP = 1.5  # sampling cap for an infinite r_cx (times R on H)
_MAX_DEGENERATE = 1000    # consecutive degenerate triangles that end a sweep
_MIN_PIVOT = 1e-12  # smallest face pivot / scale hull_membership solves on
_BLOCK = 128  # Monte Carlo trials drawn, then checked, together
_HULL_ITERS = 60      # the hull descents' max_iters
_HULL_GRAD_TOL = 1e-9  # and their grad_tol
_GNOMONIC = math.pi / 2.0 - 1e-12  # sqrt(kappa) d the gnomonic chart refuses


class Chart:
    """Geodesics-to-lines chart centered at a point.

    Maps the ball B(center, r_cx) into R^dim so that geodesic segments
    become straight line segments: central (gnomonic) projection for
    kappa > 0, the Klein-model chart for kappa < 0, log coordinates for
    flat spaces.
    """

    def __init__(self, space, center):
        """The frame at center is built from the ambient coordinate
        axes (_extend_basis)."""
        self.space = space
        self.center = np.asarray(center, dtype=float)
        self.basis = _extend_basis(space, self.center)

    def forward(self, P):
        """Chart coordinates of the rows of an (N, D) array P, as a pair:
        an (n, dim) array of the coordinates of the rows before the first
        row the chart refuses, and that refusal (None where it takes
        every row).  The logs, the radial scale and the frame products
        run over the rows; the refusal is the per-pair log's own error
        for the row, or else the gnomonic DomainError."""
        sp, k = self.space, self.space.kappa
        try:
            U, s, d = sp._log_scales(self.center, P)
        except GeomeanError:   # the rows before the first per-pair log refuses
            n = 0
            with contextlib.suppress(GeomeanError):
                for p in P:
                    sp.log(self.center, p)
                    n += 1
            U, s, d = sp._log_scales(self.center, P[:n])
        x = math.sqrt(abs(k)) * d
        if k > 0:   # and before the first outside the gnomonic domain
            far = np.flatnonzero(x >= _GNOMONIC)
            x = x[:far[0]] if len(far) else x
        n = len(x)
        # tan(x) / x or tanh(x) / x, and 1 where x is 0 (on flat spaces)
        scale = np.divide(np.tan(x) if k > 0 else np.tanh(x), x,
                          out=np.ones(n), where=x != 0.0)
        W = scale[:, np.newaxis] * (s[:n, np.newaxis] * U[:n])
        Y = sp._inner_rows(W[:, np.newaxis], np.array(self.basis))
        if n == len(P):
            return Y, None
        try:
            v = sp.log(self.center, P[n])
        except GeomeanError as e:
            return Y, e
        return Y, DomainError(f"chart: point at distance {sp.norm(self.center, v)}"
                              " outside gnomonic domain")


def secant_by_intersection(space, x, y1, y2, alpha1):
    """Secant length by explicit geodesic intersection (oracle).

    Launches the geodesic from x at angle alpha1 off side x y1 (rotating
    toward y2) and returns d(x, m) for the point m where it meets the
    minimal geodesic y1 y2.  In the geodesics-to-lines chart at x, with
    the triangle's frame (e1, e2) of _triangles, both are straight: the
    ray at angle alpha1 from the origin and the segment between the
    images of y1 and y2, so m is their intersection.  The images follow
    from the logs under the chart's radial law (_radial_law): y1's lies
    on e1 and y2's at angle alpha off it.  On kappa > 0 the
    gnomonic chart refuses (DomainError) a y1 or y2 at pi/(2 sqrt(kappa))
    or more from x; `comparison_check` uses `secant_sphere` there.
    """
    rows = np.array((x, y1, y2), dtype=float)[:, np.newaxis]
    return _secant(space, alpha1, *(a[0] for a in _triangles(space, *rows)))


def _secant(space, alpha1, b, c, alpha, e1, e2):
    """secant_by_intersection on the triangle's row (b, c, alpha, e1, e2)
    of _triangles."""
    if math.isnan(e1[0]):
        return 0.0
    if alpha1 < 0 or alpha1 > alpha + 1e-12:
        raise DomainError(f"secant: alpha1={alpha1} outside [0, alpha={alpha}]")
    if alpha1 <= 1e-14:
        return float(b)
    if alpha - alpha1 <= 1e-14:
        return float(c)
    if math.isnan(e2[0]):
        raise DegenerateSecantError("secant: x, y1, y2 are collinear")
    for d in (b, c):   # Chart.forward's refusal
        if space.kappa > 0 and d * math.sqrt(space.kappa) >= _GNOMONIC:
            raise DomainError(f"chart: point at distance {d} outside "
                              "gnomonic domain")
    law, inverse = _radial_law(space)
    # log_x y1 = b e1 and log_x y2 = c (cos alpha e1 + sin alpha e2), so
    # y1's image lies on e1 at radius law(b), and y2's at angle alpha off
    # it at radius law(c).  On the line through them 1/r is linear in the
    # cosine and sine of the angle, which gives r at alpha1
    return inverse(math.sin(alpha) / (math.sin(alpha - alpha1) / law(b)
                                      + math.sin(alpha1) / law(c)))


def _radial_law(space):
    """Chart.forward's radial law and its inverse: the norm law(d) of
    the image of a point at distance d from the center, tan(sqrt(k) d)
    / sqrt(k) for kappa = k > 0, tanh(sqrt(-k) d) / sqrt(-k) for k < 0,
    and d on flat space."""
    k = space.kappa
    if k == 0:
        return float, float
    rk = math.sqrt(abs(k))
    law, inverse = (math.tan, math.atan) if k > 0 else (math.tanh, math.atanh)
    return (lambda d: law(rk * d) / rk), (lambda r: inverse(rk * r) / rk)


def _extend_basis(space, x):
    """An orthonormal tangent frame at x from the projected ambient
    coordinate axes; raises DomainError when no full frame is found."""
    basis = []
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
    """Side lengths (b, c) and the vertex angle alpha at x: _triangles
    of one triangle."""
    rows = np.array((x, y1, y2), dtype=float)[:, np.newaxis]
    return tuple(float(a[0]) for a in _triangles(space, *rows)[:3])


def comparison_check(space, n_trials, seed):
    """Monte Carlo sweep of the secant comparison z >= z_euclid.

    For kappa > 0 the spherical trig formula supplies z; zero violations
    are expected.  For kappa <= 0 the suite is exploratory: z comes from
    the intersection oracle and violations are only reported.  A triangle
    with no angle at x strictly inside (1e-9, pi - 1e-9) is drawn again;
    _MAX_DEGENERATE such draws in a row raise DomainError (on a very
    curved space every side falls below _triangles' 1e-14 floor).

    Trials run in blocks of up to _BLOCK (_comparison_draws), their
    triangles read in array passes (_triangles); a kappa <= 0 trial's
    secant is read off its row of that reading (_secant), with no
    second log.  A degenerate
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
        for i, ((b, c, alpha, *frame), before, u) in enumerate(trials):
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
                z = _secant(space, a1, b, c, alpha, *frame)
            margin = z - zt
            min_margin = min(min_margin, margin)
            if margin < -1e-12:
                violations += 1
            done += 1
    return {"suite": "comparison", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def _comparison_draws(space, rng, count, careful):
    """`count` comparison trials drawn in Philox order, as (the row (b, c,
    alpha, e1, e2) of _triangles of its triangle (x, y1, y2), the
    Generator state before the uniform alpha1 is drawn from, that
    uniform), after phase 2 and _triangles; None where phase 2 refuses,
    and the error where either raises."""
    cap = _sampling_cap(space)
    draws, drawn = manifolds.Draws(space, rng, careful), []
    for _ in range(count):
        tri = draws.ball(draws.point(), cap * rng.random(), 3)
        state = rng.bit_generator.state
        drawn.append((tri, state, rng.random()))
    if not draws.finish():
        return None
    T = np.array([tri for tri, _, _ in drawn])
    b, c, alpha, E1, E2 = _triangles(space, T[:, 0], T[:, 1], T[:, 2])
    return [(reading, state, u) for (_, state, u), *reading
            in zip(drawn, b.tolist(), c.tolist(), alpha.tolist(), E1, E2)]


def _triangles(space, X, Y1, Y2):
    """Sides b = |log_x y1| and c = |log_x y2|, the angle alpha at x (by
    atan2, accurate on thin triangles) and the frame (e1, e2) at x, over
    the rows of X, Y1 and Y2 in array passes: arrays b, c and alpha, and
    (N, D) arrays E1 and E2.  e1 lies along log_x y1 and e2 along the
    part w of log_x y2 normal to e1.  Where b or c is below 1e-14 alpha
    is 0 and the row has no frame, and where |w| is, no e2; a frame
    vector a row lacks is a NaN row."""
    U1, s1, _ = space._log_scales(X, Y1)
    U2, s2, _ = space._log_scales(X, Y2)
    # the logs as C-ordered rows: einsum (_inner_rows) sums a row in an
    # order that follows the layout
    V1 = np.multiply(s1[:, np.newaxis], U1, order="C")
    V2 = np.multiply(s2[:, np.newaxis], U2, order="C")
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.sqrt(np.maximum(space._inner_rows(V1, V1), 0.0))
        c = np.sqrt(np.maximum(space._inner_rows(V2, V2), 0.0))
        E1 = V1 / b[:, np.newaxis]
        along = space._inner_rows(V2, E1)
        W = V2 - along[:, np.newaxis] * E1
        nw = np.sqrt(np.maximum(space._inner_rows(W, W), 0.0))
        alpha = np.arctan2(nw, c * np.clip(along / c, -1.0, 1.0))
        E2 = W / nw[:, np.newaxis]
    flat = (b < 1e-14) | (c < 1e-14)
    alpha[flat] = 0.0
    E1[flat] = E2[flat | (nw < 1e-14)] = math.nan
    return b, c, alpha, E1, E2


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
    points in array passes (_dataset_trials), then the block's steps in
    one lockstep pass (_step_margins).  Report, Generator state and
    first error are those of one trial at a time through make_dataset
    and the step (_in_blocks), skipping a trial whose x lies in a
    point's cut-locus band, where the step is not defined.  An empty
    t_grid, or one with a step that is not finite and > 0, is refused
    before any draw.
    """
    if n_trials < 1:
        raise DomainError(f"tethering_check: need n_trials >= 1, got {n_trials}")
    if not (len(t_grid) and all(0 < t < math.inf for t in t_grid)):
        raise DomainError(f"tethering_check: need finite steps t > 0, got {t_grid}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    min_margin = math.inf
    for margins in _dataset_trials(space, rng, n_trials, t_grid,
                                   _step_margins):
        for margin in margins:
            min_margin = min(min_margin, margin)
            if margin < -1e-9:
                violations += 1
    return {"suite": "tethering", "trials": n_trials,
            "violations": violations, "min_margin": min_margin, "seed": seed}


def _in_blocks(rng, draw, sizes):
    """What draw(count, careful) gives for a block of `count` trials it
    draws and runs, one block for each count in `sizes`, each yielded
    before the next count is read.  This is the suites' one replay:
    where the fast draw(count, False) refuses the block (None) or raises
    a GeomeanError, the Generator goes back to the block's start and the
    block is drawn and run again one careful trial at a time,
    draw(1, True).  Careful draws are the block's draws bit for bit, so
    the first error raises where one trial at a time raises it."""
    for count in sizes:
        state = rng.bit_generator.state
        try:
            result = draw(count, False)
        except GeomeanError:
            result = None
        if result is not None:
            yield result
            continue
        rng.bit_generator.state = state
        for _ in range(count):
            yield draw(1, True)


def _dataset_trials(space, rng, n_trials, t_grid, run):
    """run(space, trials) on blocks of up to _BLOCK tethering trials (o,
    rho, points, weights, x, t), or hull trials where t_grid is None (no
    weights, and descend's step t = 1), by _in_blocks: drawn in Philox
    order, filled in by phase 2, then run.  Careful, a trial's
    make_dataset runs before its x draw, as one trial at a time runs
    it."""
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
            t = 1.0 if t_grid is None else t_grid[int(rng.integers(len(t_grid)))]
            trials.append((o, rho, pts, wts, x, t))
        return run(space, trials) if draws.finish() else None
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


def _block(space, trials):
    """A block of trials (o, rho, points, weights, x, t) as arrays,
    validated as make_dataset validates them, in one check_points and
    one dist_many ball test that passes a NaN distance, as make_dataset
    does (a DomainError where any point fails, which make_dataset names
    in the careful replay).  Returns (O, rho, X, T, counts, P, w), one
    row of O, rho, X, T and counts a trial, and the trials' points P and
    make_dataset's weights w (1/n where a trial has none, else w over
    their sum), one row a point, a trial's rows after the last trial's."""
    o, rho, pts, wts, x, t = zip(*trials)
    counts = np.array([len(p) for p in pts])
    P, O, R = np.concatenate(pts), np.array(o), np.array(rho)
    space.check_points(np.concatenate((P, O)))
    if (space.dist_many(np.repeat(O, counts, axis=0), P)
            > np.repeat(R + 1e-9 * np.maximum(1.0, R), counts)).any():
        raise DomainError("a point lies outside its ball")
    if wts[0] is None:
        w = np.repeat(1.0 / counts, counts)
    else:
        w = np.concatenate(wts)
        for _, r in _by_count(counts):
            w[r] /= w[r].sum(axis=1, keepdims=True)
    return O, R, np.array(x), np.array(t), counts, P, w


def _by_count(counts):
    """For each count n of points in a block of trials with `counts`, the
    trials with n points and their rows, an (trials, n) index array.  On
    such rows numpy's sums and products run as on one trial's own
    arrays, so a trial keeps the bits of make_dataset's weights and of
    the gradient's product."""
    starts = np.cumsum(counts) - counts
    for n in sorted(set(counts.tolist())):
        i = np.flatnonzero(counts == n)
        yield i, starts[i, np.newaxis] + np.arange(n)


def _gradients(space, X, P, w, counts, k):
    """(G, gn, cut): grad f_2 at each row of X over its trial's points
    and weights, the rows of P and w by `counts`, its norm, and whether
    a point lies in the row's cut-locus band, where descend stops the
    trial (its G and gn are then meaningless).  One _tangential_many over
    every point with a base point per row, then the gradient of each
    trial as cost_gradient's product -((w s) @ U), bit for bit, and the
    norms by _inner_rows.  Raises the error of descend's iteration k
    for a cost or a gradient norm that overflows, and _log_scales' for
    a log refused other than in the band."""
    Xr = np.repeat(X, counts, axis=0)
    starts = np.cumsum(counts) - counts
    G = np.empty(X.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        U, nU, d = space._tangential_many(Xr, P)
        with contextlib.suppress(CutLocusError):   # the band stops a trial
            space._refuse_logs(Xr, P, nU, d)
        if not np.isfinite(np.add.reduceat(w * d * d, starts)).all():
            raise DomainError(f"{space.kind}: f_p overflows at iteration {k}")
        cut = np.logical_or.reduceat(d >= space._band_start(), starts)
        ws = w * np.divide(d, nU, out=np.zeros(d.shape), where=d != 0.0)
        U = np.ascontiguousarray(U)   # as cost_gradient's U, for its bits
        for i, r in _by_count(counts):
            G[i] = -(ws[r][:, np.newaxis] @ U[r])[:, 0]
        gn = np.sqrt(np.maximum(space._inner_rows(G, G), 0.0))
    if not np.isfinite(gn[~cut]).all():
        raise DomainError(f"{space.kind}: gradient of f_p overflows "
                          f"at iteration {k}")
    return G, gn, cut


def _step_margins(space, trials):
    """The margins rho - d(o, y) of a block of tethering trials, y =
    exp_x(-t grad f_2(x)), from one _gradients and one exp_many over the
    block, skipping a trial whose x lies in a point's cut-locus band.
    Raises where _block or _gradients raises."""
    O, R, X, T, counts, P, w = _block(space, trials)
    G, _, cut = _gradients(space, X, P, w, counts, 0)
    go = ~cut
    Y = space._exp_rows(X[go], -T[go, np.newaxis] * G[go])
    return (R[go] - space.dist_many(O[go], Y)).tolist()


def hull_check(space, n_trials, seed):
    """Hull-trap sweep: once a descent iterate enters the convex hull of
    the data, later iterates must stay inside.

    The trials are drawn in blocks (_dataset_trials) and run by
    _hull_block; their descents draw nothing.  The records are charted
    ahead of the sweep, but a record the chart refuses raises only if
    the sweep, which stops a trial at its first violation, reaches it.
    Where a block raises, it is drawn and run again one trial at a time
    (_in_blocks), so the first error is that of one trial at a time.
    The report's min_margin is NaN: a margin (how deep the records stay
    inside) would change the report, and the benchmark's recorded
    reference outputs hold NaN there, so it waits for a change that may
    record them again.
    """
    if n_trials < 1:
        raise DomainError(f"hull_check: need n_trials >= 1, got {n_trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    violations = sum(_dataset_trials(space, rng, n_trials, None,
                                     _hull_block))
    return {"suite": "hull", "trials": n_trials, "violations": violations,
            "min_margin": math.nan, "seed": seed}


def _hull_block(space, trials):
    """How many of a block of hull trials leave the hull after entering
    it: the block's descents in lockstep (_descents), each trial charted
    in the chart at its ball center (_hull_problem), then the verdicts
    of every record of the block from one _hull_violations."""
    problems = [_hull_problem(space, trial, records)
                for trial, records in zip(trials, _descents(space, trials))]
    return _hull_violations(problems)


def _descents(space, trials):
    """The records of a block of hull trials' descents, in lockstep: for
    each trial, the points that descend(p=2, step=t, grad_tol=
    _HULL_GRAD_TOL, max_iters=_HULL_ITERS) records from x (projected, as
    descend projects it) over its points, as a (records, D) array.  Each
    iteration takes _gradients over the trials still running and one
    exp_many for those that step; a trial stops where descend stops it:
    at grad_tol, at max_iters, or with a point in its iterate's
    cut-locus band, that iterate recorded.  It raises descend's errors
    for an overflowing cost, gradient norm or step, but computes none of
    the monitors, whose distances from the ball center the sweep does
    not read."""
    _, _, X, T, counts, P, w = _block(space, trials)
    X = np.array([space.project(x) for x in X])   # descend's start
    records = np.full((len(X), _HULL_ITERS + 1, X.shape[1]), math.nan)
    live = np.ones(len(X), dtype=bool)
    for k in range(_HULL_ITERS + 1):
        rows = np.repeat(live, counts)
        G, gn, cut = _gradients(space, X, P[rows], w[rows], counts[live], k)
        records[live, k] = X
        go = ~cut & (gn > _HULL_GRAD_TOL)
        if k == _HULL_ITERS or not go.any():
            break
        live[live] = go
        X = space._exp_rows(X[go], -T[live, np.newaxis] * G[go])
    return [r[~np.isnan(r[:, 0])] for r in records]


def _hull_problem(space, trial, records):
    """A hull trial's points and descent records in the chart at its ball
    center, from one Chart.forward: the records up to the first one the
    chart refuses, and that refusal (None where the chart takes every
    record)."""
    o, _, pts, _, _, _ = trial
    Y, refusal = Chart(space, o).forward(np.concatenate((pts, records)))
    n = len(pts)
    if len(Y) < n:
        raise refusal
    return Y[:n], Y[n:], refusal


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
