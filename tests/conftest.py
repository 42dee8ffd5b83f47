import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from geomean import frechet, geocheck
from geomean.errors import DomainError
from geomean.kernels import sn

# Tier-1 is deterministic: the same Hypothesis examples on every run, and no
# example database carried between runs
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))


def space_json(space):
    """The dataset JSON descriptor {"kind", "dim", "kappa"} of a space."""
    return {"kind": space.kind, "dim": space.dim, "kappa": space.kappa}


def dataset_json(ds):
    """The dataset JSON value of a WeightedDataset, ball included."""
    return {"space": space_json(ds.space), "points": ds.points.tolist(),
            "weights": ds.weights.tolist(),
            "ball": {"center": ds.ball_center.tolist(),
                     "radius": ds.ball_radius}}


def sample_triangle(space, rng, max_radius=None):
    """(o, radius, x, y1, y2): a random ball B(o, radius), radius uniform
    below max_radius (default geocheck's sampling cap, r_cx where
    finite), and a triangle (x, y1, y2) inside it from one
    random_points_in_ball call, which draws the vertices in that order:
    the draws of one comparison_check trial."""
    cap = geocheck._sampling_cap(space) if max_radius is None else max_radius
    center = space.random_point(rng)
    radius = cap * rng.random()
    x, y1, y2 = space.random_points_in_ball(center, radius, 3, rng)
    return center, radius, x, y1, y2


def one_step(ds, p, x, t):
    """One descent update exp_x(-t grad f_p(x)); raises cost_gradient's
    CutLocusError at cut points."""
    return ds.space.exp(x, -t * frechet.cost_gradient(ds, p, x)[1])


def chart_points(chart, points):
    """chart.forward of the points, raising its refusal."""
    Y, refusal = chart.forward(np.array(points, dtype=float))
    if refusal is not None:
        raise refusal
    return Y


def ref_triangle(space, x, y1, y2):
    """Reference per-pair triangle reading for geocheck._triangles: sides
    b = |log_x y1| and c = |log_x y2|, the angle alpha at x (by atan2,
    accurate on thin triangles) and the frame [e1, e2] at x: e1 along
    log_x y1, e2 along the part w of log_x y2 normal to e1.  The frame
    is empty (alpha 0) if b or c < 1e-14, and has no e2 if |w| is."""
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


# Reference per-pair geometry in numpy expressions, the forms of the
# space's own methods (test_scalar_kernels_keep_their_bits compares them),
# and a ball sampler drawing one point after another from them: for each
# point, uniforms for its radius by rejection against sn^(n-1), then a
# standard normal projected onto T_center and normalised, drawn again
# while shorter than 1e-8.
def ref_minkowski(u, v):
    return float(np.dot(u[1:], v[1:]) - u[0] * v[0])


def ref_tangent_project(space, x, g):
    if space.kind == "euclidean":
        return g
    if space.kind == "hyperbolic":
        return g + (ref_minkowski(g, x) / space._R**2) * x
    return g - float(np.dot(g, x)) * x


def ref_exp(space, x, v):
    if space.kind == "euclidean":
        y = x + v
        if not math.hypot(*y) < 1e150:
            raise DomainError(f"euclidean: exp step of length "
                              f"{math.hypot(*v)} overflows")
        return y
    if space.kind == "hyperbolic":
        R = space._R
        with np.errstate(over="ignore", invalid="ignore"):
            nv = ref_minkowski(v, v)
            nv = math.sqrt(max(nv, 0.0)) if math.isfinite(nv) else math.inf
            if nv == 0.0:
                return x.copy()
            try:
                y = math.cosh(nv / R) * x + (R * math.sinh(nv / R) / nv) * v
            except OverflowError:
                y = None
        if y is None or not abs(y[0]) < 1e150:
            raise DomainError(f"hyperbolic: exp step of length {nv} overflows")
        y[0] = math.sqrt(R**2 + float(np.dot(y[1:], y[1:])))
        return y
    with np.errstate(over="ignore"):
        nv = math.sqrt(v.dot(v))
    if nv == 0.0:
        y = x.copy()
    elif not math.isfinite(nv):
        raise DomainError(f"{space.kind}: exp step of length {nv} overflows")
    else:
        th = math.sqrt(space.kappa) * nv
        y = math.cos(th) * x + math.sin(th) * (v / nv)
        y = y / math.sqrt(y.dot(y))
    if space.kind in ("real_projective", "so3"):
        lead = [c for c in y if abs(c) > 1e-9]
        if lead and lead[0] < 0.0:
            y = -y
    return y


def random_unit_tangent(space, x, rng):
    """A uniform direction on the unit sphere of T_x."""
    while True:
        g = rng.standard_normal(space.ambient_dim)
        v = ref_tangent_project(space, x, g)
        vv = (ref_minkowski(v, v) if space.kind == "hyperbolic"
              else np.dot(v, v))
        n = math.sqrt(max(float(vv), 0.0))
        if n > 1e-8:
            return v / n


def ref_random_in_ball(space, center, radius, rng):
    if radius == 0:
        return center.copy()
    radius = min(radius, space.constants().inj)
    n = space.dim
    if n == 1:
        r = radius * rng.random()
    else:
        peak = (math.pi / (2.0 * math.sqrt(space.kappa)) if space.kappa > 0
                else math.inf)
        top = sn(space.kappa, min(radius, peak))
        while True:
            r = radius * rng.random()
            if rng.random() <= (sn(space.kappa, r) / top) ** (n - 1):
                break
    return ref_exp(space, center,
                    r * random_unit_tangent(space, center, rng))


def ref_random_point(space, rng):
    """random_point in numpy expressions: the standard normal itself on
    R^n, normalised on the sphere family (with the canonical sign on
    RP^n), and exp at H's origin of its tangent part in units of R."""
    g = rng.standard_normal(space.ambient_dim)
    if space.kind == "euclidean":
        return g
    if space.kind == "hyperbolic":
        origin = np.zeros(space.ambient_dim)
        origin[0] = space._R
        return ref_exp(space, origin,
                       space._R * ref_tangent_project(space, origin, g))
    y = g / math.sqrt(g.dot(g))
    if space.kind in ("real_projective", "so3"):
        lead = [c for c in y if abs(c) > 1e-9]
        if lead and lead[0] < 0.0:
            y = -y
    return y


def nnls(A, b):
    """Lawson-Hanson active-set solution of min |A x - b| over x >= 0
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23): the
    reference for geocheck.hull_membership.

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


def _hull_lsq(V, q):
    """(A, b, scale) of hull membership: A stacks V^T over the row
    scale * 1^T, b = (q, scale) and scale = 1 + max |V_ij|."""
    scale = 1.0 + float(np.abs(V).max(initial=0.0))
    A = np.vstack([V.T, scale * np.ones(len(V))])
    return A, np.concatenate([q, [scale]]), scale


def nnls_in_hull(V, q, tol):
    """Whether the chart point q is within tol of the convex hull of the
    rows of V by the NNLS residual: |A x - b| <= tol * scale at the NNLS
    solution x (_hull_lsq)."""
    A, b, scale = _hull_lsq(V, q)
    return float(np.linalg.norm(A @ nnls(A, b) - b)) <= tol * scale


def face_in_hull(V, q, tol):
    """Whether some face of 1 to dim+1 rows of V has a least-squares
    solution x >= 0 with |A_F x - b| <= tol * scale (_hull_lsq): a
    witness that q is within tol of the hull.  Lawson-Hanson misses one
    where a vertex lies within about 1e-7 of a face (or another vertex)
    that its solution rests on, as the gradient w that would add it is
    then below the float noise of w, about eps * scale^2."""
    A, b, scale = _hull_lsq(V, q)
    for k in range(1, min(len(V), V.shape[1] + 1) + 1):
        for face in itertools.combinations(range(len(V)), k):
            x = np.linalg.lstsq(A[:, face], b, rcond=None)[0]
            if ((x >= 0.0).all()
                    and np.linalg.norm(A[:, face] @ x - b) <= tol * scale):
                return True
    return False
