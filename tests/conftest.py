import math

import numpy as np
import pytest
from hypothesis import settings

from geomean import geocheck
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
