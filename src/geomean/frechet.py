"""The objective f_p, its gradient, and Hessian eigenvalue bounds.

f_p(x) = (1/p) sum_i w_i d(x, x_i)^p  for  2 <= p < infinity.

The gradient is -sum_i w_i d(x,x_i)^(p-2) log_x(x_i); for p = 2 the factor
d^0 is taken to be 1 even at d = 0 (half of d^2 is smooth there).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, DomainError, PreconditionError
from .kernels import b_lower, c_upper
from .manifolds import ManifoldSpace, space_from_json


@dataclass
class WeightedDataset:
    """Data points with weights and a ball B(o, rho) certified to hold them."""

    space: ManifoldSpace
    points: np.ndarray          # (N, ambient_dim)
    weights: np.ndarray         # (N,), nonnegative, sums to 1
    ball_center: np.ndarray
    ball_radius: float

    @property
    def n_points(self):
        return len(self.points)

    @property
    def uniqueness_certified(self):
        """True when rho <= r_cx, so the center of mass is unique."""
        return self.ball_radius <= self.space.constants().r_cx

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "points": [list(map(float, p)) for p in self.points],
            "weights": [float(w) for w in self.weights],
            "ball": {"center": list(map(float, self.ball_center)),
                     "radius": float(self.ball_radius)},
        }


def make_dataset(space, points, weights=None, ball_center=None, ball_radius=None):
    """Validate and assemble a WeightedDataset.

    Weights default to uniform.  A weight sum within 1e-9 of 1 is
    renormalized exactly once; anything worse is rejected.  Points must
    lie in the closed ball (boundary allowed up to rounding, so symmetric
    configurations placed exactly on the sphere of radius rho validate).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n < 1:
        raise DomainError("dataset needs at least one point")
    space.check_points(points)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise DomainError(f"got {len(weights)} weights for {n} points")
        if np.any(weights < -1e-12) or np.any(weights > 1.0 + 1e-9):
            raise DomainError("weights must lie in [0, 1]")
        weights = np.clip(weights, 0.0, None)
        s = float(weights.sum())
        if abs(s - 1.0) > 1e-9:
            raise DomainError(f"weights sum to {s}, not 1")
        weights = weights / s
    if ball_center is None or ball_radius is None:
        raise DomainError("dataset needs an enclosing ball (o, rho)")
    ball_center = space.check_point(ball_center)
    ball_radius = float(ball_radius)
    if not 0.0 <= ball_radius < math.inf:
        raise DomainError(f"ball radius must be finite and >= 0, got {ball_radius}")
    slack = 1e-9 * max(1.0, ball_radius)
    d = space.dist_many(ball_center, points)
    outside = d > ball_radius + slack
    if outside.any():
        i = int(np.argmax(outside))
        raise DomainError(f"point {i} at distance {float(d[i])} outside ball "
                          f"of radius {ball_radius}")
    return WeightedDataset(space, points, weights, ball_center, ball_radius)


def dataset_from_json(obj, ball_fallback=None):
    """Load a dataset from the JSON schema; `ball_fallback(space, points)`
    supplies (center, radius) when the "ball" entry is absent."""
    space = space_from_json(obj["space"])
    points = np.atleast_2d(np.asarray(obj["points"], dtype=float))
    weights = obj.get("weights")
    ball = obj.get("ball")
    if ball is not None:
        center = np.asarray(ball["center"], dtype=float)
        radius = float(ball["radius"])
    elif ball_fallback is not None:
        space.check_points(points)  # the fallback needs valid points
        center, radius = ball_fallback(space, points)
    else:
        raise DomainError("dataset JSON has no ball and no fallback was given")
    return make_dataset(space, points, weights, center, radius)


def _check_p(p):
    p = float(p)
    if not (2.0 <= p < math.inf):
        raise DomainError(f"exponent p must satisfy 2 <= p < inf, got {p}")
    return p


def cost(ds, p, x):
    p = _check_p(p)
    return float(ds.weights @ ds.space.dist_many(x, ds.points) ** p) / p


def cost_gradient(ds, p, x):
    """(f_p(x), grad f_p(x)) from one log_dist_many over the data: the
    values of cost and gradient, bit for bit.

    Raises CutLocusError with the offending data index if x sits in the
    cut-locus band of some x_i (cost alone is still defined there).
    """
    p = _check_p(p)
    try:
        logs, d = ds.space.log_dist_many(x, ds.points)
    except CutLocusError as e:
        raise CutLocusError(f"gradient: data point {e.index} at cut locus: {e}",
                            index=e.index) from None
    w = ds.weights if p == 2.0 else ds.weights * d ** (p - 2.0)
    return float(ds.weights @ d ** p) / p, -(w @ logs)


def gradient(ds, p, x):
    """Riemannian gradient of f_p at x (ambient tangent array); raises
    cost_gradient's CutLocusError."""
    return cost_gradient(ds, p, x)[1]


def grad_norm(ds, p, x):
    g = gradient(ds, p, x)
    return float(ds.space.norm(x, g))


def hessian_radial_bounds(space, d_xy):
    """Eigenvalue bounds {lower, upper} of the Hessian of x -> d(x,y)^2/2
    at distance d_xy, from the space's curvature bounds (delta, Delta)."""
    cst = space.constants()
    top = cst.inj
    if cst.Delta > 0:
        top = min(top, math.pi / math.sqrt(cst.Delta))
    if d_xy >= top:
        raise DomainError(
            f"hessian_radial_bounds: d={d_xy} >= min(inj, pi/sqrt(Delta))={top}")
    return {"lower": b_lower(cst.Delta, d_xy), "upper": c_upper(cst.delta, d_xy)}


def uniform_hessian_bound(space, rho, p):
    """H_{B(o,rho),p} = (2 rho)^(p-2) max(p-1, c_delta(2 rho)), valid for
    rho <= r_cx."""
    p = _check_p(p)
    cst = space.constants()
    if rho > cst.r_cx:
        raise PreconditionError(
            f"uniform_hessian_bound: rho={rho} exceeds r_cx={cst.r_cx}")
    if not rho > 0:
        raise DomainError(f"uniform_hessian_bound: need rho > 0, got {rho}")
    return (2.0 * rho) ** (p - 2.0) * max(p - 1.0, c_upper(cst.delta, 2.0 * rho))


def fd_hessian_quadratic_form(ds, p, x, u):
    """Central second difference of f_p along the unit direction u at x,
    with step h = 1e-4 min(1, inj)."""
    sp = ds.space
    h = 1e-4 * min(1.0, sp.constants().inj)
    u = np.asarray(u, dtype=float)
    fp = cost(ds, p, sp.exp(x, h * u))
    f0 = cost(ds, p, x)
    fm = cost(ds, p, sp.exp(x, -h * u))
    return (fp - 2.0 * f0 + fm) / (h * h)
