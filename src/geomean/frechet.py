"""The objective f_p, its gradient, and Hessian eigenvalue bounds.

f_p(x) = (1/p) sum_i w_i d(x, x_i)^p  for  2 <= p < infinity.

The gradient is -sum_i w_i d(x,x_i)^(p-2) log_x(x_i); for p = 2 the factor
d^0 is taken to be 1 even at d = 0 (half of d^2 is smooth there).  With
log_x(x_i) = s_i u_i, u_i the part of x_i tangential at x and
s_i = d(x,x_i)/|u_i|, it is one weighted sum of the u_i.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CutLocusError, DomainError, PreconditionError
from .kernels import b_lower, c_upper
from .manifolds import ManifoldSpace, json_float, space_from_json


@dataclass
class WeightedDataset:
    """Data points with weights and a ball B(o, rho) certified to hold them."""

    space: ManifoldSpace
    points: np.ndarray          # (N, ambient_dim)
    weights: np.ndarray         # (N,), nonnegative, sums to 1
    ball_center: np.ndarray
    ball_radius: float

    @property
    def uniqueness_certified(self):
        """True when rho <= r_cx, so the center of mass is unique."""
        return self.ball_radius <= self.space.constants().r_cx


def make_dataset(space, points, weights=None, ball_center=None, ball_radius=None):
    """Validate and assemble a WeightedDataset.

    Weights default to uniform.  A weight sum within 1e-9 of 1 is
    renormalized exactly once; anything worse is rejected.  Points must
    lie in the closed ball (boundary allowed up to rounding, so symmetric
    configurations placed exactly on the sphere of radius rho validate).
    The points and the center are validated in one check_points pass
    where they pass it; otherwise the checks run in the order above, so
    the first error raised is the same either way.
    """
    points = _point_rows(points)
    n = len(points)
    center = _checked_with_points(space, points, ball_center)
    if center is None:
        space.check_points(points)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise DomainError(f"got {len(weights)} weights for {n} points")
        lo = weights.min()   # NaN if any weight is
        if not (lo >= -1e-12 and weights.max() <= 1.0 + 1e-9):
            raise DomainError("weights must lie in [0, 1]")
        if not lo > 0.0:   # clip also turns -0.0 into 0.0
            weights = np.clip(weights, 0.0, None)
        s = float(weights.sum())
        if abs(s - 1.0) > 1e-9:
            raise DomainError(f"weights sum to {s}, not 1")
        weights = weights / s
    if ball_center is None or ball_radius is None:
        raise DomainError("dataset needs an enclosing ball (o, rho)")
    if center is None:
        center = space.check_point(ball_center)
    ball_radius = float(ball_radius)
    if not 0.0 <= ball_radius < math.inf:
        raise DomainError(f"ball radius must be finite and >= 0, got {ball_radius}")
    slack = 1e-9 * max(1.0, ball_radius)
    d = space.dist_many(center, points)
    # fmax skips NaN distances, as the elementwise test does
    if np.fmax.reduce(d, initial=-math.inf) > ball_radius + slack:
        i = int(np.argmax(d > ball_radius + slack))
        raise DomainError(f"point {i} at distance {float(d[i])} outside ball "
                          f"of radius {ball_radius}")
    return WeightedDataset(space, points, weights, center, ball_radius)


def _point_rows(points):
    """points as an (N, D) float array, a single point given flat as one
    row; DomainError where there is no point, before atleast_2d makes an
    empty list one row of no coordinates."""
    points = np.asarray(points, dtype=float)
    if points.ndim and not len(points):
        raise DomainError("dataset needs at least one point")
    return np.atleast_2d(points)


def _checked_with_points(space, points, ball_center):
    """ball_center as a float array when it has the points' shape and
    it and the points pass one check_points on the stacked rows; else
    None, whatever failed, and make_dataset checks them one by one."""
    if ball_center is None:
        return None
    try:
        center = np.asarray(ball_center, dtype=float)
        if points.ndim != 2 or center.shape != points.shape[1:]:
            return None
        space.check_points(np.concatenate((points, center[np.newaxis])))
    except (DomainError, TypeError, ValueError, OverflowError):
        return None
    return center


def dataset_from_json(obj, ball_fallback=None):
    """Load a dataset from the JSON schema; `ball_fallback(space, points)`
    supplies (center, radius) when the "ball" entry is absent.  A value
    of the wrong JSON type raises DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"dataset must be an object, got {type(obj).__name__}")
    space = space_from_json(obj["space"])
    points = _point_rows(_json_array(obj["points"], "points"))
    weights = obj.get("weights")
    if weights is not None:
        weights = _json_array(weights, "weights")
    ball = obj.get("ball")
    if ball is not None:
        if not isinstance(ball, dict):
            raise DomainError(f"ball must be an object, got {type(ball).__name__}")
        center = _json_array(ball["center"], "ball center")
        radius = json_float(ball["radius"], "ball radius")
    elif ball_fallback is not None:
        space.check_points(points)  # the fallback needs valid points
        center, radius = ball_fallback(space, points)
    else:
        raise DomainError("dataset JSON has no ball and no fallback was given")
    return make_dataset(space, points, weights, center, radius)


def _json_array(value, what):
    """A JSON array of numbers, nested for points, as a float array.  An
    element that is not a number, a boolean among them, raises
    DomainError, as json_float does for one value."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be an array, got {type(value).__name__}")
    array = _plain_numbers(value)
    if array is not None:
        return array
    _refuse_non_numbers(value, what)
    try:   # ragged or deeper rows, or numbers numpy keeps as objects
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"{what}: {e}") from None


def _plain_numbers(value):
    """value as a float array when it is a list of numbers, or of rows of
    numbers of one length, none of them a boolean; else None.  numpy
    reads one flat list faster than rows, and the dtype it infers tells
    numbers from other values, but for booleans, which read 0 or 1."""
    flat, shape = value, (len(value),)
    if value and type(value[0]) is list:
        try:
            if len(set(map(len, value))) != 1:
                return None
        except TypeError:   # a row that is a number
            return None
        flat = list(chain.from_iterable(value))
        shape = (len(value), len(value[0]))
    try:
        array = np.array(flat)
    except ValueError:   # rows of rows of several lengths
        return None
    if array.dtype.kind not in "fiu" or array.ndim != 1:
        return None
    maybe_bool = np.flatnonzero((array == 0) | (array == 1)).tolist()
    if any(type(flat[i]) is bool for i in maybe_bool):
        return None
    return array.astype(float, copy=False).reshape(shape)


def _refuse_non_numbers(value, what):
    """Raise DomainError naming `what` at the first element of the nested
    lists in value that is not a number (booleans are not)."""
    for v in value:
        if isinstance(v, list):
            _refuse_non_numbers(v, what)
        elif isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise DomainError(
                f"{what} must hold numbers, got {type(v).__name__}")


def check_p(p):
    p = float(p)
    if not (2.0 <= p < math.inf):
        raise DomainError(f"exponent p must satisfy 2 <= p < inf, got {p}")
    return p


def cost(ds, p, x):
    p = check_p(p)
    return float(ds.weights @ ds.space.dist_many(x, ds.points) ** p) / p


def cost_gradient(ds, p, x):
    """(f_p(x), grad f_p(x)) from one _log_scales over the data: cost's
    value, bit for bit, and the gradient as one product -((w s) @ U).

    Raises CutLocusError with the offending data index if x sits in the
    cut-locus band of some x_i (cost alone is still defined there).
    """
    p = check_p(p)
    try:
        U, s, d = ds.space._log_scales(x, ds.points)
    except CutLocusError as e:
        raise CutLocusError(f"gradient: data point {e.index} at cut locus: {e}",
                            index=e.index) from None
    w = ds.weights if p == 2.0 else ds.weights * d ** (p - 2.0)
    return float(ds.weights @ d ** p) / p, -((w * s) @ U)


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
    rho <= r_cx.  Raises DomainError where H is too large or too small
    for the steps 1/H and 2/H to be finite and positive."""
    p = check_p(p)
    cst = space.constants()
    if rho > cst.r_cx:
        raise PreconditionError(
            f"uniform_hessian_bound: rho={rho} exceeds r_cx={cst.r_cx}")
    if not rho >= 0:
        raise DomainError(f"uniform_hessian_bound: need rho >= 0, got {rho}")
    try:
        H = (2.0 * rho) ** (p - 2.0) * max(p - 1.0, c_upper(cst.delta, 2.0 * rho))
    except OverflowError:
        H = math.inf
    if not 2.0 / sys.float_info.max <= H < math.inf:
        raise DomainError(f"uniform_hessian_bound: H={H} out of range at "
                          f"rho={rho}, p={p}")
    return H


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
