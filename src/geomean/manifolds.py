"""Constant-curvature model spaces with exp/log maps and geometric constants.

Points are plain numpy arrays in an extrinsic embedding:

  * Euclidean(n): vectors in R^n.
  * Sphere(n, kappa>0) and Circle(kappa>0): unit vectors in R^{n+1}; the
    metric scales distances by 1/sqrt(kappa).
  * Hyperbolic(n, kappa<0): hyperboloid vectors X with <X,X>_M = -1/|kappa|,
    time coordinate first and positive.
  * RealProjective(n, kappa>0) and SO3: unit vectors up to sign, stored with
    a canonical representative (first coordinate of magnitude > 1e-9 made
    positive).  SO3 is RealProjective(3) on unit quaternions with kappa=1/4,
    which makes the distance the rotation angle 2*arccos|<q1,q2>|.

Tangent vectors at x are ambient arrays orthogonal to x under the ambient
(or Minkowski) inner product; their stored norm equals the geodesic speed.

Each space evaluates a pair (distance, log, log_dist, exp) with scalar
code, and N points at once (dist_many, log_dist_many, exp_many) with the
same formulas on an (N, D) array.  Single-pair callers such as the descent
step itself, the ball-estimate sweep's step, the oracles and Chart use the
first; sums over the data points and the solver's monitor substeps use the
second, which costs more than the scalar code for one pair.  The sweep
picks its far point with _farthest: the first maximum of dist_many, read
off one ambient product where a rounding margin certifies the order.
Norms are numpy's own definition of np.linalg.norm for these arguments,
math.sqrt(u.dot(u)) for one vector and _norm_rows for the rows of an
array, without its argument handling.

Angles near 0 and pi are computed via atan2 of a projected norm rather
than arccos, so distances stay accurate right up to the cut locus (needed
for the cut-locus guard band of log to fire reliably).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CutLocusError, DomainError
from .kernels import sn_jacobi

_CANON_TOL = 1e-9  # first coordinate of magnitude above this fixes the sign
_MAX_COORD = 1e150  # below this, sums of squared coordinates stay finite
# Hyperbolic: a tangent's Minkowski norm at x is good to about
# eps*(x0/R)^2, so log refuses a base point past this time coordinate
# (about 6 digits left) as an overflow; the distance, from the Minkowski
# product alone at such a separation, keeps full precision there
_MAX_BASE = 2.0 ** 16


@dataclass(frozen=True)
class SpaceConstants:
    """Geometric constants of a space: injectivity radius, convexity radius,
    and the curvature bounds (delta, Delta) used in Hessian estimates."""
    inj: float
    r_cx: float
    delta: float
    Delta: float


class ManifoldSpace:
    """Base class; concrete spaces implement the embedding-specific parts."""

    kind = None

    def __init__(self, dim, kappa):
        self.dim = int(dim)
        if self.dim < 1:
            raise DomainError(f"{self.kind}: need dim >= 1, got {dim}")
        self.kappa = float(kappa)

    # -- subclass responsibilities -------------------------------------
    def project(self, x):
        raise NotImplementedError

    def _tangential(self, x, y):
        """(u, |u|, d(x, y)): the part u of y tangential at x, its norm
        and the distance, from one evaluation of the pair."""
        raise NotImplementedError

    def _tangential_many(self, x, P):
        """_tangential over the last axis of P, the same formulas on
        arrays: (U, |U|, d) for points x and P whose leading axes
        broadcast, e.g. x of shape (D,) against P of shape (N, D)."""
        raise NotImplementedError

    def exp(self, x, v):
        raise NotImplementedError

    def exp_many(self, x, V):
        """exp over the rows of an (N, D) array V of tangent vectors at x,
        the same formulas on arrays: row i is exp(x, V[i])."""
        raise NotImplementedError

    def inner(self, x, u, v):
        """Riemannian inner product of tangent vectors at x."""
        raise NotImplementedError

    def tangent_project(self, x, g):
        """Orthogonal projection of an ambient vector onto T_x."""
        raise NotImplementedError

    def constants(self):
        """The SpaceConstants built once at construction."""
        return self._constants

    def random_point(self, rng):
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------
    def distance(self, x, y):
        return self._tangential(x, y)[2]

    def log(self, x, y):
        return self.log_dist(x, y)[0]

    def log_dist(self, x, y):
        """(log_x y, d(x, y)); raises CutLocusError in the cut-locus band."""
        u, nu, d = self._tangential(x, y)
        if d >= self._band_start():
            raise self._cut_locus_error(d)
        if d == 0.0:
            return np.zeros_like(np.asarray(x, dtype=float)), d
        return (d / nu) * u, d

    def dist_many(self, x, P):
        """Distances d(x, P[i]) over the rows of P, as one array."""
        return self._tangential_many(x, P)[2]

    def _farthest(self, x, P):
        """Index of the row of an (N, D) array P farthest from x: the
        first maximum of dist_many(x, P), which raises where it raises."""
        return int(np.argmax(self.dist_many(x, P)))

    def _farthest_by_key(self, x, P, keys, margin):
        """_farthest(x, P) from keys, one per row, that fall strictly as
        the distance grows: the row with the smallest key, when that key
        lies below every other by more than `margin`.

        The caller's margin exceeds the rounding of its keys plus that of
        dist_many's distances, taken through the monotone relation, so a
        gap above it orders the computed distances the same way and the
        first maximum of dist_many is that row.  Ties, near-ties, a
        non-finite key or margin, and a single row take the base path.
        """
        k = keys.tolist()
        if len(k) > 1 and math.isfinite(sum(k)):
            lo, second = sorted(k)[:2]
            if second - lo > margin:
                return k.index(lo)
        return ManifoldSpace._farthest(self, x, P)

    def log_dist_many(self, x, P):
        """(logs, d) over the rows of an (N, D) array P: row i is
        log_dist(x, P[i]).  The first row in the cut-locus band raises the
        CutLocusError log_dist raises for it, with `index` set to the row."""
        U, nU, d = self._tangential_many(x, P)
        band = d >= self._band_start()
        if band.any():
            i = int(np.argmax(band))
            raise self._cut_locus_error(d[i], index=i)
        scale = np.divide(d, nU, out=np.zeros_like(d), where=d != 0.0)
        return scale[:, np.newaxis] * U, d

    def _band_start(self):
        """Distance from which log refuses: the cut-locus guard band below
        inj (never reached when inj is infinite)."""
        return self._constants.inj * (1.0 - _CANON_TOL)

    def _cut_locus_error(self, d, index=None):
        return CutLocusError(
            f"{self.kind}: log at distance {float(d)} within cut-locus band "
            f"of inj={self._constants.inj}", index=index)

    @property
    def ambient_dim(self):
        return self.dim if self.kind == "euclidean" else self.dim + 1

    def norm(self, x, v):
        return math.sqrt(max(self.inner(x, v, v), 0.0))

    def geodesic(self, x, v, t):
        """Point at parameter t along the geodesic from x with velocity v."""
        return self.exp(x, t * np.asarray(v, dtype=float))

    def check_point(self, x):
        """Validate the representation constraint; raises DomainError."""
        x = np.asarray(x, dtype=float)
        self.check_points(x[np.newaxis])
        return x

    def check_points(self, X):
        """Validate the rows of an (N, D) array in one pass; raises the
        DomainError of the first bad row (shape, then finiteness, then
        a representation error above 1e-12)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.ambient_dim:
            raise DomainError(f"{self.kind}: point shape {X.shape[1:]}, "
                              f"expected ({self.ambient_dim},)")
        finite = np.isfinite(X).all(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            err = self._constraint_errors(X)
        bad = ~(finite & (err <= 1e-12))  # also rejects a NaN error
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                raise DomainError(f"{self.kind}: non-finite coordinate in {X[i]}")
            raise DomainError(
                f"{self.kind}: representation violated by {err[i]:.3e}")

    def _constraint_errors(self, X):
        """Representation error of each row of X."""
        return np.zeros(len(X))

    def random_unit_tangent(self, x, rng):
        """Uniform direction on the unit sphere of T_x."""
        while True:
            v = self.tangent_project(x, rng.standard_normal(self.ambient_dim))
            n = self.norm(x, v)
            if n > 1e-8:
                return v / n

    def random_in_ball(self, center, radius, rng):
        """Uniform sample from the geodesic ball B(center, radius).

        Direction is uniform on the tangent sphere; the radius is drawn by
        rejection against the volume density sn(r)^(n-1) (Jacobi sine of
        the geometric curvature, so flat means density r^(n-1)).
        """
        if radius < 0:
            raise DomainError("random_in_ball: negative radius")
        if radius == 0:
            return center.copy()
        n = self.dim
        if n == 1:
            r = radius * rng.uniform()
        else:
            top = sn_jacobi(self.kappa, radius)
            while True:
                r = radius * rng.uniform()
                if rng.uniform() <= (sn_jacobi(self.kappa, r) / top) ** (n - 1):
                    break
        return self.exp(center, r * self.random_unit_tangent(center, rng))

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "kappa": self.kappa}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, kappa={self.kappa})"


class Euclidean(ManifoldSpace):
    kind = "euclidean"

    def __init__(self, dim):
        super().__init__(dim, 0.0)
        self._constants = SpaceConstants(inj=math.inf, r_cx=math.inf,
                                         delta=0.0, Delta=0.0)

    def project(self, x):
        return np.asarray(x, dtype=float)

    def _tangential(self, x, y):
        u = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        nu = math.sqrt(u.dot(u))
        return u, nu, nu

    def _tangential_many(self, x, P):
        U = P - x
        nU = _norm_rows(U)
        return U, nU, nU

    def log_dist(self, x, y):
        u, nu, _ = self._tangential(x, y)
        return u, nu

    def log_dist_many(self, x, P):
        U, nU, _ = self._tangential_many(x, P)
        return U, nU

    def exp(self, x, v):
        return np.asarray(x, dtype=float) + np.asarray(v, dtype=float)

    def exp_many(self, x, V):
        return np.asarray(x, dtype=float) + np.asarray(V, dtype=float)

    def inner(self, x, u, v):
        return float(np.dot(u, v))

    def tangent_project(self, x, g):
        return np.asarray(g, dtype=float)

    def random_point(self, rng):
        return rng.standard_normal(self.dim)


class Sphere(ManifoldSpace):
    """Round sphere of curvature kappa > 0, radius 1/sqrt(kappa) in effect."""

    kind = "sphere"

    def __init__(self, dim, kappa=1.0):
        if not 0 < kappa < math.inf:
            raise DomainError(f"Sphere: need finite kappa > 0, got {kappa}")
        super().__init__(dim, kappa)
        self._rk = math.sqrt(kappa)
        inj = math.pi / self._rk
        self._constants = SpaceConstants(inj=inj, r_cx=inj / 2.0,
                                         delta=self.kappa, Delta=self.kappa)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x / math.sqrt(x.dot(x))

    def _constraint_errors(self, X):
        return np.abs(_norm_rows(X) - 1.0)

    def _tangential(self, x, y):
        cosq = float(np.dot(x, y))
        u = y - cosq * x
        nu = math.sqrt(u.dot(u))
        # the angle via atan2 stays stable at both 0 and pi
        return u, nu, math.atan2(nu, cosq) / self._rk

    def _tangential_many(self, x, P):
        cosq = _dot_rows(P, x)
        U = P - cosq[..., np.newaxis] * x
        nU = _norm_rows(U)
        return U, nU, np.arctan2(nU, cosq) / self._rk

    def _farthest(self, x, P):
        """The distance is the angle arccos<x, p>, which falls strictly
        as the cosine P @ x grows.  A cosine is rounded by about D eps,
        and check_points leaves a norm off 1 by up to 1e-12; dist_many's
        angle is good to a few eps plus that norm error.  arccos has
        slope at least 1, so a cosine gap of 1e-9 orders the computed
        angles, and dividing by sqrt(kappa) keeps that order."""
        return self._farthest_by_key(x, P, P @ x, 1e-9)

    def exp(self, x, v):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            nv = math.sqrt(v.dot(v))
        if nv == 0.0:
            return np.asarray(x, dtype=float).copy()
        if not math.isfinite(nv):
            raise DomainError(f"{self.kind}: exp step of length {nv} overflows")
        th = self._rk * nv
        return self.project(math.cos(th) * x + math.sin(th) * (v / nv))

    def exp_many(self, x, V):
        """Rows whose step length is not finite (exp raises for them)
        come back as NaN rows, without a numpy warning."""
        V = np.asarray(V, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            nV = _norm_rows(V)[:, np.newaxis]
            zero = nV == 0.0
            th = self._rk * nV
            Y = np.cos(th) * x + np.sin(th) * (V / np.where(zero, 1.0, nV))
            Y /= _norm_rows(Y)[:, np.newaxis]
        return np.where(zero, x, Y)

    def inner(self, x, u, v):
        return float(np.dot(u, v))

    def tangent_project(self, x, g):
        g = np.asarray(g, dtype=float)
        return g - float(np.dot(g, x)) * x

    def random_point(self, rng):
        return self.project(rng.standard_normal(self.ambient_dim))


class Circle(Sphere):
    """The circle of curvature parameter kappa (radius 1/sqrt(kappa)).

    Intrinsically flat: inj = pi/sqrt(kappa) comes from the topology, but
    the curvature bounds for Hessian estimates are delta = Delta = 0.
    """

    kind = "circle"

    def __init__(self, kappa=1.0):
        super().__init__(1, kappa)
        self._constants = replace(self._constants, delta=0.0, Delta=0.0)

    def point_from_angle(self, theta):
        """Point at arc-length coordinate theta/sqrt(kappa) from (1,0)."""
        return np.array([math.cos(theta), math.sin(theta)])

    def angle(self, x):
        """Inverse of point_from_angle, in (-pi, pi]."""
        a = math.atan2(x[1], x[0])
        return a if a > -math.pi else math.pi


class RealProjective(Sphere):
    """Real projective space RP^n: unit vectors modulo sign."""

    kind = "real_projective"

    def __init__(self, dim, kappa=1.0):
        super().__init__(dim, kappa)
        inj = self._constants.inj / 2.0   # antipodes are identified
        self._constants = replace(self._constants, inj=inj, r_cx=inj / 2.0)

    def project(self, x):
        return _canonical_sign(super().project(x))

    def _lift(self, x, y):
        """Representative of y on the same side as x (nearest lift)."""
        return y if float(np.dot(x, y)) >= 0.0 else -y

    def _tangential(self, x, y):
        return Sphere._tangential(self, x, self._lift(x, y))

    def _tangential_many(self, x, P):
        lift = np.where(_dot_rows(P, x) >= 0.0, 1.0, -1.0)
        return Sphere._tangential_many(self, x, lift[..., np.newaxis] * P)

    def _farthest(self, x, P):
        """Sphere._farthest on the nearest lifts: the distance falls
        strictly as |P @ x| grows."""
        return self._farthest_by_key(x, P, np.abs(P @ x), 1e-9)

    def exp(self, x, v):
        return _canonical_sign(Sphere.exp(self, x, v))

    def exp_many(self, x, V):
        return _canonical_sign_rows(Sphere.exp_many(self, x, V))


class SO3(RealProjective):
    """Rotation group as unit quaternions modulo sign.

    With kappa = 1/4 the induced distance is the rotation angle
    2*arccos|<q1,q2>| in [0, pi]; inj = pi and r_cx = pi/2.
    """

    kind = "so3"

    def __init__(self):
        super().__init__(3, 0.25)

    @staticmethod
    def from_axis_angle(axis, angle):
        axis = np.asarray(axis, dtype=float)
        axis = axis / math.sqrt(axis.dot(axis))
        h = 0.5 * angle
        return _canonical_sign(np.concatenate(([math.cos(h)], math.sin(h) * axis)))

    @staticmethod
    def identity():
        return np.array([1.0, 0.0, 0.0, 0.0])


class Hyperbolic(ManifoldSpace):
    """Hyperboloid model of curvature kappa < 0, time coordinate first."""

    kind = "hyperbolic"

    def __init__(self, dim, kappa=-1.0):
        if not -math.inf < kappa < 0:
            raise DomainError(f"Hyperbolic: need finite kappa < 0, got {kappa}")
        super().__init__(dim, kappa)
        self._R = 1.0 / math.sqrt(-kappa)
        self._constants = SpaceConstants(inj=math.inf, r_cx=math.inf,
                                         delta=kappa, Delta=kappa)
        # P @ (self._time_flip * x) is the Minkowski product of each row
        self._time_flip = np.ones(self.ambient_dim)
        self._time_flip[0] = -1.0

    def minkowski(self, u, v):
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    @staticmethod
    def _minkowski_rows(U, V):
        return -U[..., 0] * V[..., 0] + _dot_rows(U[..., 1:], V[..., 1:])

    def project(self, x):
        x = np.asarray(x, dtype=float).copy()
        # recompute the time coordinate from the spatial part
        x[0] = math.sqrt(self._R**2 + float(np.dot(x[1:], x[1:])))
        if not math.isfinite(x[0]):  # a non-finite or overflowing spatial part
            raise DomainError(f"{self.kind}: point {x} is not finite")
        return x

    def _constraint_errors(self, X):
        # relative to x0^2, the size of the cancelling terms
        err = (np.abs(self._minkowski_rows(X, X) + self._R**2)
               / (1.0 + X[:, 0] ** 2))
        return np.where(X[:, 0] <= 0, math.inf, err)

    def _tangential(self, x, y):
        R = self._R
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.minkowski(x, y)
            u = y + (m / R**2) * x
            nu = math.sqrt(max(self.minkowski(u, u), 0.0))
        # u has Minkowski norm R*sinh(d/R): asinh keeps full precision at
        # small separations where arccosh would not
        ch = -m / R**2
        if ch < 2.0:
            d = R * math.asinh(nu / R)
        else:
            d = R * math.acosh(max(ch, 1.0))
        if not math.isfinite(d):
            raise self._overflow_error(x, y)
        return u, nu, d

    def _tangential_many(self, x, P):
        R = self._R
        with np.errstate(over="ignore", invalid="ignore"):
            m = self._minkowski_rows(x, P)
            U = P + (m / R**2)[..., np.newaxis] * x
            nU = np.sqrt(np.maximum(self._minkowski_rows(U, U), 0.0))
            ch = -m / R**2
            d = np.where(ch < 2.0, R * np.arcsinh(nU / R),
                         R * np.arccosh(np.maximum(ch, 1.0)))
        self._raise_first(~np.isfinite(d), x, P)
        return U, nU, d

    def _farthest(self, x, P):
        """The distance is R acosh(-m / R^2) in the Minkowski product
        m = <x, p>, so it falls strictly as m grows.  With s = |x0| max|P0|
        (at least R^2), m and dist_many's acosh branch are rounded by
        about (D + 1) eps s; its asinh branch, below cosh = 2, where p0
        and x0 are within a factor e^{acosh 2} < 4 of each other, by about
        100 (D + 1) eps s, and by 1e-12 (1 + s) more from check_points'
        representation tolerance, all in units of m.  A gap of
        1e-9 (1 + s) orders the computed distances.  The keys are used
        only where s and s / R^2 stay below 1e300, where every product in
        dist_many is finite, so it would not raise; a base point far out
        (s large against the gaps) leaves the gap test to fail."""
        s = abs(float(x[0])) * float(np.abs(P[:, 0]).max())
        if not s * max(1.0, 1.0 / self._R**2) < 1e300:
            return ManifoldSpace._farthest(self, x, P)
        return self._farthest_by_key(x, P, P @ (self._time_flip * x),
                                     1e-9 * (1.0 + s))

    def log_dist(self, x, y):
        u, nu, d = self._tangential(x, y)
        if not (math.isfinite(nu) and x[0] <= _MAX_BASE * self._R):
            raise self._overflow_error(x, y)
        if d == 0.0:
            return np.zeros_like(u), d
        return (d / nu) * u, d

    def log_dist_many(self, x, P):
        U, nU, d = self._tangential_many(x, P)
        self._raise_first(~(np.isfinite(nU) & (x[..., 0] <= _MAX_BASE * self._R)),
                          x, P)
        scale = np.divide(d, nU, out=np.zeros_like(d), where=d != 0.0)
        return scale[:, np.newaxis] * U, d

    def _raise_first(self, bad, x, P):
        """Raise the overflow error of the first pair of x and P marked bad."""
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            X, P = np.broadcast_arrays(x, P)
            raise self._overflow_error(X[i], P[i])

    def _overflow_error(self, x, y):
        """The error of a pair whose tangential part is not finite, or is
        lost to cancellation: the points are too far apart for the
        hyperboloid coordinates."""
        return DomainError(
            f"{self.kind}: distance between points with time coordinates "
            f"{float(x[0]):.6g} and {float(y[0]):.6g} overflows")

    def exp(self, x, v):
        v = np.asarray(v, dtype=float)
        # a step whose length overflows leaves y[0] inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            nv = math.sqrt(max(self.minkowski(v, v), 0.0))
            if nv == 0.0:
                return np.asarray(x, dtype=float).copy()
            th = nv / self._R
            try:
                y = math.cosh(th) * x + (self._R * math.sinh(th) / nv) * v
            except OverflowError:
                y = None
        # |y_spatial| < y[0], so below the cap project's sum of squares
        # stays finite
        if y is None or not abs(y[0]) < _MAX_COORD:
            raise DomainError(f"{self.kind}: exp step of length {nv} overflows")
        return self.project(y)

    def exp_many(self, x, V):
        """Rows for which exp raises its overflow DomainError (cosh
        overflows, the step length is not finite, or the time coordinate
        reaches the cap) come back as NaN rows, without a numpy warning."""
        V = np.asarray(V, dtype=float)
        R = self._R
        with np.errstate(over="ignore", invalid="ignore"):
            nV = np.sqrt(np.maximum(self._minkowski_rows(V, V), 0.0))
            zero = nV == 0.0
            th = nV / R
            ch = np.cosh(th)
            coef = R * np.sinh(th) / np.where(zero, 1.0, nV)
            Y = ch[:, np.newaxis] * x + coef[:, np.newaxis] * V
            bad = ~(np.isfinite(ch) & np.isfinite(nV)
                    & (np.abs(Y[:, 0]) < _MAX_COORD))
            Y[:, 0] = np.sqrt(R**2 + _dot_rows(Y[:, 1:], Y[:, 1:]))  # project
        Y[bad | ~np.isfinite(Y[:, 0])] = math.nan
        return np.where(zero[:, np.newaxis], x, Y)

    def inner(self, x, u, v):
        return self.minkowski(u, v)

    def tangent_project(self, x, g):
        g = np.asarray(g, dtype=float)
        return g + (self.minkowski(g, x) / self._R**2) * x

    def random_point(self, rng):
        origin = np.zeros(self.ambient_dim)
        origin[0] = self._R
        v = self.tangent_project(origin, rng.standard_normal(self.ambient_dim))
        return self.exp(origin, v)


def _dot_rows(A, B):
    """Inner products along the last axis, broadcasting the leading axes."""
    return np.einsum("...i,...i->...", A, B)


def _norm_rows(U):
    """Euclidean norms along the last axis: np.linalg.norm(U, axis=-1)
    as numpy defines it, without its argument handling."""
    return np.sqrt(np.add.reduce(U * U, axis=-1))


def _canonical_sign(x):
    """Fix the sign of a projective representative: first coordinate of
    magnitude above the tolerance is made positive."""
    for c in x:
        if abs(c) > _CANON_TOL:
            return x if c > 0 else -x
    return x


def _canonical_sign_rows(X):
    """_canonical_sign applied to each row of X; a row with no coordinate
    above the tolerance is left unchanged."""
    big = np.abs(X) > _CANON_TOL
    lead = np.take_along_axis(X, np.argmax(big, axis=-1)[:, np.newaxis], -1)
    return np.where(big.any(axis=-1)[:, np.newaxis] & (lead < 0.0), -X, X)


# space kind -> constructor(dim, kappa); also the CLI's --space choices
KINDS = {
    "euclidean": lambda dim, kappa: Euclidean(dim),
    "sphere": lambda dim, kappa: Sphere(dim, kappa),
    "hyperbolic": lambda dim, kappa: Hyperbolic(dim, kappa),
    "circle": lambda dim, kappa: Circle(kappa),
    "real_projective": lambda dim, kappa: RealProjective(dim, kappa),
    "so3": lambda dim, kappa: SO3(),
}


def make_space(kind, dim=2, kappa=1.0):
    try:
        ctor = KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown space kind {kind!r}") from None
    return ctor(dim, kappa)


def space_from_json(obj):
    """Build a space from the descriptor {"kind", "dim", "kappa"}."""
    return make_space(obj["kind"], int(obj.get("dim", 2)),
                      float(obj.get("kappa", 1.0)))
