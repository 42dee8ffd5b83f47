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
code, and N points at once (dist_many, _log_scales, exp_many) with the
same formulas on one point x of shape (D,) and an (N, D) array P, on
whose (D, N) transpose they work where _along_points says so: numpy's
inner loop then runs over the points, with the rows' operations and
summation order, so with their bits.  There the sphere family's and H's
_tangential_many take one C-contiguous (D, N) copy of P, and every
elementwise step and sum over D runs on its rows.  Their inner products
are _dot_columns, which writes out einsum's order for a row of fewer
than 8 terms (two lanes: the even and the odd terms, each left to
right, then even + odd); below _ALONG_POINTS rows they stay einsum
(_dot_rows) on the (N, D) rows.  _log_scales gives the logs as
tangential parts U and scales s: row i of s[:, np.newaxis] * U is the
log, and a weighted sum of logs is one product (w * s) @ U, which
rounds apart from the sum of the scaled rows.  With x of shape (N, D),
a base point per row, _tangential_many, dist_many and _log_scales give
row i the bits of the one-point call on x[i]: the along path reads x.T
(_column) for x[:, np.newaxis].
Single-pair callers such as the descent step itself, the ball-estimate
sweep's step and the chart frame use the first, and so do the errors
that name one pair: geocheck's chart runs the per-pair log again on the
first row it refuses, as _exp_rows runs exp.  Sums over the data points,
the solver's monitor substeps and the oracles' geometry (geocheck's
triangle reading and Chart.forward, over rows) use the second, which
costs more than the scalar code for one pair.  The sweep picks its far
point with _farthest: the first maximum of dist_many, read off one
ambient product where a rounding margin certifies the order.  Norms are
numpy's own definition of np.linalg.norm for these arguments,
math.sqrt(u.dot(u)) for one vector and _norm_rows for the rows of an
array, without its argument handling.

On the sphere family, the per-pair methods (exp, _tangential and
tangent_project) do their elementwise arithmetic on Python floats from
x.tolist(), around
the same ndarray.dot calls as the numpy expressions they replace, which
saves numpy's per-call overhead on 3- and 4-vectors.  IEEE rounds a
product, quotient or difference of two floats the same way in Python as
in numpy, and each dot stays OpenBLAS's FMA chain, which a sum of Python
floats cannot repeat without math.fma, so every output keeps its bits;
test_scalar_kernels_keep_their_bits compares them with the numpy forms.
On H, inner, exp, _tangential and tangent_project do the same
around the spatial dot u[1:].dot(v[1:]) (_minkowski_floats).  Python's
float arithmetic never warns, but numpy's dot warns on an overflow, so
np.errstate is entered (_wide_dot) only where math.hypot of an operand
reaches _MAX_COORD and the dot could pass the float range; there it
gives numpy's inf or NaN, without the warning.

Random points and ball samples are drawn in two phases (Draws): phase 1
makes only the Generator calls, in the order of one point at a time,
and phase 2 makes the points from the draws in array passes, with a
center per row (_random_points, _ball_points: the tangent part of each
normal, normalised, then exp_many).  Those passes move points by
rounding from the per-pair forms, but not the draws.  random_point and
random_points_in_ball (random_in_ball is its one-point case) finish
each point at its draw.

Angles near 0 and pi are computed via atan2 of a projected norm rather
than arccos, so distances stay accurate right up to the cut locus (needed
for the cut-locus guard band of log to fire reliably).
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import CutLocusError, DomainError
from .kernels import sn

_CANON_TOL = 1e-9  # first coordinate of magnitude above this fixes the sign
_MAX_COORD = 1e150  # below this, sums of squared coordinates stay finite
# Hyperbolic: a tangent's Minkowski norm at x is good to about
# eps*(x0/R)^2, so log refuses a base point past this time coordinate
# (about 6 digits left) as an overflow; the distance, from the Minkowski
# product alone at such a separation, keeps full precision there
_MAX_BASE = 2.0 ** 16
# Rows from which the array kernels run along the points (_along_points):
# on a 2-core x86 host cost_gradient broke even there at about 96-128 rows
# on S^2 and H^2, and lost 1-2 us a call at 16 rows
_ALONG_POINTS = 128


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
        self.ambient_dim = self.dim + 1   # a hypersurface; R^n sets its own

    # -- subclass responsibilities -------------------------------------
    def project(self, x):
        raise NotImplementedError

    def _tangential(self, x, y):
        """(u, |u|, d(x, y)): the part u of y tangential at x, its norm
        and the distance, from one evaluation of the pair.  x and y are
        float ndarrays of shape (D,), as are the points of the per-pair
        methods distance, log and log_dist built on it."""
        raise NotImplementedError

    def _tangential_many(self, x, P):
        """_tangential over the rows of an (N, D) array P, the same
        formulas on arrays: (U, |U|, d) for a point x of shape (D,) or
        a base point per row, x of shape (N, D)."""
        raise NotImplementedError

    def exp(self, x, v):
        raise NotImplementedError

    def exp_many(self, x, V):
        """exp over the rows of an (N, D) array V of tangent vectors at x,
        the same formulas on arrays: row i is exp(x, V[i]), or exp(x[i],
        V[i]) for x of shape (N, D), a base point per row."""
        raise NotImplementedError

    def tangent_project(self, x, g):
        """Orthogonal projection of an ambient vector onto T_x."""
        raise NotImplementedError

    def constants(self):
        """The SpaceConstants built once at construction."""
        return self._constants

    def _tangent_rows(self, C, G):
        """tangent_project over the rows of G, at C or C[i] per row."""
        raise NotImplementedError

    def random_point(self, rng):
        """A random point: _random_points of one standard normal draw."""
        g = rng.standard_normal(self.ambient_dim)
        return self._random_points(g[np.newaxis])[0]

    def _random_points(self, G):
        """The random points made of (N, D) standard normal draws G, one
        point a row."""
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
        """Distances d(x, P[i]) over the rows of P (x[i] per row)."""
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

    def _log_scales(self, x, P):
        """(U, s, d) over the rows of an (N, D) array P, from x or a base
        point x[i] per row: the tangential parts U and the distances d of
        _tangential_many, and s = d / |U|, 0 where d is 0, so that row i
        of s[:, np.newaxis] * U is log_dist(x, P[i]).  Raises the error
        log_dist raises for the first row it refuses (_refuse_logs)."""
        U, nU, d = self._tangential_many(x, P)
        self._refuse_logs(x, P, nU, d)
        return U, np.divide(d, nU, out=np.zeros(d.shape), where=d != 0.0), d

    def _refuse_logs(self, x, P, nU, d):
        """Raise the CutLocusError of the first row in the cut-locus band,
        with `index` set to the row."""
        band = self._band_start()
        # fmax skips NaN distances, as the elementwise test does
        if np.fmax.reduce(d, initial=-math.inf) >= band:
            i = int(np.argmax(d >= band))
            raise self._cut_locus_error(d[i], index=i)

    def _band_start(self):
        """Distance from which log refuses: the cut-locus guard band below
        inj (never reached when inj is infinite)."""
        return self._constants.inj * (1.0 - _CANON_TOL)

    def _cut_locus_error(self, d, index=None):
        return CutLocusError(
            f"{self.kind}: log at distance {float(d)} within cut-locus band "
            f"of inj={self._constants.inj}", index=index)

    def inner(self, x, u, v):
        """Riemannian inner product of tangent vectors (float arrays) at
        x: the ambient dot product, which the hyperboloid replaces by
        Minkowski's."""
        return float(u.dot(v))

    def norm(self, x, v):
        return math.sqrt(max(self.inner(x, v, v), 0.0))

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
        with np.errstate(over="ignore", invalid="ignore"):
            err = self._constraint_errors(X)
        if (err <= 1e-12).all() and np.isfinite(X).all():
            return   # the common case, in whole-array passes
        finite = np.isfinite(X).all(axis=1)
        i = int(np.argmax(~(finite & (err <= 1e-12))))  # a NaN error too
        if not finite[i]:
            raise DomainError(f"{self.kind}: non-finite coordinate in {X[i]}")
        raise DomainError(
            f"{self.kind}: representation violated by {err[i]:.3e}")

    def _constraint_errors(self, X):
        """Representation error of each row of X."""
        return np.zeros(len(X))

    def random_in_ball(self, center, radius, rng):
        """One uniform sample from the geodesic ball B(center, radius):
        random_points_in_ball with count 1."""
        return self.random_points_in_ball(center, radius, 1, rng)[0]

    def random_points_in_ball(self, center, radius, count, rng):
        """A list of `count` uniform samples from the geodesic ball
        B(center, radius), drawn one after another (careful Draws)."""
        return list(Draws(self, rng, careful=True).ball(center, radius,
                                                        count))

    def _ball_points(self, C, r, G):
        """Phase 2 of the ball sampler: the points exp(C[i], r[i] u_i), u_i
        the unit vector along the part of the standard normal G[i]
        tangent at C[i].  None where a direction is too short to
        normalise (1e-8); a squared norm that is not finite (C[i] so far
        out that its tangents overflow, which no redraw would mend)
        raises DomainError, as an overflowing step raises exp's."""
        with np.errstate(over="ignore", invalid="ignore"):
            V = self._tangent_rows(C, G)
            vv = self._inner_rows(V, V)
            n = np.sqrt(np.maximum(vv, 0.0))
        ok = np.isfinite(vv) & (n > 1e-8)
        if not ok.all():
            i = int(np.argmin(ok))
            if not math.isfinite(vv[i]):
                raise DomainError(f"{self.kind}: a tangent at a point with "
                                  f"coordinates up to {np.abs(C[i]).max():.6g}"
                                  f" has squared norm {vv[i]}")
            return None
        return self._exp_rows(C, r[:, np.newaxis] * (V / n[:, np.newaxis]))

    def _exp_rows(self, x, V):
        """exp_many(x, V), raising exp's error for the first row that
        exp_many refuses (a NaN row)."""
        P = self.exp_many(x, V)
        for i in np.flatnonzero(np.isnan(P[:, 0])):
            P[i] = self.exp(x if x.ndim == 1 else x[i], V[i])
        return P

    def _inner_rows(self, U, V):
        """inner over the rows of (N, D) tangent arrays U and V."""
        return _dot_rows(U, V)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, kappa={self.kappa})"


class Euclidean(ManifoldSpace):
    kind = "euclidean"

    def __init__(self, dim):
        super().__init__(dim, 0.0)
        self.ambient_dim = self.dim
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

    def check_points(self, X):
        """ManifoldSpace.check_points, and every row's norm below
        _MAX_COORD, so that squared distances between points stay finite."""
        X = np.asarray(X, dtype=float)
        super().check_points(X)
        with np.errstate(over="ignore"):
            far = ~(_norm_rows(X) < _MAX_COORD)
        if far.any():
            raise DomainError(f"{self.kind}: point {X[np.argmax(far)]} has "
                              f"norm at or above {_MAX_COORD:g}")

    def exp(self, x, v):
        y = np.asarray(x, dtype=float) + np.asarray(v, dtype=float)
        # the norm check_points allows: squared distances stay finite
        if not math.hypot(*y) < _MAX_COORD:
            raise DomainError(f"{self.kind}: exp step of length "
                              f"{math.hypot(*v)} overflows")
        return y

    def exp_many(self, x, V):
        """Rows for which exp raises its overflow DomainError come back as
        NaN rows, without a numpy warning."""
        Y = np.asarray(x, dtype=float) + np.asarray(V, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            Y[~(_norm_rows(Y) < _MAX_COORD)] = math.nan
        return Y

    def tangent_project(self, x, g):
        return np.asarray(g, dtype=float)

    def _tangent_rows(self, C, G):
        return G

    def _random_points(self, G):
        return G


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
        return self._tangential_from(x, y, float(x.dot(y)))

    def _tangential_from(self, x, y, cosq):
        """_tangential from the product cosq = <x, y>."""
        u = np.array([b - cosq * a for a, b in zip(x.tolist(), y.tolist())])
        nu = math.sqrt(u.dot(u))
        # the angle via atan2 stays stable at both 0 and pi
        return u, nu, math.atan2(nu, cosq) / self._rk

    def _tangential_many(self, x, P):
        if _along_points(P):
            PT = P.T.copy()
            cosq = _dot_columns(PT, _column(x))
            return self._tangential_columns(x, PT, cosq)
        return self._tangential_cos(x, P, _dot_rows(P, x))

    def _tangential_cos(self, x, P, cosq):
        """_tangential_many on the rows of P, from cosq = _dot_rows(P, x)."""
        U = P - cosq[:, np.newaxis] * x
        nU = _norm_rows(U)
        return U, nU, np.arctan2(nU, cosq) / self._rk

    def _tangential_columns(self, x, PT, cosq):
        """_tangential_many along the points: PT is a C-contiguous (D, N)
        copy of P, which becomes U.T, and cosq = _dot_columns(PT, x); U
        comes back as the (N, D) view PT.T."""
        PT -= _column(x) * cosq
        nU = _norm_rows(PT.T)
        return PT.T, nU, np.arctan2(nU, cosq) / self._rk

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
        xl, vl = x.tolist(), v.tolist()
        # below the cap v.v cannot overflow
        nv = math.sqrt(v.dot(v) if math.hypot(*vl) < _MAX_COORD
                       else _wide_dot(v, v))
        if nv == 0.0:
            return np.array(xl, dtype=float)
        if not math.isfinite(nv):
            raise DomainError(f"{self.kind}: exp step of length {nv} overflows")
        th = self._rk * nv
        c, s = math.cos(th), math.sin(th)
        y = np.array([c * a + s * (b / nv) for a, b in zip(xl, vl)])
        return y / math.sqrt(y.dot(y))

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

    def tangent_project(self, x, g):
        g = np.asarray(g, dtype=float)
        gx = float(g.dot(x))
        return np.array([b - gx * a for a, b in zip(x.tolist(), g.tolist())])

    def _tangent_rows(self, C, G):
        return G - _dot_rows(G, C)[:, np.newaxis] * C

    def _random_points(self, G):
        return G / _norm_rows(G)[:, np.newaxis]


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

    def _tangential(self, x, y):
        # on the nearest lift of y, the one on the same side as x
        cosq = float(x.dot(y))
        if cosq >= 0.0:
            return self._tangential_from(x, y, cosq)
        return Sphere._tangential(self, x, -y)

    def _tangential_many(self, x, P):
        # negating a row negates its product with x exactly
        if _along_points(P):
            PT = P.T.copy()
            cosq = _dot_columns(PT, _column(x))
            lift = np.where(cosq >= 0.0, 1.0, -1.0)
            PT *= lift
            return self._tangential_columns(x, PT, lift * cosq)
        cosq = _dot_rows(P, x)
        lift = np.where(cosq >= 0.0, 1.0, -1.0)
        return self._tangential_cos(x, lift[:, np.newaxis] * P, lift * cosq)

    def _farthest(self, x, P):
        """Sphere._farthest on the nearest lifts: the distance falls
        strictly as |P @ x| grows."""
        return self._farthest_by_key(x, P, np.abs(P @ x), 1e-9)

    def exp(self, x, v):
        return _canonical_sign(Sphere.exp(self, x, v))

    def exp_many(self, x, V):
        return _canonical_sign_rows(Sphere.exp_many(self, x, V))

    def _random_points(self, G):
        return _canonical_sign_rows(Sphere._random_points(self, G))


class SO3(RealProjective):
    """Rotation group as unit quaternions modulo sign.

    With kappa = 1/4 the induced distance is the rotation angle
    2*arccos|<q1,q2>| in [0, pi]; inj = pi and r_cx = pi/2.
    """

    kind = "so3"

    def __init__(self):
        super().__init__(3, 0.25)


class Hyperbolic(ManifoldSpace):
    """Hyperboloid model of curvature kappa < 0, time coordinate first."""

    kind = "hyperbolic"

    def __init__(self, dim, kappa=-1.0):
        if not -math.inf < kappa < 0:
            raise DomainError(f"Hyperbolic: need finite kappa < 0, got {kappa}")
        super().__init__(dim, kappa)
        self._R = 1.0 / math.sqrt(-kappa)
        if not self._R < _MAX_COORD:   # every time coordinate at exp's cap
            raise DomainError(f"Hyperbolic: need 1/sqrt(-kappa) below "
                              f"{_MAX_COORD:g}, got kappa = {kappa}")
        self._constants = SpaceConstants(inj=math.inf, r_cx=math.inf,
                                         delta=kappa, Delta=kappa)
        # P @ (self._time_flip * x) is the Minkowski product of each row
        self._time_flip = np.ones(self.ambient_dim)
        self._time_flip[0] = -1.0

    @staticmethod
    def _minkowski_rows(U, V):
        return _dot_rows(U[..., 1:], V[..., 1:]) - U[..., 0] * V[..., 0]

    @staticmethod
    def _minkowski_columns(UT, VT):
        """_minkowski_rows(UT.T, VT.T) along the points, for C-contiguous
        (D, N) operands (a (D, 1) column broadcasts)."""
        return _dot_columns(UT[1:], VT[1:]) - UT[0] * VT[0]

    def project(self, x):
        return self._set_time(np.asarray(x, dtype=float).copy())

    def _set_time(self, x):
        """Recompute the time coordinate of x in place from its spatial
        part."""
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
        xl = x.tolist()
        k, ul = self._tangent_part(x, xl, y, y.tolist())
        u = np.array(ul)
        nu = math.sqrt(max(_minkowski_floats(u, ul, u, ul), 0.0))
        # u has Minkowski norm R*sinh(d/R): asinh keeps full precision at
        # small separations where arccosh would not; cosh(d/R) is -k
        R = self._R
        if k > -2.0:
            d = R * math.asinh(nu / R)
        else:
            d = R * math.acosh(max(-k, 1.0))
        if not math.isfinite(d):
            raise self._overflow_error(x, y)
        return u, nu, d

    def _tangent_part(self, x, xl, y, yl):
        """(k, the floats of y + k x) with k = <x, y> / R^2, from float
        arrays x, y of shape (D,) and their floats xl, yl: the part of y
        tangential at x."""
        k = _minkowski_floats(x, xl, y, yl) / self._R**2
        return k, [b + k * a for a, b in zip(xl, yl)]

    def _tangential_many(self, x, P):
        R = self._R
        with np.errstate(over="ignore", invalid="ignore"):
            # k = -cosh(d/R); along the points, on a C-contiguous (D, N)
            # copy of P, which becomes U.T
            if _along_points(P):
                UT = P.T.copy()
                xT = _column(x)
                k = self._minkowski_columns(xT, UT) / R**2
                UT += xT * k
                U, mU = UT.T, self._minkowski_columns(UT, UT)
            else:
                k = self._minkowski_rows(x, P) / R**2
                U = P + k[:, np.newaxis] * x
                mU = self._minkowski_rows(U, U)
            nU = np.sqrt(np.maximum(mU, 0.0))
            near = k > -2.0
            d = R * np.arcsinh(nU / R)
            if not near.all():   # a far row, or a NaN
                d = np.where(near, d, R * np.arccosh(np.maximum(-k, 1.0)))
        self._raise_first(np.isfinite(d), x, P)
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

    def _refuse_logs(self, x, P, nU, d):
        """Raise log_dist's overflow error for the first row whose base
        is past _MAX_BASE R or whose |U| is not finite."""
        self._raise_first((x[..., 0] <= _MAX_BASE * self._R)
                          & np.isfinite(nU), x, P)

    def _raise_first(self, ok, x, P):
        """Raise the overflow error of the first row of P where ok is
        False, if there is one, with its base: x, or its row of x."""
        if not ok.all():
            i = int(np.argmin(ok))
            raise self._overflow_error(x if x.ndim == 1 else x[i], P[i])

    def _overflow_error(self, x, y):
        """The error of a pair whose tangential part is not finite, or is
        lost to cancellation: the points are too far apart for the
        hyperboloid coordinates."""
        return DomainError(
            f"{self.kind}: distance between points with time coordinates "
            f"{float(x[0]):.6g} and {float(y[0]):.6g} overflows")

    def exp(self, x, v):
        v = np.asarray(v, dtype=float)
        vl = v.tolist()
        nv = _minkowski_floats(v, vl, v, vl)
        # inf - inf is NaN: that step's length overflows too
        nv = math.sqrt(max(nv, 0.0)) if math.isfinite(nv) else math.inf
        if nv == 0.0:
            return np.asarray(x, dtype=float).copy()
        th = nv / self._R
        try:
            ch, sh = math.cosh(th), self._R * math.sinh(th) / nv
        except OverflowError:   # y[0] is then inf or NaN
            ch = sh = math.inf
        y = [ch * a + sh * b for a, b in zip(x.tolist(), vl)]
        # a step whose length overflows leaves y[0] inf or NaN;
        # |y_spatial| < y[0], so below the cap project's sum of squares
        # stays finite
        if not abs(y[0]) < _MAX_COORD:
            raise DomainError(f"{self.kind}: exp step of length {nv} overflows")
        return self._set_time(np.array(y))

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
        """The Minkowski product of float arrays u, v of shape (D,)."""
        return _minkowski_floats(u, u.tolist(), v, v.tolist())

    def tangent_project(self, x, g):
        g = np.asarray(g, dtype=float)
        return np.array(self._tangent_part(x, x.tolist(), g, g.tolist())[1])

    def _tangent_rows(self, C, G):
        return G + (self._minkowski_rows(C, G) / self._R**2)[:, np.newaxis] * C

    def _inner_rows(self, U, V):
        return self._minkowski_rows(U, V)

    def _random_points(self, G):
        """exp at the origin of the standard-normal tangents G in units of
        R, so that their distance in curvature radii does not depend on
        kappa."""
        origin = np.zeros(self.ambient_dim)
        origin[0] = self._R
        return self._exp_rows(origin, self._R * self._tangent_rows(origin, G))


def _minkowski_floats(u, ul, v, vl):
    """The Minkowski product of float arrays u, v of shape (D,) from
    their floats ul, vl: the spatial ndarray.dot, and the time term on
    floats.  numpy's dot warns on an overflow, so np.errstate is entered
    only where math.hypot says the dot can pass the float range."""
    if (math.hypot(*ul) < _MAX_COORD
            and (vl is ul or math.hypot(*vl) < _MAX_COORD)):
        s = u[1:].dot(v[1:])
    else:
        s = _wide_dot(u[1:], v[1:])
    return float(s) - ul[0] * vl[0]


def _wide_dot(a, b):
    """a.dot(b) for operands whose products can pass the float range: inf
    or NaN there, without numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.dot(b)


def _dot_rows(A, B):
    """Inner products along the last axis of row-major operands (einsum
    sums a row in an order that depends on the layout)."""
    return np.einsum("...i,...i->...", A, B)


def _dot_columns(AT, BT):
    """_dot_rows(AT.T, BT.T), bit for bit, for a (D, N) array AT with
    D < 8 and a BT of its shape or a (D, 1) column: the sums over D run
    down the columns, in the order einsum sums a row of D < 8 terms.
    That is two lanes, each started at +0.0, the even terms left to
    right and the odd terms left to right, then even + odd: (0 + 2) + 1
    at D = 3.  test_dot_columns_sums_in_einsums_lane_order pins it."""
    prod = AT * BT
    n = len(prod)
    # einsum's +0.0 start turns a sum of -0.0 terms into +0.0; one start
    # is enough, since even + odd is -0.0 only where both lanes are
    even = prod[0] + 0.0
    for i in range(2, n, 2):
        even += prod[i]
    if n > 1:
        odd = prod[1]
        for i in range(3, n, 2):
            odd += prod[i]
        even += odd
    return even


def _column(x):
    """The along path's base: x[:, np.newaxis] or, per row, x.T."""
    return x[:, np.newaxis] if x.ndim == 1 else x.T


def _along_points(A):
    """Whether a kernel computes on the (D, N) transpose of an (N, D)
    array A, so that numpy's inner loop runs over the N points.  Below
    _ALONG_POINTS rows, the transposed copy or mixed layouts and the
    extra numpy calls cost more than the shorter loops save.  From 8 columns on, numpy
    sums a row pairwise, which a sum down the columns would not repeat."""
    return len(A) >= _ALONG_POINTS and A.shape[-1] < 8


def _norm_rows(U):
    """Norms of the rows of an (N, D) array: np.linalg.norm(U, axis=-1)
    of C-ordered rows as numpy defines it, without its argument handling.
    numpy sums such a row of fewer than 8 terms left to right, as the
    running sum down the columns of U.T does."""
    if not _along_points(U):
        return np.sqrt(np.add.reduce(U * U, axis=-1))
    Ut = U.T
    return np.sqrt(np.add.reduce(np.multiply(Ut, Ut, order="C"), axis=0))


def _canonical_sign(x):
    """Fix the sign of a projective representative: first coordinate of
    magnitude above the tolerance is made positive."""
    for c in x.tolist():
        if abs(c) > _CANON_TOL:
            return x if c > 0 else -x
    return x


def _canonical_sign_rows(X):
    """_canonical_sign applied to each row of X; a row with no coordinate
    above the tolerance is left unchanged."""
    big = np.abs(X) > _CANON_TOL
    lead = np.take_along_axis(X, np.argmax(big, axis=-1)[:, np.newaxis], -1)
    return np.where(big.any(axis=-1)[:, np.newaxis] & (lead < 0.0), -X, X)


class Draws:
    """The sampler in two phases.  Phase 1, point() and ball(), makes
    only the Generator calls, in the order of one point at a time, and
    returns arrays that phase 2, finish(), fills in with one array pass
    per kind.  A sample of B(center, radius) draws its radius r by
    rejection against the volume density sn(r)^(n-1) (flat: r^(n-1)),
    scaled by its maximum on [0, radius], then its direction's standard
    normal; a radius past inj, the diameter there, draws as inj.  The
    draw order is part of the output: the Monte Carlo suites report
    results determined by their seed.  Careful draws finish each point
    at its draw, as drawing one point after another does: a direction
    too short to normalise is drawn again, and an error raises at once.
    """

    def __init__(self, space, rng, careful=False):
        self.space, self.rng, self.careful = space, rng, careful
        self._refused = False
        self._points, self._normals = [], []   # point(): out, its draw
        self._balls, self._radii, self._directions = [], [], []   # ball()

    def point(self):
        """A random point (random_point), an array of shape (D,)."""
        if self.careful:
            return self.space.random_point(self.rng)
        self._normals.append(self.rng.standard_normal(self.space.ambient_dim))
        self._points.append(np.empty(self.space.ambient_dim))
        return self._points[-1]

    def ball(self, center, radius, count):
        """`count` uniform samples of B(center, radius), the rows of a
        (count, D) array; center may be an array point() returned.  A
        NaN, infinite or negative radius is refused before any draw;
        radius 0 draws nothing (copies of the center, which a fast
        finish() refuses, as it knows no center before)."""
        sp, rng, D = self.space, self.rng, self.space.ambient_dim
        if not 0 <= radius < math.inf:   # a NaN or infinite one never accepts
            raise DomainError(
                f"random_in_ball: need finite radius >= 0, got {radius}")
        if radius == 0:
            self._refused |= not self.careful
            return np.repeat(center[np.newaxis], count, axis=0)
        radius = min(radius, sp._constants.inj)
        n, kappa = sp.dim, sp.kappa
        if n > 1:
            peak = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else math.inf
            top = sn(kappa, min(radius, peak))
        out = np.empty((count, D))
        for i in range(count):
            while True:
                r = radius * rng.random()
                if n == 1 or rng.random() <= (sn(kappa, r) / top) ** (n - 1):
                    break
            if not self.careful:
                self._radii.append(r)
                self._directions.append(rng.standard_normal(D))
                continue
            p = None
            while p is None:   # a direction too short to normalise: again
                p = sp._ball_points(center[np.newaxis], np.array([r]),
                                    rng.standard_normal(D)[np.newaxis])
            out[i] = p[0]
        if not self.careful:
            self._balls.append((out, center))
        return out

    def finish(self):
        """Phase 2: fill in the arrays phase 1 returned, the points first.
        It returns False on a refusal (a direction too short to
        normalise, or a radius-0 ball) and raises a pass's error, leaving
        the ball samples unfilled either way, for the caller to replay
        the draws carefully."""
        sp, samples = self.space, np.empty((0, self.space.ambient_dim))
        if self._normals:
            P = sp._random_points(np.array(self._normals))
            for out, p in zip(self._points, P):
                out[:] = p
        if self._radii:
            C = np.repeat([c for _, c in self._balls],
                          [len(out) for out, _ in self._balls], axis=0)
            samples = sp._ball_points(C, np.array(self._radii),
                                      np.array(self._directions))
        if self._refused or samples is None:
            return False
        end = 0
        for out, _ in self._balls:
            out[:] = samples[end:end + len(out)]
            end += len(out)
        return True


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
    ctor = KINDS.get(kind) if isinstance(kind, str) else None
    if ctor is None:
        raise DomainError(f"unknown space kind {kind!r}")
    return ctor(dim, kappa)


def space_from_json(obj):
    """Build a space from the descriptor {"kind", "dim", "kappa"}, dim and
    kappa optional; a value of the wrong JSON type raises DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"space must be an object, got {type(obj).__name__}")
    dim = json_float(obj.get("dim", 2), "space dim")
    if not dim.is_integer():
        raise DomainError(f"space dim must be an integer, got {dim}")
    return make_space(obj["kind"], int(dim),
                      json_float(obj.get("kappa", 1.0), "space kappa"))


def json_float(value, what):
    """A JSON number, booleans excluded, as a float (+-inf past its range)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
