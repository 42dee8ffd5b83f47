"""Constant step-size gradient descent with trajectory monitors.

The update is x^{k+1} = exp_{x^k}(-t grad f_p(x^k)).  Alongside the bare
iteration the solver records, per step, whether the iterate stayed in the
monitor ball, whether the connecting geodesic stayed inside (certified
or sampled, below), and whether the cost decreased.  A cut-locus hit
aborts the run; the offending iterate is recorded rather than perturbed.

The step itself is one per-pair exp.  A ball of radius below
r_cx = 1/2 min(inj, pi/sqrt(Delta)) is strongly convex (Afsari 2011), so
a step shorter than inj whose two ends lie in such a monitor ball stays
in it throughout: the continuous-stay monitor certifies it from the
distance of the step's end, which the next iterate's ball monitor reuses.
Any other step is sampled: its 16 interior points lie on one geodesic, so
the monitor evaluates them with one exp_many and one dist_many, and the
step stays in the ball when every point is finite and inside.  Each
iterate's cost, which the monitors compare, and its gradient, which the
next step takes, come from one _log_scales over the data
(frechet.cost_gradient): the gradient is one product of its scales and
tangential parts, not a sum of scaled logs.

Every error is raised where it arises, whatever the monitor: a step whose
exp overflows raises exp's DomainError, a distance that overflows raises
its own, and a cost, gradient norm or step length past the float range
raises a DomainError at its iterate, not a numpy warning.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutLocusError, DomainError, PreconditionError
from .stepsize import rate_estimate
from . import frechet


@dataclass
class SolverConfig:
    """Settings of one descent run.  The monitor ball is B(o, r): o is the
    dataset's ball center, r is monitor_radius, or the dataset's rho."""
    p: float = 2.0
    step: float = 1.0             # resolved constant step size
    grad_tol: float = 1e-10
    max_iters: int = 1000
    monitor_radius: float = None
    hessian_upper: float = None   # enables the descent-inequality monitor

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise DomainError(f"grad_tol must be finite and positive, "
                              f"got {self.grad_tol}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not 0 < self.step < math.inf:
            raise DomainError(f"step must be finite and positive, got {self.step}")
        if self.hessian_upper is not None and not 0 < self.hessian_upper < math.inf:
            raise DomainError(f"hessian_upper must be finite and positive, "
                              f"got {self.hessian_upper}")
        if self.monitor_radius is not None and \
                not 0 <= self.monitor_radius < math.inf:
            raise DomainError(f"monitor_radius must be finite and >= 0, "
                              f"got {self.monitor_radius}")


@dataclass
class IterateRecord:
    k: int
    point: np.ndarray
    cost: float
    grad_norm: float
    dist_to_o: float
    step_used: float


@dataclass
class Trace:
    records: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    final: np.ndarray = None
    status: str = None            # converged | max_iters | cut_locus
    cut_locus_index: int = None
    dist_to_final: list = None

    @property
    def n_iters(self):
        return len(self.records) - 1

    @property
    def exit_code(self):
        return {"converged": 0, "cut_locus": 2, "max_iters": 3}[self.status]


_BALL_TOL = 1e-9
# the 16 interior fractions at which a step not certified is sampled
_SUBSTEPS = np.arange(1, 17)[:, np.newaxis] / 17


def descend(ds, cfg, x0=None):
    """Run constant-step gradient descent on dataset ds.

    Starts from x0 (default: the ball center o).  Returns a Trace whose
    verdicts report the monitored convergence hypotheses:

      stayed_in_ball      every iterate in the monitor ball B(o, r)
      continuously_stayed every step's geodesic in it too (certified by
                          the ball's convexity, else at 16 substeps)
      monotone_cost       f never increased (beyond 1e-12)
      descent_inequality  quantified per-step decrease (needs
                          cfg.hessian_upper; None when not monitored)
      converged           gradient norm reached grad_tol
    """
    sp = ds.space
    x = sp.project(np.asarray(ds.ball_center if x0 is None else x0, dtype=float))
    o = ds.ball_center
    mon_rho = ds.ball_radius if cfg.monitor_radius is None else cfg.monitor_radius
    t = cfg.step

    tr = Trace()
    verd = {"stayed_in_ball": True, "continuously_stayed": True,
            "monotone_cost": True, "converged": False,
            "descent_inequality": None if cfg.hessian_upper is None else True}
    ball_limit = mon_rho + _BALL_TOL * max(1.0, mon_rho)

    d_o = None   # d(o, x), when the step to x computed it
    # numpy's overflow warnings are off in the loop: a cost, gradient
    # norm or step length past the float range raises a DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        f, g, cut = _cost_gradient(ds, cfg.p, x)
        for k in range(cfg.max_iters + 1):
            if d_o is None:
                d_o = sp.distance(o, x)
            if not math.isfinite(f):
                raise DomainError(f"{sp.kind}: f_p overflows at iteration {k}")
            if g is None:
                tr.records.append(
                    IterateRecord(k, x, f, math.nan, d_o, math.nan))
                tr.status = "cut_locus"
                tr.cut_locus_index = cut
                break
            gn = sp.norm(x, g)
            if not math.isfinite(gn):
                raise DomainError(f"{sp.kind}: gradient of f_p overflows "
                                  f"at iteration {k}")
            tr.records.append(IterateRecord(k, x, f, gn, d_o, t))
            if not d_o <= ball_limit:
                verd["stayed_in_ball"] = False
                verd["continuously_stayed"] = False
            if gn <= cfg.grad_tol:
                verd["converged"] = True
                tr.status = "converged"
                break
            if k == cfg.max_iters:
                tr.status = "max_iters"
                break

            step_len = t * gn
            if step_len == math.inf:
                raise DomainError(f"{sp.kind}: exp step of length inf overflows")
            step_vec = -t * g
            x_next = sp.exp(x, step_vec)
            d_next = None
            if verd["continuously_stayed"]:
                d_next = _end_distance(sp, o, mon_rho, d_o, step_len, x_next)
                if d_next is None or d_next > mon_rho:
                    verd["continuously_stayed"] = _substeps_stay(
                        sp, x, _SUBSTEPS * step_vec, o, ball_limit)
            f_next, g, cut = _cost_gradient(ds, cfg.p, x_next)
            if f_next > f + 1e-12:
                verd["monotone_cost"] = False
            if cfg.hessian_upper is not None:
                bound = f - gn * gn * t * (1.0 - cfg.hessian_upper * t / 2.0)
                if f_next > bound + 1e-10:
                    verd["descent_inequality"] = False
            x, f, d_o = x_next, f_next, d_next

    tr.final = x
    tr.verdicts = verd
    tr.dist_to_final = [sp.distance(r.point, x) for r in tr.records]
    return tr


def _cost_gradient(ds, p, x):
    """(f, grad f, None) at x, or (f, None, i) when x is in the cut-locus
    band of data point i, where only the cost is defined."""
    try:
        return (*frechet.cost_gradient(ds, p, x), None)
    except CutLocusError as e:
        return frechet.cost(ds, p, x), None, e.index


def _substeps_stay(sp, x, V, center, limit):
    """Whether every exp(x, V[i]) is finite and within `limit` of center:
    one exp_many, whose overflowing rows are NaN, and one dist_many."""
    E = sp.exp_many(x, V)
    return bool(np.isfinite(E).all()
                and (sp.dist_many(center, E) <= limit).all())


def _end_distance(sp, center, rho, d_x, step_len, y):
    """d(center, y) for the step of length step_len from x, at d_x from
    center, to y; None when the step cannot be certified by convexity
    (ball radius rho not below r_cx, step not shorter than inj, or x
    outside the closed ball).  A step with d(center, y) <= rho then stays
    in the ball throughout: its two ends lie in the strongly convex ball
    and, being shorter than inj, it is their unique minimal geodesic."""
    c = sp.constants()
    if not (rho < c.r_cx and step_len < c.inj and d_x <= rho):
        return None
    return sp.distance(center, y)


def fit_tail_rate(trace):
    """Empirical contraction factor from the trace tail.

    Fits log d(x^k, final) ~ (k/2) log q over the later iterations and
    returns q; None when the trace is too short to fit.
    """
    pts = [(r.k, d) for r, d in zip(trace.records, trace.dist_to_final)
           if d > 1e-14]
    pts = pts[len(pts) // 3:]
    if len(pts) < 3:
        return None
    ks = np.array([p[0] for p in pts], dtype=float)
    lds = np.log([p[1] for p in pts])
    slope = np.polyfit(ks, lds, 1)[0]
    return float(np.exp(2.0 * slope))


def trailing_rate(ds, trace, t, k_start=None):
    """Rate prediction from Hessian radial bounds on a ball around the
    final point that contains the trace from k_start on (default: its
    second half) and the data (frechet.hessian_radial_bounds at its
    diameter D); None when D reaches min(inj, pi/sqrt(Delta)), where no
    bound holds, when the region is not strongly convex enough (h <= 0)
    or when t is not below 2/H."""
    if k_start is None:
        k_start = len(trace.records) // 2
    sp = ds.space
    xbar = trace.final
    tail_r = max(trace.dist_to_final[k_start:], default=0.0)
    D = tail_r + float(np.max(sp.dist_many(xbar, ds.points)))
    try:
        bounds = frechet.hessian_radial_bounds(sp, D)
    except DomainError:
        return None
    h, H = bounds["lower"], bounds["upper"]
    if h <= 0:
        return None
    f_gap = trace.records[k_start].cost - trace.records[-1].cost
    if not (0 < t < 2.0 / H):
        return None
    return rate_estimate(h, H, t, max(f_gap, 0.0))


def minimal_ball_estimate(space, points):
    """Approximate geodesic 1-center of a point set.

    Badoiu-Clarkson style: from a seed, 200 times move the center 1/(k+2)
    of the way to the current farthest point (k = 0..199).  Accurate to a
    couple of percent in the radius for the sizes used here.  Each step
    picks its far point from one ambient product of the points with the
    center (the space's _farthest), which is the first maximum of
    dist_many; the seed's pairwise distances and the final radius are
    dist_many values.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 1:
        return points[0].copy(), 0.0
    r_cx = space.constants().r_cx
    # row i: max_j d(points[i], points[j])
    row_max = np.array([space.dist_many(p, points).max() for p in points])
    dmax = float(row_max.max())
    if dmax >= 2.0 * r_cx:
        raise PreconditionError(
            f"minimal_ball_estimate: point spread {dmax} >= 2 r_cx = {2 * r_cx}")
    # seed: data point with the smallest maximum distance
    center = points[np.argmin(row_max)].copy()
    for k in range(200):
        far = points[space._farthest(center, points)]
        center = space.exp(center, space.log(center, far) / (k + 2.0))
    radius = float(np.max(space.dist_many(center, points)))
    return center, radius
