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
Any other step is sampled: its interior points lie on one geodesic, so
the monitor evaluates them with one exp_many and one dist_many.  Each
iterate's cost, which the monitors compare, and its gradient, which the
next step takes, come from one log_dist_many over the data
(frechet.cost_gradient).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutLocusError, DomainError, PreconditionError
from .stepsize import rate_estimate
from . import frechet


@dataclass
class SolverConfig:
    p: float = 2.0
    step: float = 1.0             # resolved constant step size
    grad_tol: float = 1e-10
    max_iters: int = 1000
    monitor_center: np.ndarray = None   # defaults to the dataset ball
    monitor_radius: float = None
    record_substeps: int = 16     # interior geodesic samples per step
    hessian_upper: float = None   # enables the descent-inequality monitor

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise DomainError(f"grad_tol must be finite and positive, "
                              f"got {self.grad_tol}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not 0 < self.step < math.inf:
            raise DomainError(f"step must be finite and positive, got {self.step}")


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
    uniqueness_certified: bool = True

    @property
    def n_iters(self):
        return len(self.records) - 1

    @property
    def exit_code(self):
        return {"converged": 0, "cut_locus": 2, "max_iters": 3}[self.status]


_BALL_TOL = 1e-9


def descend(ds, cfg, x0=None):
    """Run constant-step gradient descent on dataset ds.

    Starts from x0 (default: the ball center o).  Returns a Trace whose
    verdicts report the monitored convergence hypotheses:

      stayed_in_ball      every iterate in the monitor ball
      continuously_stayed every step's geodesic in it too (certified by
                          the ball's convexity, else sampled)
      monotone_cost       f never increased (beyond 1e-12)
      descent_inequality  quantified per-step decrease (needs
                          cfg.hessian_upper; None when not monitored)
      converged           gradient norm reached grad_tol
    """
    sp = ds.space
    x = sp.project(np.asarray(ds.ball_center if x0 is None else x0, dtype=float))
    o = ds.ball_center
    mon_o = o if cfg.monitor_center is None else cfg.monitor_center
    mon_rho = ds.ball_radius if cfg.monitor_radius is None else cfg.monitor_radius
    t = cfg.step

    tr = Trace(uniqueness_certified=ds.uniqueness_certified)
    verd = {"stayed_in_ball": True, "continuously_stayed": True,
            "monotone_cost": True, "converged": False,
            "descent_inequality": None if cfg.hessian_upper is None else True}
    ball_limit = mon_rho + _BALL_TOL * max(1.0, mon_rho)
    n_sub = cfg.record_substeps
    sub_s = np.arange(1, n_sub + 1)[:, np.newaxis] / (n_sub + 1)

    f, g, cut = _cost_gradient(ds, cfg.p, x)
    d_mon = None   # d(mon_o, x), when the step to x computed it
    for k in range(cfg.max_iters + 1):
        if g is None:
            tr.records.append(IterateRecord(k, x, f, math.nan,
                                            sp.distance(o, x), math.nan))
            tr.status = "cut_locus"
            tr.cut_locus_index = cut
            break
        gn = sp.norm(x, g)
        if cfg.monitor_center is None:
            d_o = d_mon = sp.distance(o, x) if d_mon is None else d_mon
        else:
            d_o = sp.distance(o, x)
            if d_mon is None:
                d_mon = sp.distance(mon_o, x)
        tr.records.append(IterateRecord(k, x, f, gn, d_o, t))
        if not d_mon <= ball_limit:
            verd["stayed_in_ball"] = False
            verd["continuously_stayed"] = False
        if gn <= cfg.grad_tol:
            verd["converged"] = True
            tr.status = "converged"
            break
        if k == cfg.max_iters:
            tr.status = "max_iters"
            break

        step_vec = -t * g
        try:
            x_next, exp_error = sp.exp(x, step_vec), None
        except DomainError as e:   # a sampled substep's overflow comes first
            x_next, exp_error = None, e
        d_next = None
        if verd["continuously_stayed"] and n_sub > 0:
            d_next = _end_distance(sp, mon_o, mon_rho, d_mon, t * gn, x_next)
            if d_next is None or d_next > mon_rho:
                verd["continuously_stayed"] = _substeps_stay(
                    sp, x, sub_s * step_vec, mon_o, ball_limit)
        if exp_error is not None:
            raise exp_error
        f_next, g, cut = _cost_gradient(ds, cfg.p, x_next)
        if f_next > f + 1e-12:
            verd["monotone_cost"] = False
        if cfg.hessian_upper is not None:
            bound = f - gn * gn * t * (1.0 - cfg.hessian_upper * t / 2.0)
            if f_next > bound + 1e-10:
                verd["descent_inequality"] = False
        x, f, d_mon = x_next, f_next, d_next

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
    """Whether every exp(x, V[i]) lies within `limit` of center.  Rows
    are checked in order: a row whose exp overflows (a non-finite row of
    exp_many) raises exp's DomainError when every earlier row was inside,
    as a per-substep loop would."""
    E = sp.exp_many(x, V)
    finite = np.isfinite(E).all(axis=1)
    n_ok = len(E) if finite.all() else int(np.argmin(finite))
    if not (sp.dist_many(center, E[:n_ok]) <= limit).all():
        return False
    if n_ok < len(E):
        sp.exp(x, V[n_ok])   # raises the overflow for this row
        return False         # only if the scalar and array tests disagree
    return True


def _end_distance(sp, center, rho, d_x, step_len, y):
    """d(center, y) for the step of length step_len from x, at d_x from
    center, to y; None when the step cannot be certified by convexity
    (ball radius rho not below r_cx, step not shorter than inj, x outside
    the closed ball, or no y because exp raised) or the distance raises.
    A step with d(center, y) <= rho then stays in the ball throughout:
    its two ends lie in the strongly convex ball and, being shorter than
    inj, it is their unique minimal geodesic.  A distance that raises is
    left to the next iterate's record, which raises it after the cost at
    y."""
    c = sp.constants()
    if not (rho < c.r_cx and step_len < c.inj and d_x <= rho and y is not None):
        return None
    try:
        return sp.distance(center, y)
    except DomainError:
        return None


def one_step(ds, p, x, t):
    """A single descent update from x; raises CutLocusError at cut points."""
    g = frechet.gradient(ds, p, x)
    return ds.space.exp(x, -t * g)


def multistart_uniqueness(ds, cfg, n_starts, rng):
    """Descend from n_starts uniform starts in B(o, rho); report whether
    all runs agree on the minimizer."""
    if not ds.uniqueness_certified:
        raise PreconditionError("multistart_uniqueness: rho exceeds r_cx")
    sp = ds.space
    finals = []
    for _ in range(n_starts):
        x0 = sp.random_in_ball(ds.ball_center, ds.ball_radius, rng)
        finals.append(descend(ds, cfg, x0=x0).final)
    spread = max((float(np.max(sp.dist_many(a, np.array(finals[i + 1:]))))
                  for i, a in enumerate(finals[:-1])), default=0.0)
    return {"all_agree": spread <= 10.0 * cfg.grad_tol, "spread": spread,
            "finals": finals}


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


_PAIRS_PER_BLOCK = 1 << 20   # pairwise distances evaluated at once


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
    # row i: max_j d(points[i], points[j]), a block of rows at a time so
    # that memory grows as N, not N^2
    n = len(points)
    rows = max(1, _PAIRS_PER_BLOCK // n)
    row_max = np.concatenate([
        space.dist_many(points[i:i + rows, np.newaxis], points).max(axis=1)
        for i in range(0, n, rows)])
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
