"""Constant step-size policies and the convergence-rate predictor.

Four policies are supported:

  * conjecture:          t = 1/H_{B(o,rho),p}, rho <= r_cx.
  * constant_curvature:  t in (0, 1] for p = 2 on constant nonnegative
                         curvature (the tethering regime); resolves to 1.
  * spread_compromise:   t below 2/H with H evaluated at 4*rho; iterates
                         then stay in B(o, 3*rho).
  * exit_compromise:     the exit-time construction on an annulus
                         rho < d(y,o) < rho', for p = 2.

The exit-time infimum over r is bracketed by bisection over a 4096-point
grid and refined by golden-section search.  Both rely on the profile
max(t_out1, t_out2) falling and then rising: t_out2 = (rho'-r)/(rho+r)
strictly decreases, and t_out1 is 0 at r = rho and strictly increases,
since the log-derivative of sn_Delta(r-rho)/sn_Delta(r+rho) is
sqrt(Delta) (cot sqrt(Delta)(r-rho) - cot sqrt(Delta)(r+rho)) > 0 below
the conjugate distance (coth for Delta < 0, 2 rho/(r^2 - rho^2) for
Delta = 0).
"""

import bisect
import math
from dataclasses import dataclass

from .errors import DomainError, PreconditionError
from .kernels import c_upper, sn
from .frechet import check_p, uniform_hessian_bound


@dataclass(frozen=True)
class SpreadStep:
    """Resolved spread-compromise policy: any t < t_max_exclusive keeps
    every iterate in B(o, stay_ball_radius)."""
    t_base: float            # 1/H, the midpoint guidance value
    t_max_exclusive: float   # 2/H
    stay_ball_radius: float


def resolve_spread_compromise(space, rho, p):
    """Admissible steps when the iterate may wander beyond the data ball.

    Requires rho <= r_cx/3; H is the uniform bound H_{B(o, 2 rho),p},
    evaluated at the distance 4*rho (module docstring).
    """
    rho_max = space.constants().r_cx / 3.0
    if rho > rho_max:
        raise PreconditionError(
            f"spread_compromise: rho={rho} exceeds r_cx/3={rho_max}")
    H = uniform_hessian_bound(space, 2.0 * rho, p)
    return SpreadStep(t_base=1.0 / H, t_max_exclusive=2.0 / H,
                      stay_ball_radius=3.0 * rho)


def _exit_profile(delta, Delta, rho, rho_prime, r):
    """max of the two per-radius exit lower bounds at r = d(y, o)."""
    t1 = (2.0 / c_upper(delta, rho_prime)) * r * (r - rho) \
        * sn(Delta, r - rho) / sn(Delta, r + rho)
    t2 = (rho_prime - r) / (rho + r)
    return max(t1, t2)


def exit_time_bounds(delta, Delta, rho, rho_prime):
    """t_exit for explicit curvature bounds (delta, Delta).

    t_exit = min( t_in, inf_{r in [rho, rho')} max(t_out1(r), t_out2(r)) )
    with t_in = (rho' - rho)/(2 rho).  The profile falls and then rises
    (see the module docstring), so the first grid point r_i = rho + i h,
    h = (rho' - rho)/4096, whose value does not exceed the next one's is
    its first grid minimum: bisection finds it in 12 steps of two profile
    values each.  Golden-section search then refines [r_{i-1}, r_{i+1}]
    to 1e-10.
    """
    if not (0 < rho < rho_prime):
        raise DomainError(f"exit_time: need 0 < rho < rho_prime, got {rho}, {rho_prime}")
    if Delta > 0 and rho_prime + rho >= math.pi / math.sqrt(Delta):
        raise DomainError("exit_time: annulus reaches conjugate distance pi/sqrt(Delta)")
    t_in = (rho_prime - rho) / (2.0 * rho)

    f = lambda r: _exit_profile(delta, Delta, rho, rho_prime, r)
    n = 4096
    h = (rho_prime - rho) / n
    i0 = bisect.bisect_left(range(n - 1), True,
                            key=lambda i: f(rho + i * h) <= f(rho + (i + 1) * h))
    lo = rho + max(i0 - 1, 0) * h
    hi = rho + min(i0 + 1, n - 1) * h
    r_star = _golden_section(f, lo, hi, tol=1e-10)
    return min(t_in, f(r_star))


def _golden_section(f, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def resolve_exit_compromise_bounds(delta, Delta, rho, rho_prime):
    """t* = min(t_exit, 1/c_delta(rho + rho')); steps in (0, 2 t*) also
    bounded by t_exit are admissible."""
    te = exit_time_bounds(delta, Delta, rho, rho_prime)
    return min(te, 1.0 / c_upper(delta, rho_prime + rho))


def resolve_exit_compromise(space, rho, rho_prime):
    """resolve_exit_compromise_bounds for the space, once rho' <= r_cx."""
    cst = space.constants()
    if rho_prime > cst.r_cx:
        raise PreconditionError(
            f"exit_compromise: rho_prime={rho_prime} exceeds r_cx={cst.r_cx}")
    return resolve_exit_compromise_bounds(cst.delta, cst.Delta, rho, rho_prime)


@dataclass(frozen=True)
class RateEstimate:
    """Linear-rate prediction d(x^k, xbar) <= K q^(k/2) on a region with
    Hessian eigenvalues in [h_S, H_S]."""
    h_S: float
    H_S: float
    alpha: float
    q: float
    K: float


def rate_estimate(h_S, H_S, t, f_gap):
    """Contraction factor q and envelope constant K for step t.

    q = 1 - alpha (1 - alpha/2) (h/H) (1 + h/H) with alpha = t H_S, and
    K = sqrt(2 f_gap / h_S) where f_gap is the initial cost above optimum.
    """
    if not (0 < h_S <= H_S):
        raise DomainError(f"rate_estimate: need 0 < h_S <= H_S, got {h_S}, {H_S}")
    if not (0 < t < 2.0 / H_S):
        raise DomainError(f"rate_estimate: step t={t} outside (0, 2/H_S)")
    if f_gap < 0:
        raise DomainError(f"rate_estimate: negative cost gap {f_gap}")
    alpha = t * H_S
    ratio = h_S / H_S
    q = 1.0 - alpha * (1.0 - alpha / 2.0) * ratio * (1.0 + ratio)
    return RateEstimate(h_S=h_S, H_S=H_S, alpha=alpha, q=q,
                        K=math.sqrt(2.0 * f_gap / h_S))


POLICIES = ("user_constant", "conjecture", "constant_curvature",
            "spread_compromise", "exit_compromise")


@dataclass(frozen=True)
class StepPolicy:
    """A named step-size rule plus its parameters; resolve() returns t."""

    kind: str                  # one of POLICIES
    t: float = None            # for user_constant
    rho_prime: float = None    # for exit_compromise

    def resolve(self, space, rho, p):
        if not math.isfinite(rho):
            raise DomainError(f"step policy needs a finite rho, got {rho}")
        if rho < 0:
            raise DomainError(f"step policy needs rho >= 0, got {rho}")
        if self.kind == "user_constant":
            if self.t is None or not 0 < self.t < math.inf:
                raise DomainError(f"user_constant policy needs finite t > 0, "
                                  f"got {self.t}")
            check_p(p)
            return float(self.t)
        if self.kind == "conjecture":   # 1 for p = 2 on kappa >= 0
            return 1.0 / uniform_hessian_bound(space, rho, p)
        if self.kind == "constant_curvature":
            cst = space.constants()
            if cst.delta < 0:
                raise PreconditionError(
                    "constant_curvature policy requires curvature >= 0")
            if p != 2:
                raise PreconditionError("constant_curvature policy is p=2 only")
            if rho > cst.r_cx:
                raise PreconditionError(
                    f"constant_curvature: rho={rho} exceeds r_cx={cst.r_cx}")
            return 1.0
        if self.kind == "spread_compromise":
            return resolve_spread_compromise(space, rho, p).t_base
        if self.kind == "exit_compromise":
            if self.rho_prime is None:
                raise DomainError("exit_compromise policy needs rho_prime")
            if not math.isfinite(self.rho_prime):
                raise DomainError(f"exit_compromise policy needs a finite "
                                  f"rho_prime, got {self.rho_prime}")
            if p != 2:
                raise PreconditionError("exit_compromise policy is p=2 only")
            return resolve_exit_compromise(space, rho, self.rho_prime)
        raise DomainError(f"unknown step policy {self.kind!r}")
