import math

import numpy as np
import pytest

from geomean import experiments, stepsize
from geomean.errors import DomainError, PreconditionError
from geomean.kernels import c_upper, sn
from geomean.manifolds import Euclidean, Hyperbolic, Sphere
from geomean.stepsize import (StepPolicy, exit_time_bounds, rate_estimate,
                              resolve_exit_compromise,
                              resolve_exit_compromise_bounds,
                              resolve_spread_compromise)

from conftest import random_unit_tangent

C_NEG1_2PI3 = 2.1588946242718521
CONJECTURE = StepPolicy("conjecture")


def test_resolve_conjecture():
    assert CONJECTURE.resolve(Sphere(2), 0.4 * math.pi, 2) == 1.0
    assert CONJECTURE.resolve(Hyperbolic(2), math.pi / 3, 2) == \
        pytest.approx(1 / C_NEG1_2PI3, abs=1e-12)
    assert CONJECTURE.resolve(Sphere(2), 0.5, 4) == pytest.approx(1 / 3)
    with pytest.raises(PreconditionError):
        CONJECTURE.resolve(Sphere(2), 2.0, 2)


def test_resolve_spread_compromise():
    r = resolve_spread_compromise(Hyperbolic(2), math.pi / 6, 2)
    assert r.t_base == pytest.approx(1 / C_NEG1_2PI3, abs=1e-10)
    assert r.t_max_exclusive == pytest.approx(2 / C_NEG1_2PI3, abs=1e-10)
    assert r.stay_ball_radius == pytest.approx(math.pi / 2)

    r = resolve_spread_compromise(Sphere(2), math.pi / 6, 2)
    assert r.t_base == 1.0 and r.stay_ball_radius == pytest.approx(math.pi / 2)

    r = resolve_spread_compromise(Euclidean(3), 5.0, 2)
    assert r.t_max_exclusive == 2.0

    with pytest.raises(PreconditionError, match=r"^spread_compromise: "
                       r"rho=0\.628\d+ exceeds r_cx/3=0\.523\d+$"):
        resolve_spread_compromise(Sphere(2), 0.2 * math.pi, 2)

    r = resolve_spread_compromise(Hyperbolic(2), 0.0, 2)   # coincident points
    assert (r.t_base, r.t_max_exclusive, r.stay_ball_radius) == (1.0, 2.0, 0.0)
    with pytest.raises(DomainError, match="need rho >= 0"):
        resolve_spread_compromise(Sphere(2), -0.1, 2)


def _exit_time_scan(delta, Delta, rho, rho_prime):
    """exit_time_bounds with its bracket found by the 4096-point linear
    scan (the first grid minimum) instead of by bisection."""
    f = lambda r: stepsize._exit_profile(delta, Delta, rho, rho_prime, r)
    n = 4096
    h = (rho_prime - rho) / n
    rs = [rho + i * h for i in range(n)]
    vals = [f(r) for r in rs]
    i0 = min(range(n), key=vals.__getitem__)
    r_star = stepsize._golden_section(f, rs[max(i0 - 1, 0)],
                                      rs[min(i0 + 1, n - 1)], tol=1e-10)
    return min((rho_prime - rho) / (2.0 * rho), f(r_star))


def test_exit_time_positive_random(rng, monkeypatch):
    hp = math.pi / 2
    annuli = [(0.0, 1.0, hp / 3.0, hp), (0.0, 1.0, 0.9 * hp, hp),  # the table
              (0.0, 1.0, 0.99 * hp, hp), (-1.0, 0.0, hp / 3.0, hp)]
    for _ in range(200):
        rho_prime = 0.1 + 1.3 * rng.uniform()
        rho = rho_prime * (0.05 + 0.9 * rng.uniform())
        delta, Delta = sorted(rng.uniform(-1, 1, size=2))
        annuli.append((delta, Delta, rho, rho_prime))
    for Delta in (-4.0, 4.0):
        for _ in range(20):
            rho_prime = 0.05 + 0.7 * rng.uniform()
            annuli.append((Delta - rng.uniform(), Delta,
                           rho_prime * (0.05 + 0.9 * rng.uniform()), rho_prime))
    for delta, Delta in ((-1.0, -1.0), (0.0, 0.0), (-1.0, 1.0), (4.0, 4.0)):
        for frac in (0.999, 1e-6):   # rho -> rho' and rho -> 0
            annuli.append((delta, Delta, frac * 0.3, 0.3))
    for Delta in (0.25, 1.0, 4.0):   # rho + rho' within 1e-3 of pi/sqrt(Delta)
        conj = math.pi / math.sqrt(Delta) - 1e-3
        for frac in (0.1, 0.5, 0.9):
            annuli.append((0.0, Delta, frac * conj / (1.0 + frac),
                           conj / (1.0 + frac)))

    calls = []
    profile = stepsize._exit_profile
    monkeypatch.setattr(stepsize, "_exit_profile",
                        lambda *a: calls.append(a) or profile(*a))
    checked = 0
    for delta, Delta, rho, rho_prime in annuli:
        if Delta > 0 and rho + rho_prime >= math.pi / math.sqrt(Delta):
            continue
        calls.clear()
        te = exit_time_bounds(delta, Delta, rho, rho_prime)
        assert len(calls) <= 100   # no grid scan
        assert te > 0
        assert te.hex() == _exit_time_scan(delta, Delta, rho, rho_prime).hex()
        checked += 1
    assert checked > 250


def test_exit_time_space_wrapper():
    # resolve_exit_compromise reads the space's curvature bounds and
    # checks the annulus against its r_cx
    sp = Sphere(2)
    assert resolve_exit_compromise(sp, math.pi / 6, math.pi / 2) == \
        resolve_exit_compromise_bounds(1.0, 1.0, math.pi / 6, math.pi / 2)
    with pytest.raises(PreconditionError, match=r"^exit_compromise: "
                       r"rho_prime=2.0 exceeds r_cx=1.5707963267948966$"):
        resolve_exit_compromise(sp, 0.5, 2.0)
    with pytest.raises(DomainError):
        exit_time_bounds(0.0, 1.0, 0.5, 0.4)


def test_exit_time_euclidean_in_bound():
    # flat case: t_in = (3-1)/2 = 1 caps the resolved value
    te = exit_time_bounds(0.0, 0.0, 1.0, 3.0)
    assert 0 < te <= 1.0
    assert resolve_exit_compromise_bounds(0.0, 0.0, 1.0, 3.0) == \
        pytest.approx(min(te, 1.0))


def test_exit_profile_scalar_reduction(rng):
    # both per-point bounds depend on y only through r = d(y, o): evaluate
    # the same formulas from sampled points on S^2 and compare
    from geomean.stepsize import _exit_profile
    sp = Sphere(2)
    o = sp.random_point(rng)
    rho, rho_prime = math.pi / 6, math.pi / 2
    for _ in range(200):
        r = rho + (rho_prime - rho) * rng.uniform()
        y = sp.exp(o, r * random_unit_tangent(sp, o, rng))
        ry = sp.distance(y, o)
        t1 = (2.0 / c_upper(1.0, rho_prime)) * ry * (ry - rho) \
            * sn(1.0, ry - rho) / sn(1.0, ry + rho)
        t2 = (rho_prime - ry) / (rho + ry)
        assert max(t1, t2) == pytest.approx(
            _exit_profile(1.0, 1.0, rho, rho_prime, r), abs=1e-12)


def test_angle_bound_ingredient(rng):
    # cos of the angle at y in triangle (x_i, y, o) is at least
    # sn(d(y,o) - rho) / sn(d(y,o) + rho) when x_i is in B(o, rho)
    sp = Sphere(2)
    rho, rho_prime = 0.3, math.pi / 2
    for _ in range(500):
        o = sp.random_point(rng)
        r = rho + (rho_prime - rho) * 0.98 * rng.uniform() + 1e-3
        y = sp.exp(o, r * random_unit_tangent(sp, o, rng))
        xi = sp.random_in_ball(o, rho, rng)
        vo = sp.log(y, o)
        vx = sp.log(y, xi)
        no, nx = sp.norm(y, vo), sp.norm(y, vx)
        if nx < 1e-9:
            continue
        cos_angle = sp.inner(y, vo, vx) / (no * nx)
        bound = sn(1.0, r - rho) / sn(1.0, r + rho)
        assert cos_angle >= bound - 1e-9


def test_policy_monotonicity():
    # resolved steps shrink as rho grows and as |delta| grows
    prev = math.inf
    for rho in np.linspace(0.05, 0.45, 9) * math.pi / 2:
        t = resolve_exit_compromise_bounds(0.0, 1.0, rho, math.pi / 2)
        assert t <= prev + 1e-12
        prev = t
    prev = math.inf
    for rho in np.linspace(0.1, 1.2, 8):
        t = CONJECTURE.resolve(Hyperbolic(2), rho, 2)
        assert t <= prev
        prev = t
    t_weak = CONJECTURE.resolve(Hyperbolic(2, kappa=-0.25), 0.8, 2)
    t_strong = CONJECTURE.resolve(Hyperbolic(2, kappa=-4.0), 0.8, 2)
    assert t_strong < t_weak


def test_rate_estimate():
    r = rate_estimate(1.0, 1.0, 1.0, 0.5)
    assert r.q == 0.0 and r.alpha == 1.0
    assert r.K == pytest.approx(1.0)
    r = rate_estimate(0.5, 1.0, 1.0, 0.0)
    assert r.q == pytest.approx(5 / 8)
    assert r.K == 0.0
    with pytest.raises(DomainError):
        rate_estimate(0.0, 1.0, 0.5, 0.1)
    with pytest.raises(DomainError):
        rate_estimate(1.0, 1.0, 2.5, 0.1)


def test_step_policy_resolution():
    sp = Sphere(2)
    assert StepPolicy("user_constant", t=0.7).resolve(sp, 0.3, 2) == 0.7
    assert StepPolicy("conjecture").resolve(sp, 0.3, 2) == 1.0
    assert StepPolicy("constant_curvature").resolve(sp, 0.3, 2) == 1.0
    p = StepPolicy("spread_compromise")
    assert p.resolve(sp, 0.3, 2) == 1.0
    p = StepPolicy("exit_compromise", rho_prime=math.pi / 2)
    assert p.resolve(sp, math.pi / 6, 2) > 0
    with pytest.raises(PreconditionError):
        StepPolicy("constant_curvature").resolve(Hyperbolic(2), 0.3, 2)
    with pytest.raises(PreconditionError):
        StepPolicy("exit_compromise", rho_prime=math.pi / 2).resolve(sp, 0.3, 3)
    with pytest.raises(DomainError):
        StepPolicy("nonsense").resolve(sp, 0.3, 2)


@pytest.mark.parametrize("space", [Euclidean(2), Hyperbolic(2), Sphere(2)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("rho_prime", [math.inf, -math.inf, math.nan])
def test_exit_compromise_refuses_a_non_finite_rho_prime(space, rho_prime):
    # the exit-time scan on an annulus out to inf runs on inf and NaN:
    # H^2 resolved 1/c_delta(inf) = 0.0 there, and E^2 1.0
    with pytest.raises(DomainError) as e:
        StepPolicy("exit_compromise", rho_prime=rho_prime).resolve(
            space, 0.5, 2)
    assert str(e.value) == \
        f"exit_compromise policy needs a finite rho_prime, got {rho_prime}"


@pytest.mark.parametrize("policy", [
    StepPolicy("user_constant", t=0.7), CONJECTURE,
    StepPolicy("constant_curvature"), StepPolicy("spread_compromise"),
    StepPolicy("exit_compromise", rho_prime=math.pi / 2)],
    ids=lambda p: p.kind)
@pytest.mark.parametrize("rho", [-0.5, -1e-300, -math.pi / 6])
def test_every_policy_refuses_a_negative_rho(policy, rho):
    # one message for every policy: constant_curvature and user_constant
    # resolved such a rho, and spread_compromise named 2 rho in its refusal
    with pytest.raises(DomainError) as e:
        policy.resolve(Sphere(2), rho, 2)
    assert str(e.value) == f"step policy needs rho >= 0, got {rho}"


def _bisect_200(f, rho_prime):
    """The largest-rho bisection without the early stop: 200 steps."""
    lo, hi = 1e-9 * rho_prime, rho_prime * (1.0 - 1e-9)
    if f(lo) < 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_largest_rho_matches_full_bisection():
    hp = math.pi / 2
    table_fns = [  # the two bisections of the step-size table
        lambda rho: resolve_exit_compromise_bounds(0.0, 1.0, rho, hp) - 1.0,
        lambda rho: exit_time_bounds(-1.0, 0.0, rho, hp)
        - 1.0 / c_upper(-1.0, rho + hp)]
    others = [lambda rho: 1.0,          # >= 0 everywhere: hi never moves
              lambda rho: 0.3 - rho,    # a root inside the range
              lambda rho: -1.0]         # negative at the bottom
    for f in table_fns + others:
        values = {}   # f is pure; caching keeps the 200 steps cheap

        def cached(rho):
            if rho not in values:
                values[rho] = f(rho)
            return values[rho]
        calls = []
        fast = experiments._largest_rho(
            lambda rho: calls.append(rho) or cached(rho), hp)
        assert fast == _bisect_200(cached, hp)
        assert len(calls) < 70   # the dead steps are gone

