import math

import numpy as np
import pytest

from geomean import frechet, solver
from geomean.errors import DomainError, PreconditionError
from geomean.experiments import cross_config
from geomean.frechet import cost, make_dataset, uniform_hessian_bound
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere)
from geomean.solver import (SolverConfig, _end_distance, _substeps_stay,
                            descend, fit_tail_rate, minimal_ball_estimate,
                            trailing_rate)

from conftest import one_step, random_unit_tangent

TH1, TH2 = 2 * math.pi / 5, -2 * math.pi / 5
SIX_SPACES = [Euclidean(2), Sphere(2), Circle(1.0), Hyperbolic(2),
              RealProjective(2), SO3()]


def circle_ds(weights):
    ci = Circle(1.0)
    return make_dataset(ci, [ci.point_from_angle(TH1), ci.point_from_angle(TH2)],
                        weights, ci.point_from_angle(0.0), TH1)


def test_euclidean_one_iteration():
    eu = Euclidean(3)
    rng = np.random.Generator(np.random.Philox(0))
    pts = rng.standard_normal((4, 3))
    w = np.array([0.1, 0.2, 0.3, 0.4])
    o = w @ pts
    rad = max(np.linalg.norm(p - o) for p in pts) + 1e-9
    ds = make_dataset(eu, pts, w, o, rad)
    tr = descend(ds, SolverConfig(p=2, step=1.0, grad_tol=1e-12),
                 x0=pts[0])
    assert tr.status == "converged"
    assert tr.n_iters == 1
    assert np.allclose(tr.final, o, atol=1e-12)
    assert tr.exit_code == 0


@pytest.mark.parametrize("field", ["step", "grad_tol", "hessian_upper"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_config_needs_finite_positive_step_and_tol(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_config_needs_finite_nonnegative_monitor_radius(value):
    with pytest.raises(DomainError, match="monitor_radius must be finite and >= 0"):
        SolverConfig(monitor_radius=value)


def test_circle_scenarios():
    ci = Circle(1.0)
    ds = circle_ds((0.1, 0.9))
    x1 = ci.point_from_angle(TH1)

    tr = descend(ds, SolverConfig(p=2, step=1.0, grad_tol=1e-13), x0=x1)
    assert tr.status == "converged"
    assert ci.angle(tr.final) == pytest.approx(-8 * math.pi / 25, abs=1e-10)

    # t = 25/18 lands exactly on the antipode of x1: cut-locus abort
    y = one_step(ds, 2, x1, 25.0 / 18.0)
    assert ci.angle(y) == pytest.approx(-3 * math.pi / 5, abs=1e-12)
    tr = descend(ds, SolverConfig(p=2, step=25.0 / 18.0, grad_tol=1e-13), x0=x1)
    assert tr.status == "cut_locus"
    assert tr.exit_code == 2
    assert tr.cut_locus_index == 0

    ds = circle_ds((0.25, 0.75))
    tr = descend(ds, SolverConfig(p=2, step=1.0, grad_tol=1e-13), x0=x1)
    assert ci.angle(tr.final) == pytest.approx(-math.pi / 5, abs=1e-10)

    y = one_step(ds, 2, x1, 11.0 / 6.0)
    assert ci.angle(y) == pytest.approx(-7 * math.pi / 10, abs=1e-12)
    tr = descend(ds, SolverConfig(p=2, step=11.0 / 6.0, grad_tol=1e-13), x0=x1)
    assert ci.angle(tr.final) == pytest.approx(-7 * math.pi / 10, abs=1e-10)
    assert tr.verdicts["stayed_in_ball"] is False


def test_one_step_fixed_point():
    ds = cross_config(0.5)
    o = ds.ball_center
    assert np.allclose(one_step(ds, 2, o, 1.0), o, atol=1e-13)


def test_max_iters_status():
    ds = cross_config(0.47 * math.pi)
    rng = np.random.Generator(np.random.Philox(1))
    x0 = ds.space.random_in_ball(ds.ball_center, ds.ball_radius, rng)
    tr = descend(ds, SolverConfig(p=2, step=0.05, grad_tol=1e-14, max_iters=3),
                 x0=x0)
    assert tr.status == "max_iters"
    assert tr.exit_code == 3
    assert tr.n_iters == 3


def test_descent_inequality_monitor(rng):
    # quantified per-step decrease with H from the uniform bound
    for trial in range(30):
        sp = Sphere(2)
        o = sp.random_point(rng)
        rho = 0.4 * math.pi * rng.uniform() + 0.05
        pts = [sp.random_in_ball(o, rho, rng) for _ in range(4)]
        ds = make_dataset(sp, pts, None, o, rho)
        H = uniform_hessian_bound(sp, rho, 2)
        t = 1.8 / H * rng.uniform() + 0.05
        x0 = sp.random_in_ball(o, rho, rng)
        tr = descend(ds, SolverConfig(p=2, step=t, grad_tol=1e-11,
                                      max_iters=300, hessian_upper=H), x0=x0)
        if tr.verdicts["continuously_stayed"]:
            assert tr.verdicts["descent_inequality"] is True


def test_stay_in_ball_sampled(rng):
    for space in (Sphere(2), SO3()):
        cap = space.constants().r_cx
        for _ in range(50):
            o = space.random_point(rng)
            rho = cap * (0.05 + 0.95 * rng.uniform())
            n = int(rng.integers(1, 6))
            pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
            ds = make_dataset(space, pts, rng.dirichlet(np.ones(n)), o, rho)
            t = rng.uniform() * 0.999 + 0.001
            x0 = space.random_in_ball(o, rho, rng)
            tr = descend(ds, SolverConfig(p=2, step=t, grad_tol=1e-9,
                                          max_iters=200), x0=x0)
            assert tr.verdicts["stayed_in_ball"] is True
            assert tr.verdicts["continuously_stayed"] is True
            assert tr.verdicts["monotone_cost"] is True


def test_stay_equivalence(rng):
    # when the endpoint stays in a strongly convex monitor ball and steps
    # are short, continuous stay follows
    sp = Sphere(3)
    for _ in range(30):
        o = sp.random_point(rng)
        rho = 0.45 * math.pi * rng.uniform() + 0.01
        pts = [sp.random_in_ball(o, rho, rng) for _ in range(3)]
        ds = make_dataset(sp, pts, None, o, rho)
        x0 = sp.random_in_ball(o, rho, rng)
        tr = descend(ds, SolverConfig(p=2, step=0.8, grad_tol=1e-9,
                                      max_iters=200), x0=x0)
        if tr.verdicts["stayed_in_ball"]:
            assert tr.verdicts["continuously_stayed"] is True


def _stayed_per_substep(ds, cfg, tr):
    """continuously_stayed replayed from the trace with a per-substep loop
    of per-pair exp and distance calls."""
    sp = ds.space
    center = ds.ball_center
    rho = ds.ball_radius if cfg.monitor_radius is None else cfg.monitor_radius
    limit = rho + 1e-9 * max(1.0, rho)
    m = 16
    for i, rec in enumerate(tr.records):
        last = i == len(tr.records) - 1
        if last and tr.status == "cut_locus":
            break
        if not sp.distance(center, rec.point) <= limit:
            return False
        if last:
            break
        step_vec = -cfg.step * frechet.cost_gradient(ds, cfg.p, rec.point)[1]
        for j in range(1, m + 1):
            y = sp.exp(rec.point, j / (m + 1) * step_vec)
            if not sp.distance(center, y) <= limit:
                return False
    return True


@pytest.mark.parametrize("space", [Euclidean(2), Sphere(2), Circle(1.0),
                                   Hyperbolic(2), RealProjective(2), SO3()],
                         ids=lambda s: s.kind)
def test_continuous_stay_matches_per_substep_loop(space, rng):
    reach = min(space.constants().r_cx, 1.5)
    seen = set()
    for _ in range(25):
        o = space.random_point(rng)
        rho = reach * (0.1 + 0.85 * rng.uniform())
        pts = [space.random_in_ball(o, rho, rng) for _ in range(4)]
        ds = make_dataset(space, pts, None, o, rho)
        # a monitor radius of its own, at times wider than r_cx, so that
        # some steps leave the monitor ball between two iterates inside it
        mon_r = 2.0 * reach * rng.uniform()
        H = uniform_hessian_bound(space, rho, 2)
        cfg = SolverConfig(p=2, step=(0.05 + 1.9 * rng.uniform()) / H,
                           grad_tol=1e-9, max_iters=40, monitor_radius=mon_r)
        tr = descend(ds, cfg, x0=space.random_in_ball(o, rho, rng))
        stayed = tr.verdicts["continuously_stayed"]
        assert stayed == _stayed_per_substep(ds, cfg, tr)
        seen.add(stayed)
    assert seen == {True, False}


@pytest.mark.parametrize("s, cap", [(0.5, 0.25), (1.0 / 17.0, 1e-3)])
def test_continuous_stay_catches_a_step_leaving_between_iterates(s, cap):
    # the monitor ball, the dataset's ball, is the sphere minus a cap of
    # radius cap * L around the point q at parameter s of the first step
    # (length L): both ends are inside, the substeps near q are not.
    # s = 1/17 is the first of the 16 substeps, and only that one is
    # inside so small a cap
    sp = Sphere(2)
    cross = cross_config(0.4)
    x0 = sp.exp(cross.ball_center, np.array([0.3, 0.0, 0.0]))
    x1 = one_step(cross, 2, x0, 1.0)
    L = sp.distance(x0, x1)
    q = sp.exp(x0, s * sp.log(x0, x1))
    ds = make_dataset(sp, cross.points, cross.weights, -q, math.pi - cap * L)
    cfg = SolverConfig(p=2, step=1.0, max_iters=1)
    tr = descend(ds, cfg, x0=x0)
    assert tr.verdicts["stayed_in_ball"] is True
    assert tr.verdicts["continuously_stayed"] is False
    assert _stayed_per_substep(ds, cfg, tr) is False


def _descend_counting(monkeypatch, **cfg):
    """A descent on the cross configuration, with the calls of its
    primitives counted."""
    ds = cross_config(0.35 * math.pi)
    sp = ds.space
    x0 = sp.exp(ds.ball_center, np.array([0.5, -0.4, 0.0]))
    calls = dict.fromkeys(
        ("exp", "distance", "_log_scales", "exp_many", "dist_many"), 0)
    for name in calls:
        def counted(x, y, name=name, method=getattr(sp, name)):
            calls[name] += 1
            return method(x, y)
        monkeypatch.setattr(sp, name, counted)
    tr = descend(ds, SolverConfig(p=2, step=0.5, grad_tol=1e-12, **cfg), x0=x0)
    assert tr.status == "converged" and tr.n_iters > 5
    assert tr.verdicts["continuously_stayed"] is True
    return tr, calls


def test_descend_per_pair_calls(monkeypatch):
    # one exp per step; one distance per iterate for the record and the
    # ball monitor together (the step to an iterate computes it for the
    # convexity certificate), and one more for dist_to_final; one
    # _log_scales per iterate for its cost and gradient together; no
    # sampled substeps, since every step is certified
    tr, calls = _descend_counting(monkeypatch)
    assert calls == {"exp": tr.n_iters, "distance": 2 * len(tr.records),
                     "_log_scales": len(tr.records),
                     "exp_many": 0, "dist_many": 0}


def test_descend_per_pair_calls_on_a_ball_of_radius_r_cx(monkeypatch):
    # a monitor ball of radius r_cx (pi/2 on the unit S^2) is not
    # certified strongly convex, so every step samples its substeps: one
    # exp_many and one dist_many
    tr, calls = _descend_counting(monkeypatch, monitor_radius=math.pi / 2)
    assert calls == {"exp": tr.n_iters, "distance": 2 * len(tr.records),
                     "_log_scales": len(tr.records),
                     "exp_many": tr.n_iters, "dist_many": tr.n_iters}


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_certified_stay_agrees_with_sampled_substeps(space, rng):
    # the convexity certificate of a step (_end_distance at most rho)
    # never passes a step that the 16 sampled substeps fail.  Monitor
    # balls reach 1.5 r_cx, a third of the steps wrap once round a closed
    # geodesic (longer than inj, same end) and a third have an end in the
    # 1e-9 slack band above rho, which only the sampled check admits
    c = space.constants()
    reach = min(c.r_cx, 1.5)
    sub_s = np.arange(1, 17)[:, np.newaxis] / 17
    seen = set()
    for i in range(300):
        o = space.random_point(rng)
        rho = 1.5 * reach * rng.uniform()
        x = space.random_in_ball(o, rho, rng)
        v = ((2.2 * reach * rng.uniform() + 1e-3)
             * random_unit_tangent(space, x, rng))
        if i % 3 == 1 and math.isfinite(c.inj):
            v *= 1.0 + 2.0 * c.inj / space.norm(x, v)
        y = space.exp(x, v)
        if i % 3 == 2:
            rho = max(space.distance(o, x), space.distance(o, y)) * (1.0 - 5e-10)
        d = _end_distance(space, o, rho, space.distance(o, x),
                          space.norm(x, v), y)
        if d is not None:
            assert d == space.distance(o, y)   # reused as the next d_mon
        certified = d is not None and d <= rho
        sampled = _substeps_stay(space, x, sub_s * v, o,
                                 rho + 1e-9 * max(1.0, rho))
        assert (certified or sampled) == sampled
        seen.add((certified, sampled))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_certified_steps_leave_the_trace_unchanged(space, rng, monkeypatch):
    # the same runs with every step sampled give identical records,
    # verdicts and final points
    reach = min(space.constants().r_cx, 1.5)
    runs = []
    for _ in range(6):
        o = space.random_point(rng)
        rho = reach * (0.1 + 0.85 * rng.uniform())
        pts = [space.random_in_ball(o, rho, rng) for _ in range(4)]
        ds = make_dataset(space, pts, None, o, rho)
        H = uniform_hessian_bound(space, rho, 2)
        cfg = SolverConfig(p=2, step=(0.05 + 1.9 * rng.uniform()) / H,
                           grad_tol=1e-9, max_iters=40)
        runs.append((ds, cfg, space.random_in_ball(o, rho, rng)))
    def rows(tr):
        return [[r.k, r.cost, r.grad_norm, r.dist_to_o, r.step_used, *r.point]
                for r in tr.records]

    certified = [descend(*run) for run in runs]
    monkeypatch.setattr(solver, "_end_distance", lambda *args: None)
    for tr, run in zip(certified, runs):
        sampled = descend(*run)
        np.testing.assert_array_equal(rows(tr), rows(sampled))
        assert tr.verdicts == sampled.verdicts
        assert np.array_equal(tr.final, sampled.final)


@pytest.mark.parametrize("space", [Euclidean(2), Sphere(2), Circle(1.0),
                                   Hyperbolic(2), RealProjective(2), SO3()],
                         ids=lambda s: s.kind)
def test_records_carry_cost_and_gradient_of_their_point(space, rng):
    reach = min(space.constants().r_cx, 1.5)
    for p in (2.0, 3.0):
        o = space.random_point(rng)
        rho = 0.5 * reach
        pts = [space.random_in_ball(o, rho, rng) for _ in range(5)]
        ds = make_dataset(space, pts, None, o, rho)
        cfg = SolverConfig(p=p, step=0.5 / uniform_hessian_bound(space, rho, p),
                           grad_tol=1e-9, max_iters=30)
        tr = descend(ds, cfg, x0=space.random_in_ball(o, rho, rng))
        assert tr.n_iters > 2
        for rec in tr.records:
            assert rec.cost == frechet.cost(ds, p, rec.point)
            assert rec.grad_norm == space.norm(
                rec.point, frechet.cost_gradient(ds, p, rec.point)[1])


def test_cut_locus_record_keeps_the_cost_of_its_point():
    # t = 25/18 from x1 lands on the antipode of x1, where only the cost
    # is defined
    ds = circle_ds((0.1, 0.9))
    x1 = ds.space.point_from_angle(TH1)
    tr = descend(ds, SolverConfig(p=2, step=25.0 / 18.0, grad_tol=1e-13), x0=x1)
    assert tr.status == "cut_locus" and tr.cut_locus_index == 0
    first, last = tr.records
    assert first.cost == frechet.cost(ds, 2, x1)
    assert first.grad_norm == ds.space.norm(
        x1, frechet.cost_gradient(ds, 2, x1)[1])
    assert last.cost == frechet.cost(ds, 2, last.point)
    assert math.isnan(last.grad_norm)


@pytest.mark.parametrize("monitor_radius", [None, 1e3])
@pytest.mark.parametrize("t", [1000.0, 10000.0])
def test_overflowing_step_raises_its_own_exp_error(t, monitor_radius):
    # the first step (length 0.75 t) overflows the hyperboloid
    # coordinates: its own exp error is the run's, whatever the monitor
    # ball, and no sampled substep's comes first
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    ds = make_dataset(hy, [hy.exp(o, 2.0 * e1), hy.exp(o, -0.5 * e1)],
                      None, o, 2.0)
    with pytest.raises(DomainError) as expected:
        hy.exp(o, -t * frechet.cost_gradient(ds, 2, o)[1])
    cfg = SolverConfig(p=2, step=t, max_iters=5, monitor_radius=monitor_radius)
    with pytest.raises(DomainError) as err:
        descend(ds, cfg)
    assert str(err.value) == str(expected.value)
    assert f"length {0.75 * t} " in str(err.value)


def test_step_of_non_finite_length_is_an_error():
    # at x0 off the axis of the data the gradient has a time component:
    # t |grad f| and both coordinates of t grad f pass the float range,
    # where exp could only report a step of length nan
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    e1, e2 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    ds = make_dataset(hy, [hy.exp(o, 3.0 * e1), hy.exp(o, -3.0 * e1)],
                      None, o, 3.0)
    with pytest.raises(DomainError) as err:
        descend(ds, SolverConfig(p=2, step=1e308), x0=hy.exp(o, 2.0 * e2))
    assert str(err.value) == "hyperbolic: exp step of length inf overflows"


def _multistart(ds, cfg, n_starts, rng):
    """The finals of descents from n_starts uniform starts in B(o, rho),
    and their largest pairwise distance."""
    sp = ds.space
    finals = [descend(ds, cfg, x0=sp.random_in_ball(ds.ball_center,
                                                    ds.ball_radius, rng)).final
              for _ in range(n_starts)]
    spread = max((sp.distance(a, b) for i, a in enumerate(finals)
                  for b in finals[i + 1:]), default=0.0)
    return finals, spread


def test_multistart_uniqueness(rng):
    # below r_cx every start in the ball descends to the one minimizer
    ds = cross_config(0.35 * math.pi)
    cfg = SolverConfig(p=2, step=1.0, grad_tol=1e-12, max_iters=500)
    finals, spread = _multistart(ds, cfg, 16, rng)
    assert spread <= 10.0 * cfg.grad_tol
    assert ds.space.distance(finals[0], ds.ball_center) <= 1e-9

    sp = Sphere(2)
    p1 = sp.exp(np.array([0.0, 0.0, 1.0]), np.array([0.2, 0.0, 0.0]))
    ds1 = make_dataset(sp, [p1], None, np.array([0.0, 0.0, 1.0]), 0.3)
    finals, spread = _multistart(ds1, cfg, 5, rng)
    assert spread <= 10.0 * cfg.grad_tol
    assert sp.distance(finals[0], p1) <= 1e-9


def test_multistart_so3_brute_force(rng):
    so3 = SO3()
    o = so3.random_point(rng)
    rho = 0.4 * so3.constants().r_cx
    pts = [so3.random_in_ball(o, rho, rng) for _ in range(10)]
    ds = make_dataset(so3, pts, None, o, rho)
    cfg = SolverConfig(p=2, step=1.0, grad_tol=1e-12, max_iters=500)
    finals, spread = _multistart(ds, cfg, 8, rng)
    assert spread <= 10.0 * cfg.grad_tol
    xbar = finals[0]
    # brute-force check: no sampled point in the ball does better
    f_bar = cost(ds, 2, xbar)
    best = min(cost(ds, 2, so3.random_in_ball(o, rho, rng))
               for _ in range(20000))
    assert f_bar <= best + 1e-12


def test_minimal_ball_trivial():
    ci = Circle(1.0)
    c, r = minimal_ball_estimate(ci, [ci.point_from_angle(0.7)])
    assert r == 0.0
    pts = [ci.point_from_angle(0.6), ci.point_from_angle(-0.6)]
    c, r = minimal_ball_estimate(ci, pts)
    assert ci.angle(c) == pytest.approx(0.0, abs=5e-3)
    assert r == pytest.approx(0.6, rel=0.02)


def test_minimal_ball_cap_fixture(rng):
    sp = Sphere(2)
    o = sp.random_point(rng)
    pts = [sp.random_in_ball(o, 0.6, rng) for _ in range(20)]
    c_est, r_est = minimal_ball_estimate(sp, pts)
    # dense tangent-grid oracle around the estimate
    b1 = random_unit_tangent(sp, c_est, rng)
    b2 = sp.tangent_project(c_est, np.cross(c_est, b1))
    b2 /= np.linalg.norm(b2)
    r_true = min(
        max(sp.distance(sp.exp(c_est, a * b1 + b * b2), q) for q in pts)
        for a in np.linspace(-0.15, 0.15, 61)
        for b in np.linspace(-0.15, 0.15, 61))
    assert r_est <= r_true * 1.02
    with pytest.raises(PreconditionError):
        minimal_ball_estimate(sp, [np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])])


def _array_loop_minimal_ball(space, points, iters=200):
    """Reference: minimal_ball_estimate with a full dist_many for the
    far point of every step."""
    row_max = np.array([space.dist_many(p, points).max() for p in points])
    center = points[np.argmin(row_max)].copy()
    for k in range(iters):
        far = points[np.argmax(space.dist_many(center, points))]
        center = space.exp(center, space.log(center, far) / (k + 2.0))
    return center, float(np.max(space.dist_many(center, points)))


@pytest.mark.parametrize("space", [Euclidean(3), Sphere(2), Circle(1.0),
                                   Hyperbolic(2), RealProjective(2), SO3()],
                         ids=lambda s: s.kind)
def test_minimal_ball_matches_point_loop(space, rng):
    for n in (2, 5, 12):
        o = space.random_point(rng)
        pts = np.array([space.random_in_ball(o, 0.5, rng) for _ in range(n)])
        c, r = minimal_ball_estimate(space, pts)
        c_ref, r_ref = _array_loop_minimal_ball(space, pts)
        assert np.array_equal(c, c_ref)
        assert r == r_ref


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_minimal_ball_dist_many_calls(space, rng, monkeypatch):
    # one per point for the pairwise seed, and the final radius; the 200
    # far points come from one ambient product each, except on Euclidean
    # space, whose dist_many is already one subtraction and a norm
    o = space.random_point(rng)
    pts = np.array([space.random_in_ball(o, 0.5, rng) for _ in range(8)])
    calls = []
    dist_many = space.dist_many

    def counted(*args):
        calls.append(1)
        return dist_many(*args)

    monkeypatch.setattr(space, "dist_many", counted)
    minimal_ball_estimate(space, pts)
    assert len(calls) == len(pts) + (201 if space.kind == "euclidean" else 1)


@pytest.mark.parametrize("space, far", [
    (Circle(1.0), np.array([-1.0, 0.0])),
    (SO3(), np.array([math.cos(math.pi / 2), 0.0, 0.0, 1.0])),   # pi about z
], ids=["circle", "so3"])
def test_trailing_rate_is_none_at_a_cut_locus_stop(space, far):
    # the run stops at o, a distance inj from `far`: no radial Hessian
    # bound holds there, so no rate is predicted
    o = np.eye(space.ambient_dim)[0]
    ds = make_dataset(space, [o, far], None, o, math.pi)
    tr = descend(ds, SolverConfig(p=2.0, step=0.5))
    assert tr.status == "cut_locus" and tr.n_iters == 0
    assert trailing_rate(ds, tr, 0.5) is None


def test_fit_tail_rate(rng):
    ds = cross_config(0.35 * math.pi)
    x0 = ds.space.random_in_ball(ds.ball_center, ds.ball_radius, rng)
    tr = descend(ds, SolverConfig(p=2, step=0.5, grad_tol=1e-12, max_iters=500),
                 x0=x0)
    q = fit_tail_rate(tr)
    assert q is not None and 0 < q < 1
