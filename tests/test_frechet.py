import math

import numpy as np
import pytest

from geomean.errors import CutLocusError, DomainError, PreconditionError
from geomean.frechet import (cost, cost_gradient, dataset_from_json,
                             fd_hessian_quadratic_form, hessian_radial_bounds,
                             make_dataset, uniform_hessian_bound)
from geomean.kernels import b_lower, c_upper
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere)
from geomean.experiments import cross_config, pair_config
from geomean.solver import minimal_ball_estimate

from conftest import dataset_json, random_unit_tangent

TH1, TH2 = 2 * math.pi / 5, -2 * math.pi / 5


def circle_ds(weights=(0.1, 0.9)):
    ci = Circle(1.0)
    return make_dataset(ci, [ci.point_from_angle(TH1), ci.point_from_angle(TH2)],
                        weights, ci.point_from_angle(0.0), TH1)


def random_ds(space, rng, rho=0.6, n=5):
    o = space.random_point(rng)
    pts = [space.random_in_ball(o, rho, rng) for _ in range(n)]
    w = rng.dirichlet(np.ones(n))
    return make_dataset(space, pts, w, o, rho)


def test_cost_examples():
    ds = circle_ds()
    ci = ds.space
    assert cost(ds, 2, ci.point_from_angle(0.0)) == pytest.approx(
        0.5 * (2 * math.pi / 5) ** 2, abs=1e-12)
    ds1 = make_dataset(Sphere(2), [np.array([0.0, 0.0, 1.0])], None,
                       np.array([0.0, 0.0, 1.0]), 0.1)
    assert cost(ds1, 3, ds1.points[0]) == 0.0
    rho = math.pi / 4
    assert cost(cross_config(rho), 2, np.array([0.0, 0.0, 1.0])) == \
        pytest.approx(rho**2 / 2, abs=1e-12)


def test_gradient_examples(rng):
    # symmetric cross: zero gradient at the pole
    o = np.array([0.0, 0.0, 1.0])
    cross = cross_config(0.5)
    assert cross.space.norm(o, cost_gradient(cross, 2, o)[1]) <= 1e-14

    # circle two-point dataset at x1: norm 18 pi / 25, pointing toward th2
    ds = circle_ds()
    ci = ds.space
    x1 = ci.point_from_angle(TH1)
    g = cost_gradient(ds, 2, x1)[1]
    assert ci.norm(x1, g) == pytest.approx(18 * math.pi / 25, abs=1e-12)
    step = ci.exp(x1, -0.01 * g)
    assert ci.angle(step) < TH1  # descent moves toward th2

    # Euclidean p=2 gradient is x - sum w_i x_i
    eu = Euclidean(3)
    ds = random_ds(eu, rng)
    x = rng.standard_normal(3)
    g = cost_gradient(ds, 2, x)[1]
    assert np.allclose(g, x - ds.weights @ ds.points, atol=1e-12)


def test_gradient_cut_locus_index():
    ci = Circle(1.0)
    ds = circle_ds()
    antipode = ci.point_from_angle(TH1 - math.pi)
    with pytest.raises(CutLocusError) as ei:
        cost_gradient(ds, 2, antipode)
    assert ei.value.index == 0


SIX_SPACES = [Euclidean(3), Sphere(2), Circle(1.0), Hyperbolic(2),
              RealProjective(2), SO3()]


def _loop_cost(ds, p, x):
    """Reference: f_p as a sum over the data points, one pair at a time."""
    return sum(w * ds.space.distance(x, xi) ** p
               for w, xi in zip(ds.weights, ds.points)) / p


def _loop_gradient(ds, p, x):
    """Reference: grad f_p as a sum over the data points, one pair at a time."""
    g = np.zeros(ds.space.ambient_dim)
    for w, xi in zip(ds.weights, ds.points):
        lg, d = ds.space.log_dist(x, xi)
        g -= w * d ** (p - 2.0) * lg
    return g


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_cost_and_gradient_match_point_loop(space, rng):
    for _ in range(20):
        ds = random_ds(space, rng, rho=min(0.6, space.constants().r_cx / 2),
                       n=int(rng.integers(1, 40)))
        if space.kind in ("real_projective", "so3"):
            ds.points[::2] *= -1.0   # the other lift of the same points
        x = space.random_in_ball(ds.ball_center, ds.ball_radius, rng)
        for xe in (x, ds.points[0]):   # also at a data point, where d = 0
            for p in (2.0, 3.0, 4.5):
                assert cost(ds, p, xe) == pytest.approx(
                    _loop_cost(ds, p, xe), rel=1e-12, abs=1e-15)
                # the fused evaluation is bit for bit cost's value and
                # one weighted sum of the tangential parts of _log_scales
                f, g = cost_gradient(ds, p, xe)
                np.testing.assert_allclose(g, _loop_gradient(ds, p, xe),
                                           rtol=1e-12, atol=1e-14)
                assert f == cost(ds, p, xe)
                U, s, d = space._log_scales(xe, ds.points)
                w = ds.weights if p == 2.0 else ds.weights * d ** (p - 2.0)
                assert np.array_equal(g, -((w * s) @ U))


@pytest.mark.parametrize("space", [Sphere(2), Circle(1.0), RealProjective(2),
                                   SO3()], ids=lambda s: s.kind)
def test_gradient_cut_locus_first_row(space, rng):
    inj = space.constants().inj
    x = space.random_point(rng)
    radii = (0.3 * inj, inj * (1.0 - 1e-10), inj * (1.0 - 1e-11), 0.5 * inj)
    pts = [space.exp(x, r * random_unit_tangent(space, x, rng)) for r in radii]
    ds = make_dataset(space, pts, None, x, inj)
    for p in (2.0, 3.0):
        with pytest.raises(CutLocusError, match="data point 1 ") as ei:
            cost_gradient(ds, p, x)
        assert ei.value.index == 1
    assert math.isfinite(cost(ds, 2.0, x))


def test_gradient_fd_directional(rng):
    h = 1e-6
    for space in (Sphere(2), Hyperbolic(2), SO3(), Euclidean(3)):
        for _ in range(250):
            ds = random_ds(space, rng, rho=min(0.6, space.constants().r_cx / 2))
            x = space.random_in_ball(ds.ball_center, ds.ball_radius, rng)
            p = float(rng.choice([2.0, 3.0]))
            g = cost_gradient(ds, p, x)[1]
            u = random_unit_tangent(space, x, rng)
            fd = (cost(ds, p, space.exp(x, h * u))
                  - cost(ds, p, space.exp(x, -h * u))) / (2 * h)
            ip = space.inner(x, g, u)
            assert fd == pytest.approx(ip, rel=1e-6, abs=1e-8)


def test_gradient_norm_bound(rng):
    for space in (Sphere(2), SO3()):
        for _ in range(100):
            rho = space.constants().r_cx * rng.uniform()
            ds = random_ds(space, rng, rho=max(rho, 1e-3))
            x = space.random_in_ball(ds.ball_center, ds.ball_radius, rng)
            for p in (2.0, 3.0, 4.0):
                gn = space.norm(x, cost_gradient(ds, p, x)[1])
                assert gn < (2 * ds.ball_radius) ** (p - 1)


def test_hessian_radial_bounds():
    hb = hessian_radial_bounds(Sphere(2), math.pi / 2 - 1e-12)
    assert hb["lower"] == pytest.approx(0.0, abs=1e-10)
    assert hb["upper"] == 1.0
    assert hessian_radial_bounds(Euclidean(2), 5.0) == {"lower": 1.0, "upper": 1.0}
    hb = hessian_radial_bounds(Hyperbolic(2), 2 * math.pi / 3)
    assert hb["lower"] == 1.0
    assert hb["upper"] == pytest.approx(2.1588946242718521, abs=1e-12)
    with pytest.raises(DomainError):
        hessian_radial_bounds(Sphere(2), math.pi)


def test_uniform_hessian_bound():
    assert uniform_hessian_bound(Sphere(2), 0.4 * math.pi, 2) == 1.0
    assert uniform_hessian_bound(Sphere(2), 0.5, 4) == pytest.approx(3.0)
    assert uniform_hessian_bound(Hyperbolic(2), math.pi / 3, 2) == \
        pytest.approx(2.1588946242718521, abs=1e-12)
    with pytest.raises(PreconditionError):
        uniform_hessian_bound(Sphere(2), 2.0, 2)
    # a NaN radius is neither above r_cx nor at least 0
    with pytest.raises(DomainError, match="need rho >= 0, got nan"):
        uniform_hessian_bound(Sphere(2), math.nan, 2)
    # H underflows to 0 (1/H would divide by zero) or overflows
    for rho, p in ((1e-300, 3.14), (0.7, 1e300)):
        with pytest.raises(DomainError, match="out of range"):
            uniform_hessian_bound(Sphere(2), rho, p)
    # one point, or coincident points: H at p = 2 is c_delta(0) = 1, and
    # at p > 2 it is 0, which has no step 1/H
    for space in SIX_SPACES:
        assert uniform_hessian_bound(space, 0.0, 2) == 1.0
        with pytest.raises(DomainError, match="H=0.0 out of range"):
            uniform_hessian_bound(space, 0.0, 3)
        with pytest.raises(DomainError, match="need rho >= 0, got -0.1"):
            uniform_hessian_bound(space, -0.1, 2)


def test_fd_hessian_single_point_sandwich(rng):
    for space in (Sphere(2), Hyperbolic(2), SO3(), Euclidean(3)):
        cst = space.constants()
        top = cst.inj
        if cst.Delta > 0:
            top = min(top, math.pi / math.sqrt(cst.Delta))
        for _ in range(100):
            o = space.random_point(rng)
            d = min(top, 3.0) * (0.05 + 0.85 * rng.uniform())
            y = space.exp(o, d * random_unit_tangent(space, o, rng))
            ds = make_dataset(space, [y], None, y, 1e-6)
            u = random_unit_tangent(space, o, rng)
            q = fd_hessian_quadratic_form(ds, 2, o, u)
            hb = hessian_radial_bounds(space, d)
            assert hb["lower"] - 1e-4 <= q <= hb["upper"] + 1e-4


def test_fd_hessian_p_general_sandwich(rng):
    space = Sphere(2)
    for _ in range(60):
        o = space.random_point(rng)
        d = (0.1 + 0.7 * rng.uniform()) * math.pi / 2
        y = space.exp(o, d * random_unit_tangent(space, o, rng))
        ds = make_dataset(space, [y], None, y, 1e-6)
        u = random_unit_tangent(space, o, rng)
        for p in (2.0, 3.0, 4.0):
            q = fd_hessian_quadratic_form(ds, p, o, u)
            lo = d ** (p - 2) * min(p - 1, b_lower(1.0, d))
            hi = d ** (p - 2) * max(p - 1, c_upper(1.0, d))
            assert lo - 1e-4 <= q <= hi + 1e-4


def test_config_eigenvalue_formulas():
    o = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    for rho in (math.pi / 4, 0.35 * math.pi, 0.47 * math.pi):
        pred_cross = 0.5 * (rho / math.tan(rho) + 1.0)
        ds = cross_config(rho)
        for u in (e1, e2):
            assert fd_hessian_quadratic_form(ds, 2, o, u) == \
                pytest.approx(pred_cross, abs=1e-5)
        ds = pair_config(rho)
        assert fd_hessian_quadratic_form(ds, 2, o, e1) == pytest.approx(1.0, abs=1e-5)
        assert fd_hessian_quadratic_form(ds, 2, o, e2) == \
            pytest.approx(rho / math.tan(rho), abs=1e-5)


@pytest.mark.parametrize("points", [[], np.empty((0, 3))], ids=["list", "array"])
def test_make_dataset_refuses_no_points(points):
    # an empty list once read as one point of shape (0,), which
    # check_points refused with a shape error
    o = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DomainError, match="^dataset needs at least one point$"):
        make_dataset(Sphere(2), points, None, o, 0.5)


def test_dataset_validation():
    sp = Sphere(2)
    o = np.array([0.0, 0.0, 1.0])
    p1 = sp.exp(o, np.array([0.3, 0.0, 0.0]))
    with pytest.raises(DomainError):
        make_dataset(sp, [p1], [0.9], o, 0.5)        # weights sum != 1
    with pytest.raises(DomainError):
        make_dataset(sp, [p1], [0.5, 0.5], o, 0.5)   # count mismatch
    with pytest.raises(DomainError):
        make_dataset(sp, [p1], None, o, 0.1)         # point outside ball
    p2 = sp.exp(o, np.array([0.0, 0.2, 0.0]))
    with pytest.raises(DomainError, match="^point 1 at distance"):
        make_dataset(sp, [p2, p1, p1], None, o, 0.25)  # first one outside
    with pytest.raises(DomainError):
        make_dataset(sp, [p1], [1.0], o, None)       # no ball
    with pytest.raises(DomainError, match=r"^weights must lie in \[0, 1\]$"):
        make_dataset(sp, [p1, p2], [math.nan, 1.0], o, 0.5)   # NaN weight
    ds = make_dataset(sp, [p1], [1.0 + 5e-10], o, 0.5)  # renormalized once
    assert ds.weights[0] == 1.0
    with pytest.raises(DomainError):
        cost(ds, 1.5, o)                             # p < 2 rejected
    # a weight of -0.0 comes back as +0.0, one of -1e-13 as 0.0
    for w0 in (-0.0, -1e-13):
        ds = make_dataset(sp, [p1, p2], [w0, 1.0], o, 0.5)
        assert ds.weights.tolist() == [0.0, 1.0]
        assert math.copysign(1.0, ds.weights[0]) == 1.0
    # the weights are checked before the center
    with pytest.raises(DomainError, match=r"^weights must lie in \[0, 1\]$"):
        make_dataset(sp, [p1], [2.0], 2.0 * o, 0.5)
    # the first bad row is reported, alone or among good ones, on both
    # sides of the row count from which the kernels run along the points
    nan_row, off_row = np.array([math.nan, 0.0, 1.0]), 2.0 * p1
    nan_text = f"sphere: non-finite coordinate in {nan_row}"
    off_text = "sphere: representation violated by 1.000e+00"
    for n in (1, 5, 200):
        for i in {0, n - 1}:
            for bad, text in ((nan_row, nan_text), (off_row, off_text),
                              (np.array([0.0, -math.inf, 0.0]),
                               "sphere: non-finite coordinate in "
                               f"{np.array([0.0, -math.inf, 0.0])}")):
                pts = np.array([p1] * n)
                pts[i] = bad
                with pytest.raises(DomainError) as e:
                    make_dataset(sp, pts, None, o, 0.5)
                assert str(e.value) == text
        if n > 1:   # an off-manifold row before a non-finite one
            pts = np.array([p1] * n)
            pts[0], pts[-1] = off_row, nan_row
            with pytest.raises(DomainError) as e:
                make_dataset(sp, pts, None, o, 0.5)
            assert str(e.value) == off_text
    # the points and the center are checked in one pass where both pass,
    # and one at a time, points, weights, ball, center, where one fails:
    # the first error and its text are the same either way
    hy, eu = Hyperbolic(2), Euclidean(2)
    h0 = np.array([1.0, 0.0, 0.0])
    for args, error, text in (
            ((sp, [p1], None, nan_row, 0.5), DomainError, nan_text),
            ((sp, [p1], None, 2.0 * o, 0.5), DomainError, off_text),
            ((sp, [p1], None, [0.0, 1.0], 0.5), DomainError,
             "sphere: point shape (2,), expected (3,)"),
            ((sp, [p1], None, [o], 0.5), DomainError,
             "sphere: point shape (1, 3), expected (3,)"),
            ((sp, [p1], None, "abc", 0.5), ValueError,
             "could not convert string to float: 'abc'"),
            ((sp, [p1], None, {"a": 1}, 0.5), TypeError,
             "float() argument must be a string or a real number, not 'dict'"),
            ((sp, [p1], None, [10 ** 400, 0, 1], 0.5), OverflowError,
             "int too large to convert to float"),
            ((sp, [p1], [2.0], nan_row, 0.5), DomainError,
             "weights must lie in [0, 1]"),
            ((sp, [p1], [2.0], "abc", 0.5), DomainError,
             "weights must lie in [0, 1]"),
            ((sp, [p1], None, nan_row, None), DomainError,
             "dataset needs an enclosing ball (o, rho)"),
            ((sp, [p1, off_row], None, nan_row, 0.5), DomainError, off_text),
            ((sp, [nan_row], None, [0.0, 1.0], 0.5), DomainError, nan_text),
            ((eu, [[0.0, 0.0]], None, [1e200, 0.0], 0.5), DomainError,
             f"euclidean: point {np.array([1e200, 0.0])} has norm at or "
             "above 1e+150"),
            ((hy, [h0], None, -h0, 0.5), DomainError,
             "hyperbolic: representation violated by inf"),
            ((hy, [h0], None, [math.inf, 0.0, 0.0], 0.5), DomainError,
             f"hyperbolic: non-finite coordinate in {np.array([math.inf, 0.0, 0.0])}")):
        with pytest.raises(error) as e:
            make_dataset(*args)
        assert str(e.value) == text, args


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_dataset_is_validated_in_one_pass(space, rng, monkeypatch):
    o = space.random_point(rng)
    pts = np.array(space.random_points_in_ball(o, 0.5, 5, rng))
    calls = []
    check_points = space.check_points

    def spy(X):
        calls.append(np.array(X))
        return check_points(X)
    monkeypatch.setattr(space, "check_points", spy)
    ds = make_dataset(space, pts, None, list(o), 0.5)
    assert len(calls) == 1
    assert calls[0].tobytes() == np.vstack([pts, o]).tobytes()
    assert ds.ball_center.dtype == float and ds.ball_center.tolist() == \
        o.tolist()


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_ball_less_dataset_validates_its_points_once(space, rng,
                                                     monkeypatch):
    # without a "ball", the points are checked once, before the ball
    # estimate, and the estimate's center alone after it; the dataset is
    # make_dataset's on the same inputs, byte for byte
    ds = random_ds(space, rng)
    obj = dataset_json(ds)
    del obj["ball"]
    calls, check_points = [], type(space).check_points

    def spy(self, X):
        calls.append(np.array(X))
        return check_points(self, X)
    monkeypatch.setattr(type(space), "check_points", spy)
    got = dataset_from_json(obj, ball_fallback=minimal_ball_estimate)
    assert [c.tobytes() for c in calls] == [ds.points.tobytes(),
                                            got.ball_center.tobytes()]
    monkeypatch.undo()
    want = make_dataset(space, ds.points, ds.weights,
                        *minimal_ball_estimate(space, ds.points))
    for a, b in ((got.points, want.points), (got.weights, want.weights),
                 (got.ball_center, want.ball_center)):
        assert a.tobytes() == b.tobytes()
    assert got.ball_radius == want.ball_radius


def test_uniqueness_certificate_flag():
    sp = Sphere(2)
    o = np.array([0.0, 0.0, 1.0])
    p1 = sp.exp(o, np.array([0.3, 0.0, 0.0]))
    assert make_dataset(sp, [p1], None, o, 0.5).uniqueness_certified
    assert not make_dataset(sp, [p1], None, o, 2.0).uniqueness_certified


def test_dataset_json_roundtrip(rng):
    ds = random_ds(Sphere(2), rng)
    back = dataset_from_json(dataset_json(ds))
    assert np.allclose(back.points, ds.points)
    assert np.allclose(back.weights, ds.weights)
    assert back.ball_radius == ds.ball_radius
    # fallback path when the ball is absent
    obj = dataset_json(ds)
    del obj["ball"]
    with pytest.raises(DomainError):
        dataset_from_json(obj)
    back = dataset_from_json(obj, ball_fallback=lambda sp, pts: (ds.ball_center, 2.0))
    assert back.ball_radius == 2.0
