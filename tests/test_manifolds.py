import math
import warnings

import numpy as np
import pytest

from geomean.errors import CutLocusError, DomainError
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere, _canonical_sign_rows, make_space,
                               space_from_json)

SPACES = [Euclidean(3), Sphere(2), Sphere(3), Sphere(2, kappa=4.0),
          Hyperbolic(2), Hyperbolic(3, kappa=-0.5), Circle(1.0),
          RealProjective(2), SO3()]


def _random_pair(space, rng, frac=0.8):
    cst = space.constants()
    reach = cst.inj if math.isfinite(cst.inj) else 2.0
    x = space.random_point(rng)
    y = space.random_in_ball(x, frac * reach, rng)
    return x, y


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_metric_axioms_sampled(space, rng):
    for _ in range(2000):
        pts = [space.random_point(rng) for _ in range(3)]
        dab = space.distance(pts[0], pts[1])
        dba = space.distance(pts[1], pts[0])
        dbc = space.distance(pts[1], pts[2])
        dac = space.distance(pts[0], pts[2])
        assert dab >= 0
        assert abs(dab - dba) <= 1e-10
        assert dac <= dab + dbc + 1e-10
        assert space.distance(pts[0], pts[0]) <= 1e-10


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_exp_log_roundtrip(space, rng):
    for _ in range(200):
        x, y = _random_pair(space, rng, frac=0.9)
        v = space.log(x, y)
        y2 = space.exp(x, v)
        assert space.distance(y, y2) <= 1e-9
        v2 = space.log(x, y2)
        assert space.norm(x, v - v2) <= 1e-9


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_distance_via_exp(space, rng):
    cst = space.constants()
    reach = cst.inj if math.isfinite(cst.inj) else 3.0
    for _ in range(200):
        x = space.random_point(rng)
        u = space.random_unit_tangent(x, rng)
        r = 0.97 * reach * rng.uniform()
        assert space.distance(x, space.exp(x, r * u)) == pytest.approx(r, abs=1e-10)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_log_is_tangent_and_has_right_norm(space, rng):
    for _ in range(100):
        x, y = _random_pair(space, rng)
        v = space.log(x, y)
        orth = 0.0 if space.kind == "euclidean" else space.inner(x, v, x)
        assert abs(orth) <= 1e-9 * (1 + space.norm(x, v))
        assert space.norm(x, v) == pytest.approx(space.distance(x, y), abs=1e-10)


SIX_SPACES = [Euclidean(3), Sphere(2), Circle(1.0), Hyperbolic(2),
              RealProjective(2), SO3()]


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_log_dist_is_one_pair_evaluation(space, rng):
    cst = space.constants()
    reach = cst.inj if math.isfinite(cst.inj) else 3.0
    for _ in range(200):
        x = space.random_point(rng)
        r = 0.99 * reach * rng.uniform()
        y = space.exp(x, r * space.random_unit_tangent(x, rng))
        v, d = space.log_dist(x, y)
        assert np.array_equal(v, space.log(x, y))
        assert d == space.distance(x, y)
        assert space.norm(x, v) == pytest.approx(d, abs=1e-12)
    if math.isinf(cst.inj):
        return
    # inside the guard band: log refuses, distance still answers
    x = space.random_point(rng)
    y = space.exp(x, cst.inj * (1.0 - 1e-10) * space.random_unit_tangent(x, rng))
    with pytest.raises(CutLocusError):
        space.log(x, y)
    with pytest.raises(CutLocusError):
        space.log_dist(x, y)
    assert math.isfinite(space.distance(x, y))
    assert space.distance(x, y) == pytest.approx(cst.inj, abs=1e-8)


def _batch_rows(space, x, rng, n=60):
    """Rows around x out to the guard band, plus x itself: RP/SO(3) rows of
    either sign, hyperbolic rows on both sides of cosh(d) = 2."""
    cst = space.constants()
    reach = 0.999 * cst.inj if math.isfinite(cst.inj) else 3.0
    radii = reach * rng.uniform(size=n)
    if space.kind == "hyperbolic":
        assert radii.min() < math.acosh(2.0) < radii.max()
    P = np.array([space.exp(x, r * space.random_unit_tangent(x, rng))
                  for r in radii] + [x])
    if space.kind in ("real_projective", "so3"):
        P[::2] *= -1.0
    return P


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_batched_rows_match_per_pair(space, rng):
    for _ in range(20):
        x = space.random_point(rng)
        P = _batch_rows(space, x, rng)
        logs, d = space.log_dist_many(x, P)
        assert np.array_equal(space.dist_many(x, P), d)
        for i, y in enumerate(P):
            v, dy = space.log_dist(x, y)
            assert d[i] == pytest.approx(dy, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(logs[i], v, rtol=1e-12, atol=1e-12)
        assert np.abs(logs[-1]).max() <= 1e-12   # the row equal to x


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_batched_zero_distance_row_is_zero_vector(space):
    # a base point whose self-distance rounds to exactly 0
    x = np.zeros(space.ambient_dim)
    x[0] = 1.0
    logs, d = space.log_dist_many(x, np.array([x, x]))
    assert np.array_equal(d, [0.0, 0.0])
    assert np.array_equal(logs, np.zeros((2, space.ambient_dim)))


@pytest.mark.parametrize("space", [s for s in SIX_SPACES
                                   if math.isfinite(s.constants().inj)],
                         ids=lambda s: s.kind)
def test_batched_cut_band_raises_first_row(space, rng):
    inj = space.constants().inj
    x = space.random_point(rng)
    radii = [0.3 * inj, 0.5 * inj, inj * (1.0 - 1e-10), inj * (1.0 - 1e-11)]
    P = np.array([space.exp(x, r * space.random_unit_tangent(x, rng))
                  for r in radii])
    with pytest.raises(CutLocusError) as per_pair:
        space.log_dist(x, P[2])
    with pytest.raises(CutLocusError) as batched:
        space.log_dist_many(x, P)
    assert batched.value.index == 2
    assert str(batched.value) == str(per_pair.value)
    assert np.isfinite(space.dist_many(x, P)).all()


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_check_points_reports_first_bad_row(space, rng):
    X = np.array([space.random_point(rng) for _ in range(5)])
    space.check_points(X)
    nan_row = X[0].copy()
    nan_row[-1] = math.nan
    off_row = 1.5 * X[0]   # off the manifold, except in euclidean space
    for first, second in ((nan_row, off_row), (off_row, nan_row)):
        Y = X.copy()
        Y[1], Y[3] = first, second
        with pytest.raises(DomainError) as batched:
            space.check_points(Y)
        for y in Y:   # reference: the per-point check, row by row
            try:
                space.check_point(y)
            except DomainError as e:
                assert str(batched.value) == str(e)
                break
        else:
            pytest.fail("no row failed the per-point check")
    with pytest.raises(DomainError, match="point shape"):
        space.check_points(X[:, :-1])


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_point_rejects_non_finite(space, bad, rng):
    x = space.random_point(rng)
    space.check_point(x)
    x[-1] = bad
    with pytest.raises(DomainError):
        space.check_point(x)


def test_check_point_rejects_overflowed_hyperboloid_point():
    # finite coordinates whose constraint error is NaN (inf - inf)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError):
        Hyperbolic(2).check_point(np.array([1e200, 1e200, 0.0]))


def test_sphere_examples():
    sp = Sphere(2)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert sp.distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert np.allclose(sp.exp(e1, (math.pi / 2) * e2), e2, atol=1e-15)
    assert np.allclose(sp.log(e1, e2), (math.pi / 2) * e2, atol=1e-15)
    with pytest.raises(CutLocusError):
        sp.log(e1, -e1)


def test_sphere_distance_stable_near_antipode():
    sp = Sphere(2)
    e1 = np.array([1.0, 0.0, 0.0])
    eps = 1e-7
    y = sp.project(np.array([-1.0, eps, 0.0]))
    assert sp.distance(e1, y) == pytest.approx(math.pi - eps, abs=1e-12)


def _exp_many_rows(space, x, rng):
    """Tangent rows at x: random lengths out to past inj, a zero row, and
    on RP/SO(3) steps whose endpoint has a negative or a near-zero first
    coordinate (the canonical sign then flips it or looks further on)."""
    cst = space.constants()
    reach = 1.5 * cst.inj if math.isfinite(cst.inj) else 5.0
    rows = [r * space.random_unit_tangent(x, rng)
            for r in reach * rng.uniform(size=30)]
    rows.append(np.zeros(space.ambient_dim))
    if space.kind in ("real_projective", "so3"):
        quarter = math.pi / (2.0 * math.sqrt(space.kappa))  # cos(th) = 0
        e1 = np.zeros(space.ambient_dim)
        e1[1] = 1.0
        rows += [s * e1 for s in (1.3 * quarter, quarter, -quarter,
                                  quarter * (1.0 + 1e-13))]
    return np.array(rows)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_exp_many_rows_match_exp(space, rng):
    for trial in range(10):
        if trial == 0 and space.kind in ("real_projective", "so3"):
            x = np.zeros(space.ambient_dim)
            x[0] = 1.0   # the e1 rows then end on the first coordinate's sign
        else:
            x = space.random_point(rng)
        V = _exp_many_rows(space, x, rng)
        E = space.exp_many(x, V)
        assert E.shape == V.shape
        for v, e in zip(V, E):
            np.testing.assert_allclose(e, space.exp(x, v), rtol=1e-12, atol=1e-12)
        assert np.array_equal(E[30], x)   # the zero row


def test_canonical_sign_rows_keeps_rows_without_a_leading_coordinate():
    tiny = np.array([[-1e-10, 1e-10, 0.0], [2e-10, -1e-10, 0.0]])
    assert np.array_equal(_canonical_sign_rows(tiny), tiny)


def test_exp_many_hyperbolic_overflow_rows_are_nan():
    hy = Hyperbolic(2)
    x = np.array([1.0, 0.0, 0.0])
    # finite, then past the coordinate cap (with a finite projection at
    # 350, none at 400), cosh overflowing, a length that is not finite,
    # and a zero row
    V = np.array([[0.0, s, 0.0]
                  for s in (300.0, 350.0, 400.0, 800.0, 1e200, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = hy.exp_many(x, V)
        np.testing.assert_allclose(E[0], hy.exp(x, V[0]), rtol=1e-12)
        assert np.isnan(E[1:5]).all()
        assert np.array_equal(E[5], x)
        for v in V[1:5]:
            with pytest.raises(DomainError, match="overflows"):
                hy.exp(x, v)


@pytest.mark.parametrize("space", [Sphere(2), Circle(1.0), RealProjective(2),
                                   SO3()], ids=lambda s: s.kind)
def test_sphere_family_step_of_non_finite_length(space, rng):
    # a step whose norm overflows, and one with an infinite coordinate:
    # exp raises, exp_many returns NaN rows, and neither warns
    x = space.random_point(rng)
    u = space.random_unit_tangent(x, rng)
    inf_step = np.where(u == u.max(), np.inf, 0.0)
    V = np.array([0.3 * u, 1e200 * u, inf_step, 0.0 * u])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = space.exp_many(x, V)
        np.testing.assert_allclose(E[0], space.exp(x, V[0]), rtol=1e-12)
        assert np.isnan(E[1:3]).all()
        assert np.array_equal(E[3], x)
        for v in V[1:3]:
            with pytest.raises(DomainError,
                               match="exp step of length inf overflows"):
                space.exp(x, v)


def test_hyperbolic_far_pair_is_domain_error():
    # points well below exp's coordinate cap, whose log/distance from a
    # point near the origin overflows the hyperboloid coordinates (x0 ~
    # 1e130), or loses the tangential norm to cancellation while the
    # distance is about 26 (x0 ~ 1e11)
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    near = hy.exp(o, np.array([0.0, 0.0, 2.0]))
    for far in (hy.exp(o, np.array([0.0, 300.0, 0.0])),
                hy.exp(o, np.array([0.0, 26.0, 0.0]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: hy.distance(far, near),
                         lambda: hy.log_dist(far, near),
                         lambda: hy.dist_many(far, np.array([o, near])),
                         lambda: hy.log_dist_many(far, np.array([o, near]))):
                with pytest.raises(DomainError, match="overflows") as e:
                    call()
                assert "nan" not in str(e.value)
            # the other order stays finite
            assert math.isfinite(hy.distance(o, far))


def test_hyperbolic_far_base_point_is_domain_error():
    # at a base point with x0 = 3.3e7 (r = 18) or 1.3e10 (r = 24) the
    # Minkowski square of the tangent still is positive but |log| / d came
    # out as 1.019 and 0.960; a base at r = 10 (x0 = 1.1e4) keeps 7 digits
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    y = hy.exp(o, np.array([0.0, 1.0, 0.0]))
    u = np.array([0.0, math.cos(0.7), math.sin(0.7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (18.0, 24.0):
            x = hy.exp(o, r * u)
            for call in (lambda: hy.distance(x, y),
                         lambda: hy.log_dist(x, y),
                         lambda: hy.dist_many(x, np.array([y])),
                         lambda: hy.log_dist_many(x, np.array([y]))):
                with pytest.raises(DomainError, match="overflows"):
                    call()
        x = hy.exp(o, 10.0 * u)
        v, d = hy.log_dist(x, y)
        assert abs(hy.norm(x, v) / d - 1.0) <= 1e-7
        V, D = hy.log_dist_many(x, np.array([y]))
        assert abs(hy.norm(x, V[0]) / D[0] - 1.0) <= 1e-7


def test_hyperbolic_exp_overflow_is_domain_error():
    hy = Hyperbolic(2)
    x = np.array([1.0, 0.0, 0.0])
    assert np.isfinite(hy.exp(x, np.array([0.0, 300.0, 0.0]))).all()
    for step in (400.0, 800.0):  # the squared norm, then cosh, overflows
        with pytest.raises(DomainError, match="overflows"):
            hy.exp(x, np.array([0.0, step, 0.0]))
    with np.errstate(over="ignore"), \
            pytest.raises(DomainError, match="not finite"):
        hy.project(np.array([0.0, 1e200, 1e200]))


def test_constants_table():
    assert Sphere(2).constants().r_cx == pytest.approx(math.pi / 2)
    assert Sphere(2, 4.0).constants().inj == pytest.approx(math.pi / 2)
    c = SO3().constants()
    assert (c.inj, c.r_cx, c.delta, c.Delta) == \
        (math.pi, math.pi / 2, 0.25, 0.25)
    c = Circle(1.0).constants()
    assert c.inj == pytest.approx(math.pi)
    assert c.delta == 0.0 and c.Delta == 0.0
    c = RealProjective(2).constants()
    assert c.inj == pytest.approx(math.pi / 2)
    assert c.r_cx == pytest.approx(math.pi / 4)
    eu = Euclidean(4).constants()
    assert math.isinf(eu.inj) and math.isinf(eu.r_cx)
    hy = Hyperbolic(2).constants()
    assert math.isinf(hy.inj) and hy.delta == -1.0
    for space in SPACES:   # built once, at construction
        assert space.constants() is space.constants()


def test_circle_matches_sphere1(rng):
    ci, s1 = Circle(1.0), Sphere(1)
    for _ in range(1000):
        x, y = ci.random_point(rng), ci.random_point(rng)
        assert ci.distance(x, y) == pytest.approx(s1.distance(x, y), abs=1e-12)


def test_circle_angle_parameterization():
    ci = Circle(1.0)
    x = ci.point_from_angle(0.0)
    u = ci.tangent_project(x, np.array([0.0, 1.0]))
    y = ci.geodesic(x, u, 2 * math.pi / 5)
    assert ci.angle(y) == pytest.approx(2 * math.pi / 5, abs=1e-14)


def test_so3_rotation_metric():
    so3 = SO3()
    q0 = so3.identity()
    qz = so3.from_axis_angle([0, 0, 1], math.pi)
    assert so3.distance(q0, qz) == pytest.approx(math.pi, abs=1e-14)
    # exp at identity about z by angle pi/2
    v = so3.log(q0, so3.from_axis_angle([0, 0, 1], math.pi / 2))
    q = so3.exp(q0, v)
    assert np.allclose(q, [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)],
                       atol=1e-12)
    # double cover: q and -q are the same rotation
    assert so3.distance(qz, -qz) <= 1e-12


def test_so3_sectional_curvature_fd():
    # circumference comparison: C(r) = 2 pi sn_kappa(r), so
    # kappa ~ 3 (2 pi r - C(r)) / (pi r^3)
    so3 = SO3()
    q = so3.random_point(np.random.Generator(np.random.Philox(5)))
    e1 = so3.random_unit_tangent(q, np.random.Generator(np.random.Philox(6)))
    e2 = so3.tangent_project(q, np.random.Generator(np.random.Philox(7))
                             .standard_normal(4))
    e2 = e2 - np.dot(e2, e1) * e1
    e2 /= np.linalg.norm(e2)
    r = 0.2
    n = 2000
    phis = np.linspace(0, 2 * math.pi, n + 1)
    ring = [so3.exp(q, r * (math.cos(p) * e1 + math.sin(p) * e2)) for p in phis]
    C = sum(so3.distance(a, b) for a, b in zip(ring[:-1], ring[1:]))
    kappa_est = 3 * (2 * math.pi * r - C) / (math.pi * r**3)
    assert kappa_est == pytest.approx(0.25, abs=5e-3)


def test_hyperbolic_examples(rng):
    hy = Hyperbolic(2)
    x = hy.random_point(rng)
    assert hy.distance(x, x) <= 1e-12
    # small distances keep full precision
    u = hy.random_unit_tangent(x, rng)
    for r in (1e-8, 1e-5, 0.3, 3.0):
        assert hy.distance(x, hy.exp(x, r * u)) == pytest.approx(r, rel=1e-10)


def test_projective_canonicalization(rng):
    rp = RealProjective(2)
    x = rp.random_point(rng)
    assert np.allclose(rp.project(-x), x)
    assert rp.distance(x, -x) <= 1e-12
    # log picks the nearest lift
    y = rp.random_in_ball(x, 0.3, rng)
    v = rp.log(x, y)
    assert rp.norm(x, v) == pytest.approx(rp.distance(x, y), abs=1e-12)
    with pytest.raises(CutLocusError):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        rp.log(e1, e2)  # distance pi/2 = inj


def test_check_point_validation():
    sp = Sphere(2)
    with pytest.raises(DomainError):
        sp.check_point(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        sp.check_point(np.array([1.0, 0.0]))
    hy = Hyperbolic(2)
    with pytest.raises(DomainError):
        hy.check_point(np.array([1.0, 1.0, 1.0]))


def test_space_json_roundtrip():
    for space in SPACES:
        back = space_from_json(space.to_json())
        assert type(back) is type(space)
        assert back.dim == space.dim and back.kappa == space.kappa
    with pytest.raises(DomainError):
        make_space("torus")


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_non_finite_curvature_is_rejected(kappa):
    # NaN passes both sign tests; a NaN density would never accept a
    # radius in random_in_ball
    for ctor in (lambda: Sphere(2, kappa), lambda: Circle(kappa),
                 lambda: RealProjective(2, kappa), lambda: Hyperbolic(2, kappa),
                 lambda: make_space("sphere", 2, kappa),
                 lambda: make_space("hyperbolic", 2, kappa),
                 lambda: space_from_json({"kind": "circle", "dim": 1,
                                          "kappa": kappa})):
        with pytest.raises(DomainError, match="finite kappa"):
            ctor()


@pytest.mark.parametrize("ctor", [Euclidean, Sphere, Hyperbolic,
                                  RealProjective], ids=lambda c: c.kind)
@pytest.mark.parametrize("dim", [0, -1])
def test_dimension_below_one_is_rejected(ctor, dim):
    # a 0-dimensional tangent space would keep random_unit_tangent drawing
    # for ever
    with pytest.raises(DomainError, match="need dim >= 1"):
        ctor(dim)


def test_fixed_dimension_kinds_ignore_dim():
    assert make_space("circle", 0).dim == 1
    assert make_space("so3", -1).dim == 3


def test_random_in_ball_stays_inside(rng):
    for space in SPACES:
        cst = space.constants()
        rad = min(cst.r_cx, 1.0)
        c = space.random_point(rng)
        for _ in range(100):
            p = space.random_in_ball(c, rad, rng)
            assert space.distance(c, p) <= rad + 1e-12
