import math
import warnings

import numpy as np
import pytest

from geomean import manifolds
from geomean.errors import CutLocusError, DomainError
from geomean.kernels import sn
from geomean.frechet import cost_gradient, make_dataset
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere, _canonical_sign_rows, _norm_rows,
                               make_space, space_from_json)

from conftest import (random_unit_tangent, ref_exp, ref_minkowski,
                      ref_random_in_ball, ref_tangent_project, space_json)

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
        u = random_unit_tangent(space, x, rng)
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
        y = space.exp(x, r * random_unit_tangent(space, x, rng))
        v, d = space.log_dist(x, y)
        assert np.array_equal(v, space.log(x, y))
        assert d == space.distance(x, y)
        assert space.norm(x, v) == pytest.approx(d, abs=1e-12)
    if math.isinf(cst.inj):
        return
    # inside the guard band: log refuses, distance still answers
    x = space.random_point(rng)
    y = space.exp(x, cst.inj * (1.0 - 1e-10)
                  * random_unit_tangent(space, x, rng))
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
    P = np.array([space.exp(x, r * random_unit_tangent(space, x, rng))
                  for r in radii] + [x])
    if space.kind in ("real_projective", "so3"):
        P[::2] *= -1.0
    return P


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_batched_rows_match_per_pair(space, rng):
    for _ in range(20):
        x = space.random_point(rng)
        P = _batch_rows(space, x, rng)
        U, s, d = space._log_scales(x, P)
        logs = s[:, np.newaxis] * U
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
    U, s, d = space._log_scales(x, np.array([x, x]))
    assert np.array_equal(d, [0.0, 0.0]) and np.array_equal(s, [0.0, 0.0])
    assert np.array_equal(s[:, np.newaxis] * U,
                          np.zeros((2, space.ambient_dim)))


@pytest.mark.parametrize("space", [s for s in SIX_SPACES
                                   if math.isfinite(s.constants().inj)],
                         ids=lambda s: s.kind)
def test_batched_cut_band_raises_first_row(space, rng):
    inj = space.constants().inj
    x = space.random_point(rng)
    radii = [0.3 * inj, 0.5 * inj, inj * (1.0 - 1e-10), inj * (1.0 - 1e-11)]
    P = np.array([space.exp(x, r * random_unit_tangent(space, x, rng))
                  for r in radii])
    with pytest.raises(CutLocusError) as per_pair:
        space.log_dist(x, P[2])
    with pytest.raises(CutLocusError) as batched:
        space._log_scales(x, P)
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
    rows = [r * random_unit_tangent(space, x, rng)
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


# Reference kernels: the array kernels' formulas written row by row on
# (N, D) arrays, broadcasting leading axes.  The kernels must keep their
# bits on both sides of the row count from which they run along the
# points (1 and 5 rows against 1000).
def _ref_dot_rows(A, B):
    return np.einsum("...i,...i->...", A, B)


def _ref_norm_rows(U):
    return np.sqrt(np.add.reduce(U * U, axis=-1))


def ref_minkowski_rows(U, V):
    return -U[..., 0] * V[..., 0] + _ref_dot_rows(U[..., 1:], V[..., 1:])


def _ref_tangential_many(space, x, P):
    if space.kind == "euclidean":
        U = P - x
        return U, _ref_norm_rows(U), _ref_norm_rows(U)
    if space.kind == "hyperbolic":
        R = space._R
        m = ref_minkowski_rows(x, P)
        U = P + (m / R**2)[..., np.newaxis] * x
        nU = np.sqrt(np.maximum(ref_minkowski_rows(U, U), 0.0))
        ch = -m / R**2
        return U, nU, np.where(ch < 2.0, R * np.arcsinh(nU / R),
                               R * np.arccosh(np.maximum(ch, 1.0)))
    if space.kind in ("real_projective", "so3"):
        lift = np.where(_ref_dot_rows(P, x) >= 0.0, 1.0, -1.0)
        P = lift[..., np.newaxis] * P
    cosq = _ref_dot_rows(P, x)
    U = P - cosq[..., np.newaxis] * x
    nU = _ref_norm_rows(U)
    return U, nU, np.arctan2(nU, cosq) / math.sqrt(space.kappa)


def _ref_log_scales(space, x, P):
    U, nU, d = _ref_tangential_many(space, x, P)
    return U, np.divide(d, nU, out=np.zeros_like(d), where=d != 0.0), d


def ref_exp_many(space, x, V):
    if space.kind == "euclidean":
        Y = x + V
        Y[~(_ref_norm_rows(Y) < 1e150)] = math.nan
        return Y
    if space.kind == "hyperbolic":
        R = space._R
        nV = np.sqrt(np.maximum(ref_minkowski_rows(V, V), 0.0))
        zero = nV == 0.0
        th = nV / R
        ch = np.cosh(th)
        coef = R * np.sinh(th) / np.where(zero, 1.0, nV)
        Y = ch[:, np.newaxis] * x + coef[:, np.newaxis] * V
        bad = ~(np.isfinite(ch) & np.isfinite(nV) & (np.abs(Y[:, 0]) < 1e150))
        Y[:, 0] = np.sqrt(R**2 + _ref_dot_rows(Y[:, 1:], Y[:, 1:]))
        Y[bad | ~np.isfinite(Y[:, 0])] = math.nan
        return np.where(zero[:, np.newaxis], x, Y)
    nV = _ref_norm_rows(V)[:, np.newaxis]
    zero = nV == 0.0
    th = math.sqrt(space.kappa) * nV
    Y = np.cos(th) * x + np.sin(th) * (V / np.where(zero, 1.0, nV))
    Y /= _ref_norm_rows(Y)[:, np.newaxis]
    Y = np.where(zero, x, Y)
    if space.kind in ("real_projective", "so3"):
        Y = _canonical_sign_rows(Y)
    return Y


@pytest.mark.parametrize("n", [1, 5, manifolds._ALONG_POINTS - 1,
                               manifolds._ALONG_POINTS, 1000])
@pytest.mark.parametrize("space", SIX_SPACES + [
    Sphere(10), Hyperbolic(4), Sphere(5), Sphere(6), Hyperbolic(5),
    Hyperbolic(6)], ids=lambda s: repr(s))   # D = 7 is the widest along
def test_array_kernels_keep_the_row_wise_bits(space, n, rng):
    x = space.random_point(rng)
    P = np.array([space.random_point(rng) for _ in range(n)])
    if n > 1:
        P[-1] = x   # a zero-distance row
        if space.kind in ("real_projective", "so3"):
            P[::2] *= -1.0   # rows of both lifts
    if space.kind == "hyperbolic" and n > 2:
        # rows either side of cosh(d/R) = 2, where asinh gives way to acosh
        u = random_unit_tangent(space, x, rng)
        for i, s in enumerate((-1e-3, 1e-3)):
            P[i] = space.exp(x, (math.acosh(2.0) + s) * space._R * u)
        cosh = [-space.inner(x, x, p) / space._R**2 for p in P[:2]]
        assert cosh[0] < 2.0 < cosh[1]
    V = np.array([rng.uniform(0.0, 2.0) * space.tangent_project(x, g)
                  for g in rng.standard_normal((n, space.ambient_dim))])
    V[0] = 0.0
    for got, want in zip(space._tangential_many(x, P),
                         _ref_tangential_many(space, x, P)):
        assert np.array_equal(got, want)
    assert np.array_equal(space.dist_many(x, P),
                          _ref_tangential_many(space, x, P)[2])
    for got, want in zip(space._log_scales(x, P),
                         _ref_log_scales(space, x, P)):
        assert np.array_equal(got, want)
    if space.kind == "euclidean":   # s = d / |U| is 1 but at d = 0
        s, d = space._log_scales(x, P)[1:]
        assert np.array_equal(s, np.where(d == 0.0, 0.0, 1.0))
    assert np.array_equal(space.exp_many(x, V), ref_exp_many(space, x, V))
    for U in (P, V, _ref_tangential_many(space, x, P)[0]):
        assert np.array_equal(_norm_rows(U), np.linalg.norm(U, axis=-1))
    # the ball estimate's seed: the row maxima of one dist_many per point
    # are those of one broadcast call per block of rows
    rows = max(1, (1 << 16) // n)
    block = np.concatenate([
        _ref_tangential_many(space, P[i:i + rows, np.newaxis], P)[2].max(axis=1)
        for i in range(0, n, rows)])
    assert np.array_equal([space.dist_many(p, P).max() for p in P], block)
    # a base point per row, X of shape (n, D): row i of each kernel is its
    # one-point call on X[i], as the tethering suite made it trial by trial
    X = np.array([space.random_point(rng) for _ in range(n)])
    Q = np.array([space.random_point(rng) for _ in range(n)])
    if n > 1:
        Q[-1] = X[-1]   # a zero-distance row
        if space.kind in ("real_projective", "so3"):
            Q[::2] *= -1.0   # rows of both lifts
    if space.kind == "hyperbolic" and n > 2:
        for i, s in enumerate((-1e-3, 1e-3)):   # either side of cosh = 2
            u = random_unit_tangent(space, X[i], rng)
            Q[i] = space.exp(X[i], (math.acosh(2.0) + s) * space._R * u)
    for kernel in (space._tangential_many, space.dist_many,
                   space._log_scales):
        rows = kernel(X, Q)
        for i in range(n):
            one = kernel(X[i], Q[i:i + 1])
            if kernel == space.dist_many:
                assert np.array_equal(rows[i], one[0])
            else:
                assert all(np.array_equal(a[i], b[0])
                           for a, b in zip(rows, one))


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_uniforms_are_philox_next_double(seed):
    # phase 1 of the sampler reads a uniform as Philox's next_double,
    # (random_raw() >> 11) * 2**-53, and draws a normal into a row of a
    # block array, standard_normal(out=row).  Over a long sequence that
    # interleaves them with the suites' other draws (integers, the
    # Dirichlet weights' standard exponentials), each equals
    # Generator.random() and standard_normal(D) bit for bit, and both
    # Generators end in the same state.  If a numpy changes next_double
    # or how the normals fill `out`, this fails before the suites'
    # outputs move.
    a, b = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    raw = a.bit_generator.random_raw
    schedule = np.random.Generator(np.random.Philox(seed + 1000))
    rows = np.empty((5, 5))
    for kind, D in schedule.integers(0, 5, (3000, 2)).tolist():
        if kind == 0:
            assert ((raw() >> 11) * 2**-53).hex() == b.random().hex()
        elif kind == 1:
            a.standard_normal(out=rows[D, :D + 1])
            assert rows[D, :D + 1].tobytes() == \
                b.standard_normal(D + 1).tobytes()
        elif kind == 2:
            assert a.integers(3, 7) == b.integers(3, 7)
        elif kind == 3:
            assert a.standard_exponential(D + 1).tobytes() == \
                b.standard_exponential(D + 1).tobytes()
        else:   # the other way round
            assert a.random().hex() == \
                ((b.bit_generator.random_raw() >> 11) * 2**-53).hex()
    assert _philox_state(a) == _philox_state(b)


@pytest.mark.parametrize("n", [1, 5, 127, 128, 1000])
@pytest.mark.parametrize("D", range(1, 8))
def test_dot_columns_sums_in_einsums_lane_order(D, n, rng):
    # einsum sums a row of fewer than 8 products in two lanes, (0 + 2) + 1
    # at D = 3; _dot_columns writes that order out down the columns.  If
    # a numpy changes einsum's order, this fails before the output bytes
    # move.  Coordinates spread over e^+-20, with signed zeros and infs.
    for trial in range(20):
        A = (rng.standard_normal((n, D + 1))
             * np.exp(rng.uniform(-20.0, 20.0, (n, D + 1))))
        A[rng.random(A.shape) < 0.1] = 0.0
        A[rng.random(A.shape) < 0.1] = -0.0
        if trial == 0:
            A[rng.random(A.shape) < 0.05] = -math.inf
        b = A[n // 2].copy()
        # C-ordered rows, and the [:, 1:] slices that the Minkowski
        # product takes; against one point and against the rows themselves
        for rows, v in ((np.ascontiguousarray(A[:, :D]), b[:D]),
                        (A[:, 1:], b[1:])):
            with np.errstate(invalid="ignore"):
                for got, want in (
                        (manifolds._dot_columns(rows.T.copy(), v[:, None]),
                         np.einsum("...i,...i->...", rows, v)),
                        (manifolds._dot_columns(rows.T.copy(), rows.T.copy()),
                         np.einsum("...i,...i->...", rows, rows))):
                    # the sign bit too, where the value is not NaN
                    assert np.array_equal(got, want, equal_nan=True)
                    assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                                          np.signbit(want[~np.isnan(want)]))


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
    u = random_unit_tangent(space, x, rng)
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
    # points well below exp's coordinate cap, whose log from a base there
    # overflows the hyperboloid coordinates (x0 ~ 1e130), or loses the
    # tangential norm to cancellation while the distance is about 26
    # (x0 ~ 1e11): log refuses them, while the distance, from the
    # Minkowski product alone, is the same from either end
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    near = hy.exp(o, np.array([0.0, 0.0, 2.0]))
    for far in (hy.exp(o, np.array([0.0, 300.0, 0.0])),
                hy.exp(o, np.array([0.0, 26.0, 0.0]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: hy.log_dist(far, near),
                         lambda: hy._log_scales(far, np.array([o, near]))):
                with pytest.raises(DomainError, match="overflows") as e:
                    call()
                assert "nan" not in str(e.value)
            d = hy.dist_many(far, np.array([o, near]))
            assert d[0] == hy.distance(far, o) == hy.distance(o, far)
            assert d[1] == hy.distance(far, near) == hy.distance(near, far)
            # cosh d = cosh(r) cosh(2) for legs r and 2 at a right angle
            r = hy.distance(o, far)
            assert d[1] == pytest.approx(
                math.log(math.cosh(2.0)) + r + math.log1p(math.exp(-2.0 * r)),
                rel=1e-12)


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
            for call in (lambda: hy.log_dist(x, y),
                         lambda: hy._log_scales(x, np.array([y]))):
                with pytest.raises(DomainError, match="overflows"):
                    call()
            # the distance alone stays accurate from that base
            assert hy.dist_many(x, np.array([y]))[0] == hy.distance(x, y)
            assert hy.distance(x, y) == pytest.approx(hy.distance(y, x),
                                                      rel=1e-12)
        x = hy.exp(o, 10.0 * u)
        v, d = hy.log_dist(x, y)
        assert abs(hy.norm(x, v) / d - 1.0) <= 1e-7
        U, S, D = hy._log_scales(x, np.array([y]))
        assert abs(hy.norm(x, S[0] * U[0]) / D[0] - 1.0) <= 1e-7


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


def test_hyperbolic_exp_of_non_finite_minkowski_square_has_length_inf():
    # both coordinates of the step overflow when squared, so its Minkowski
    # square is inf - inf; data at exp(o, +-3 e1), from x = exp(o, 2 e2)
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    x = hy.exp(o, np.array([0.0, 0.0, 2.0]))
    ds = make_dataset(hy, [hy.exp(o, np.array([0.0, 3.0, 0.0])),
                           hy.exp(o, np.array([0.0, -3.0, 0.0]))],
                      ball_center=o, ball_radius=3.0)
    with np.errstate(over="ignore"):
        steps = [-1e308 * cost_gradient(ds, 2, x)[1],
                 hy.tangent_project(x, [1e200, 1e200, 0.0])]
    for v in steps:
        with pytest.raises(DomainError) as e:
            hy.exp(x, v)
        assert str(e.value) == "hyperbolic: exp step of length inf overflows"


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
    y = ci.exp(x, 2 * math.pi / 5 * u)
    assert ci.angle(y) == pytest.approx(2 * math.pi / 5, abs=1e-14)


def test_so3_rotation_metric():
    so3 = SO3()
    q0 = np.eye(4)[0]   # the identity rotation

    def about_z(angle):   # the unit quaternion of a rotation about z
        return np.array([math.cos(angle / 2), 0.0, 0.0, math.sin(angle / 2)])
    qz = about_z(math.pi)
    assert so3.distance(q0, qz) == pytest.approx(math.pi, abs=1e-14)
    # exp at identity about z by angle pi/2
    v = so3.log(q0, about_z(math.pi / 2))
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
    e1 = random_unit_tangent(so3, q, np.random.Generator(np.random.Philox(6)))
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
    u = random_unit_tangent(hy, x, rng)
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
        back = space_from_json(space_json(space))
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


@pytest.mark.parametrize("kappa", [-1e-300, -5e-324])
def test_hyperbolic_curvature_with_radius_at_the_cap_is_rejected(kappa):
    # R = 1/sqrt(-kappa) >= 1e150 puts every time coordinate at or past
    # exp's cap; just above, at kappa = -1e-299, the space still works
    for ctor in (lambda: Hyperbolic(2, kappa),
                 lambda: make_space("hyperbolic", 2, kappa)):
        with pytest.raises(DomainError, match=f"got kappa = {kappa}"):
            ctor()
    hy = Hyperbolic(2, -1e-299)
    rng = np.random.Generator(np.random.Philox(0))
    x = hy.random_point(rng)
    hy.check_point(hy.random_in_ball(x, 1.0, rng))


@pytest.mark.parametrize("ctor", [Euclidean, Sphere, Hyperbolic,
                                  RealProjective], ids=lambda c: c.kind)
@pytest.mark.parametrize("dim", [0, -1])
def test_dimension_below_one_is_rejected(ctor, dim):
    # a 0-dimensional tangent space would keep the ball sampler drawing
    # directions for ever
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


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_random_in_ball_is_uniform_past_the_density_peak(space, rng):
    # radii past pi/(2 sqrt(kappa)), where sn falls again on the sphere
    # family, and past inj, its diameter, where the ball is the whole
    # space: the share of draws within half the capped radius R is the
    # volume share int_0^(R/2) sn^(n-1) / int_0^R sn^(n-1)
    unit = 1.0 / math.sqrt(space.kappa) if space.kappa > 0 else 1.0
    c = space.random_point(rng)
    n_draws = 2000
    for radius in (2.5 * unit, 4.0 * unit):
        R = min(radius, space.constants().inj)
        grid = np.linspace(0.0, R, 20001)
        vol = np.array([sn(space.kappa, t) ** (space.dim - 1) for t in grid])
        half = grid <= R / 2
        share = np.trapezoid(vol[half], grid[half]) / np.trapezoid(vol, grid)
        within = sum(space.distance(c, space.random_in_ball(c, radius, rng))
                     <= R / 2 for _ in range(n_draws))
        se = math.sqrt(share * (1.0 - share) / n_draws)
        assert abs(within / n_draws - share) <= 4.0 * se, (radius, R)


class _NoDraws:
    """An rng whose every draw fails the test instead of looping on."""
    def __getattr__(self, name):
        pytest.fail(f"random_in_ball drew ({name}) for a refused radius")


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_random_in_ball_refuses_radius_before_drawing(space, radius):
    c = space.random_point(np.random.Generator(np.random.Philox(0)))
    with pytest.raises(DomainError, match="need finite radius >= 0"):
        space.random_in_ball(c, radius, _NoDraws())


class _FewNormals:
    """A Generator whose 1001st normal draw fails the test, so that a
    sampler that never accepts a draw stops instead of running for ever."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self.bit_generator = self._rng.bit_generator
        self._normals = 0

    def random(self):
        return self._rng.random()

    def standard_normal(self, size=None, out=None):
        self._normals += 1
        assert self._normals <= 1000, "the sampler drew 1000 normals"
        return self._rng.standard_normal(size, out=out)


def test_sampling_where_tangents_overflow_is_domain_error():
    # on H^2 at kappa = -1e6 a random point can lie near x0 = 1e131, where
    # the Minkowski square of a tangent overflows to inf - inf
    hy = Hyperbolic(2, -1e6)
    x = hy.exp(np.array([hy._R, 0.0, 0.0]), np.array([0.0, 0.31, 0.0]))
    assert 1e130 < x[0] < 1e132
    with pytest.raises(RuntimeWarning):   # the numpy forms warn there
        _outcome(lambda: random_unit_tangent(hy, x, _FewNormals(0)))
    kind, text = _outcome(lambda: hy.random_in_ball(x, 1e-3, _FewNormals(0)))
    assert kind == "error" and "has squared norm nan" in text, text
    # a radius whose density overflows is refused before any direction
    assert _outcome(lambda: hy.random_in_ball(x, 2.0, _NoDraws())) == \
        ("error", "sn: sinh(sqrt(-kappa)*l) overflows at sqrt(-kappa)*l = "
                  "2000.0")


# Reference per-pair methods (with ref_tangent_project and ref_exp of
# conftest): the numpy expressions the scalar methods replace with
# arithmetic on Python floats around the same ndarray.dot calls.  IEEE
# rounds each product, quotient and difference the same way on floats as
# in numpy, and the dots (OpenBLAS's FMA chain, which a float sum cannot
# reproduce) are kept, so every output keeps its bits.
def _ref_tangential(space, x, y):
    if space.kind == "euclidean":
        u = y - x
        nu = math.sqrt(u.dot(u))
        return u, nu, nu
    if space.kind == "hyperbolic":
        R = space._R
        with np.errstate(over="ignore", invalid="ignore"):
            m = ref_minkowski(x, y)
            u = y + (m / R**2) * x
            nu = math.sqrt(max(ref_minkowski(u, u), 0.0))
        ch = -m / R**2
        d = R * (math.asinh(nu / R) if ch < 2.0 else math.acosh(max(ch, 1.0)))
        if not math.isfinite(d):
            raise DomainError("hyperbolic overflow")
        return u, nu, d
    if space.kind in ("real_projective", "so3") and not np.dot(x, y) >= 0.0:
        y = -y
    cosq = float(np.dot(x, y))
    u = y - cosq * x
    nu = math.sqrt(u.dot(u))
    return u, nu, math.atan2(nu, cosq) / math.sqrt(space.kappa)


def _outcome(call):
    """A call's value as bytes, or its DomainError's text; a numpy warning
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call()
        except DomainError as e:
            return "error", str(e)
    return [(type(a), np.asarray(a).dtype, np.asarray(a).tobytes())
            for a in (got if isinstance(got, tuple) else (got,))]


_WARNED = "the reference warned"


def _ref_outcome(call):
    """_outcome of a reference call, or _WARNED where numpy warns in it."""
    try:
        return _outcome(call)
    except RuntimeWarning:
        return _WARNED


def _agree(got, ref):
    """Whether an outcome matches the reference's: the same bytes or
    error text, or a DomainError where the reference warned (an overflow
    that the per-pair methods raise as one)."""
    if ref == _WARNED:
        return got[0] == "error"
    return got == ref


class _FarHyperbolic(Hyperbolic):
    """H^2 at kappa = -1e-50 (R = 1e25) whose random points lie far out,
    with time coordinates of 1e75 to 1e77: there (m / R^2) x passes the
    per-pair methods' 1e150 gate, so their errstate fallback runs, while
    the tangents at such a point stay below 1e108 and the test's 1e200
    steps along them stay finite."""

    def __init__(self):
        super().__init__(2, -1e-50)

    def random_point(self, rng):
        origin = np.zeros(self.ambient_dim)
        origin[0] = self._R
        u = random_unit_tangent(self, origin, rng)
        return self.exp(origin, rng.uniform(115.9, 120.4) * self._R * u)


def _philox_state(g):
    """A Philox Generator's state as comparable values."""
    st = g.bit_generator.state
    return ([v.tolist() for v in st["state"].values()], st["buffer"].tolist(),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


class _ZeroUniforms:
    """An rng whose uniforms are all 0.0: random_in_ball draws r == 0.
    Its raw 64-bit draws, from which the sampler reads its uniforms,
    are all 0."""
    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self.bit_generator = self

    def random(self):
        return 0.0

    def random_raw(self):
        return 0

    def standard_normal(self, size=None, out=None):
        return self._rng.standard_normal(size, out=out)


@pytest.mark.parametrize("space", SIX_SPACES + [Sphere(10), Hyperbolic(4),
                                                 _FarHyperbolic()],
                         ids=lambda s: repr(s))
def test_scalar_kernels_keep_their_bits(space, rng, monkeypatch):
    wide = []   # the hyperbolic dots that took the errstate fallback
    wide_dot = manifolds._wide_dot

    def counted(a, b):
        wide.append(1)
        return wide_dot(a, b)
    monkeypatch.setattr(manifolds, "_wide_dot", counted)
    projective = space.kind in ("real_projective", "so3")
    unit = 1.0 / math.sqrt(abs(space.kappa)) if space.kappa else 1.0
    for trial in range(300):
        x, y = space.random_point(rng), space.random_point(rng)
        for q in (y, -y) if projective else (y,):   # both lifts
            assert _agree(_outcome(lambda: space._tangential(x, q)),
                          _ref_outcome(lambda: _ref_tangential(space, x, q)))
        g = rng.standard_normal(space.ambient_dim)
        u = ref_tangent_project(space, x, g)
        assert _agree(_outcome(lambda: space.tangent_project(x, g)),
                      _ref_outcome(lambda: ref_tangent_project(space, x, g)))
        # steps of any length, none, and with a coordinate past 1e150
        # (a finite length, and one whose square overflows)
        for v in (rng.uniform(0.0, 4.0) * unit * u, 0.0 * u,
                  1e150 * u / np.abs(u).max(), 1e200 * u):
            assert _agree(_outcome(lambda: space.exp(x, v)),
                          _ref_outcome(lambda: ref_exp(space, x, v)))
        # the draws, which phase 2 computes in arrays: the reference's
        # error, or its values within the 1e-12 bound, and its Generator
        # state after.  At _FarHyperbolic's points, x0 / R ~ 1e50, the
        # Minkowski products cancel some 100 orders of magnitude, so a
        # direction's norm, whether it is drawn again, the sample and even
        # its distance from x are rounding noise, the reference's too:
        # there a sample must be a point of H (check_points) where the
        # reference gives one
        radius = rng.uniform(0.0, 1.2) * min(space.constants().inj, 4.0 * unit)
        a, b = (np.random.Generator(np.random.Philox(trial)) for _ in range(2))
        got = _outcome(lambda: space.random_in_ball(x, radius, a))
        ref = _ref_outcome(lambda: ref_random_in_ball(space, x, radius, b))
        if ref == _WARNED or "error" in (got[0], ref[0]):
            assert _agree(got, ref)
        elif isinstance(space, _FarHyperbolic):
            space.check_points(np.frombuffer(got[0][2])[np.newaxis])
        else:
            # on H the step's terms reach |x| cosh(r / R), and a sample
            # back near the origin keeps their rounding
            scale = np.abs(x).max() * (math.cosh(radius / unit)
                                       if space.kappa < 0 else 1.0)
            assert_within_bound(np.frombuffer(got[0][2]),
                                np.frombuffer(ref[0][2]), scale)
        if not isinstance(space, _FarHyperbolic):
            assert _philox_state(a) == _philox_state(b)
        # an r == 0 draw returns the center (its canonical sign on RP^n)
        a, b = _ZeroUniforms(trial), _ZeroUniforms(trial)
        got = space.random_in_ball(-x if projective else x, radius, a)
        assert got.tobytes() == \
            ref_random_in_ball(space, -x if projective else x, radius,
                                b).tobytes()
    if isinstance(space, _FarHyperbolic):
        assert wide


def assert_within_bound(got, want, scale=1.0):
    """Every coordinate within 1e-12 * max(1, |want|) of want's, the
    bound of the benchmark's and tools/output_digest.py's --tol check, or
    within 1e-12 * scale where the rounding is relative to a larger
    scale than the coordinate's own."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bound = 1e-12 * np.maximum(max(1.0, scale), np.abs(want))
    assert (np.abs(got - want) <= bound).all(), (got, want)


class _CenterFirst:
    """An rng whose first normal draw is the point x itself, whose
    projection onto T_x has a norm of rounding size, below the sampler's
    1e-8, so the direction is drawn again; every other draw, and the
    state, is Philox's."""

    def __init__(self, x, seed):
        self._x = x
        self._rng = np.random.Generator(np.random.Philox(seed))
        self.bit_generator = self._rng.bit_generator
        self.normals = 0

    def random(self):
        return self._rng.random()

    def standard_normal(self, size=None, out=None):
        self.normals += 1
        if self.normals == 1:
            if out is None:
                return self._x.copy()
            out[:] = self._x
            return out
        return self._rng.standard_normal(size, out=out)


@pytest.mark.parametrize("space", [Sphere(2), Circle(2.0), RealProjective(2),
                                   SO3(), Sphere(10)],
                         ids=lambda s: repr(s))
def test_sampler_redraws_a_direction_too_short_to_normalise(space):
    for trial in range(20):
        x = space.random_point(np.random.Generator(np.random.Philox(trial)))
        radius = 0.4 * space.constants().inj
        a, b = _CenterFirst(x, trial), _CenterFirst(x, trial)
        got = space.random_in_ball(x, radius, a)
        assert a.normals == 2   # the redraw ran, once
        assert_within_bound(got, ref_random_in_ball(space, x, radius, b))
        assert _philox_state(a) == _philox_state(b)
        # drawn ahead, phase 2 refuses it, for a careful replay
        draws = manifolds.Draws(space, _CenterFirst(x, trial), samples=1)
        draws.ball(x, radius, 1)
        assert draws.finish() is False


@pytest.mark.parametrize("space", SIX_SPACES + [Sphere(10),
                                                 Hyperbolic(3, -1e6)],
                         ids=lambda s: repr(s))
def test_draws_in_blocks_are_careful_draws(space):
    # a block of random points and balls about them (radii up to past
    # inj, 0 to 8 samples each) drawn ahead and finished in one pass per
    # kind: every point passes check_points and lies in its ball within
    # 1e-9 max(1, radius), equals bit for bit what random_point and
    # random_points_in_ball give (phase 2 computes each row alone), and
    # the Generator ends where they leave it
    inj = space.constants().inj
    top = 1.5 * inj if math.isfinite(inj) else 3.0 / math.sqrt(
        -space.kappa if space.kappa < 0 else 1.0)
    a, b = (np.random.Generator(np.random.Philox(5)) for _ in range(2))
    draws = manifolds.Draws(space, a, points=60,
                            samples=sum(k % 9 for k in range(60)))
    drawn, want = [], []
    for k in range(60):
        c = draws.point()
        radius = top * a.random()
        drawn.append((c, radius, draws.ball(c, radius, k % 9)))
        wc = space.random_point(b)
        wr = top * b.random()
        want.append((wc, space.random_points_in_ball(wc, wr, k % 9, b)))
    assert draws.finish() is True
    assert _philox_state(a) == _philox_state(b)
    for (c, radius, P), (wc, wP) in zip(drawn, want):
        assert c.tobytes() == wc.tobytes()
        assert [p.tobytes() for p in P] == [p.tobytes() for p in wP]
        space.check_points(np.vstack([c[np.newaxis], P]))
        assert all(space.distance(c, p) <= min(radius, inj)
                   + 1e-9 * max(1.0, radius) for p in P)


@pytest.mark.parametrize("space", SIX_SPACES + [Sphere(3, 4.0),
                                                 Hyperbolic(3, -0.25)],
                         ids=lambda s: repr(s))
def test_ball_radii_are_the_rejection_draws_bit_for_bit(space):
    # phase 1 reads its uniforms off the bit generator and writes the
    # density sn(r)^(n-1) out inline: its radii are those of the
    # rejection loop on Generator.random() and kernels.sn, bit for bit,
    # and the Generator ends where that loop, with the directions' normals,
    # leaves it (radii from 0 to past inj, up to the sampling cap on H)
    inj = space.constants().inj
    top_radius = 1.5 * inj if math.isfinite(inj) else 3.0
    a, b = (np.random.Generator(np.random.Philox(11)) for _ in range(2))
    draws = manifolds.Draws(space, a, samples=200)
    want = []
    for k in range(50):
        radius = top_radius * (k + 1) / 50
        draws.ball(np.zeros(space.ambient_dim), radius, 4)
        radius = min(radius, inj)
        n, kappa = space.dim, space.kappa
        peak = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else math.inf
        top = sn(kappa, min(radius, peak))
        for _ in range(4):
            while True:
                r = radius * b.random()
                if n == 1 or b.random() <= (sn(kappa, r) / top) ** (n - 1):
                    break
            want.append(r)
            b.standard_normal(space.ambient_dim)
    assert draws._radii.tobytes() == np.array(want).tobytes()
    assert _philox_state(a) == _philox_state(b)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
def test_random_points_in_ball_are_successive_single_draws(space):
    # one call for k points draws what k calls of random_in_ball draw,
    # bit for bit (phase 2 computes each row alone), and what the numpy
    # reference draws within the 1e-12 bound, and leaves the Generator
    # where they do; the circle (dim 1) takes the uniform-radius branch
    inj = space.constants().inj
    past_inj = 1.5 * inj if math.isfinite(inj) else 4.0
    c = space.random_point(np.random.Generator(np.random.Philox(7)))
    for radius in (0.0, 0.4 * min(inj, 2.0), past_inj):
        for k in (0, 1, 3, 8):
            a, b, r = (np.random.Generator(np.random.Philox(k))
                       for _ in range(3))
            got = space.random_points_in_ball(c, radius, k, a)
            singles = [space.random_in_ball(c, radius, b) for _ in range(k)]
            refs = [ref_random_in_ball(space, c, radius, r)
                    for _ in range(k)]
            assert isinstance(got, list) and len(got) == k
            assert [p.tobytes() for p in got] == \
                [p.tobytes() for p in singles]
            assert_within_bound(np.reshape(got, (k, space.ambient_dim)),
                                np.reshape(refs, (k, space.ambient_dim)))
            assert _philox_state(a) == _philox_state(b) == _philox_state(r)
    # a zero radius gives copies of the center, and no point none, without
    # a draw; a NaN or infinite radius is refused as random_in_ball does
    got = space.random_points_in_ball(c, 0.0, 3, _NoDraws())
    assert all(p is not c and p.tobytes() == c.tobytes() for p in got)
    # drawn ahead, the copies wait for a center that phase 2 makes: a
    # block holding them is refused, for a careful replay
    draws = manifolds.Draws(space, _NoDraws(), samples=3)
    draws.ball(c, 0.0, 3)
    assert draws.finish() is False
    assert space.random_points_in_ball(c, 0.5, 0, _NoDraws()) == []
    for radius in (math.nan, math.inf):
        for k in (0, 3):
            with pytest.raises(DomainError) as e:
                space.random_points_in_ball(c, radius, k, _NoDraws())
            assert str(e.value) == \
                f"random_in_ball: need finite radius >= 0, got {radius}"
