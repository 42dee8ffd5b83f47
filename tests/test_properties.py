"""Hypothesis properties of the six spaces: the exp/log round trip, the
length of log against the distance, symmetry of the distance (also for
pairs far apart), the triangle inequality, the array primitives
(dist_many, _log_scales, exp_many) against the scalar ones, row by row,
with the canonical sign of RP and SO(3) idempotent, the far point of
the ball-estimate sweep against dist_many, ties included, and the hull
membership test against the NNLS reference, one hull and a block of
them."""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geomean import geocheck
from geomean.errors import CutLocusError, DomainError
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere, _canonical_sign,
                               _canonical_sign_rows)

from conftest import chart_points, face_in_hull, nnls_in_hull

SIX_SPACES = [Euclidean(3), Sphere(2), Circle(1.0), Hyperbolic(2),
              RealProjective(2), SO3()]
ROW_TOL = dict(rtol=1e-12, atol=1e-12)
# 40 examples a property keep the 18 runs within a few seconds
FEW = settings(max_examples=40)


def _reach(space):
    inj = space.constants().inj
    return inj if math.isfinite(inj) else 3.0


@functools.cache   # one strategy per shape: building it is most of a draw
def _array_strategy(shape, bound):
    return arrays(float, shape,
                  elements=st.floats(-bound, bound, allow_nan=False))


def _draw_array(data, shape, bound):
    return data.draw(_array_strategy(shape, bound))


def _draw_points(data, space, n):
    """n points from ambient coordinates in [-3, 3]: projected onto the
    sphere family (away from the origin), the spatial part on H."""
    A = _draw_array(data, (n, space.ambient_dim), 3.0)
    if space.kind == "euclidean":
        return A
    if space.kind != "hyperbolic":
        A[np.linalg.norm(A, axis=1) < 1e-3, 0] = 1.0
    return np.array([space.project(a) for a in A])


def _draw_tangents(data, space, x, n, max_frac):
    """n tangent vectors at x of lengths up to max_frac times the reach
    (inj, or 3 where inj is infinite): projections of drawn ambient
    vectors, or of the best-placed coordinate axis where a projection is
    short."""
    axis = max((space.tangent_project(x, e) for e in np.eye(space.ambient_dim)),
               key=lambda u: space.norm(x, u))
    rows = []
    for g, r in zip(_draw_array(data, (n, space.ambient_dim), 1.0),
                    _draw_array(data, n, max_frac)):
        v = space.tangent_project(x, g)
        if space.norm(x, v) < 0.1:
            v = axis
        rows.append((abs(r) * _reach(space) / space.norm(x, v)) * v)
    return np.array(rows)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_exp_log_round_trip_inside_inj(space, data):
    (x,) = _draw_points(data, space, 1)
    (v,) = _draw_tangents(data, space, x, 1, 0.95)
    np.testing.assert_allclose(space.log(x, space.exp(x, v)), v,
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_log_length_is_distance_and_distance_is_symmetric(space, data):
    # and the triangle inequality through a third point z
    x, y, z = _draw_points(data, space, 3)
    d = space.distance(x, y)
    assert d == pytest.approx(space.distance(y, x), rel=1e-12, abs=1e-12)
    d_yz = space.distance(y, z)
    assert space.distance(x, z) <= d + d_yz + 1e-12 * (1.0 + d + d_yz)
    try:
        v = space.log(x, y)
    except CutLocusError:   # refused only in the guard band below inj
        assert d >= space.constants().inj * (1.0 - 1e-9)
        return
    assert space.norm(x, v) == pytest.approx(d, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_distance_is_symmetric_for_far_pairs(space, data):
    # y is a step of up to 100 reaches away: on H its time coordinate
    # reaches about e^300, far past the base points log refuses (2^16 R),
    # and the distance from either end is the same, and the step length
    (x,) = _draw_points(data, space, 1)
    (v,) = _draw_tangents(data, space, x, 1, 100.0)
    y = space.exp(x, v)
    d = space.distance(x, y)
    assert d == pytest.approx(space.distance(y, x), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(space.dist_many(y, x[np.newaxis]), [d], **ROW_TOL)
    if space.kind in ("euclidean", "hyperbolic"):
        assert d == pytest.approx(space.norm(x, v), rel=1e-9)


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_array_rows_equal_per_pair_results(space, data):
    n = data.draw(st.integers(1, 8))
    x, *rows = _draw_points(data, space, n + 1)
    P = np.array(rows)
    if space.kind != "hyperbolic":
        # on RP and SO(3), the other representative of the same point
        P[data.draw(arrays(bool, n))] *= -1.0
    np.testing.assert_allclose(space.dist_many(x, P),
                               [space.distance(x, y) for y in P], **ROW_TOL)
    pairs = []
    for y in P:
        try:
            pairs.append(space.log_dist(x, y))
        except CutLocusError:
            break
    if len(pairs) < n:   # the first refused row is the one reported
        with pytest.raises(CutLocusError) as e:
            space._log_scales(x, P)
        assert e.value.index == len(pairs)
    else:
        U, s, d = space._log_scales(x, P)
        np.testing.assert_allclose(s[:, np.newaxis] * U,
                                   [v for v, _ in pairs], **ROW_TOL)
        np.testing.assert_allclose(d, [dy for _, dy in pairs], **ROW_TOL)
    V = _draw_tangents(data, space, x, n, 1.5)
    Y = space.exp_many(x, V)
    Y1 = [space.exp(x, v) for v in V]
    np.testing.assert_allclose(Y, Y1, **ROW_TOL)
    if space.kind in ("real_projective", "so3"):
        # the canonical sign is idempotent: exp rows are canonical already,
        # and projecting x again moves it by rounding, never by a sign flip
        assert np.array_equal(_canonical_sign_rows(Y), Y)
        assert all(np.array_equal(_canonical_sign(y), y) for y in Y1)
        np.testing.assert_allclose(space.project(x), x, rtol=0, atol=1e-15)


_TIES = st.sampled_from(["none", "copy", "ulps", "mirror"])


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_farthest_is_the_first_maximum_of_dist_many(space, data):
    # rows i and j made an exact tie (a copy), a near-tie (a few ulps off
    # in every coordinate) or, on the sphere family, a mirrored pair
    # exp(x, v) and exp(x, -v); ties must reach dist_many's first maximum
    n = data.draw(st.integers(1, 5))
    x, *rows = _draw_points(data, space, n + 1)
    P = np.array(rows)
    how = data.draw(_TIES)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if how == "copy":
        P[j] = P[i]
    elif how == "ulps":
        P[j] = P[i] + data.draw(st.integers(-4, 4)) * np.spacing(P[i])
    elif how == "mirror" and space.kind not in ("euclidean", "hyperbolic"):
        (v,) = _draw_tangents(data, space, x, 1, 0.9)
        P[i], P[j] = space.exp(x, v), space.exp(x, -v)
    assert space._farthest(x, P) == int(np.argmax(space.dist_many(x, P)))


def _chart_hull(data, space, how):
    """Chart vertices V of 1 to 6 points and chart points Q in the chart
    at a drawn point o: V drawn, about a frame at o (so that most sets
    span), with a copy, or in a hyperplane through o (every simplex
    degenerate); Q holds convex combinations (the first on a face, if
    any, or a single vertex), the vertices and two more points."""
    (o,) = _draw_points(data, space, 1)
    n = 7 - data.draw(st.integers(1, 6))   # Hypothesis favours the low end
    # n vertices, two more points and a normal, all inside r_cx
    *T, p1, p2, w = _draw_tangents(data, space, o, n + 3, 0.45)
    chart = geocheck.Chart(space, o)
    if how != "drawn":
        T = 0.5 * np.array(T) + [
            (-1) ** (i // space.dim) * 0.2 * _reach(space)
            * chart.basis[i % space.dim] for i in range(n)]
    if how == "copy":
        T[data.draw(st.integers(0, n - 1))] = T[0]
    elif how == "flat" and space.inner(o, w, w) > 0.0:
        T = T - np.outer([space.inner(o, t, w) for t in T], w) \
            / space.inner(o, w, w)
    V = chart_points(chart, [space.exp(o, t) for t in (*T, p1, p2)])
    V, others = V[:n], V[n:]
    W = 0.05 + np.abs(_draw_array(data, (4, n), 1.0))
    W[0, data.draw(st.integers(0, n - 1))] = 0.0   # on a face, if any
    W[0, 0] += W[0].sum() == 0.0                   # a single vertex
    return V, np.vstack([(W / W.sum(axis=1, keepdims=True)) @ V, V, others])


def _near_face(data, dim):
    """Vertices V of a random hull in R^dim with a face on the hyperplane
    a.v = 0 (a a unit normal, every other vertex on the side a.v < 0),
    and the points k tol * scale outside it, the residual k times the
    tolerance: a point of the face (a convex combination of its dim
    vertices) moved that far along a, for k in 0.5, 0.9, 1.1, 2 and 10;
    returns (V, Q, tol)."""
    bound = data.draw(st.sampled_from([0.5, 2.0]))
    a = _draw_array(data, dim, 1.0)
    if not np.linalg.norm(a) > 0.1:
        a = np.eye(dim)[0]
    a = a / np.linalg.norm(a)
    n = dim + data.draw(st.integers(1, 4))
    V = _draw_array(data, (n, dim), bound)
    V -= np.outer(V @ a, a)                       # onto a.v = 0
    depth = 0.1 + np.abs(_draw_array(data, n - dim, bound))
    V[dim:] -= np.outer(depth, a)                 # strictly inside
    w = 0.05 + np.abs(_draw_array(data, dim, 1.0))
    face = (w / w.sum()) @ V[:dim]
    tol = data.draw(st.sampled_from([1e-9, 1e-8, 1e-6]))
    scale = 1.0 + float(np.abs(V).max())
    k = np.array([0.5, 0.9, 1.1, 2.0, 10.0])
    return V, face + np.outer(k * tol * scale, a), tol


@pytest.mark.parametrize("space", SIX_SPACES, ids=lambda s: s.kind)
@FEW
@given(data=st.data())
def test_hull_membership_equals_nnls(space, data):
    # hull_membership's verdicts are the NNLS reference's, or inside
    # where a face's own least-squares solution holds a point that
    # Lawson-Hanson stops short of (face_in_hull): on chart vertex sets
    # of 1 to 6 points (so also fewer than dim + 1) drawn, about a
    # frame, with a copy or flat, at hull_check's tolerance; and k tol
    # outside a face of a hull in the space's chart dimension
    how = data.draw(st.sampled_from(["drawn", "frame", "copy", "flat",
                                     "near_face"]))
    if how == "near_face":
        V, Q, tol = _near_face(data, space.dim)
    else:
        (V, Q), tol = _chart_hull(data, space, how), 1e-8
    ref = [nnls_in_hull(V, q, tol) or face_in_hull(V, q, tol) for q in Q]
    assert geocheck.hull_membership([(V, Q)], tol)[0].tolist() == ref


def _block_hull(data, shape):
    """A hull of the given (n, dim) shape, drawn, with a duplicate vertex
    or collinear, 1 or 1e-7 across (test_hull_membership_tiny_hull's
    size) about a drawn offset, and 0 to 4 points (no point: the chart
    refused a trial's first record) among convex combinations of the
    vertices, the vertices and drawn points."""
    n, dim = shape
    how = data.draw(st.sampled_from(["drawn", "copy", "collinear"]))
    V = _draw_array(data, (n, dim), 1.0)
    if how == "copy":
        V[data.draw(st.integers(0, n - 1))] = V[0]
    elif how == "collinear":
        V = np.outer(_draw_array(data, n, 1.0), _draw_array(data, dim, 1.0))
    W = 0.05 + np.abs(_draw_array(data, (2, n), 1.0))
    P = np.vstack([(W / W.sum(axis=1, keepdims=True)) @ V, V,
                   _draw_array(data, (2, dim), 1.5)])
    Q = P[data.draw(st.lists(st.integers(0, len(P) - 1), max_size=4))]
    size = data.draw(st.sampled_from([1.0, 1e-7]))
    offset = _draw_array(data, dim, 1.0)
    return size * V + offset, size * Q + offset


@FEW
@given(data=st.data())
def test_hull_membership_block_equals_one_by_one(data):
    # one call on a block of hulls of mixed shapes (1 to 7 vertices in
    # dims 1 to 3, often a shape twice in a row) gives each hull the
    # verdicts of a call on that hull alone, and those are the NNLS
    # reference's, or inside where face_in_hull finds a face holding
    # the point (test_hull_membership_equals_nnls)
    hulls, shape = [], None
    for _ in range(data.draw(st.integers(1, 8))):
        if shape is None or data.draw(st.booleans()):
            shape = (data.draw(st.integers(1, 7)),
                     data.draw(st.integers(1, 3)))
        hulls.append(_block_hull(data, shape))
    tol = data.draw(st.sampled_from([1e-9, 1e-8]))
    got = geocheck.hull_membership(hulls, tol)
    assert len(got) == len(hulls)
    for (V, Q), verdicts in zip(hulls, got):
        (alone,) = geocheck.hull_membership([(V, Q)], tol)
        ref = [nnls_in_hull(V, q, tol) or face_in_hull(V, q, tol) for q in Q]
        assert verdicts.tolist() == alone.tolist() == ref


# the spaces whose representation error is never 0
CURVED = [s for s in SIX_SPACES + [Sphere(3), Hyperbolic(3, -0.5)]
          if s.kind != "euclidean"]
_SPOILERS = st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200,
                             1e160, sys.float_info.max, -sys.float_info.max])


def _two_test_check(space, X):
    """The DomainError text check_points raised with both whole-array
    tests, the representation errors and finiteness, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = space._constraint_errors(X)
    if (err <= 1e-12).all() and np.isfinite(X).all():
        return None
    finite = np.isfinite(X).all(axis=1)
    i = int(np.argmax(~(finite & (err <= 1e-12))))
    if not finite[i]:
        return f"{space.kind}: non-finite coordinate in {X[i]}"
    return f"{space.kind}: representation violated by {err[i]:.3e}"


@pytest.mark.parametrize("space", CURVED, ids=lambda s: repr(s))
@FEW
@given(data=st.data())
def test_representation_error_flags_every_non_finite_row(space, data):
    # valid rows, some of them spoiled by infinite, NaN or huge finite
    # coordinates: each row with a non-finite coordinate has an error
    # above 1e-12 or NaN, and check_points raises what the two tests raise
    n = data.draw(st.integers(1, 6))
    X = _draw_points(data, space, n)
    D = space.ambient_dim
    for i in data.draw(st.lists(st.integers(0, n - 1), unique=True)):
        for j in data.draw(st.lists(st.integers(0, D - 1), min_size=1,
                                    unique=True)):
            X[i, j] = data.draw(_SPOILERS)
    with np.errstate(over="ignore", invalid="ignore"):
        err = space._constraint_errors(X)
    for e in err[~np.isfinite(X).all(axis=1)].tolist():
        assert e > 1e-12 or math.isnan(e)
    expected = _two_test_check(space, X)
    if expected is None:
        space.check_points(X)
    else:
        with pytest.raises(DomainError) as e:
            space.check_points(X)
        assert str(e.value) == expected
