"""Hypothesis properties of the six spaces: the exp/log round trip, the
length of log against the distance, symmetry of the distance (also for
pairs far apart), the triangle inequality, the array primitives
(dist_many, log_dist_many, exp_many) against the scalar ones, row by row,
with the canonical sign of RP and SO(3) idempotent, and the far point of
the ball-estimate sweep against dist_many, ties included."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geomean.errors import CutLocusError
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere, _canonical_sign,
                               _canonical_sign_rows)

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
            space.log_dist_many(x, P)
        assert e.value.index == len(pairs)
    else:
        logs, d = space.log_dist_many(x, P)
        np.testing.assert_allclose(logs, [v for v, _ in pairs], **ROW_TOL)
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
