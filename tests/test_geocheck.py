import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import geomean
from geomean import geocheck, manifolds, solver
from geomean.errors import CutLocusError, DomainError
from geomean.frechet import make_dataset
from geomean.geocheck import (Chart, comparison_check, hull_membership,
                              secant_by_intersection, tethering_check,
                              triangle_data)
from geomean.kernels import secant_euclid, secant_sphere
from geomean.manifolds import (Circle, Euclidean, Hyperbolic, RealProjective,
                               SO3, Sphere)
from conftest import (chart_points, nnls, nnls_in_hull, one_step,
                      random_unit_tangent, ref_random_in_ball,
                      ref_random_point, ref_triangle, sample_triangle)


def test_secant_oracle_trivial_alpha1_zero(rng):
    sp = Sphere(2)
    _, _, x, y1, y2 = sample_triangle(sp, rng, max_radius=0.5)
    b = sp.distance(x, y1)
    assert secant_by_intersection(sp, x, y1, y2, 0.0) == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("sp, max_radius", [
    (Sphere(2), Sphere(2).constants().r_cx / 2.2), (Hyperbolic(2), 1.0),
    (Hyperbolic(3, kappa=-0.5), 1.0)],
    ids=["sphere", "hyperbolic", "hyperbolic_3d_kappa_-0.5"])
def test_secant_oracle_vs_sphere_formula(sp, max_radius, rng):
    # on H the law of cotangents takes coth: coth(rk z) sin alpha =
    # coth(rk b) sin alpha2 + coth(rk c) sin alpha1, rk = sqrt(-kappa)
    done = 0
    while done < 150:
        _, _, x, y1, y2 = sample_triangle(sp, rng, max_radius=max_radius)
        b, c, alpha = triangle_data(sp, x, y1, y2)
        if min(b, c) < 1e-5 or not 1e-5 < alpha < math.pi - 1e-5:
            continue
        a1 = alpha * rng.uniform()
        if sp.kappa > 0:
            z = secant_sphere(b, c, a1, alpha - a1)
        else:
            rk = math.sqrt(-sp.kappa)
            rhs = (math.sin(alpha - a1) / math.tanh(rk * b)
                   + math.sin(a1) / math.tanh(rk * c))
            z = math.atanh(math.sin(alpha) / rhs) / rk
        zo = secant_by_intersection(sp, x, y1, y2, a1)
        assert zo == pytest.approx(z, abs=1e-8)
        done += 1


def test_secant_oracle_vs_euclid(rng):
    eu = Euclidean(3)
    done = 0
    while done < 150:
        _, _, x, y1, y2 = sample_triangle(eu, rng)
        b, c, alpha = triangle_data(eu, x, y1, y2)
        if min(b, c) < 1e-5 or not 1e-5 < alpha < math.pi - 1e-5:
            continue
        a1 = alpha * rng.uniform()
        z = secant_euclid(b, c, a1, alpha - a1)
        zo = secant_by_intersection(eu, x, y1, y2, a1)
        assert zo == pytest.approx(z, abs=1e-13)
        done += 1


@pytest.mark.parametrize("space, x", [
    (Euclidean(3), [0.0, 0.0, 0.0]), (Sphere(2), [0.0, 0.0, 1.0]),
    (Hyperbolic(2), [1.0, 0.0, 0.0]), (RealProjective(2), [0.0, 0.0, 1.0]),
    (SO3(), [1.0, 0.0, 0.0, 0.0])],
    ids=["euclidean", "sphere", "hyperbolic", "real_projective", "so3"])
def test_thin_triangle_angle(space, x, rng):
    # at a coordinate point along coordinate axes the normal part of
    # log_x y2 is exact to rounding, so the constructed angle is the angle
    x = np.array(x)
    e1, e2 = Chart(space, x).basis[:2]
    for _ in range(100):
        alpha = 10.0 ** rng.uniform(-8.0, -4.0)
        b, c = 0.1 + 0.5 * rng.uniform(size=2)
        y1 = space.exp(x, b * e1)
        y2 = space.exp(x, c * (math.cos(alpha) * e1 + math.sin(alpha) * e2))
        _, c_read, a_read = triangle_data(space, x, y1, y2)
        assert a_read == pytest.approx(alpha, rel=1e-9)
        # the oracle reads the same angle, so the full angle is side x y2
        assert secant_by_intersection(space, x, y1, y2, a_read) == c_read


@pytest.mark.parametrize("space", [
    Euclidean(2), Euclidean(3), Sphere(2), Sphere(3), Hyperbolic(2),
    Hyperbolic(3, kappa=-0.5), RealProjective(2), SO3()], ids=repr)
def test_triangles_match_the_per_pair_reading(space, rng):
    # each row of the array reading against the per-pair reference, with
    # degenerate rows last: a side of 0 or 1e-15 (no frame), and y2 on
    # the geodesic through x and y1, on either side of x (no e2).  The
    # balls lie about a point with coordinates of order 1, the origin
    # off the sphere family: on H a frame vector's coordinates, and
    # their rounding, grow with the point's
    o = (space.random_point(rng) if space.kappa > 0
         else space.project(np.zeros(space.ambient_dim)))
    cap = geocheck._sampling_cap(space)
    rows = [space.random_points_in_ball(o, cap * rng.random(), 3, rng)
            for _ in range(40)]
    x, y1, _ = rows[0]
    v = space.log(x, y1)
    near = space.exp(x, 1e-15 * random_unit_tangent(space, x, rng))
    rows += [(x, x, y1), (x, y1, x), (x, near, y1),
             (x, y1, space.exp(x, 0.5 * v)), (x, y1, space.exp(x, -0.5 * v))]
    reading = geocheck._triangles(space, *map(np.array, zip(*rows)))
    sizes = []
    for row, (b, c, alpha, e1, e2) in zip(rows, zip(*reading)):
        want_b, want_c, want_alpha, frame = ref_triangle(space, *row)
        assert abs(b - want_b) <= 1e-12 and abs(c - want_c) <= 1e-12
        assert abs(alpha - want_alpha) <= 1e-12
        got = [e for e in (e1, e2) if not np.isnan(e).any()]
        assert len(got) == len(frame)
        assert all(np.abs(g - e).max() <= 1e-12 for g, e in zip(got, frame))
        sizes.append(len(frame))
    assert sizes[-5:] == [0, 0, 0, 1, 1] and set(sizes[:-5]) == {2}


def _forward_one(chart, point):
    """Reference: the chart of one point, per pair: its log, the log's
    norm and one inner product per frame vector."""
    sp, k = chart.space, chart.space.kappa
    v = sp.log(chart.center, point)
    d = sp.norm(chart.center, v)
    if d == 0.0:
        return np.zeros(sp.dim)
    x = math.sqrt(abs(k)) * d
    if k > 0 and x >= math.pi / 2.0 - 1e-12:
        raise DomainError(f"chart: point at distance {d} outside gnomonic domain")
    scale = math.tan(x) / x if k > 0 else math.tanh(x) / x if k < 0 else 1.0
    return np.array([sp.inner(chart.center, scale * v, e) for e in chart.basis])


@pytest.mark.parametrize("space", [
    Euclidean(2), Sphere(2), Circle(1.0), Hyperbolic(2), RealProjective(2),
    SO3()], ids=repr)
def test_chart_forward_equals_the_per_point_chart(space, rng):
    o = space.random_point(rng)
    chart = Chart(space, o)
    radius = 0.9 * min(geocheck._sampling_cap(space), 1.2)
    P = np.array([o] + space.random_points_in_ball(o, radius, 30, rng))
    Y, refusal = chart.forward(P)
    assert refusal is None and Y.shape == (31, space.dim)
    assert np.abs(Y - [_forward_one(chart, p) for p in P]).max() <= 1e-12


@pytest.mark.parametrize("space, far, error", [
    (Sphere(2), 2.0, DomainError),
    (RealProjective(2), 0.5 * math.pi * (1.0 - 1e-10), CutLocusError)],
    ids=["sphere", "real_projective"])
def test_chart_forward_returns_the_first_refusal_of_the_per_point_chart(
        space, far, error, rng):
    # at distance 2 the sphere's gnomonic bound refuses; on RP^2 the
    # cut-locus band starts at pi/2 (1 - 1e-9), before the bound, so the
    # per-pair log refuses first.  The rows before the first refused one
    # are charted
    o = space.random_point(rng)
    chart = Chart(space, o)
    bad = space.exp(o, far * random_unit_tangent(space, o, rng))
    with pytest.raises(error) as want:
        _forward_one(chart, bad)
    good = space.random_points_in_ball(o, 1.0, 6, rng)
    for P, n in (([bad] + good, 0), (good[:4] + [bad] + good[4:] + [bad], 4)):
        Y, refusal = chart.forward(np.array(P))
        assert type(refusal) is error and str(refusal) == str(want.value)
        assert Y.shape == (n, space.dim)
        want_Y = np.reshape([_forward_one(chart, p) for p in P[:n]],
                            (n, space.dim))
        assert np.abs(Y - want_Y).max(initial=0.0) <= 1e-12


def test_comparison_check_sphere():
    rep = comparison_check(Sphere(2), 1500, seed=42)
    assert rep["violations"] == 0
    assert rep["min_margin"] >= -1e-12


def test_comparison_check_hyperbolic_reversed():
    # kappa <= 0 runs in exploratory mode: violations are reported
    rep = comparison_check(Hyperbolic(2), 150, seed=43)
    assert rep["trials"] == 150
    assert rep["violations"] > 0  # reverse inequality dominates


def test_comparison_check_skips_degenerate_triangles():
    # at kappa = 1e28 most sampled triangles have a side below 1e-14 and
    # are drawn again, but never 1000 in a row
    rep = comparison_check(Sphere(2, kappa=1e28), 20, seed=0)
    assert rep["trials"] == 20 and rep["violations"] == 0
    with pytest.raises(DomainError, match="1000 sampled triangles in a row"):
        comparison_check(Sphere(2, kappa=1e300), 20, seed=0)


def convex_combination(space, x, points, weights, t):
    """exp_x(t sum_i w_i log_x x_i), the Riemannian convex combination."""
    U, s, _ = space._log_scales(x, np.asarray(points, dtype=float))
    return space.exp(x, t * ((np.asarray(weights, dtype=float) * s) @ U))


def test_convex_combination(rng):
    sp = Sphere(2)
    o = sp.random_point(rng)
    pts = [sp.random_in_ball(o, 0.8, rng) for _ in range(4)]
    # all weight on one point
    y = convex_combination(sp, o, pts, [1, 0, 0, 0], t=1.0)
    assert sp.distance(y, pts[0]) <= 1e-12

    # Euclidean: x + t sum w_i (x_i - x); at t=1 independent of x
    eu = Euclidean(3)
    epts = rng.standard_normal((3, 3))
    w = rng.dirichlet(np.ones(3))
    x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
    c1 = convex_combination(eu, x1, epts, w, 1.0)
    c2 = convex_combination(eu, x2, epts, w, 1.0)
    assert np.allclose(c1, c2, atol=1e-12)
    assert np.allclose(c1, w @ epts, atol=1e-12)


def test_convex_combination_stays_in_ball(rng):
    sp = Sphere(2)
    for _ in range(100):
        o = sp.random_point(rng)
        rho = 0.5 * math.pi * rng.uniform() + 1e-3
        n = int(rng.integers(2, 6))
        pts = [sp.random_in_ball(o, rho, rng) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        x = sp.random_in_ball(o, rho, rng)
        for t in (0.25, 0.5, 0.75, 1.0):
            y = convex_combination(sp, x, pts, w, t)
            assert sp.distance(o, y) <= rho + 1e-9


def test_combination_induction_s3(rng):
    # combinations with up to 8 points stay in the ball on S^3
    sp = Sphere(3)
    for _ in range(50):
        o = sp.random_point(rng)
        rho = 0.45 * math.pi * rng.uniform() + 1e-3
        n = int(rng.integers(2, 9))
        pts = [sp.random_in_ball(o, rho, rng) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        x = sp.random_in_ball(o, rho, rng)
        y = convex_combination(sp, x, pts, w, 1.0)
        assert sp.distance(o, y) <= rho + 1e-9


def test_weight_angle_bijection(rng):
    # the two-point combination from x traces the secant cut at the
    # matching angle: its length never exceeds the oracle secant length
    sp = Sphere(2)
    done = 0
    while done < 50:
        _, _, x, y1, y2 = sample_triangle(sp, rng,
                                          max_radius=sp.constants().r_cx / 2.2)
        b, c, alpha = triangle_data(sp, x, y1, y2)
        if min(b, c) < 1e-4 or not 1e-4 < alpha < math.pi - 1e-4:
            continue
        w = rng.uniform()
        v = w * sp.log(x, y1) + (1 - w) * sp.log(x, y2)
        nv = sp.norm(x, v)
        if nv < 1e-9:
            continue
        cos_a1 = sp.inner(x, v, sp.log(x, y1)) / (nv * b)
        a1 = math.acos(min(1.0, max(-1.0, cos_a1)))
        z = secant_by_intersection(sp, x, y1, y2, a1)
        for t in (0.25, 0.5, 1.0):
            assert t * nv <= z + 1e-8
            # the traced point sits on the launched geodesic
            y = convex_combination(sp, x, [y1, y2], [w, 1 - w], t)
            assert sp.distance(y, sp.exp(x, (t * nv) * (v / nv))) <= 1e-10
        done += 1


def test_chart_sends_geodesics_to_lines(rng):
    for space in (Sphere(2), Hyperbolic(2), RealProjective(2), SO3(),
                  Euclidean(2)):
        cst = space.constants()
        cap = min(cst.r_cx, 1.2) if math.isfinite(cst.r_cx) else 1.2
        o = space.random_point(rng)
        chart = Chart(space, o)
        for _ in range(50):
            a = space.random_in_ball(o, 0.9 * cap, rng)
            b = space.random_in_ball(o, 0.9 * cap, rng)
            mid = space.exp(a, 0.5 * space.log(a, b))
            pa, pb, pm = chart_points(chart, (a, b, mid))
            # pm lies on the segment [pa, pb]
            seg = pb - pa
            lam = float(np.dot(pm - pa, seg) / max(np.dot(seg, seg), 1e-30))
            assert -1e-9 <= lam <= 1 + 1e-9
            assert np.linalg.norm(pm - (pa + lam * seg)) <= 1e-9


def test_hull_membership(rng):
    sp = Sphere(2)
    o = np.array([0.0, 0.0, 1.0])
    dirs = [np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]),
            np.array([0, 1.0, 0]), np.array([0, -1.0, 0])]
    verts = [sp.exp(o, 0.5 * u) for u in dirs]
    chart = Chart(sp, o)
    V = chart_points(chart, verts)
    inside = lambda q: hull_membership([(V, chart_points(chart, [q]))],
                                       1e-9)[0][0]
    assert inside(verts[0])
    assert inside(o)
    mid = sp.exp(verts[0], 0.5 * sp.log(verts[0], verts[2]))
    assert inside(mid)
    outside = sp.exp(o, 0.7 * dirs[0])
    assert not inside(outside)


def test_hull_membership_hand_built():
    eu = Euclidean(2)
    chart = Chart(eu, np.zeros(2))

    def inside(verts, q):
        V = chart_points(chart, verts)
        return hull_membership([(V, chart_points(chart, [q]))], 1e-9)[0][0]
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    for verts in (tri, tri + tri[:2]):   # also with duplicate vertices
        assert inside(verts, [1.0, 0.0])          # a vertex
        assert inside(verts, [0.5, 0.5])          # an edge
        assert inside(verts, [0.2, 0.3])          # interior
        assert not inside(verts, [0.5 + 1e-6, 0.5])
        assert not inside(verts, [-1e-6, 0.5])
    line = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]               # collinear
    assert inside(line, [1.5, 1.5])
    assert inside(line, [2.0, 2.0])
    assert not inside(line, [1.5, 1.5 + 1e-6])
    assert not inside(line, [2.0 + 1e-6, 2.0 + 1e-6])


def test_hull_membership_tiny_hull():
    # a triangle 1e-7 across: the point inside it lies more than tol
    # from every edge, so only the triangle's own face holds it
    tri = 1e-7 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Q = 1e-7 * np.array([[0.2, 0.3], [0.6, 0.5], [-0.1, 0.5]])
    offset = np.array([0.3, -0.2])
    (got,) = hull_membership([(tri + offset, Q + offset)], 1e-9)
    assert got.tolist() == [True, False, False]


def test_hull_membership_so3_triangle():
    # three vertices span only a plane of the 3-D chart
    so3 = SO3()
    o = np.eye(4)[0]   # the identity rotation
    e1, e2, e3 = np.eye(4)[1:]
    verts = [so3.exp(o, 0.6 * e1), so3.exp(o, 0.6 * e2),
             so3.exp(o, -0.4 * e1 - 0.4 * e2)]
    mid = so3.exp(verts[0], 0.5 * so3.log(verts[0], verts[1]))
    chart = Chart(so3, o)
    V = chart_points(chart, verts)
    inside = lambda q: hull_membership([(V, chart_points(chart, [q]))],
                                       1e-9)[0][0]
    for q in (verts[2], mid, o):
        assert inside(q)
    for h in (1e-6, 1e-3):   # e3 is normal to the plane at o and at mid
        for q in (o, mid):
            assert not inside(so3.exp(q, h * e3))
    assert not inside(so3.exp(o, 0.7 * e1))


def test_nnls_kkt(rng):
    # Lawson-Hanson's solution satisfies the KKT conditions of
    # min |Ax - b| over x >= 0: w = A^T (b - Ax) is <= 0 off the support
    # and 0 on it
    for trial in range(400):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        A = rng.standard_normal((m, n))
        if trial % 4 == 0 and n > 1:
            A[:, -1] = A[:, 0]                  # a duplicate column
        b = 3.0 * rng.standard_normal(m)
        x = nnls(A, b)
        w = A.T @ (b - A @ x)
        tol = 1e-9 * (1.0 + np.abs(A).max()) ** 2 * (1.0 + np.abs(b).max())
        assert (x >= 0.0).all()
        assert (w[x == 0.0] <= tol).all()
        assert (np.abs(w[x > 0.0]) <= tol).all()


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), SO3()],
                         ids=lambda s: s.kind)
def test_hull_check_matches_membership_loop(space, monkeypatch):
    # hull_check charts each trial once and takes the verdicts of a
    # block's records from one hull_membership call; each verdict equals
    # the NNLS reference's in the chart at the ball center
    monkeypatch.setattr(geocheck, "_BLOCK", 8)
    trials, verdicts, calls = [], [], []
    descents, membership = geocheck._descents, geocheck.hull_membership

    def spy_descents(space, block):
        records = descents(space, block)
        trials.extend(zip(block, records))
        return records

    def spy_membership(hulls, tol):
        calls.append(len(hulls))
        verdicts.extend(membership(hulls, tol))
        return verdicts[-len(hulls):]

    monkeypatch.setattr(geocheck, "_descents", spy_descents)
    monkeypatch.setattr(geocheck, "hull_membership", spy_membership)
    rep = geocheck.hull_check(space, 30, seed=5)
    monkeypatch.undo()
    flags, expected, violations = [], [], 0
    for ((o, _, points, _, _, _), records), got in zip(trials, verdicts):
        chart = Chart(space, o)
        V = chart_points(chart, points)
        flags += got.tolist()
        entered = violated = False
        for point in records[:len(got)]:
            inside = nnls_in_hull(V, chart_points(chart, [point])[0], 1e-8)
            expected.append(inside)
            violated = violated or entered and not inside
            entered = entered or inside
        violations += violated
    assert calls == [8, 8, 8, 6]   # one call a block
    assert len(trials) == len(verdicts) == 30
    assert flags == expected and any(flags) and not all(flags)
    assert rep["violations"] == violations


def _refusing(trials, k):
    """Chart.forward refusing the rows equal to record k of the first
    descent in `trials`, the records of the descents seen so far."""
    forward = Chart.forward

    def forward_refusing(chart, P):
        Y, refusal = forward(chart, P)
        if trials:
            hit = np.flatnonzero((P == trials[0][k]).all(axis=1))
            if len(hit) and hit[0] <= len(Y):
                return Y[:hit[0]], DomainError("chart: refused")
        return Y, refusal
    return forward_refusing


def _spying_descents(trials, fail_at=None):
    """geocheck._descents appending each trial's records to `trials`,
    raising DomainError for a block that holds trial number fail_at (0
    based, after the trials in `trials`) where given: the block, then
    that trial in the replay one trial at a time."""
    descents = geocheck._descents

    def spy_descents(space, block):
        if fail_at is not None and 0 <= fail_at - len(trials) < len(block):
            raise DomainError("descend: refused")
        records = descents(space, block)
        trials.extend(records)
        return records
    return spy_descents


def test_hull_check_charts_records_as_the_sweep_reaches_them(monkeypatch):
    # records are charted ahead of the sweep, but a record the chart
    # refuses raises only where the sweep, which stops at the first
    # violation, reaches it
    trials = []
    monkeypatch.setattr(geocheck, "_descents", _spying_descents(trials))
    monkeypatch.setattr(Chart, "forward", _refusing(trials, 1))
    with pytest.raises(DomainError, match="^chart: refused$"):
        geocheck.hull_check(Sphere(2), 3, seed=5)
    # the block's 3 descents, then trial 0's in the replay, which raises
    assert len(trials) == 4 and len(trials[0]) > 2

    # record 0 enters the hull and record 1 leaves it: record 2 is never
    # reached, so its chart is never asked for
    def membership(hulls, tol):
        assert [len(Q) for _, Q in hulls] == [2]   # records 0 and 1
        return [np.array([True, False])]

    monkeypatch.undo()
    trials.clear()
    monkeypatch.setattr(geocheck, "_descents", _spying_descents(trials))
    monkeypatch.setattr(geocheck, "hull_membership", membership)
    monkeypatch.setattr(Chart, "forward", _refusing(trials, 2))
    assert geocheck.hull_check(Sphere(2), 1, seed=5)["violations"] == 1


def test_hull_check_raises_the_first_trials_error_first(monkeypatch):
    # a block's trials are descended before any is swept, yet where
    # trial 0's sweep reaches a record the chart refuses and trial 2's
    # descent raises, trial 0's error raises, as one trial at a time
    trials = []
    monkeypatch.setattr(geocheck, "_descents",
                        _spying_descents(trials, fail_at=2))
    with pytest.raises(DomainError, match="^descend: refused$"):
        geocheck.hull_check(Sphere(2), 5, seed=5)
    trials.clear()
    monkeypatch.setattr(Chart, "forward", _refusing(trials, 1))
    with pytest.raises(DomainError, match="^chart: refused$"):
        geocheck.hull_check(Sphere(2), 5, seed=5)
    # the block raises before its descents are kept: trial 0's descent
    # in the replay is the only one, and its sweep raises
    assert len(trials) == 1


# The Generator's Philox state after each suite (its counter and buffer
# position, after comparison, tethering and hull), its reports' integer
# fields, and their floats: comparison's and tethering's min_margin and
# a sum over the hull sweep's sampled inputs and finals.  The floats were
# recorded when the sampler took one point at a time on Python floats;
# they are compared within the 1e-12 bound.
_PINNED_DRAWS = {
    "sphere": ((([1253, 0, 0, 0], 3), ([2427, 0, 0, 0], 2),
                ([208, 0, 0, 0], 2)),
               0, (2.1026270958721116e-10, 0.0009853447162428669,
                   -3.7769618740643214)),
    "hyperbolic": ((([1368, 0, 0, 0], 3), ([2507, 0, 0, 0], 1),
                    ([221, 0, 0, 0], 2)),
                   200, (-0.24622127067187594, 0.005027656000494702,
                         327.8053170732187)),
}


def _within_bound(got, pin):
    """Whether got is pin, or within 1e-12 * max(1, |pin|) of it (the
    bound of the benchmark and of tools/output_digest.py --tol)."""
    return (got == pin or abs(got - pin) <= 1e-12 * max(1.0, abs(pin))
            or math.isnan(got) and math.isnan(pin))


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2)],
                         ids=lambda s: s.kind)
def test_suites_keep_their_draw_order(space, monkeypatch):
    states, violations, floats = _PINNED_DRAWS[space.kind]
    made, Generator = [], np.random.Generator

    def generator(bit_generator):
        made.append(Generator(bit_generator))
        return made[-1]

    def position():
        st = made[-1].bit_generator.state
        return st["state"]["counter"].tolist(), st["buffer_pos"]

    monkeypatch.setattr(geocheck.np.random, "Generator", generator)
    reports = [comparison_check(space, 200, seed=21)]
    positions = [position()]
    reports.append(tethering_check(space, 200, (0.25, 0.5, 1.0), seed=21))
    positions.append(position())
    sums, descents = [], geocheck._descents

    def spy_descents(space, block):
        records = descents(space, block)
        sums.extend(float(points.sum() + x0.sum() + trial_records[-1].sum())
                    for (_, _, points, _, x0, _), trial_records
                    in zip(block, records))
        return records

    monkeypatch.setattr(geocheck, "_descents", spy_descents)
    reports.append(geocheck.hull_check(space, 20, seed=21))
    positions.append(position())
    assert positions == [tuple(p) for p in states]
    margins = [rep.pop("min_margin") for rep in reports]
    assert reports == [
        {"suite": "comparison", "trials": 200, "violations": violations,
         "seed": 21},
        {"suite": "tethering", "trials": 200, "violations": 0, "seed": 21},
        {"suite": "hull", "trials": 20, "violations": 0, "seed": 21}]
    assert math.isnan(margins[2]) and len(sums) == 20
    assert all(_within_bound(got, pin) for got, pin in
               zip([margins[0], margins[1], sum(sums)], floats))


def test_hull_contains_l2_mean(rng):
    from geomean.frechet import make_dataset
    from geomean.solver import SolverConfig, descend
    sp = Sphere(2)
    for _ in range(20):
        o = sp.random_point(rng)
        rho = 0.4 * math.pi * rng.uniform() + 0.05
        pts = [sp.random_in_ball(o, rho, rng) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        ds = make_dataset(sp, pts, w, o, rho)
        tr = descend(ds, SolverConfig(p=2, step=1.0, grad_tol=1e-12,
                                      max_iters=300))
        if np.all(w > 0.02):
            chart = Chart(sp, o)
            (inside,) = hull_membership([(chart_points(chart, pts),
                                          chart_points(chart, [tr.final]))],
                                        1e-7)[0]
            assert inside


def test_tethering_check_spaces():
    for space in (Sphere(2), SO3()):
        rep = tethering_check(space, 400, (0.25, 0.5, 1.0), seed=7)
        assert rep["violations"] == 0
    rep = tethering_check(Hyperbolic(2), 400, (1.0,), seed=8)
    assert rep["trials"] == 400  # delta < 0: exploratory, report-only mode


@pytest.mark.parametrize("t_grid", [(), (math.nan,), (-1.0,), (0.0,),
                                    (0.5, math.inf)])
def test_tethering_refuses_a_bad_t_grid_before_any_draw(t_grid, monkeypatch):
    # unchecked, an empty grid reaches numpy's raw ValueError, a NaN step
    # exp's overflow error, and a negative step counts trials as
    # violations; any draw here would raise TypeError
    monkeypatch.setattr(geocheck, "_dataset_trials", None)
    with pytest.raises(DomainError, match=r"need finite steps t > 0, got \("):
        tethering_check(Sphere(2), 50, t_grid, seed=0)


@pytest.mark.parametrize("kappa", [1e14, 1e300])
def test_tethering_balls_stay_within_r_cx(kappa, monkeypatch):
    # r_cx < 1e-6 here: the floor on a trial's ball radius is r_cx itself,
    # so every ball checked is one the tethering result covers.  A trial
    # samples its points and its x from one ball, (o, rho), in phase 1,
    # where o is the array phase 2 fills in
    sp = Sphere(2, kappa=kappa)
    r_cx = sp.constants().r_cx
    balls, sample = set(), geocheck.manifolds.Draws.ball

    def spy(self, center, radius, count):
        balls.add((id(center), radius))
        return sample(self, center, radius, count)

    monkeypatch.setattr(geocheck.manifolds.Draws, "ball", spy)
    rep = tethering_check(sp, 50, (0.25, 0.5, 1.0), seed=0)
    radii = [radius for _, radius in balls]
    assert len(radii) == 50 and max(radii) <= r_cx
    assert rep["violations"] == 0 and rep["min_margin"] <= r_cx


@pytest.mark.parametrize("n", range(1, 9))
def test_flat_dirichlet_is_numpys_dirichlet(n):
    # the tethering weights are numpy's Dirichlet(1, ..., 1) draws, bit
    # for bit, with the Generator left in the same state; a numpy that
    # draws Dirichlet otherwise fails here
    for seed in range(20):
        want = np.random.Generator(np.random.Philox(seed))
        got = np.random.Generator(np.random.Philox(seed))
        for _ in range(20):
            assert (geocheck._flat_dirichlet(got, n).tobytes()
                    == want.dirichlet(np.ones(n)).tobytes())
        assert _philox_state(got) == _philox_state(want)


def _tethering_one_at_a_time(space, n_trials, t_grid, seed, points=None):
    """Reference: the tethering suite one trial at a time through
    make_dataset, one_step (conftest) and distance, skipping a trial it
    refuses at the cut locus.  Returns (report, the Generator's state
    afterwards, the margins of the trials not skipped, the number
    skipped); appends each trial's (points, x) to `points` where given."""
    rng = np.random.Generator(np.random.Philox(seed))
    cap = geocheck._sampling_cap(space)
    violations, min_margin, margins, skipped = 0, math.inf, [], 0
    for _ in range(n_trials):
        o = space.random_point(rng)
        rho = max(cap * rng.random(), min(1e-6, cap))
        n = int(rng.integers(1, 9))
        pts = space.random_points_in_ball(o, rho, n, rng)
        if points is not None:
            points.append((pts, None))
        wts = rng.dirichlet(np.ones(n))
        ds = make_dataset(space, pts, wts, o, rho)
        x = space.random_in_ball(o, rho, rng)
        if points is not None:
            points[-1] = (pts, x)
        t = t_grid[int(rng.integers(len(t_grid)))]
        try:
            y = one_step(ds, 2.0, x, t)
        except CutLocusError:
            skipped += 1
            continue
        margin = rho - space.distance(o, y)
        margins.append(margin)
        min_margin = min(min_margin, margin)
        if margin < -1e-9:
            violations += 1
    report = {"suite": "tethering", "trials": n_trials,
              "violations": violations, "min_margin": min_margin,
              "seed": seed}
    return report, _philox_state(rng), margins, skipped


def _philox_state(rng):
    """A Generator's bit_generator state as JSON text (it holds arrays)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist,
                      sort_keys=True)


def _observed(monkeypatch, run, spied, spy):
    """run()'s report and its Generator's state afterwards, with the
    geocheck function named `spied` wrapped: spy(result, *args) sees each
    call's arguments and result.  The state is also that at an error
    run() raises, which is then re-raised as (error, state)."""
    made, Generator, wrapped = [], np.random.Generator, getattr(geocheck,
                                                                  spied)

    def generator(bit_generator):
        made.append(Generator(bit_generator))
        return made[-1]

    def spying(*args):
        result = wrapped(*args)
        spy(result, *args)
        return result

    with monkeypatch.context() as m:
        m.setattr(geocheck.np.random, "Generator", generator)
        m.setattr(geocheck, spied, spying)
        try:
            report = run()
        except DomainError as e:
            return e, _philox_state(made[0])
    assert len(made) == 1
    return report, _philox_state(made[0])


def _tethering_observed(monkeypatch, space, n_trials, t_grid, seed):
    """tethering_check's report, its Generator's state afterwards, and
    the margins its blocks gave, in order."""
    margins = []
    return _observed(
        monkeypatch, lambda: tethering_check(space, n_trials, t_grid, seed),
        "_step_margins",
        lambda block, space, trials: margins.extend(block)) + (margins,)


def _assert_same_run(got, want):
    """A suite's (report, Generator state, margins) against a one trial
    at a time reference's: every field but the floats equal, and
    min_margin and each margin within the 1e-12 bound (phase 2 computes
    the sampled points in arrays, whose sums round another way)."""
    (report, state, margins), (want_report, want_state, want_margins) = \
        got, want[:3]
    report, want_report = dict(report), dict(want_report)
    margin = report.pop("min_margin")
    want_margin = want_report.pop("min_margin")
    assert report == want_report and state == want_state
    assert len(margins) == len(want_margins)
    assert all(_within_bound(a, b) for a, b in zip(
        [margin] + list(margins), [want_margin] + list(want_margins))), \
        (got, want)


_TETHERING_SPACES = [Euclidean(2), Sphere(2), Circle(1.0), Hyperbolic(2),
                     RealProjective(2), SO3(), Sphere(3)]


@pytest.mark.parametrize("t_grid", [(1.0,), (0.25, 0.5, 0.75, 1.0)])
@pytest.mark.parametrize("seed", [0, 7, 21])
@pytest.mark.parametrize("space", _TETHERING_SPACES, ids=lambda s: repr(s))
def test_tethering_equals_one_trial_at_a_time(space, seed, t_grid,
                                              monkeypatch):
    # blocks of 7 trials: 40 trials span six blocks, the last one short
    monkeypatch.setattr(geocheck, "_BLOCK", 7)
    want = _tethering_one_at_a_time(space, 40, t_grid, seed)
    assert want[3] == 0
    _assert_same_run(_tethering_observed(monkeypatch, space, 40, t_grid,
                                         seed), want)


@pytest.mark.parametrize("space", _TETHERING_SPACES, ids=lambda s: repr(s))
def test_tethering_blocks_along_the_points_equal_one_trial_at_a_time(
        space, monkeypatch):
    # at the block size in use, a block's rows reach the kernels' along
    # path (manifolds._ALONG_POINTS), and 600 trials end on a short block
    grid = (0.25, 0.5, 0.75, 1.0)
    want = _tethering_one_at_a_time(space, 600, grid, 3)
    _assert_same_run(_tethering_observed(monkeypatch, space, 600, grid, 3),
                     want)


@pytest.mark.parametrize("space", [Sphere(2), SO3()], ids=lambda s: s.kind)
def test_tethering_skips_the_trials_one_step_refuses(space, monkeypatch):
    # a cut-locus band from distance 1: the step refuses some trials,
    # which the suite skips as one trial at a time does
    monkeypatch.setattr(geocheck, "_BLOCK", 7)
    monkeypatch.setattr(Sphere, "_band_start", lambda self: 1.0)
    grid = (0.25, 0.5, 1.0)
    want = _tethering_one_at_a_time(space, 60, grid, 5)
    assert 0 < want[3] < 60
    _assert_same_run(_tethering_observed(monkeypatch, space, 60, grid, 5),
                     want)


@pytest.mark.parametrize("seed, drawn_before", [(0, 2), (12, 6)])
def test_tethering_raises_the_sampler_overflow_of_one_trial_at_a_time(
        seed, drawn_before, monkeypatch):
    # on H with R = 1/sqrt(1e-299) a sampled step overflows within a few
    # trials: the same error, in blocks of 2 trials, in the first block
    # (seed 0) and in the fourth (seed 12)
    monkeypatch.setattr(geocheck, "_BLOCK", 2)
    space, drawn = Hyperbolic(2, kappa=-1e-299), []
    with pytest.raises(DomainError) as want:
        _tethering_one_at_a_time(space, 2000, (1.0,), seed, points=drawn)
    assert len(drawn) == drawn_before
    with pytest.raises(DomainError) as got:
        tethering_check(space, 2000, (1.0,), seed)
    assert str(got.value) == str(want.value)
    assert "overflows" in str(got.value)


def _inject(monkeypatch, space, refused, outside, x_fails):
    """Make space.check_points refuse an array holding a row of `refused`
    (point bytes -> label), space.dist_many give 10.0 for the rows of
    `outside`, and the sampler's phase 2 (space._ball_points) raise on a
    pass that gives the point of bytes `x_fails`: the x of a trial, in a
    block's pass, a careful one-point pass or random_in_ball's."""
    check_points, dist_many = space.check_points, space.dist_many
    ball_points = space._ball_points

    def refusing_check_points(X):
        for row in np.asarray(X):
            if row.tobytes() in refused:
                raise DomainError(f"refused {refused[row.tobytes()]}")
        return check_points(X)

    def far_dist_many(x, P):
        d = dist_many(x, P)
        d[[row.tobytes() in outside for row in P]] = 10.0
        return d

    def failing_ball_points(C, r, G):
        P = ball_points(C, r, G)
        if P is not None and any(row.tobytes() == x_fails for row in P):
            raise DomainError("x draw failed")
        return P

    monkeypatch.setattr(space, "check_points", refusing_check_points)
    monkeypatch.setattr(space, "dist_many", far_dist_many)
    monkeypatch.setattr(space, "_ball_points", failing_ball_points)


_OUTSIDE = "point 0 at distance 10.0 outside ball of radius .*"

# (trials whose first point check_points refuses, trials whose first
# point lies outside the ball, the trial whose x draw fails, the error)
# over 15 trials in blocks of 7, 7 and 1: past the first block, and in
# trial 14, alone in the last block, where the suite's own one-trial
# block checks the points as a whole block does and the replay raises
# make_dataset's message
_FIRST_ERRORS = [
    ((10,), (), None, "refused trial 10"),
    ((12, 10), (), None, "refused trial 10"),
    ((12,), (10,), None, _OUTSIDE),
    ((), (10,), 12, _OUTSIDE),
    ((10,), (), 12, "refused trial 10"),   # the draw after it fails
    ((12,), (), 12, "refused trial 12"),   # its own x draw fails
    ((12,), (), 10, "x draw failed"),
    ((), (), 3, "x draw failed"),
    ((14,), (), None, "refused trial 14"),
    ((), (14,), None, _OUTSIDE),
    ((), (), 14, "x draw failed"),
]


def _injected(refuse, outside, x_draw_fails, drawn):
    """_inject's (refused, outside, x_fails) for the trials numbered in
    `refuse`, `outside` and `x_draw_fails`, from each trial's (points,
    x) in `drawn`."""
    refused = {drawn[k][0][0].tobytes(): f"trial {k}" for k in refuse}
    far = {drawn[k][0][0].tobytes() for k in outside}
    x_fails = None if x_draw_fails is None else \
        drawn[x_draw_fails][1].tobytes()
    return refused, far, x_fails


@pytest.mark.parametrize("refuse, outside, x_draw_fails, error",
                         _FIRST_ERRORS)
def test_tethering_raises_the_first_error_of_one_trial_at_a_time(
        refuse, outside, x_draw_fails, error, monkeypatch):
    # errors injected past the first block of 7 trials: make_dataset's
    # (check_points refusing the first point of a trial, or that point
    # outside the ball) and a draw's (the x of a trial, which the
    # sampler's phase 2 refuses), which the suite raises in
    # one-trial-at-a-time order
    monkeypatch.setattr(geocheck, "_BLOCK", 7)
    space, drawn, grid = Sphere(2), [], (0.5, 1.0)
    _tethering_one_at_a_time(space, 15, grid, 11, points=drawn)
    injected = _injected(refuse, outside, x_draw_fails, drawn)
    for run in (lambda: _tethering_one_at_a_time(space, 15, grid, 11),
                lambda: tethering_check(space, 15, grid, 11)):
        with monkeypatch.context() as m:
            _inject(m, space, *injected)
            with pytest.raises(DomainError, match=f"^{error}$"):
                run()


def _hull_drawn_one_at_a_time(space, n_trials, seed, points=None):
    """Reference: hull_check's violations one trial at a time through
    random_point, random_points_in_ball, make_dataset and descend, whose
    points are the suite's byte for byte; appends each trial's (points,
    x0) to `points` where given."""
    rng = np.random.Generator(np.random.Philox(seed))
    cap = geocheck._sampling_cap(space)
    violations = 0
    for _ in range(n_trials):
        o = space.random_point(rng)
        rho = cap * (0.1 + 0.9 * rng.random())
        pts = space.random_points_in_ball(o, rho, int(rng.integers(3, 7)),
                                          rng)
        ds = make_dataset(space, pts, None, o, rho)
        x0 = space.random_in_ball(o, rho, rng)
        if points is not None:
            points.append((pts, x0))
        violations += _hull_trap_violated(ds, x0)
    return violations


@pytest.mark.parametrize("refuse, outside, x_draw_fails, error",
                         _FIRST_ERRORS)
def test_hull_raises_the_first_error_of_one_trial_at_a_time(
        refuse, outside, x_draw_fails, error, monkeypatch):
    # as for tethering: the errors injected into the hull trials raise
    # in one-trial-at-a-time order
    monkeypatch.setattr(geocheck, "_BLOCK", 7)
    space, drawn = Sphere(2), []
    violations = _hull_drawn_one_at_a_time(space, 15, 11, points=drawn)
    assert geocheck.hull_check(space, 15, 11)["violations"] == violations
    injected = _injected(refuse, outside, x_draw_fails, drawn)
    for run in (lambda: _hull_drawn_one_at_a_time(space, 15, 11),
                lambda: geocheck.hull_check(space, 15, 11)):
        with monkeypatch.context() as m:
            _inject(m, space, *injected)
            with pytest.raises(DomainError, match=f"^{error}$"):
                run()


def _comparison_one_at_a_time(space, n_trials, seed, rngs):
    """Reference: comparison_check one trial at a time on the numpy
    reference sampler and the per-pair ref_triangle.  Returns (report,
    the Generator's state afterwards, []); appends its Generator to
    `rngs`, whose state is also that at a DomainError raised."""
    rng = np.random.Generator(np.random.Philox(seed))
    rngs.append(rng)
    cap = geocheck._sampling_cap(space)
    violations, min_margin, done, degenerate = 0, math.inf, 0, 0
    while done < n_trials:
        o = ref_random_point(space, rng)
        radius = cap * rng.random()
        x, y1, y2 = (ref_random_in_ball(space, o, radius, rng)
                     for _ in range(3))
        b, c, alpha, _ = ref_triangle(space, x, y1, y2)
        if alpha <= 1e-9 or alpha >= math.pi - 1e-9:
            degenerate += 1
            if degenerate == 1000:
                raise DomainError("1000 degenerate")
            continue
        degenerate = 0
        a1 = alpha * rng.random()
        zt = secant_euclid(b, c, a1, alpha - a1)
        if space.kappa > 0:
            z = secant_sphere(b, c, a1, alpha - a1, space.kappa)
        else:
            z = secant_by_intersection(space, x, y1, y2, a1)
        min_margin = min(min_margin, z - zt)
        violations += z - zt < -1e-12
        done += 1
    report = {"suite": "comparison", "trials": n_trials,
              "violations": violations, "min_margin": min_margin,
              "seed": seed}
    return report, _philox_state(rng), []


def _comparison_observed(monkeypatch, space, n_trials, seed):
    return _observed(monkeypatch,
                     lambda: comparison_check(space, n_trials, seed),
                     "_triangles", lambda *args: None) + ([],)


_SIX_SPACES = [Euclidean(2), Sphere(2), Circle(1.0), Hyperbolic(2),
               RealProjective(2), SO3()]


@pytest.mark.parametrize("block, n_trials", [(7, 40), (geocheck._BLOCK, 600)])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("space", _SIX_SPACES, ids=lambda s: repr(s))
def test_comparison_equals_one_trial_at_a_time(space, seed, block, n_trials,
                                               monkeypatch):
    # blocks of 7 (40 trials end on a short one), and 600 trials at the
    # block size in use, whose array passes reach the kernels' along path
    # (manifolds._ALONG_POINTS rows) and end on a short block;
    # the circle (dim 1) has no angle to split, and both refuse it.  On
    # flat space z = z_euclid exactly, and the oracle's reading of its
    # triangle's row keeps a margin within rounding of 0, far inside
    # the 1e-12 threshold, so the violations are compared there too
    monkeypatch.setattr(geocheck, "_BLOCK", block)
    if space.dim < 2:
        with pytest.raises(DomainError, match="need dim >= 2"):
            comparison_check(space, n_trials, seed)
        return
    want = _comparison_one_at_a_time(space, n_trials, seed, [])
    _assert_same_run(_comparison_observed(monkeypatch, space, n_trials,
                                          seed), want)


@pytest.mark.parametrize("block", [7, geocheck._BLOCK])
def test_comparison_redraws_degenerate_triangles_as_one_trial_at_a_time(
        block, monkeypatch):
    # at kappa = 1e28 most triangles have a side below 1e-14: each draws
    # no alpha1 and sends the Generator back to its state before that
    # draw; at kappa = 1e300 every one does, and the 1000th in a row
    # raises with the Generator where one trial at a time leaves it
    monkeypatch.setattr(geocheck, "_BLOCK", block)
    space, degenerate = Sphere(2, kappa=1e28), []
    triangles = geocheck._triangles

    def count(*args):
        reading = triangles(*args)
        alpha = reading[2]
        degenerate.append(int(np.sum((alpha <= 1e-9)
                                     | (alpha >= math.pi - 1e-9))))
        return reading
    monkeypatch.setattr(geocheck, "_triangles", count)
    want = _comparison_one_at_a_time(space, 20, 0, [])
    _assert_same_run(_comparison_observed(monkeypatch, space, 20, 0), want)
    assert sum(degenerate) > 20
    rngs = []
    with pytest.raises(DomainError, match="1000 degenerate"):
        _comparison_one_at_a_time(Sphere(2, kappa=1e300), 20, 0, rngs)
    error, state = _observed(
        monkeypatch, lambda: comparison_check(Sphere(2, kappa=1e300), 20, 0),
        "_triangles", lambda *args: None)
    assert "1000 sampled triangles in a row" in str(error)
    assert state == _philox_state(rngs[0])


def _hull_trap_violated(ds, x0):
    """Reference: whether the descent from x0 leaves the hull of ds's
    points after entering it, one trial by itself, every record charted
    as the sweep reaches it."""
    tr = solver.descend(ds, solver.SolverConfig(
        p=2.0, step=1.0, grad_tol=1e-9, max_iters=60), x0=x0)
    chart = Chart(ds.space, ds.ball_center)
    V = chart_points(chart, ds.points)
    entered = False
    for rec in tr.records:
        (inside,) = hull_membership([(V, chart_points(chart, [rec.point]))],
                                    1e-8)[0]
        if entered and not inside:
            return True
        entered = entered or inside
    return False


def _hull_one_at_a_time(space, n_trials, seed):
    """Reference: hull_check one trial at a time on the numpy reference
    sampler, each trial's points and x0 drawn, then its descent.
    Returns (report, the Generator's state afterwards, each trial's
    points and x0 as one flat array)."""
    rng = np.random.Generator(np.random.Philox(seed))
    cap = geocheck._sampling_cap(space)
    violations, inputs = 0, []
    for _ in range(n_trials):
        o = ref_random_point(space, rng)
        rho = cap * (0.1 + 0.9 * rng.random())
        n = int(rng.integers(3, 7))
        pts = [ref_random_in_ball(space, o, rho, rng) for _ in range(n)]
        ds = make_dataset(space, pts, None, o, rho)
        x0 = ref_random_in_ball(space, o, rho, rng)
        inputs.append(np.concatenate([ds.points.ravel(), x0]))
        violations += _hull_trap_violated(ds, x0)
    report = {"suite": "hull", "trials": n_trials, "violations": violations,
              "min_margin": math.nan, "seed": seed}
    return report, _philox_state(rng), inputs


@pytest.mark.parametrize("block", [7, geocheck._BLOCK])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("space", _SIX_SPACES, ids=lambda s: repr(s))
def test_hull_equals_one_trial_at_a_time(space, seed, block, monkeypatch):
    # the suite draws a block of trials, then runs their descents, which
    # draw nothing: the same Generator state and verdicts, and the same
    # sampled inputs within the 1e-12 bound; 30 trials in blocks of 7
    # are five blocks, the last a short one, each drawn once (a trial
    # draws one random point, its center)
    monkeypatch.setattr(geocheck, "_BLOCK", block)
    inputs, blocks = [], []
    finish = manifolds.Draws.finish

    def counted(draws):
        if not draws.careful:
            blocks.append(len(draws._points))
        return finish(draws)
    monkeypatch.setattr(manifolds.Draws, "finish", counted)
    report, state = _observed(
        monkeypatch, lambda: geocheck.hull_check(space, 30, seed),
        "_hull_problem", lambda result, space, trial, records: inputs.append(
            np.concatenate([np.ravel(trial[2]), trial[4]])))
    assert blocks == [min(block, 30 - s) for s in range(0, 30, block)]
    want_report, want_state, want_inputs = _hull_one_at_a_time(space, 30,
                                                               seed)
    assert math.isnan(report.pop("min_margin"))
    assert math.isnan(want_report.pop("min_margin"))
    assert report == want_report and state == want_state
    assert [len(a) for a in inputs] == [len(a) for a in want_inputs]
    assert all(_within_bound(a, b) for got, want in zip(inputs, want_inputs)
               for a, b in zip(got.tolist(), want.tolist()))


_STOPS = [(space, stop) for space in _SIX_SPACES
          for stop in ("converged", "max_iters", "cut_locus")
          if stop != "cut_locus" or isinstance(space, Sphere)]


@pytest.mark.parametrize("space, stop", _STOPS,
                         ids=lambda a: a if isinstance(a, str) else repr(a))
def test_descents_equal_descend_one_trial_at_a_time(space, stop, monkeypatch):
    # a block's lockstep descents against descend on each trial: the same
    # number of records, and their points within the 1e-12 bound.  Trials
    # stop at grad_tol; at max_iters, set to 2 (0 on the flat spaces,
    # where a descent converges in one step); and, with a cut-locus band from
    # distance 1 on the sphere family (H and flat space have none), at the
    # band, the iterate recorded
    cfg = solver.SolverConfig(p=2.0, step=1.0,
                              grad_tol=geocheck._HULL_GRAD_TOL,
                              max_iters=geocheck._HULL_ITERS)
    if stop == "max_iters":
        cfg.max_iters = 0 if space.constants().Delta == 0 else 2
        monkeypatch.setattr(geocheck, "_HULL_ITERS", cfg.max_iters)
    elif stop == "cut_locus":
        monkeypatch.setattr(Sphere, "_band_start", lambda self: 1.0)
    rng = np.random.Generator(np.random.Philox(4))
    statuses = []
    for block in geocheck._dataset_trials(space, rng, 60, None,
                                          lambda space, trials: trials):
        for (o, rho, points, _, x0, _), records in zip(
                block, geocheck._descents(space, block)):
            tr = solver.descend(make_dataset(space, points, None, o, rho),
                                cfg, x0=x0)
            want = np.array([rec.point for rec in tr.records])
            assert records.shape == want.shape
            assert all(_within_bound(a, b) for a, b in
                       zip(records.ravel().tolist(), want.ravel().tolist()))
            statuses.append(tr.status)
    assert stop in statuses


@pytest.mark.parametrize("space", _SIX_SPACES, ids=repr)
def test_tethering_step_equals_one_step_one_trial_at_a_time(space,
                                                            monkeypatch):
    # the block's one step, exp_x(-t grad f_2(x)) from the lockstep pass,
    # against one_step on each trial, and the margins it gives, within
    # the 1e-12 bound
    rng = np.random.Generator(np.random.Philox(4))
    block = next(geocheck._dataset_trials(space, rng, 100, (0.25, 0.5, 1.0),
                                          lambda space, trials: trials))
    steps, exp_rows = [], space._exp_rows

    def spy(X, V):
        steps.append(exp_rows(X, V))
        return steps[-1]
    monkeypatch.setattr(space, "_exp_rows", spy)
    margins = geocheck._step_margins(space, block)
    (Y,) = steps
    assert len(Y) == len(margins) == 100
    for (o, rho, points, weights, x, t), y, margin in zip(block, Y, margins):
        ds = make_dataset(space, points, weights, o, rho)
        want = one_step(ds, 2.0, x, t)
        assert all(_within_bound(a, b)
                   for a, b in zip(y.tolist(), want.tolist()))
        assert _within_bound(margin, rho - space.distance(o, want))


def test_tethering_t0_identity(rng):
    sp = Sphere(2)
    o = sp.random_point(rng)
    pts = [sp.random_in_ball(o, 0.5, rng) for _ in range(3)]
    ds = make_dataset(sp, pts, None, o, 0.5)
    x = sp.random_in_ball(o, 0.5, rng)
    assert sp.distance(one_step(ds, 2, x, 1e-300), x) <= 1e-12


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is never needed: with its import blocked, the package imports
    # and the hull sweep runs
    src = os.path.dirname(os.path.dirname(geomean.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import geomean.cli\n"
        "code = geomean.cli.main(['check', 'hull', '--trials', '3',\n"
        f"                        '--out', {str(tmp_path)!r}])\n"
        "print(code, sys.modules['scipy'] is None\n"
        "      and not any(m.startswith('scipy.') for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 True"
    assert (tmp_path / "check_hull.json").exists()
