import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geomean.errors import DegenerateSecantError, DomainError
from geomean.kernels import b_lower, c_upper, ct, secant_euclid, secant_sphere, sn

# frozen high-precision reference values (arbitrary-precision evaluation)
SINH_1 = 1.1752011936438014
COTH_2PI3 = 1.0307962532021562
C_NEG1_2PI3 = 2.1588946242718521


def test_sn_branches():
    assert sn(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert sn(0.0, 2.0) == 2.0   # the Jacobi sine's flat branch is l
    assert sn(0.0, 0.0) == 0.0
    assert sn(-1.0, 1.0) == pytest.approx(SINH_1, abs=1e-15)
    assert sn(4.0, math.pi / 4) == pytest.approx(0.5, abs=1e-15)


def test_sn_domain_errors():
    with pytest.raises(DomainError):
        sn(0.0, -1.0)
    with pytest.raises(DomainError):
        sn(-1.0, -1.0)
    with pytest.raises(DomainError, match="sinh.* overflows"):
        sn(-1e6, 1.0)   # sinh(1000)
    assert sn(-1.0, 710.0) < math.inf   # the last finite sinh


def test_ct_branches():
    assert ct(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert ct(0.0, 2.0) == 0.5
    assert ct(-1.0, 2 * math.pi / 3) == pytest.approx(COTH_2PI3, abs=1e-15)


def test_ct_domain_errors():
    with pytest.raises(DomainError):
        ct(1.0, math.pi)
    with pytest.raises(DomainError):
        ct(1.0, 0.0)
    with pytest.raises(DomainError):
        ct(0.0, -1.0)


def test_b_lower():
    assert b_lower(1.0, math.pi / 4) == pytest.approx(math.pi / 4, abs=1e-15)
    assert b_lower(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert b_lower(-5.0, 3.0) == 1.0
    assert b_lower(1.0, 0.0) == 1.0
    assert b_lower(0.0, 7.0) == 1.0
    with pytest.raises(DomainError):
        b_lower(1.0, math.pi)


def test_c_upper():
    assert c_upper(1.0, 1.2) == 1.0
    assert c_upper(-1.0, 2 * math.pi / 3) == pytest.approx(C_NEG1_2PI3, abs=1e-15)
    assert c_upper(-1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        c_upper(1.0, -0.1)


def test_series_branch_continuity():
    # series and closed form agree around the switch point
    for l in (0.99e-4, 1.01e-4):
        assert b_lower(1.0, l) == pytest.approx(1 - l * l / 3, abs=1e-14)
        assert c_upper(-1.0, l) == pytest.approx(1 + l * l / 3, abs=1e-14)


@given(st.floats(1e-6, 3.1), st.floats(1e-6, 3.1))
def test_b_lower_nonincreasing(l1, l2):
    lo, hi = sorted((l1, l2))
    assert b_lower(1.0, hi) <= b_lower(1.0, lo) + 1e-12


@given(st.floats(1e-6, 3.1), st.floats(1e-6, 3.1))
def test_ct_decreasing(l1, l2):
    lo, hi = sorted((l1, l2))
    if hi - lo > 1e-12:
        assert ct(1.0, hi) < ct(1.0, lo)


@given(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0))
def test_c_upper_nondecreasing(l1, l2):
    lo, hi = sorted((l1, l2))
    assert c_upper(-1.0, hi) >= c_upper(-1.0, lo) - 1e-12


def test_secant_euclid_examples():
    assert secant_euclid(1, 1, math.pi / 4, math.pi / 4) == pytest.approx(
        1 / math.sqrt(2), abs=1e-15)
    assert secant_euclid(0.7, 0.9, 0.0, 0.5) == pytest.approx(0.7, abs=1e-15)
    # planar line-line intersection oracle for (b=2, c=3, a1=0.3, a2=0.4)
    b, c, a1, a2 = 2.0, 3.0, 0.3, 0.4
    y1 = np.array([b, 0.0])
    y2 = c * np.array([math.cos(a1 + a2), math.sin(a1 + a2)])
    d = np.array([math.cos(a1), math.sin(a1)])
    # solve s*d = y1 + u*(y2-y1)
    A = np.column_stack([d, y1 - y2])
    s, _ = np.linalg.solve(A, y1)
    assert secant_euclid(b, c, a1, a2) == pytest.approx(s, abs=1e-12)


def test_secant_euclid_degenerate():
    with pytest.raises(DegenerateSecantError):
        secant_euclid(1.0, 1.0, 0.0, 0.0)
    assert secant_euclid(0.0, 1.0, 0.2, 0.3) == 0.0


def test_secant_sphere_examples():
    assert secant_sphere(0.7, 0.9, 0.0, 0.5) == pytest.approx(0.7, abs=1e-14)
    # rescaling gauge: kappa=4 halves all lengths
    z1 = secant_sphere(0.3, 0.4, 0.2, 0.3, kappa=1.0)
    z4 = secant_sphere(0.15, 0.2, 0.2, 0.3, kappa=4.0)
    assert z4 == pytest.approx(z1 / 2, abs=1e-14)


def test_secant_sphere_errors():
    with pytest.raises(DegenerateSecantError):
        secant_sphere(1.0, 1.0, math.pi / 2, math.pi / 2)
    with pytest.raises(DomainError):
        secant_sphere(1.0, 1.0, -0.1, 0.5)
    with pytest.raises(DomainError):
        secant_sphere(3.5, 1.0, 0.2, 0.3)


def test_secant_comparison_sampled(rng):
    for _ in range(300):
        b = 1.4 * rng.uniform() + 1e-3
        c = 1.4 * rng.uniform() + 1e-3
        alpha = rng.uniform() * (math.pi - 2e-3) + 1e-3
        a1 = alpha * rng.uniform()
        z = secant_sphere(b, c, a1, alpha - a1)
        zt = secant_euclid(b, c, a1, alpha - a1)
        assert z >= zt - 1e-12


def test_secant_sphere_isoceles_strict():
    z = secant_sphere(1.0, 1.0, math.pi / 4, math.pi / 4)
    zt = secant_euclid(1.0, 1.0, math.pi / 4, math.pi / 4)
    assert z > zt


def test_cot_reciprocal_concavity(rng):
    # t -> cot(1/t) is concave on (1/pi, inf): negative second differences
    f = lambda t: 1.0 / math.tan(1.0 / t)
    h = 1e-4
    for _ in range(10):
        t = 1.0 / math.pi + 0.02 + 5.0 * rng.uniform()
        d2 = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        assert d2 < 0


def test_secant_small_scale_limit():
    # curvature vanishes at small scale: ratio -> 1
    b = c = 1e-4
    z = secant_sphere(b, c, 0.3, 0.5)
    zt = secant_euclid(b, c, 0.3, 0.5)
    assert abs(z / zt - 1.0) < 1e-6
