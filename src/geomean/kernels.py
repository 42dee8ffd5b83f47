"""Scalar curvature kernels and the two secant-length formulas.

The kernels sn, ct, b, c are the usual comparison-geometry functions of a
curvature kappa and a length l.  They drive every Hessian bound in the
package.  All of them branch on the sign of kappa:

    sn_k(l) = sin(sqrt(k) l)/sqrt(k)   | l    | sinh(sqrt(-k) l)/sqrt(-k)
    ct_k(l) = sqrt(k) cot(sqrt(k) l)   | 1/l  | sqrt(-k) coth(sqrt(-k) l)
    b_k(l)  = sqrt(k) l cot(sqrt(k) l) for k >= 0, else 1
    c_k(l)  = 1 for k >= 0, else sqrt(-k) l coth(sqrt(-k) l)

sn is the Jacobi sine: the norm of a normal Jacobi field with J(0) = 0,
|J'(0)| = 1, so its flat branch is l.

Out-of-domain arguments raise DomainError rather than returning NaN.
"""

import math

from .errors import DegenerateSecantError, DomainError

# below this threshold on sqrt(|k|)*l, use series for x*cot(x), x*coth(x)
_SERIES_CUTOFF = 1e-4


def sn(kappa, l):
    """Jacobi sine kernel; refuses l < 0 for kappa <= 0."""
    if kappa > 0:
        rk = math.sqrt(kappa)
        return math.sin(rk * l) / rk
    if l < 0:
        raise DomainError(f"sn: negative length l={l}")
    if kappa == 0:
        return l
    rk = math.sqrt(-kappa)
    try:
        return math.sinh(rk * l) / rk
    except OverflowError:
        raise DomainError(f"sn: sinh(sqrt(-kappa)*l) overflows at "
                          f"sqrt(-kappa)*l = {rk * l}") from None


def ct(kappa, l):
    """Generalized cotangent kernel, defined for l > 0 (and sqrt(k) l < pi)."""
    if l <= 0:
        raise DomainError(f"ct: need l > 0, got {l}")
    if kappa > 0:
        rk = math.sqrt(kappa)
        if rk * l >= math.pi:
            raise DomainError(f"ct: sqrt(kappa)*l = {rk * l} >= pi")
        return rk / math.tan(rk * l)
    if kappa == 0:
        return 1.0 / l
    rk = math.sqrt(-kappa)
    return rk / math.tanh(rk * l)


def b_lower(kappa, l):
    """Lower Hessian eigenvalue bound b_kappa(l); equals 1 for kappa < 0."""
    if l < 0:
        raise DomainError(f"b_lower: negative length l={l}")
    if kappa < 0:
        return 1.0
    x = math.sqrt(kappa) * l
    if x >= math.pi:
        raise DomainError(f"b_lower: sqrt(kappa)*l = {x} >= pi")
    if x < _SERIES_CUTOFF:
        # x*cot(x) = 1 - x^2/3 - x^4/45 - ...
        return 1.0 - x * x / 3.0 - x**4 / 45.0
    return x / math.tan(x)


def c_upper(kappa, l):
    """Upper Hessian eigenvalue bound c_kappa(l); equals 1 for kappa >= 0."""
    if l < 0:
        raise DomainError(f"c_upper: negative length l={l}")
    if kappa >= 0:
        return 1.0
    x = math.sqrt(-kappa) * l
    if x < _SERIES_CUTOFF:
        # x*coth(x) = 1 + x^2/3 - x^4/45 + ...
        return 1.0 + x * x / 3.0 - x**4 / 45.0
    return x / math.tanh(x)


def secant_euclid(b, c, alpha1, alpha2):
    """Length of the planar secant from x cutting side y1 y2.

    The triangle has sides b = |x y1|, c = |x y2| and the secant leaves x
    at angle alpha1 off side x y1 (alpha1 + alpha2 = total angle at x).
    """
    _check_secant_angles(alpha1, alpha2)
    if b < 0 or c < 0:
        raise DomainError(f"secant_euclid: negative side b={b} c={c}")
    num = b * c * math.sin(alpha1 + alpha2)
    den = b * math.sin(alpha1) + c * math.sin(alpha2)
    if den == 0.0:
        if num == 0.0 and (b == 0.0 or c == 0.0):
            return 0.0  # secant collapses to the vertex
        raise DegenerateSecantError(
            f"secant_euclid: degenerate configuration b={b} c={c} "
            f"alpha1={alpha1} alpha2={alpha2}")
    return num / den


def secant_sphere(b, c, alpha1, alpha2, kappa=1.0):
    """Length of the spherical secant from x cutting side y1 y2.

    Solves cot z = (cot b sin(a2) + cot c sin(a1)) / sin(a1 + a2) on the
    unit sphere; general kappa > 0 is handled by rescaling lengths into
    the kappa = 1 gauge and back.
    """
    _check_secant_angles(alpha1, alpha2)
    if kappa <= 0:
        raise DomainError(f"secant_sphere: need kappa > 0, got {kappa}")
    rk = math.sqrt(kappa)
    bb, cc = rk * b, rk * c
    if not (0 <= bb < math.pi and 0 <= cc < math.pi):
        raise DomainError(f"secant_sphere: rescaled sides ({bb}, {cc}) not in [0, pi)")
    if bb == 0.0 or cc == 0.0:
        return 0.0  # x coincides with a vertex of the cut side
    sa = math.sin(alpha1 + alpha2)
    if abs(sa) < 1e-13:
        raise DegenerateSecantError(
            f"secant_sphere: alpha1+alpha2 = {alpha1 + alpha2} gives sin = 0")
    v = (math.sin(alpha2) / math.tan(bb) + math.sin(alpha1) / math.tan(cc)) / sa
    # arccot with range (0, pi), so z stays on the near side of the equator
    z = math.pi / 2.0 - math.atan(v)
    return z / rk


def _check_secant_angles(alpha1, alpha2):
    if alpha1 < 0 or alpha2 < 0:
        raise DomainError(f"secant: negative angle a1={alpha1} a2={alpha2}")
    if alpha1 + alpha2 > math.pi + 1e-15:
        raise DomainError(f"secant: alpha1+alpha2 = {alpha1 + alpha2} > pi")
