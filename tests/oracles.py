"""Independent oracles used by the test suite.

Everything here is written straight from the mathematical definitions and
deliberately shares no code with the package: inversion goes through
scipy.optimize.brentq, compositions are spelled out map by map, and the flat
oracle is plane geometry.  Tests compare package output against these.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi


def norm(x):
    r = x % TWO_PI
    return 0.0 if r >= TWO_PI else r


def cdist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def bump_lift(x, amplitude, lo=math.pi, hi=TWO_PI):
    """Peak-normalized mollifier bump added to the identity."""
    u = (norm(x) - lo) / (hi - lo)
    if u <= 0.0 or u >= 1.0:
        return x
    q = u * (1.0 - u)
    if q < 1e-3:
        return x
    return x + amplitude * math.exp(4.0 - 1.0 / q)


def invert_lift(lift, y, xtol=1e-15):
    """Monotone inversion via brentq on [y - 2*pi, y + 2*pi]."""
    return brentq(lambda x: lift(x) - y, y - TWO_PI, y + TWO_PI, xtol=xtol, rtol=8.9e-16)


def transition_oracle(lift, theta):
    """Four-map composition: antipode after inverse after antipode after map."""
    y = norm(lift(norm(theta)))
    y = norm(y + math.pi)
    y = norm(invert_lift(lift, y))
    return norm(y + math.pi)


def period_oracle(lift, theta, k_max=64, tol=1e-9):
    """Brute-force iteration; returns the least closing k or None."""
    x = theta
    for k in range(1, k_max + 1):
        x = transition_oracle(lift, x)
        if cdist(x, theta) < tol:
            return k
    return None


def witness_oracle(passages, tol):
    """(chart, leg_a, leg_b) of the injectivity witness by brute force, or None.

    Over all pairs of passages through one center whose lines (directions
    taken mod pi) lie at least tol apart, the pair with the smallest leg_b,
    then the smallest leg_a.
    """
    pairs = []
    for a in passages:
        for b in passages:
            d = abs(a.direction - b.direction) % math.pi
            if a.chart == b.chart and a.leg_index < b.leg_index and min(d, math.pi - d) >= tol:
                pairs.append((b.leg_index, a.leg_index, a.chart))
    if not pairs:
        return None
    leg_b, leg_a, chart = min(pairs)
    return chart, leg_a, leg_b


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def flat_polar_geodesic(t0, theta0, vt0, vtheta0, s):
    """Straight line of the flat plane expressed in polar coordinates.

    The velocity (vt0, vtheta0) is the coordinate velocity at radius t0, so
    the Cartesian velocity is vt0 * e_r + t0 * vtheta0 * e_theta_hat.
    Returns (t, theta, vt, vtheta) at arclength s.
    """
    cx = t0 * math.cos(theta0)
    cy = t0 * math.sin(theta0)
    vx = vt0 * math.cos(theta0) - t0 * vtheta0 * math.sin(theta0)
    vy = vt0 * math.sin(theta0) + t0 * vtheta0 * math.cos(theta0)
    x = cx + s * vx
    y = cy + s * vy
    t = math.hypot(x, y)
    theta = math.atan2(y, x) % TWO_PI
    vt = (x * vx + y * vy) / t
    vtheta = (x * vy - y * vx) / (t * t)
    return t, theta, vt, vtheta


def revolution_transit(t0, t1, c, L):
    """(arclength, angle change) of a unit-speed geodesic of a surface of
    revolution dt^2 + phi(t)^2 dtheta^2 across the annulus t0 <= t <= t1.

    phi = (1 - s) t + s c, with s = e^(-1/u) / (e^(-1/u) + e^(-1/(1 - u)))
    on u = (t - t0) / (t1 - t0), so phi = t below t0 and c above t1, and
    c >= t1 makes phi increase.  L = phi^2 dtheta/ds is the Clairaut
    constant, so ds = phi dt / sqrt(phi^2 - L^2) and dtheta = L ds / phi^2.
    Where phi(t*) = |L| the geodesic turns.  If |L| > t0, t* lies in the
    annulus and the visit, from t1 back to t1, is twice the integral over
    [t*, t1].  Otherwise t* = |L| lies in the flat disk and the visit,
    between t0 and t1, is the integral over [t*, t1] less that over
    [t*, t0], which the flat metric gives in closed form: sqrt(t0^2 - L^2)
    and sign(L) acos(|L| / t0).  Each integral is taken in x with
    t = t* + (t1 - t*) x^2, which makes the integrand smooth; phi, t* (by
    bisection) and the integrands are evaluated in 40-digit decimal
    arithmetic, which keeps phi - |L| exact near t*, and scipy's quad_vec
    integrates both at once.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d0, d1, dc, a = Decimal(t0), Decimal(t1), Decimal(c), Decimal(abs(L))

        def phi(x):
            u = (x - d0) / (d1 - d0)
            if u <= 0:
                return x
            if u >= 1:
                return dc
            e0, e1 = (-1 / u).exp(), (-1 / (1 - u)).exp()
            return x + e0 / (e0 + e1) * (dc - x)

        lo, hi = Decimal(0), d1
        for _ in range(140):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if phi(mid) < a else (lo, mid)
        span = d1 - lo

        def integrand(x):
            x = Decimal(x)
            p = phi(lo + span * x * x)
            root = (p * p - a * a).sqrt()
            return float(2 * span * x) * np.array([float(p / root), L * float(1 / (p * root))])

        # [0, 1e-15] adds about 1e-15 times a bounded integrand
        length, angle = quad_vec(integrand, 1e-15, 1.0, epsabs=1e-15, epsrel=1e-14)[0]
    if abs(L) > t0:
        return 2.0 * length, 2.0 * angle
    return length - math.sqrt(t0 * t0 - L * L), angle - math.copysign(math.acos(abs(L) / t0), L)


def lcm_brute(a: int, b: int, bound: int = 10**6) -> int:
    """Smallest positive common multiple by direct search (small inputs)."""
    m = a
    while m <= a * b:
        if m % b == 0:
            return m
        m += a
    raise AssertionError("unreachable for positive integers")


def make_sinusoid_spline_data(amplitude=0.2, harmonic=2, n_knots=48):
    """Knot/value arrays sampling x + amplitude*sin(harmonic*x).

    With an even knot count and an even harmonic the data is invariant under
    a half-turn, so the periodic spline through it carries antipodal pairs to
    antipodal pairs exactly.
    """
    knots = np.linspace(0.0, TWO_PI, n_knots, endpoint=False)
    values = knots + amplitude * np.sin(harmonic * knots)
    return knots, values


def spline_lift_oracle(knots, values):
    """Independent periodic-spline lift used to cross-check the package."""
    knots = np.asarray(knots, dtype=float)
    dev = np.asarray(values, dtype=float) - knots
    x_ext = np.append(knots, knots[0] + TWO_PI)
    d_ext = np.append(dev, dev[0])
    spl = CubicSpline(x_ext, d_ext, bc_type="periodic")

    def lift(x):
        return x + float(spl(knots[0] + (x - knots[0]) % TWO_PI))

    return lift
