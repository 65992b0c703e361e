"""Angles and smooth orientation-preserving diffeomorphisms of the unit circle.

Angles are plain floats (radians); the canonical representative lives in
[0, 2*pi).  Every circle map is manipulated through a real-valued lift F with
F(x + 2*pi) = F(x) + 2*pi, so monotone root finding never has to deal with
wrap-around.  Normalization back to [0, 2*pi) happens only at the boundary of
each operation.

Four families are provided: the identity, rigid rotations, a smooth bump
perturbation of the identity supported on an open arc, and a periodic cubic
spline through user-supplied lift values (C^2 only; the bump family is
infinitely smooth).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI = 2.0 * math.pi

# eval/inverse contract: residual of the lift equation after inversion
INVERSE_TOL = 1e-12
# bisection stops at this bracket width, then Newton polishes
_BISECT_WIDTH = 1e-10
_MAX_ITER = 200
# F' must be positive on this many equispaced angles
_MONOTONE_GRID = 4096


class ConvergenceFailure(RuntimeError):
    """Inverse solve did not reach the residual tolerance within the budget."""


class MonotonicityViolation(ValueError):
    """The requested lift is not strictly increasing (amplitude too large)."""


def normalize(theta):
    """Canonical representative of an angle in [0, 2*pi).

    Idempotent: normalize(normalize(x)) == normalize(x).  Accepts floats or
    arrays.
    """
    r = np.mod(theta, TWO_PI) if isinstance(theta, np.ndarray) else theta % TWO_PI
    # float rounding can land x % 2pi exactly on 2pi for tiny negative x
    if isinstance(r, np.ndarray):
        return np.where(r >= TWO_PI, 0.0, r)
    return 0.0 if r >= TWO_PI else r


def _finite(y):
    """Return y unchanged; raise ValueError unless every angle in it is finite."""
    if not (np.all(np.isfinite(y)) if isinstance(y, np.ndarray) else math.isfinite(y)):
        raise ValueError(f"inverse target must be a finite angle, got {y!r}")
    return y


def circle_distance(a, b):
    """Distance on the circle, in [0, pi]."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        d = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
        return np.minimum(d, TWO_PI - d)
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def line_distance(a, b):
    """Distance between the undirected lines through the origin at angles a, b.

    Angles that differ by pi describe the same line, so this is the circle
    distance computed modulo pi; the result lies in [0, pi/2].
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        d = np.mod(np.abs(np.asarray(a, dtype=float) - b), math.pi)
        return np.minimum(d, math.pi - d)
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def antipode(theta):
    """The point diametrically opposite theta, i.e. normalize(theta + pi).

    Computed as n - pi on [pi, 2*pi) and n + pi on [0, pi); the subtraction
    branch is exact in floating point, so the involution round-trips exactly
    from the upper semicircle and within one rounding elsewhere.
    """
    n = normalize(theta)
    if isinstance(n, np.ndarray):
        return np.where(n >= math.pi, n - math.pi, n + math.pi)
    return n - math.pi if n >= math.pi else n + math.pi


# ----------------------------------------------------------------------------
# smooth bump building blocks
#
# bump01 is the standard mollifier profile exp(-1/(u(1-u))) rescaled so its
# peak value is exactly 1 at u = 1/2; it vanishes with all derivatives at
# u = 0, 1, which is what makes the bump family genuinely C-infinity.

_PEAK = 4.0  # 1 / (q at u = 1/2); exp(4 - 1/q) has maximum 1
# below q = 1e-3 the profile underflows to exactly 0.0 in double precision
_Q_FLOOR = 1e-3


def _bump01(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    q = u * (1.0 - u)
    if q < _Q_FLOOR:
        return 0.0
    return math.exp(_PEAK - 1.0 / q)


def _bump01_vec(u: np.ndarray) -> np.ndarray:
    q = u * (1.0 - u)
    inside = q >= _Q_FLOOR
    qs = np.where(inside, q, 1.0)
    return np.where(inside, np.exp(_PEAK - 1.0 / qs), 0.0)


def _bump01_d1d2(u: float) -> tuple[float, float]:
    """First and second derivative from one shared exponential."""
    if u <= 0.0 or u >= 1.0:
        return 0.0, 0.0
    q = u * (1.0 - u)
    if q < _Q_FLOOR:
        return 0.0, 0.0
    qp = 1.0 - 2.0 * u
    e = math.exp(_PEAK - 1.0 / q)
    return e * qp / (q * q), e * ((qp / (q * q)) ** 2 - 2.0 * (q + qp * qp) / q**3)


def _bump01_d1d2_vec(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = u * (1.0 - u)
    inside = q >= _Q_FLOOR
    qs = np.where(inside, q, 1.0)
    qp = 1.0 - 2.0 * u
    e = np.exp(_PEAK - 1.0 / qs)
    d1 = np.where(inside, e * qp / (qs * qs), 0.0)
    d2 = np.where(inside, e * ((qp / (qs * qs)) ** 2 - 2.0 * (qs + qp * qp) / qs**3), 0.0)
    return d1, d2


# ----------------------------------------------------------------------------


class CircleDiffeo:
    """Base class: an orientation-preserving diffeomorphism of the circle.

    Subclasses provide the lift and its derivatives; the base class supplies
    evaluation, the generic monotone inverse, and construction-time checks.
    Instances are immutable after construction and safe for concurrent reads.
    """

    kind = "abstract"
    smoothness = "C-infinity"

    #: strictly positive lower bound for F' found on the dense check grid
    monotonicity_margin: float

    def lift(self, x):
        raise NotImplementedError

    def lift_derivative(self, x):
        raise NotImplementedError

    def lift_second_derivative(self, x):
        raise NotImplementedError

    def __call__(self, theta):
        """Evaluate the map; returns the canonical representative."""
        return normalize(self.lift(normalize(theta)))

    def derivative(self, theta):
        """F'(theta) > 0; the same value for every representative of theta."""
        return self.lift_derivative(normalize(theta))

    def second_derivative(self, theta):
        return self.lift_second_derivative(normalize(theta))

    def derivative_pair(self, theta):
        """(F', F'') in one call; subclasses may share subexpressions."""
        return self.derivative(theta), self.second_derivative(theta)

    def inverse(self, y):
        """Solve f(x) = y on the circle.

        The monotone lift is bracketed on [y - 2*pi, y + 2*pi] (always a valid
        bracket for a degree-one lift), bisected down to a width of 1e-10 and
        polished with two Newton steps.  Raises ValueError on a non-finite
        target, and ConvergenceFailure if the lift residual does not reach
        1e-12 within the iteration budget.
        """
        if isinstance(y, np.ndarray):
            return self._inverse_array(y)
        target = normalize(_finite(y))
        lo = target - TWO_PI
        hi = target + TWO_PI
        iters = 0
        while hi - lo > _BISECT_WIDTH:
            iters += 1
            if iters > _MAX_ITER:
                raise ConvergenceFailure(
                    f"inverse bisection exceeded {_MAX_ITER} iterations for target {target!r}"
                )
            mid = 0.5 * (lo + hi)
            if self.lift(mid) < target:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        for _ in range(2):
            x -= (self.lift(x) - target) / self.lift_derivative(x)
        if abs(self.lift(x) - target) > INVERSE_TOL:
            raise ConvergenceFailure(
                f"inverse residual {abs(self.lift(x) - target):.3e} above {INVERSE_TOL} "
                f"for target {target!r} (kind={self.kind})"
            )
        return normalize(x)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        target = normalize(np.asarray(_finite(y), dtype=float))
        lo = target - TWO_PI
        hi = target + TWO_PI
        # fixed iteration count: 4*pi / 2^46 is far below the 1e-10 contract
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            below = self.lift(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        x = 0.5 * (lo + hi)
        for _ in range(2):
            x = x - (self.lift(x) - target) / self.lift_derivative(x)
        resid = np.abs(self.lift(x) - target)
        if np.max(resid) > INVERSE_TOL:
            raise ConvergenceFailure(
                f"vector inverse residual {np.max(resid):.3e} above {INVERSE_TOL} "
                f"(kind={self.kind})"
            )
        return normalize(x)

    # -- construction-time invariants ---------------------------------------

    def _check_invariants(self) -> None:
        xs = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        equiv = np.max(np.abs(self.lift(xs + TWO_PI) - self.lift(xs) - TWO_PI))
        if not equiv <= 1e-12:
            raise ValueError(f"lift is not degree one: equivariance residual {equiv:.3e}")
        grid = np.linspace(0.0, TWO_PI, _MONOTONE_GRID, endpoint=False)
        margin = float(np.min(self.lift_derivative(grid)))
        if not margin > 0.0:
            raise MonotonicityViolation(
                f"lift derivative reaches {margin:.6f} <= 0 on the check grid (kind={self.kind})"
            )
        self.monotonicity_margin = margin


class IdentityDiffeo(CircleDiffeo):
    kind = "identity"

    def __init__(self):
        self.monotonicity_margin = 1.0

    def lift(self, x):
        return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)

    def lift_derivative(self, x):
        return np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0

    def lift_second_derivative(self, x):
        return np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) else 0.0

    def inverse(self, y):
        return normalize(_finite(y))

    def __repr__(self):
        return "IdentityDiffeo()"


class RotationDiffeo(CircleDiffeo):
    """Rigid rotation by a fixed angle."""

    kind = "rotation"

    def __init__(self, angle: float):
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle must be finite, got {angle!r}")
        self.angle = float(angle)
        self.monotonicity_margin = 1.0

    def lift(self, x):
        return x + self.angle

    def lift_derivative(self, x):
        return np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0

    def lift_second_derivative(self, x):
        return np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) else 0.0

    def inverse(self, y):
        # exact: no root finding needed
        return normalize(_finite(y) - self.angle)

    def __repr__(self):
        return f"RotationDiffeo(angle={self.angle!r})"


class BumpDiffeo(CircleDiffeo):
    """Identity plus a smooth bump: F(x) = x + a * beta(x).

    beta is the peak-normalized mollifier profile carried onto the open arc
    (support_lo, support_hi), extended by zero, so the map is exactly the
    identity outside the arc and infinitely smooth everywhere.  The amplitude
    a is the maximum deviation of the lift from the identity.
    """

    kind = "bump"

    def __init__(
        self,
        amplitude: float,
        support_lo: float = math.pi,
        support_hi: float = TWO_PI,
    ):
        if not 0.0 <= support_lo < support_hi <= TWO_PI:
            raise ValueError(
                f"support must satisfy 0 <= lo < hi <= 2*pi, got ({support_lo}, {support_hi})"
            )
        self.amplitude = float(amplitude)
        self.support_lo = float(support_lo)
        self.support_hi = float(support_hi)
        self._width = self.support_hi - self.support_lo
        self._check_invariants()

    def _u(self, x):
        return (normalize(x) - self.support_lo) / self._width

    def lift(self, x):
        if isinstance(x, np.ndarray):
            return x + self.amplitude * _bump01_vec(self._u(x))
        return x + self.amplitude * _bump01(self._u(x))

    def lift_derivative(self, x):
        return self.derivative_pair(x)[0]

    def lift_second_derivative(self, x):
        return self.derivative_pair(x)[1]

    def derivative_pair(self, theta):
        u = self._u(theta)
        d1, d2 = _bump01_d1d2_vec(u) if isinstance(u, np.ndarray) else _bump01_d1d2(u)
        return 1.0 + (self.amplitude / self._width) * d1, (self.amplitude / self._width**2) * d2

    def __repr__(self):
        return (
            f"BumpDiffeo(amplitude={self.amplitude!r}, "
            f"support=({self.support_lo!r}, {self.support_hi!r}))"
        )


def periodic_spline(knots, values):
    """Periodic C^2 cubic spline through (knots, values), on the whole line.

    Knots must be strictly increasing within [0, 2*pi); the spline closes up
    over [knots[0], knots[0] + 2*pi] and every argument is wrapped into that
    period.  Returns evaluate(x, nu=0), the nu-th derivative (nu <= 2) at x,
    a float for a scalar x and an array for an array x.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(knots) <= 0) or knots[0] < 0 or knots[-1] >= TWO_PI:
        raise ValueError("knots must be strictly increasing within [0, 2*pi)")
    spline = CubicSpline(
        np.append(knots, knots[0] + TWO_PI), np.append(values, values[0]), bc_type="periodic"
    )
    derivatives = (spline, spline.derivative(1), spline.derivative(2))
    x0 = float(knots[0])

    def evaluate(x, nu: int = 0):
        out = derivatives[nu](x0 + np.mod(x - x0, TWO_PI))
        return out if isinstance(x, np.ndarray) else float(out)

    return evaluate


class SplineDiffeo(CircleDiffeo):
    """Periodic cubic spline through user-supplied lift values.

    The deviation F(x) - x is interpolated with a periodic C^2 cubic spline,
    which keeps the lift degree one by construction.  Twice continuously
    differentiable only; use the bump family where full smoothness matters.
    """

    kind = "spline"
    smoothness = "C2"

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 3:
            raise ValueError("need matching 1-d knot/value arrays with at least 3 knots")
        self.knots = knots
        self.values = values
        self._dev = periodic_spline(knots, values - knots)
        self._check_invariants()

    def lift(self, x):
        return x + self._dev(x)

    def lift_derivative(self, x):
        return 1.0 + self._dev(x, 1)

    def lift_second_derivative(self, x):
        return self._dev(x, 2)

    def __repr__(self):
        return f"SplineDiffeo(n_knots={self.knots.size})"


def semicircle_bump(
    amplitude: float,
    support_lo: float = math.pi,
    support_hi: float = TWO_PI,
) -> BumpDiffeo:
    """Bump map that is the identity on one closed semicircle.

    With the default arc the map fixes the closed semicircle [0, pi] pointwise
    and deviates from the identity inside (pi, 2*pi), with maximum deviation
    `amplitude` at the arc midpoint.  Construction fails with
    MonotonicityViolation if the amplitude is too large for the arc
    (|amplitude| < width / 4.2357 is safe for the default profile).
    """
    return BumpDiffeo(amplitude, support_lo, support_hi)
