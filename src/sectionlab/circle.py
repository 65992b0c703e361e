"""Angles and smooth orientation-preserving diffeomorphisms of the unit circle.

Angles are plain floats (radians); the canonical representative lives in
[0, 2*pi).  Every circle map is manipulated through a real-valued lift F with
F(x + 2*pi) = F(x) + 2*pi, so monotone root finding never has to deal with
wrap-around.  Normalization back to [0, 2*pi) happens only at the boundary of
each operation.

Four families are provided: the identity (the rotation by zero), rigid
rotations, a smooth bump perturbation of the identity supported on an open
arc, and a periodic cubic spline through user-supplied lift values (C^2 only;
the bump family is infinitely smooth).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

TWO_PI = 2.0 * math.pi

# eval/inverse contract: residual of the lift equation after inversion
INVERSE_TOL = 1e-12
# safeguarded Newton stops once a step is this short, then Newton polishes
_STEP_TOL = 1e-10
_MAX_ITER = 200
# F' must be positive on this many equispaced angles (and as many on a bump's arc)
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
    r = theta % TWO_PI
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
    d = abs(a - b) % TWO_PI
    if isinstance(d, np.ndarray):
        return np.minimum(d, TWO_PI - d)
    return min(d, TWO_PI - d)


def line_distance(a, b):
    """Distance between the undirected lines through the origin at angles a, b.

    Angles that differ by pi describe the same line, so this is the circle
    distance computed modulo pi; the result lies in [0, pi/2].
    """
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def antipode(theta):
    """The point diametrically opposite theta, i.e. normalize(theta + pi).

    Computed as n - pi on [pi, 2*pi) and n + pi on [0, pi); the subtraction
    branch is exact in floating point, so the involution round-trips exactly
    from the upper semicircle and within one rounding elsewhere.  One output
    lies outside [0, 2*pi): for the float just below pi, n + pi rounds up to
    exactly 2*pi, where normalize(theta + pi) gives 0.0.
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
# BumpDiffeo writes the scalar kernels out inline for a float, in their
# order; they stay here as the reference of those branches.

_PEAK = 4.0  # 1 / (q at u = 1/2); exp(4 - 1/q) has maximum 1
# below q = 1e-3 the profile underflows to exactly 0.0 in double precision;
# off (0, 1), infinities included, q = u(1 - u) <= 0, so the floor alone
# zeroes every scalar kernel there.  The array kernels clamp u to
# [1e-3, 1 - 1e-3] instead of masking: there q < 1e-3, so exp(4 - 1/q) is
# already 0.0, and 1 - 2u stays finite; + 0.0 turns the zeros of the
# derivatives positive, as the scalar kernels return them
_Q_FLOOR = 1e-3


def _bump01(u: float) -> float:
    q = u * (1.0 - u)
    if q < _Q_FLOOR:
        return 0.0
    return math.exp(_PEAK - 1.0 / q)


def _bump01_vec(u: np.ndarray) -> np.ndarray:
    u = np.minimum(np.maximum(u, _Q_FLOOR), 1.0 - _Q_FLOOR)
    return np.exp(_PEAK - 1.0 / (u * (1.0 - u)))


def _bump01_d1(u: float) -> float:
    """First derivative alone, by the same expression as in _bump01_d1d2."""
    q = u * (1.0 - u)
    if q < _Q_FLOOR:
        return 0.0
    return math.exp(_PEAK - 1.0 / q) * (1.0 - 2.0 * u) / (q * q)


def _bump01_d1_vec(u: np.ndarray) -> np.ndarray:
    u = np.minimum(np.maximum(u, _Q_FLOOR), 1.0 - _Q_FLOOR)
    q = u * (1.0 - u)
    return np.exp(_PEAK - 1.0 / q) * (1.0 - 2.0 * u) / (q * q) + 0.0


def _bump01_d1d2(u: float) -> tuple[float, float]:
    """First and second derivative from one shared exponential."""
    q = u * (1.0 - u)
    if q < _Q_FLOOR:
        return 0.0, 0.0
    qp = 1.0 - 2.0 * u
    e = math.exp(_PEAK - 1.0 / q)
    return e * qp / (q * q), e * ((qp / (q * q)) ** 2 - 2.0 * (q + qp * qp) / q**3)


def _bump01_d1d2_vec(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.minimum(np.maximum(u, _Q_FLOOR), 1.0 - _Q_FLOOR)
    q = u * (1.0 - u)
    qp = 1.0 - 2.0 * u
    e = np.exp(_PEAK - 1.0 / q)
    return e * qp / (q * q) + 0.0, e * ((qp / (q * q)) ** 2 - 2.0 * (q + qp * qp) / q**3) + 0.0


# ----------------------------------------------------------------------------


class CircleDiffeo:
    """Base class: an orientation-preserving diffeomorphism of the circle.

    Subclasses provide the lift, its derivative `lift_derivative` (F' > 0,
    the same for every representative of an angle) and `derivative_pair`,
    and may override `lift_pair` with one shared evaluation; the base class
    supplies evaluation, the generic monotone inverse, and construction-time
    checks.  Instances are immutable after construction and safe for
    concurrent reads.
    """

    kind = "abstract"

    #: strictly positive lower bound for F' found on the dense check grid
    monotonicity_margin: float

    def lift(self, x):
        raise NotImplementedError

    def lift_derivative(self, x):
        raise NotImplementedError

    def lift_pair(self, x: float) -> tuple[float, float]:
        """(F(x), F'(x)) for one float, bit-equal to (lift(x), lift_derivative(x))."""
        return self.lift(x), self.lift_derivative(x)

    def __call__(self, theta):
        """Evaluate the map; returns the canonical representative."""
        return normalize(self.lift(normalize(theta)))

    def derivative_pair(self, theta):
        """(F'(theta), F''(theta)); F' is bit-equal to `lift_derivative(theta)`
        for theta in [0, 2*pi)."""
        raise NotImplementedError

    def identity_arcs(self) -> tuple[tuple[float, float], ...]:
        """The closed arcs where F' is exactly 1.0 and F'' exactly 0.0, as
        (start, length) pairs: theta lies in one when
        (theta - start) % 2pi <= length, and a length of inf is the whole
        circle.  None are known by default."""
        return ()

    def inverse(self, y):
        """Solve f(x) = y on the circle.

        The monotone lift is bracketed on [y - 2*pi, y + 2*pi] (always a valid
        bracket for a degree-one lift) and solved by safeguarded Newton
        (Numerical Recipes' rtsafe): each step shrinks the bracket to the
        current iterate and takes the Newton candidate, or the bracket
        midpoint when that candidate leaves the bracket or does not at least
        halve the previous step.  Once a step is no longer than 1e-10 one
        Newton polish follows.  An iterate whose residual is exactly 0.0, the
        polished one included, is returned at once: the polish would keep it,
        and its final residual would be 0.  Each step evaluates F and F'
        together (`lift_pair`).  An array is solved one element at a time by
        this rule, so each element has the bits of its float solve, and the
        result has the array's shape.  Raises ValueError on a non-finite
        target, and ConvergenceFailure if the lift residual does not reach
        1e-12 within the iteration budget.
        """
        if isinstance(y, np.ndarray):
            return np.fromiter(map(self.inverse, y.ravel().tolist()), float, y.size).reshape(y.shape)
        lift_pair = self.lift_pair
        # _finite and normalize written out for one float
        if not math.isfinite(y):
            raise ValueError(f"inverse target must be a finite angle, got {y!r}")
        target = y % TWO_PI
        if target >= TWO_PI:
            target = 0.0
        lo = target - TWO_PI
        hi = target + TWO_PI
        x = target
        step = hi - lo
        for _ in range(_MAX_ITER):
            fx, d = lift_pair(x)
            r = fx - target
            if r == 0.0:
                break  # an exact root: the polish would keep x, and its residual is 0
            if r < 0.0:
                lo = x
            else:
                hi = x
            nxt = x - r / d
            if not lo <= nxt <= hi or abs(2.0 * r) > abs(step * d):
                nxt = 0.5 * (lo + hi)
            step = nxt - x
            x = nxt
            if abs(step) <= _STEP_TOL:
                fx, d = lift_pair(x)
                if fx != target:  # else an exact root, as above
                    x -= (fx - target) / d
                    resid = abs(self.lift(x) - target)
                    if resid > INVERSE_TOL:
                        raise ConvergenceFailure(
                            f"inverse residual {resid:.3e} above {INVERSE_TOL} "
                            f"for target {target!r} (kind={self.kind})"
                        )
                break
        else:
            raise ConvergenceFailure(
                f"inverse Newton steps exceeded {_MAX_ITER} iterations for target {target!r}"
            )
        x %= TWO_PI
        return 0.0 if x >= TWO_PI else x

    # -- construction-time invariants ---------------------------------------

    def _check_invariants(self, arc: tuple[float, float] | None = None) -> None:
        """Degree one, and F' > 0 on the check grid (and on `arc`, if given)."""
        xs = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        equiv = np.max(np.abs(self.lift(xs + TWO_PI) - self.lift(xs) - TWO_PI))
        if not equiv <= 1e-12:
            raise ValueError(f"lift is not degree one: equivariance residual {equiv:.3e}")
        grid = np.linspace(0.0, TWO_PI, _MONOTONE_GRID, endpoint=False)
        if arc is not None:
            # an arc narrower than a few grid steps would slip between them
            grid = np.concatenate([grid, np.linspace(*arc, _MONOTONE_GRID)])
        margin = float(np.min(self.lift_derivative(grid)))
        if not margin > 0.0:
            raise MonotonicityViolation(
                f"lift derivative reaches {margin:.6f} <= 0 on the check grid (kind={self.kind})"
            )
        self.monotonicity_margin = margin


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

    def derivative_pair(self, theta):
        one = self.lift_derivative(theta)
        return one, 0.0 * one

    def identity_arcs(self):
        return ((0.0, math.inf),)

    def inverse(self, y):
        # exact: no root finding needed
        return normalize(_finite(y) - self.angle)

    def __repr__(self):
        return f"RotationDiffeo(angle={self.angle!r})"


class IdentityDiffeo(RotationDiffeo):
    """The identity map: the rotation by zero."""

    kind = "identity"

    def __init__(self):
        super().__init__(0.0)

    def __repr__(self):
        return "IdentityDiffeo()"


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
        if not self._width**2 > 0.0:  # F'' divides by it
            raise ValueError(f"support ({support_lo}, {support_hi}) is too narrow: width**2 is 0")
        # the factors of F' - 1 and F'' on the unit profile's derivatives
        self._k1 = self.amplitude / self._width
        self._k2 = self.amplitude / self._width**2
        self._check_invariants(arc=(self.support_lo, self.support_hi))

    def lift(self, x):
        # where x % 2pi rounds to 2pi, u >= 1 is off the arc, as u <= 0 at 0
        u = (x % TWO_PI - self.support_lo) / self._width
        # a Python float, the hot path, skips the slower isinstance test
        if type(x) is not float and isinstance(x, np.ndarray):
            return x + self.amplitude * _bump01_vec(u)
        # _bump01 inlined for a scalar; off the arc the lift is x + a * 0.0,
        # which keeps x = -0.0 for a negative amplitude
        q = u * (1.0 - u)
        if q < _Q_FLOOR:
            return x + self.amplitude * 0.0
        return x + self.amplitude * math.exp(_PEAK - 1.0 / q)

    def lift_derivative(self, x):
        u = (x % TWO_PI - self.support_lo) / self._width
        if type(u) is not float and isinstance(u, np.ndarray):
            return 1.0 + self._k1 * _bump01_d1_vec(u)
        # _bump01_d1 inlined for a scalar, in its order; off the arc F' is
        # 1.0 + k1 * 0.0, which is 1.0 whatever the sign of k1
        q = u * (1.0 - u)
        if q < _Q_FLOOR:
            return 1.0
        return 1.0 + self._k1 * (math.exp(_PEAK - 1.0 / q) * (1.0 - 2.0 * u) / (q * q))

    def lift_pair(self, x):
        # the float branches of lift and lift_derivative, in their order,
        # sharing u, q and the exponential
        u = (x % TWO_PI - self.support_lo) / self._width
        q = u * (1.0 - u)
        if q < _Q_FLOOR:
            return x + self.amplitude * 0.0, 1.0
        e = math.exp(_PEAK - 1.0 / q)
        return x + self.amplitude * e, 1.0 + self._k1 * (e * (1.0 - 2.0 * u) / (q * q))

    def derivative_pair(self, theta):
        u = (theta % TWO_PI - self.support_lo) / self._width
        # a Python float, the hot path, skips the slower isinstance test
        if type(u) is not float and isinstance(u, np.ndarray):
            d1, d2 = _bump01_d1d2_vec(u)
            return 1.0 + self._k1 * d1, self._k2 * d2
        # _bump01_d1d2 inlined for a scalar, in its order; off the
        # arc F'' is k2 * 0.0, which is -0.0 for a negative amplitude
        q = u * (1.0 - u)
        if q < _Q_FLOOR:
            return 1.0, self._k2 * 0.0
        qp = 1.0 - 2.0 * u
        qq = q * q
        e = math.exp(_PEAK - 1.0 / q)
        return 1.0 + self._k1 * (e * qp / qq), self._k2 * (e * ((qp / qq) ** 2 - 2.0 * (q + qp * qp) / q**3))

    def identity_arcs(self):
        # the closed complement [hi, lo + 2pi] of the support; the underflow
        # margins inside the support, where the kernels return 0.0 too, are
        # not reported
        return ((normalize(self.support_hi), TWO_PI - self._width),)

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
    a float for a scalar x and an array of x's shape for an array x.  nu = -1
    gives the antiderivative that vanishes at knots[0]: the piecewise quartic
    of each interval plus the integrals of the intervals before it, plus one
    period integral per turn, so it grows by that integral per 2*pi.  A
    Python float x takes a branch of its own: the array branch's arithmetic
    in its order on Python floats (`%`, `bisect_right` and Horner over each
    interval's coefficient tuple), so it returns the same bits without
    numpy's dispatch on a single number.

    The knot second derivatives M solve the cyclic tridiagonal system
    h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (d[i] - d[i-1])
    (indices wrapping, h the knot gaps, d the secant slopes; de Boor, A
    Practical Guide to Splines, ch. IV), which is strictly diagonally dominant
    and small enough for one dense solve.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(knots) <= 0) or knots[0] < 0 or knots[-1] >= TWO_PI:
        raise ValueError("knots must be strictly increasing within [0, 2*pi)")
    breaks = np.append(knots, knots[0] + TWO_PI)
    h = np.diff(breaks)
    d = np.diff(np.append(values, values[0])) / h
    n = h.size
    rows = np.arange(n)
    system = np.diag(2.0 * (np.roll(h, 1) + h))
    system[rows, rows - 1] += np.roll(h, 1)
    system[rows, (rows + 1) % n] += h
    m = np.linalg.solve(system, 6.0 * (d - np.roll(d, 1)))
    m_next = np.roll(m, -1)
    # power-form coefficients in t = x - breaks[i], highest degree first
    cubic = (m_next - m) / (6.0 * h)
    linear = d - h * (2.0 * m + m_next) / 6.0
    quartic = np.array([0.25 * cubic, m / 6.0, 0.5 * linear, values, np.zeros(n)])
    tables = {
        -1: quartic,
        0: np.array([cubic, 0.5 * m, linear, values]),
        1: np.array([3.0 * cubic, m, linear]),
        2: np.array([6.0 * cubic, m]),
    }
    # integral from x0 to each break; the last entry is the period integral
    offsets = np.concatenate([[0.0], np.cumsum(np.polyval(quartic, h))])
    period = float(offsets[-1])
    x0 = float(breaks[0])
    last = n - 1
    # the float branch's copies as Python floats: per nu, one coefficient
    # tuple per interval
    intervals = {nu: tuple(map(tuple, table.T.tolist())) for nu, table in tables.items()}
    breaks_f, offsets_f = breaks.tolist(), offsets.tolist()

    def evaluate(x, nu: int = 0):
        if type(x) is float:
            # the array branch's arithmetic, in its order, on Python floats
            xs = x0 + (x - x0) % TWO_PI
            i = min(bisect_right(breaks_f, xs) - 1, last)
            t = xs - breaks_f[i]
            c = intervals[nu][i]
            out = c[0]
            for ci in c[1:]:
                out = out * t + ci
            if nu == -1:
                out = out + offsets_f[i] + round((x - xs) / TWO_PI, 0) * period
            return out
        xs = x0 + np.mod(x - x0, TWO_PI)
        i = np.minimum(np.searchsorted(breaks, xs, side="right") - 1, last)
        t = xs - breaks[i]
        coeffs = tables[nu][:, i]
        out = coeffs[0]
        for c in coeffs[1:]:
            out = out * t + c
        if nu == -1:
            out = out + offsets[i] + np.round((x - xs) / TWO_PI) * period
        return out if isinstance(x, np.ndarray) else float(out)

    return evaluate


class SplineDiffeo(CircleDiffeo):
    """Periodic cubic spline through user-supplied lift values.

    The deviation F(x) - x is interpolated with a periodic C^2 cubic spline,
    which keeps the lift degree one by construction.  Twice continuously
    differentiable only; use the bump family where full smoothness matters.
    """

    kind = "spline"

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

    def derivative_pair(self, theta):
        # one wrap, the spline's own, as in lift_derivative
        return 1.0 + self._dev(theta, 1), self._dev(theta, 2)

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
