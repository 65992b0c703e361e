"""The warped metric on two unit disks glued along their boundary circles.

Each disk carries polar coordinates (t, theta) and the metric

    g = dt^2 + phi(t, theta)^2 dtheta^2,

with the warp

    phi(t, theta) = (1 - s(t)) * t + s(t) * psi(theta),

where s is an infinitely smooth step that is identically 0 on [0, t0] and
identically 1 on [t1, 1].  So the metric is exactly the flat polar metric
near the disk center (phi = t) and exactly radially constant on the plateau
[t1, 1] near the rim (phi = psi(theta)).

The two rims are identified by a circle diffeomorphism f.  Writing F for its
lift, the plateau profiles must satisfy the compatibility rule

    psi_1(theta) = psi_2(F(theta)) * F'(theta),

which makes the angular metric term agree across the seam; because both
sides are radially constant there, the glued metric is smooth to all orders
across the rim.  psi_2 is free (default: constant 1) and psi_1 is always
derived from the rule, so configurations are unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleDiffeo, normalize

DEFAULT_T0 = 0.25
DEFAULT_T1 = 0.75
# plateau profiles must be positive on this many equispaced angles
_PSI_GRID = 720


class DegenerateAtCenter(ValueError):
    """Component form requested at t = 0, where the polar chart breaks down."""


# ----------------------------------------------------------------------------
# smooth step built from exp(-1/x): 0 on (-inf, 0], 1 on [1, inf), C-infinity


def _step01(u: float) -> tuple[float, float]:
    """Value and derivative of the smooth step at u."""
    if u <= 0.0:
        return 0.0, 0.0
    if u >= 1.0:
        return 1.0, 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    denom = a + b
    s = a / denom
    ds = a * b * (1.0 / (u * u) + 1.0 / ((1.0 - u) * (1.0 - u))) / (denom * denom)
    return s, ds


def _step01_vec(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    us = np.where(inside, u, 0.5)
    a = np.exp(-1.0 / us)
    b = np.exp(-1.0 / (1.0 - us))
    denom = a + b
    s = np.where(inside, a / denom, np.where(u >= 1.0, 1.0, 0.0))
    ds = np.where(
        inside,
        a * b * (1.0 / (us * us) + 1.0 / ((1.0 - us) * (1.0 - us))) / (denom * denom),
        0.0,
    )
    return s, ds


def smooth_step(t, t0: float, t1: float):
    """Smooth step in t: 0 on (-inf, t0], 1 on [t1, inf)."""
    if isinstance(t, np.ndarray):
        return _step01_vec((t - t0) / (t1 - t0))[0]
    return _step01((t - t0) / (t1 - t0))[0]


@dataclass(frozen=True)
class MetricSample:
    """Metric components and first warp partials at one point."""

    chart: int
    t: float
    theta: float
    phi: float
    phi_t: float
    phi_theta: float
    g_tt: float = 1.0
    g_ttheta: float = 0.0

    @property
    def g_thetatheta(self) -> float:
        return self.phi * self.phi

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.g_tt, self.g_ttheta, self.g_thetatheta)


def _const_profile(c: float):
    def value(theta):
        if isinstance(theta, np.ndarray):
            return np.full_like(theta, c, dtype=float)
        return c

    def deriv(theta):
        if isinstance(theta, np.ndarray):
            return np.zeros_like(theta, dtype=float)
        return 0.0

    return value, deriv


class GluedMetric:
    """The glued two-disk metric; immutable after construction.

    Parameters
    ----------
    f : CircleDiffeo
        Rim identification map (chart-1 boundary angle -> chart-2 boundary
        angle).
    t0, t1 : float
        Zone boundaries with 0 < t0 < t1 < 1; [0, t0] is exactly Euclidean,
        [t1, 1] is the radially constant plateau.
    psi2 : None | float | (callable, callable)
        Plateau profile of chart 2 (value, derivative).  None means the
        constant 1.  psi_1 is always derived from the compatibility rule.
    psi1_scale : float
        Deliberate compatibility breaker for negative controls; the default
        1.0 keeps the gluing exact.
    """

    def __init__(
        self,
        f: CircleDiffeo,
        t0: float = DEFAULT_T0,
        t1: float = DEFAULT_T1,
        psi2=None,
        psi1_scale: float = 1.0,
    ):
        if not 0.0 < t0 < t1 < 1.0:
            raise ValueError(f"need 0 < t0 < t1 < 1, got t0={t0}, t1={t1}")
        self.f = f
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.psi1_scale = float(psi1_scale)
        if psi2 is None:
            self._psi2, self._psi2_prime = _const_profile(1.0)
            self._psi2_is_one = True
        elif isinstance(psi2, (int, float)):
            self._psi2, self._psi2_prime = _const_profile(float(psi2))
            self._psi2_is_one = float(psi2) == 1.0
        else:
            self._psi2, self._psi2_prime = psi2
            self._psi2_is_one = False

        grid = np.linspace(0.0, TWO_PI, _PSI_GRID, endpoint=False)
        psi2_vals = np.asarray(self._psi2(grid), dtype=float)
        if not np.min(psi2_vals) > 0.0:
            raise ValueError(f"psi2 must be positive; min on grid is {np.min(psi2_vals):.6g}")
        psi1_vals = self.psi1(grid)
        psi1_min = float(np.min(psi1_vals))
        if not psi1_min > 0.0:
            raise ValueError(f"derived psi1 must be positive; min on grid is {psi1_min:.6g}")
        self.psi_min = min(psi1_min, float(np.min(psi2_vals)))

    # -- plateau profiles -----------------------------------------------------

    def psi1(self, theta):
        """Chart-1 plateau profile, derived from the compatibility rule."""
        return self._psi_pair(1, theta)[0]

    def psi2(self, theta):
        return self._psi2(theta)

    def _psi_pair(self, chart: int, theta):
        """(psi, psi') on a chart; chart 1 applies psi_1 = (psi_2 o F) * F'."""
        if chart == 2:
            return self._psi2(theta), self._psi2_prime(theta)
        if chart != 1:
            raise ValueError(f"chart must be 1 or 2, got {chart!r}")
        fp, fpp = self.f.derivative_pair(theta)
        if self._psi2_is_one:
            return self.psi1_scale * fp, self.psi1_scale * fpp
        y = self.f(theta)
        p2 = self._psi2(y)
        return (
            self.psi1_scale * (p2 * fp),
            self.psi1_scale * (self._psi2_prime(y) * fp * fp + p2 * fpp),
        )

    # -- warp and components ---------------------------------------------------

    def warp(self, chart: int, t: float, theta):
        """phi(t, theta) on the given chart.

        The radial profile continues past the rim (s clamps at 1 for t > 1),
        which is what cross-rim pullback checks evaluate; t may lie in [0, 2].
        """
        if isinstance(t, np.ndarray) or isinstance(theta, np.ndarray):
            if np.any(np.asarray(t) < 0.0):
                raise ValueError("t must be nonnegative")
            return self.warp_with_partials_vec(chart, t, theta)[0]
        if t < 0.0:
            raise ValueError(f"t must be nonnegative, got {t}")
        return self.warp_with_partials(chart, t, theta)[0]

    def warp_with_partials(self, chart: int, t: float, theta: float):
        """(phi, phi_t, phi_theta) at a point; scalar hot path, bit-exactly
        (t, 1, 0) in the Euclidean zone."""
        s, ds = _step01((t - self.t0) / (self.t1 - self.t0))
        ds /= self.t1 - self.t0
        if s == 0.0:
            return t, 1.0, 0.0
        psi, psi_p = self._psi_pair(chart, theta)
        phi = (1.0 - s) * t + s * psi
        phi_t = (1.0 - s) + ds * (psi - t)
        phi_theta = s * psi_p
        return phi, phi_t, phi_theta

    def warp_with_partials_vec(self, chart: np.ndarray, t: np.ndarray, theta: np.ndarray):
        """Vectorized (phi, phi_t, phi_theta) over mixed-chart batches."""
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        s, ds = _step01_vec((t - self.t0) / (self.t1 - self.t0))
        ds = ds / (self.t1 - self.t0)
        is1 = np.asarray(chart) == 1
        p1, p1p = self._psi_pair(1, theta)
        p2, p2p = self._psi_pair(2, theta)
        psi = np.where(is1, p1, p2)
        psi_p = np.where(is1, p1p, p2p)
        phi = (1.0 - s) * t + s * psi
        phi_t = (1.0 - s) + ds * (psi - t)
        phi_theta = s * psi_p
        return phi, phi_t, phi_theta

    def metric_components(self, chart: int, t: float, theta: float) -> MetricSample:
        """Component form (g_tt, g_ttheta, g_thetatheta) with warp partials.

        Raises DegenerateAtCenter at t = 0; callers working near the center
        should use the exact Euclidean-zone identification instead.
        """
        if t <= 0.0:
            raise DegenerateAtCenter(f"polar components are degenerate at t={t}")
        phi, phi_t, phi_theta = self.warp_with_partials(chart, t, theta)
        return MetricSample(
            chart=chart, t=t, theta=normalize(theta), phi=phi, phi_t=phi_t, phi_theta=phi_theta
        )

    def christoffel(self, chart: int, t: float, theta: float) -> tuple[float, float, float]:
        """(Gamma^t_thth, Gamma^th_tth, Gamma^th_thth); all other symbols vanish.

        For g = dt^2 + phi^2 dtheta^2 the only nonzero symbols are
        -phi*phi_t, phi_t/phi and phi_theta/phi; in particular radial curves
        are geodesics for every metric in the family.
        """
        if t <= 0.0:
            raise DegenerateAtCenter(f"Christoffel symbols are degenerate at t={t}")
        phi, phi_t, phi_theta = self.warp_with_partials(chart, t, theta)
        return (-phi * phi_t, phi_t / phi, phi_theta / phi)

    def gluing_residual(self, n_theta: int = 720, n_t: int = 64) -> float:
        """Max over a plateau grid of the seam compatibility defect.

        Compares the chart-1 warp against the chart-2 warp pulled back
        through the rim identification (collar coordinate u = 2 - t, so
        du = -dt and the angular term picks up one factor of F').  Exactly 0
        up to evaluation roundoff under the default derived convention.
        """
        ts = np.linspace(self.t1, 1.0, n_t)
        thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
        worst = 0.0
        fprime = self.f.derivative(thetas)
        images = self.f(thetas)
        for t in ts:
            lhs = self.warp(1, np.full_like(thetas, t), thetas)
            rhs = self.warp(2, np.full_like(thetas, 2.0 - t), images) * fprime
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst
