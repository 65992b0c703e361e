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

On the plateau the metric is dt^2 + dsigma^2 in the coordinate
sigma = int psi dtheta, a flat strip: sigma_2 = m P(theta) and
sigma_1 = psi1_scale m P(F(theta)), with m the mean of psi_2 and
P = Sigma_2 / m a degree-one circle lift (the identity for a constant psi_2).
"""

from __future__ import annotations

import math

import numpy as np

from .circle import TWO_PI, CircleDiffeo, IdentityDiffeo

DEFAULT_T0 = 0.25
DEFAULT_T1 = 0.75
# plateau profiles must be positive on this many equispaced angles
_PSI_GRID = 720
# gluing_residual compares the two sides of the seam on this many angles
SEAM_GRID_THETA = 720


class DegenerateAtCenter(ValueError):
    """Christoffel symbols requested at t = 0, where the polar chart breaks down."""


def check_chart(chart) -> None:
    """Raise ValueError unless the chart number (or every one in an array) is 1 or 2."""
    c = np.asarray(chart)
    if not np.all((c == 1) | (c == 2)):
        raise ValueError(f"chart must be 1 or 2, got {chart!r}")


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
    # clamped, not masked: exp(-1/u) already underflows to 0.0 at u = 1e-3,
    # so off [1e-3, 1 - 1e-3] the step is exactly 0 or 1 with slope 0
    u = np.minimum(np.maximum(u, 1e-3), 1.0 - 1e-3)
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / (1.0 - u))
    denom = a + b
    ds = a * b * (1.0 / (u * u) + 1.0 / ((1.0 - u) * (1.0 - u))) / (denom * denom)
    return a / denom, ds


class _PlateauLift(CircleDiffeo):
    """P = Sigma_2 / m for a psi_2 spline: its primitive over its mean m.

    A degree-one lift with P(0) = 0 and P' = psi_2 / m > 0, so the base
    class's safeguarded Newton inverts it; only the lift, its derivative and
    that inverse are used.
    """

    kind = "plateau"

    def __init__(self, psi2):
        self._psi2 = psi2
        self._origin = psi2(0.0, -1)
        self.mean = (psi2(TWO_PI, -1) - self._origin) / TWO_PI

    def lift(self, x):
        return (self._psi2(x, -1) - self._origin) / self.mean

    def lift_derivative(self, x):
        return self._psi2(x) / self.mean


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
    psi2 : None | float | callable
        Plateau profile of chart 2: a constant, stored as the number itself
        in `psi2_const` (None means 1.0), or a `circle.periodic_spline`
        evaluator, whose nu = 1 and nu = -1 give the derivative and the
        primitive, and then `psi2_const` is None.  psi_1 is always derived
        from the compatibility rule.
    psi1_scale : float
        Deliberate compatibility breaker for negative controls, positive and
        finite; the default 1.0 keeps the gluing exact.
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
        if not 0.0 < psi1_scale < math.inf:
            raise ValueError(f"psi1_scale must be positive and finite, got {psi1_scale!r}")
        self.f = f
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.psi1_scale = float(psi1_scale)
        # where F' = 1 and F'' = 0 exactly, psi_1 = psi1_scale psi_2 o F
        self.identity_arcs = f.identity_arcs()
        if psi2 is None or isinstance(psi2, (int, float)):
            self.psi2_const = 1.0 if psi2 is None else psi2
        else:
            self.psi2_const = None
            self._psi2 = psi2

        grid = np.linspace(0.0, TWO_PI, _PSI_GRID, endpoint=False)
        psi2_vals = np.asarray(self.psi2(grid), dtype=float)
        if not np.min(psi2_vals) > 0.0:
            raise ValueError(f"psi2 must be positive; min on grid is {np.min(psi2_vals):.6g}")
        psi1_vals = self.psi1(grid)
        psi1_min = float(np.min(psi1_vals))
        if not psi1_min > 0.0:
            raise ValueError(f"derived psi1 must be positive; min on grid is {psi1_min:.6g}")
        if self.psi2_const is not None:
            self._plateau_lift, self._psi2_mean = IdentityDiffeo(), self.psi2_const
        else:
            self._plateau_lift = _PlateauLift(psi2)
            self._psi2_mean = self._plateau_lift.mean
        self._warp = self._bind_warp()

    # -- plateau profiles -----------------------------------------------------

    def psi1(self, theta):
        """Chart-1 plateau profile, derived from the compatibility rule."""
        return self._psi_pair(1, theta)[0]

    def psi2(self, theta):
        """Chart-2 plateau profile; a constant profile returns its number for any theta."""
        return self._psi_pair(2, theta)[0]

    def _psi_pair(self, chart: int, theta):
        """(psi, psi') on a chart; chart 1 applies psi_1 = (psi_2 o F) * F'."""
        c = self.psi2_const
        if chart == 2:
            if c is not None:
                return c, 0.0
            return self._psi2(theta), self._psi2(theta, 1)
        if chart != 1:
            raise ValueError(f"chart must be 1 or 2, got {chart!r}")
        fp, fpp = self.f.derivative_pair(theta)
        if c is not None:
            return self.psi1_scale * (c * fp), self.psi1_scale * (c * fpp)
        y = self.f(theta)
        p2 = self._psi2(y)
        return (
            self.psi1_scale * (p2 * fp),
            self.psi1_scale * (self._psi2(y, 1) * fp * fp + p2 * fpp),
        )

    def plateau_angle(self, chart: int, theta: float, dsigma: float) -> float:
        """The angle in [0, 2*pi) at plateau distance dsigma from theta.

        Solves sigma(theta') = sigma(theta) + dsigma on the circle, with
        sigma_2 = m P(theta) and sigma_1 = psi1_scale m P(F(theta)): through
        P's inverse, and on chart 1 then f's.
        """
        p = self._plateau_lift
        if chart == 2:
            return p.inverse(p.lift(theta) + dsigma / self._psi2_mean)
        f = self.f
        return f.inverse(p.inverse(p.lift(f(theta)) + dsigma / (self.psi1_scale * self._psi2_mean)))

    # -- warp and Christoffel symbols ------------------------------------------

    def warp(self, chart: int, t: float, theta):
        """phi(t, theta) on the given chart.

        The radial profile continues past the rim (s clamps at 1 for t > 1),
        which is what cross-rim pullback checks evaluate; t may lie in [0, 2].
        """
        check_chart(chart)
        if isinstance(t, np.ndarray) or isinstance(theta, np.ndarray):
            if not np.all(np.asarray(t) >= 0.0):
                raise ValueError("t must be nonnegative")
            return self.warp_with_partials_vec(chart, t, theta)[0]
        if not t >= 0.0:
            raise ValueError(f"t must be nonnegative, got {t}")
        return self.warp_with_partials(chart, t, theta)[0]

    def warp_with_partials(self, chart: int, t: float, theta: float):
        """(phi, phi_t, phi_theta) at a point; scalar hot path, bit-exactly
        (t, 1, 0) in the Euclidean zone.  It runs the kernel that
        `_bind_warp` built for this metric."""
        return self._warp(chart, t, theta)

    def _bind_warp(self):
        """The scalar warp kernel of this metric, one closure: `_step01` and
        `_psi_pair` inlined in their order, with t0, t1 - t0, psi1_scale,
        psi_2 and the map's `derivative_pair` bound, so it gives the bits of
        combining them: s = 0 returns (t, 1, 0), and otherwise
        phi = (1 - s) t + s psi, phi_t = (1 - s) + s' (psi - t) and
        phi_theta = s psi'."""
        t0, w, scale, c, exp = self.t0, self.t1 - self.t0, self.psi1_scale, self.psi2_const, math.exp
        f, pair, psi2 = self.f, self.f.derivative_pair, None if c is not None else self._psi2

        def warp(chart, t, theta):
            u = (t - t0) / w
            if u <= 0.0:
                return t, 1.0, 0.0
            if u >= 1.0:
                s, ds = 1.0, 0.0
            else:
                v = 1.0 - u
                a = exp(-1.0 / u)
                b = exp(-1.0 / v)
                denom = a + b
                s = a / denom
                if s == 0.0:
                    return t, 1.0, 0.0
                ds = a * b * (1.0 / (u * u) + 1.0 / (v * v)) / (denom * denom) / w
            if chart == 1:
                fp, fpp = pair(theta)
                if c is not None:
                    psi, psi_p = scale * (c * fp), scale * (c * fpp)
                else:
                    y = f(theta)
                    p2 = psi2(y)
                    psi, psi_p = scale * (p2 * fp), scale * (psi2(y, 1) * fp * fp + p2 * fpp)
            elif chart != 2:
                raise ValueError(f"chart must be 1 or 2, got {chart!r}")
            elif c is not None:
                psi, psi_p = c, 0.0
            else:
                psi, psi_p = psi2(theta), psi2(theta, 1)
            r = 1.0 - s
            return r * t + s * psi, r + ds * (psi - t), s * psi_p

        return warp

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

    def revolution_warp(self, t: np.ndarray, c: float) -> np.ndarray:
        """phi at the radii t, an array, where a chart is a surface of
        revolution with the plateau value c: (1 - s(t)) t + s(t) c.  That is
        chart 2 for a constant psi_2 = c, and chart 1 on an identity arc of f
        (`identity_arcs`), with c = psi1_scale psi_2."""
        s, _ = _step01_vec((t - self.t0) / (self.t1 - self.t0))
        return (1.0 - s) * t + s * c

    def christoffel(self, chart: int, t: float, theta: float) -> tuple[float, float, float]:
        """(Gamma^t_thth, Gamma^th_tth, Gamma^th_thth); all other symbols vanish.

        For g = dt^2 + phi^2 dtheta^2 the only nonzero symbols are
        -phi*phi_t, phi_t/phi and phi_theta/phi; in particular radial curves
        are geodesics for every metric in the family.
        """
        check_chart(chart)
        if not t >= 0.0:
            raise ValueError(f"t must be nonnegative, got {t}")
        if t == 0.0:
            raise DegenerateAtCenter(f"Christoffel symbols are degenerate at t={t}")
        phi, phi_t, phi_theta = self.warp_with_partials(chart, t, theta)
        return (-phi * phi_t, phi_t / phi, phi_theta / phi)

    def gluing_residual(self) -> float:
        """Max over SEAM_GRID_THETA equispaced angles of the seam compatibility defect.

        Compares the chart-1 warp at the rim against the chart-2 warp at the
        rim pulled back through the rim identification, whose angular term
        picks up one factor of F'.  One ring decides the whole plateau: for
        t >= t1 the step is exactly 1, so phi = psi(theta) bit for bit at
        every plateau radius of both charts.  Exactly 0 up to evaluation
        roundoff under the default derived convention.
        """
        thetas = np.linspace(0.0, TWO_PI, SEAM_GRID_THETA, endpoint=False)
        lhs = self.warp(1, 1.0, thetas)
        rhs = self.warp(2, 1.0, self.f(thetas)) * self.f.lift_derivative(thetas)
        return float(np.max(np.abs(lhs - rhs)))
