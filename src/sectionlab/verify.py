"""Numerical certification of the foliation properties of the glued metric.

The defining property checked here is the all-or-none law: a geodesic is
orthogonal to the concentric leaves at either all or none of its points.  In
the (t, theta) chart a geodesic meets a leaf orthogonally exactly where
vtheta = 0, and uniqueness of geodesics forces any such point onto a radial
curve, so the coordinate-level statement is that sign(vtheta) is constant
along every non-radial geodesic and vtheta vanishes identically along radial
ones.  Only the non-radial half is checked: radial curves are geodesics of
every metric dt^2 + phi^2 dtheta^2 (see `GluedMetric.christoffel`), so no
metric could make a radial check fail.

The module also provides the exact common-period arithmetic for two circular
motions with rational circumference ratio (and the `never closes` answer for
an irrational ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import TWO_PI, ConvergenceFailure
from .geodesics import (
    DEFAULT_DS,
    DEFAULT_S_MAX,
    GeodesicState,
    integrate_ensemble,
    speed_error,
    unit_speed_state,
)
from .metric import SEAM_GRID_THETA, GluedMetric
from .table import csv_text

# the largest final speed_error that all_or_none_check accepts at ds = 1e-3 and
# s_max <= 20: 6.1x the worst of its 100 default runs at seed 0 (1.6e-10), 3.0x
# the worst over 42 seeds (3.4e-10); `drift_bound` scales it to other runs
DRIFT_BOUND = 1e-9


class NonPositiveRadius(ValueError):
    """Common-period arithmetic requires strictly positive radii."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    params: dict
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult) -> None:
        if any(c.name == check.name for c in self.checks):
            raise ValueError(f"duplicate check name {check.name!r}")
        self.checks.append(check)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv_text(self, header_lines=()) -> str:
        rows = (f"{c.name},{int(c.passed)},{c.residual!r}" for c in self.checks)
        return csv_text(header_lines, ("check", "passed", "residual"), rows)

    def summary_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name:<26s} residual={c.residual:.3e}  {c.detail}")
        return "\n".join(lines)


def _sample_nonradial_states(
    metric: GluedMetric, n: int, rng: np.random.Generator
) -> list[GeodesicState]:
    """Random unit-speed clearly-non-radial states.

    The direction is resampled until both the coordinate angular velocity
    |vtheta| and the metric angular speed phi*|vtheta| are at least 0.1,
    which keeps every run well clear of the center; no direction meets that
    where phi >= 10.  The first time a drawn position has phi >= 10, phi is
    evaluated once on SEAM_GRID_THETA angles of the inner edge t = 0.3 of
    the box on both charts, and ValueError is raised if it is >= 10 at all
    of them.  phi = (1 - s) t + s psi lies between t and psi, and it grows
    with t wherever psi > t, so it is below 10 somewhere in the box exactly
    when it is below 10 somewhere on that edge.  The check draws nothing.
    """
    states = []
    checked = False
    while len(states) < n:
        chart = int(rng.integers(1, 3))
        t = float(rng.uniform(0.3, 0.9))
        theta = float(rng.uniform(0.0, TWO_PI))
        phi = metric.warp(chart, t, theta)
        chi = float(rng.uniform(0.0, TWO_PI))
        if abs(math.sin(chi)) < 0.1 * max(1.0, phi):
            if phi >= 10.0 and not checked:
                grid = np.linspace(0.0, TWO_PI, SEAM_GRID_THETA, endpoint=False)
                least = min(float(np.min(metric.warp(c, 0.3, grid))) for c in (1, 2))
                if least >= 10.0:
                    raise ValueError(
                        "no admissible start for the non-radial geodesics: "
                        f"phi >= 10 on t in [0.3, 0.9] (least {least:.6g} at t = 0.3), "
                        "so no unit-speed direction has |vtheta| and phi |vtheta| both >= 0.1"
                    )
                checked = True
            continue
        states.append(unit_speed_state(metric, chart, t, theta, chi))
    return states


def drift_bound(ds: float, s_max: float) -> float:
    """The largest worst-member speed_error that all_or_none_check accepts.

    DRIFT_BOUND for ds up to DEFAULT_DS and runs up to DEFAULT_S_MAX, times
    (ds / DEFAULT_DS)**5 and s_max / DEFAULT_S_MAX above them.  The drift
    of the default metric's 100 runs is set by the annulus steps, whose
    error tolerance grows as ds^4 (`geodesics.ANNULUS_TOL`), and so does
    the drift while steps are short (worst over 42 seeds: 2.1e-9 at
    ds = 2e-3, 2.5e-6 at 1e-2); it levels off near 1e-3 once every step is
    the largest one, half the narrower flat zone (worst of 4 seeds: 5.6e-5
    at ds = 0.05, 2.7e-4 at 0.12, 7.0e-4 at 0.2 and 1.3e-3 at 0.24, where
    the bound is 8e2).  It grows with s_max more slowly than linearly
    (seed 0: 1.1e-12 at s_max = 1; worst over 42 seeds: 6.3e-10 at 100 and
    1.9e-9 at 400), and shorter steps only lower it (seed 0: 1.5e-12 at
    ds = 2e-4).
    """
    return DRIFT_BOUND * max(1.0, ds / DEFAULT_DS) ** 5 * max(1.0, s_max / DEFAULT_S_MAX)


def all_or_none_check(
    metric: GluedMetric,
    n_geodesics: int = 100,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
    seed: int = 0,
) -> CheckResult:
    """Sign of vtheta never changes along non-radial geodesics, and the runs keep unit speed.

    Integrates n_geodesics random non-radial unit-speed states (coordinate
    angular velocity at least 0.1 in magnitude) to s_max and counts sign
    changes of vtheta after every chord, plateau segment, transit, step and
    chart transition; zero flips is the coordinate-level all-or-none
    statement.  The residual is the flip count.

    The law holds exactly for every metric of the family, so the flip count
    measures the integrator, not the metric: vtheta' is linear and
    homogeneous in vtheta (see the geodesic equation in `geodesics`), so by
    uniqueness a vtheta that vanishes once vanishes throughout; the rim
    multiplies vtheta by F' > 0; the flat-disk chord keeps t^2 vtheta; the
    plateau keeps vsigma = psi vtheta; and the transits of both charts (chart
    2 with a constant psi_2, chart 1 on the map's identity arcs) keep
    L = phi^2 vtheta, hence the sign of vtheta, and the speed.
    The same homogeneity keeps the sign under a wrong right-hand side, so
    the check also needs the worst speed_error over the final states to
    stay within `drift_bound(ds, s_max)`.  That bound also catches a metric
    defect: a seam that is not an isometry breaks unit speed at every
    crossing onto chart 1 (by about 2e-2 at psi1_scale = 1.01), so such a
    metric fails this check as well as gluing_compatibility.
    """
    if n_geodesics < 1:
        raise ValueError(f"n_geodesics must be at least 1, got {n_geodesics!r}")
    rng = np.random.default_rng(seed)
    states = _sample_nonradial_states(metric, n_geodesics, rng)
    params = {"n_geodesics": n_geodesics, "s_max": s_max, "ds": ds, "seed": seed}
    try:
        result = integrate_ensemble(metric, states, ds=ds, s_max=s_max)
    except (FloatingPointError, ConvergenceFailure) as exc:  # a solver failure is a report entry
        return CheckResult(
            name="all_or_none",
            passed=False,
            residual=math.inf,
            params=params,
            detail=f"integration aborted: {exc}",
        )
    flips = int(np.sum(result.sign_flips))
    min_abs = float(np.min(result.min_abs_vtheta))
    drift = max(speed_error(metric, st) for st in result.final_states)
    bound = drift_bound(ds, s_max)
    return CheckResult(
        name="all_or_none",
        passed=flips == 0 and drift <= bound,
        residual=float(flips),
        params=params,
        detail=(
            f"sign flips={flips}, min |vtheta| along runs={min_abs:.3e}, "
            f"worst speed drift={drift:.3e} (bound {bound:.1e})"
        ),
    )


def gluing_check(metric: GluedMetric) -> CheckResult:
    residual = metric.gluing_residual()
    return CheckResult(
        name="gluing_compatibility",
        passed=residual < 1e-14,
        residual=residual,
        params={"n_theta": SEAM_GRID_THETA},
        detail=f"max seam defect over plateau grid = {residual:.3e}",
    )


def run_all_checks(
    metric: GluedMetric,
    seed: int = 0,
    n_geodesics: int = 100,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
) -> VerificationReport:
    """Run every metric-level check once; deterministic given the seed."""
    report = VerificationReport()
    report.add(gluing_check(metric))
    report.add(all_or_none_check(metric, n_geodesics=n_geodesics, s_max=s_max, ds=ds, seed=seed))
    return report


# ----------------------------------------------------------------------------
# common-period arithmetic


def _as_fraction(x) -> Fraction:
    if isinstance(x, tuple):
        if x[1] == 0:
            raise NonPositiveRadius(f"radius {x[0]}/{x[1]} has a zero denominator")
        return Fraction(x[0], x[1])
    return Fraction(x)


def rational_closure(r, s, irrational_ratio: bool = False) -> Fraction | None:
    """Least common period of two circular motions, in units of 2*pi.

    Two points moving at unit speed around circles of radii r and s return to
    their simultaneous start after arclength L = 2*pi * lcm(r, s), where the
    least common multiple of positive rationals p1/q1, p2/q2 is
    lcm(p1*q2, p2*q1) / (q1*q2), computed in exact integer arithmetic.  With
    the irrational-ratio flag there is no common multiple at all.

    Returns L / (2*pi) as an exact Fraction, or None for `never closes`.
    """
    if irrational_ratio:
        return None
    r = _as_fraction(r)
    s = _as_fraction(s)
    if r <= 0 or s <= 0:
        raise NonPositiveRadius(f"radii must be positive, got r={r}, s={s}")
    p1, q1 = r.numerator, r.denominator
    p2, q2 = s.numerator, s.denominator
    return Fraction(math.lcm(p1 * q2, p2 * q1), q1 * q2)
