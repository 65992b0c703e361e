"""Section tracing: exact piecewise-radial itineraries and numerical geodesics.

A section through a disk center is piecewise radial: a radius leg out of the
starting center, then alternating full diameters of the two disks, with the
rim identification applied at every boundary crossing.  The exact tracer
walks this itinerary in closed form; the numerical integrator solves the
geodesic equation of the glued metric

    t'' = phi * phi_t * vtheta^2
    theta'' = -(2 phi_t / phi) vt vtheta - (phi_theta / phi) vtheta^2

with fixed-step fourth-order Runge-Kutta and two event types, both placed in
closed form: rim crossings at t = 1 and center passages at t = 0 (the latter
admissible only for radial states; analytically a non-radial geodesic never
reaches the center).  A rim crossing is reached from the plateau [t1, 1],
where phi_t = 0, so vt is constant there and the crossing lies at arclength
(1 - t) / vt from the start of the step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .circle import CircleDiffeo, antipode, circle_distance, line_distance, normalize
from .dynamics import DEFAULT_K_MAX, DEFAULT_TOL, Period, TransitionMap
from .metric import GluedMetric, check_chart
from .table import csv_text

DEFAULT_DS = 1e-3
DEFAULT_S_MAX = 20.0
# |vtheta| below RADIAL_TOL counts as radial; non-radial states may not enter t < T_GUARD
RADIAL_TOL = 1e-9
T_GUARD = 1e-6
# start angles must satisfy |theta| < ANGLE_BOUND: one ulp there (2.3e-10) stays
# below the 1e-9 closure tolerance
ANGLE_BOUND = 2.0**20
_MAX_EVENTS = 100000


class CenterSingularity(RuntimeError):
    """A non-radial state reached the center guard band (step size too large)."""


class EventBisectionFailure(RuntimeError):
    """A run located more than _MAX_EVENTS events (the event budget)."""


class HorizonTooShort(ValueError):
    """The traced legs do not cover the detected period (need 2k+1 legs)."""


class NotClosed(ValueError):
    """A comparison was requested for a section that did not close."""


@dataclass(frozen=True)
class GeodesicState:
    chart: int
    t: float
    theta: float
    vt: float
    vtheta: float
    s: float = 0.0


@dataclass(frozen=True)
class RimCrossing:
    s: float
    chart_from: int
    theta1: float  # chart-1 boundary angle
    theta2: float  # chart-2 boundary angle, the image under the rim map


@dataclass(frozen=True)
class CenterEvent:
    s: float
    chart: int
    theta_in: float  # boundary angle of the incoming ray
    direction: float  # angle of motion after the passage (antipode of theta_in)


@dataclass
class Trajectory:
    """Integration output: recorded states plus located events."""

    states: list[GeodesicState]
    crossings: list[RimCrossing] = field(default_factory=list)
    center_passages: list[CenterEvent] = field(default_factory=list)

    @property
    def final(self) -> GeodesicState:
        return self.states[-1]

    def to_records_text(self, header_lines=()) -> str:
        """Line-delimited records: s, chart, t, theta, vt, vtheta."""
        rows = (
            f"{st.s!r},{st.chart},{st.t!r},{st.theta!r},{st.vt!r},{st.vtheta!r}"
            for st in self.states
        )
        return csv_text(header_lines, ("s", "chart", "t", "theta", "vt", "vtheta"), rows)


def unit_speed_state(
    metric: GluedMetric, chart: int, t: float, theta: float, direction: float
) -> GeodesicState:
    """State of unit speed whose velocity makes angle `direction` with the
    radial direction in the orthonormal frame (so vt = cos, phi*vtheta = sin)."""
    phi = metric.warp(chart, t, theta)
    return GeodesicState(chart, t, theta, math.cos(direction), math.sin(direction) / phi)


def speed_error(metric: GluedMetric, st: GeodesicState) -> float:
    phi = metric.warp(st.chart, st.t, st.theta)
    return abs(st.vt * st.vt + (phi * st.vtheta) ** 2 - 1.0)


# ----------------------------------------------------------------------------
# the stepping core shared by both integrators


def _rhs(metric, chart, t, th, vt, vth):
    if vth == 0.0:
        return vt, 0.0, 0.0, 0.0
    phi, phi_t, phi_th = metric.warp_with_partials(chart, t, th)
    a = vth * vth
    return vt, vth, phi * phi_t * a, -(2.0 * phi_t / phi) * vt * vth - (phi_th / phi) * a


def _rhs_vec(metric, chart, t, th, vt, vth):
    phi, phi_t, phi_th = metric.warp_with_partials_vec(chart, t, th)
    dvt = phi * phi_t * vth * vth
    dvth = -(2.0 * phi_t / phi) * vt * vth - (phi_th / phi) * vth * vth
    return vt, vth, dvt, dvth


def _rk4(rhs, metric, chart, t, th, vt, vth, h):
    """One classical RK4 step; the same arithmetic for floats and arrays."""
    k1 = rhs(metric, chart, t, th, vt, vth)
    k2 = rhs(
        metric,
        chart,
        t + 0.5 * h * k1[0],
        th + 0.5 * h * k1[1],
        vt + 0.5 * h * k1[2],
        vth + 0.5 * h * k1[3],
    )
    k3 = rhs(
        metric,
        chart,
        t + 0.5 * h * k2[0],
        th + 0.5 * h * k2[1],
        vt + 0.5 * h * k2[2],
        vth + 0.5 * h * k2[3],
    )
    k4 = rhs(metric, chart, t + h * k3[0], th + h * k3[1], vt + h * k3[2], vth + h * k3[3])
    c = h / 6.0
    return (
        t + c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        th + c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        vt + c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        vth + c * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def _start(metric, init: GeodesicState, ds: float, s_max: float):
    """Checked start of a run: (chart, t, theta, vt, vtheta, s, s_end).

    The step must be positive, the span positive and finite, and the state
    on chart 1 or 2, inside the disk (0 <= t < 1), with |theta| < ANGLE_BOUND,
    finite s and unit speed to 1e-9.  A state with |vtheta| < RADIAL_TOL is
    snapped to exactly radial.
    """
    if not ds > 0.0:
        raise ValueError(f"ds must be positive, got {ds!r}")
    if not 0.0 < s_max < math.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max!r}")
    check_chart(init.chart)
    if not 0.0 <= init.t < 1.0:
        raise ValueError(f"initial radius must satisfy 0 <= t < 1, got {init.t!r}")
    if not (abs(init.theta) < ANGLE_BOUND and math.isfinite(init.s)):
        raise ValueError(f"initial state needs |theta| < {ANGLE_BOUND:.0f} and finite s, got {init}")
    err = speed_error(metric, init)
    if not err <= 1e-9:
        raise ValueError(f"initial state violates unit speed by {err:.3e}")
    vt, vth = init.vt, init.vtheta
    if abs(vth) < RADIAL_TOL:
        vth = 0.0
        vt = math.copysign(1.0, vt) if vt != 0.0 else 1.0
    return init.chart, init.t, init.theta, vt, vth, init.s, init.s + s_max


def _cross_rim(metric, chart, th, vt, vth):
    """Chart transition at t = 1.

    Angles map through the rim identification; the radial velocity flips
    because the two chart radii point in opposite directions across the seam
    (collar coordinate u = 2 - t); the angular velocity follows the chain
    rule dtheta2 = F'(theta1) dtheta1, which is exactly what keeps the speed
    unchanged under the plateau compatibility rule.
    """
    f = metric.f
    if chart == 1:
        th1 = normalize(th)
        th2 = f(th1)
        return (2, th2, -vt, vth * f.derivative(th1)), (th1, th2)
    th2 = normalize(th)
    th1 = f.inverse(th2)
    return (1, th1, -vt, vth / f.derivative(th1)), (th1, th2)


def _event(metric, chart, t, th, vt, vth, h, nt, s):
    """Resolve a step from (t, ...) at arclength s whose end radius nt left
    [T_GUARD, 1).

    Returns ((chart, t, theta, vt, vtheta, s), event) after a rim crossing
    or an exact radial center passage, and None when the step is an ordinary
    one (a radial state inside the guard band).  A non-radial state entering
    the guard band raises CenterSingularity, which signals an under-resolved
    close approach.

    The rim is reached after hs = (1 - t) / vt, and the crossing state is
    one RK4 step of that length.  This is exact for radial states, and for
    non-radial ones when the step starts on the plateau t >= t1, where
    phi_t = 0 keeps vt constant and t linear; a non-radial step that starts
    below t1 and ends past the rim raises ValueError.
    """
    if nt >= 1.0:
        if vth != 0.0 and t < metric.t1:
            raise ValueError(
                f"a step of ds={h!r} carried a non-radial state from t={t!r} past the rim "
                f"without landing on the plateau t1={metric.t1!r}; take ds below 1 - t1"
            )
        hs = (1.0 - t) / vt
        _t_at, th, vt, vth = _rk4(_rhs, metric, chart, t, th, vt, vth, hs)
        s += hs
        (chart_to, th, vt, vth), (th1, th2) = _cross_rim(metric, chart, th, vt, vth)
        return (chart_to, 1.0, th, vt, vth, s), RimCrossing(s, chart, th1, th2)
    if vth == 0.0 and nt <= 0.0:
        s += t / -vt
        theta_in = normalize(th)
        th = antipode(th)
        return (chart, 0.0, th, -vt, vth, s), CenterEvent(s, chart, theta_in, th)
    if vth != 0.0 and nt < T_GUARD:
        raise CenterSingularity(
            f"non-radial state reached t={nt:.3e} < guard {T_GUARD:g} at s={s + h:.6f}; "
            "reduce ds or start farther from the center"
        )
    return None


def integrate(
    metric: GluedMetric,
    init: GeodesicState,
    ds: float = DEFAULT_DS,
    s_max: float = DEFAULT_S_MAX,
) -> Trajectory:
    """Integrate a unit-speed geodesic with chart-transition events.

    The initial state must lie inside its disk (0 <= t < 1) and satisfy unit
    speed to 1e-9.  States with |vtheta| < RADIAL_TOL are snapped to exactly
    radial at entry; only radial states may pass through a center (angle
    jumps to the antipode, radial velocity flips).  A non-radial state
    entering t < T_GUARD raises CenterSingularity, which signals an
    under-resolved close approach; one whose step jumps the whole plateau
    [t1, 1] into the rim (ds > 1 - t1) raises ValueError.
    """
    chart, t, th, vt, vth, s, s_end = _start(metric, init, ds, s_max)
    traj = Trajectory(states=[GeodesicState(chart, t, th, vt, vth, s)])
    n_events = 0
    while s < s_end - 1e-15:
        h = min(ds, s_end - s)
        nt, nth, nvt, nvth = _rk4(_rhs, metric, chart, t, th, vt, vth, h)
        if not T_GUARD <= nt < 1.0:
            hit = _event(metric, chart, t, th, vt, vth, h, nt, s)
            if hit is not None:
                (chart, t, th, vt, vth, s), event = hit
                if isinstance(event, RimCrossing):
                    traj.crossings.append(event)
                else:
                    traj.center_passages.append(event)
                traj.states.append(GeodesicState(chart, t, th, vt, vth, s))
                n_events += 1
                if n_events > _MAX_EVENTS:
                    raise EventBisectionFailure("event budget exhausted")
                continue
        t, th, vt, vth = nt, nth, nvt, nvth
        s += h
        traj.states.append(GeodesicState(chart, t, th, vt, vth, s))
    return traj


@dataclass
class EnsembleResult:
    """Final states and per-member monitors of a non-radial ensemble run."""

    final_states: list[GeodesicState]
    sign_flips: np.ndarray  # per-trajectory count of vtheta sign changes
    min_abs_vtheta: np.ndarray  # over the whole trajectory
    crossings: np.ndarray  # rim crossings per trajectory
    # always zero, since non-radial geodesics never pass a center; kept because
    # perfbench/tracer.py sums it per call, as it does Trajectory.center_passages
    center_passages: np.ndarray


def integrate_ensemble(
    metric: GluedMetric,
    inits: list[GeodesicState],
    ds: float = DEFAULT_DS,
    s_max: float = DEFAULT_S_MAX,
) -> EnsembleResult:
    """Integrate many independent non-radial geodesics in lockstep.

    The same start rule, RK4 step and event step as `integrate`, with the
    step taken on arrays; trajectories desynchronize in s only at rim
    crossings (an element that crosses resumes from the crossing arclength).
    Members that are radial after the start rule raise ValueError; integrate
    those with `integrate`.  Full paths are not stored; per-trajectory
    monitors are accumulated online.
    """
    n = len(inits)
    starts = [_start(metric, st, ds, s_max) for st in inits]
    for i, start in enumerate(starts):
        if start[4] == 0.0:
            raise ValueError(f"ensemble member {i} is radial; integrate it with integrate()")
    chart, t, th, vt, vth, s, s_end = np.array(starts, dtype=float).reshape(n, 7).T.copy()
    chart = chart.astype(np.int8)

    sign0 = np.sign(vth)
    flips = np.zeros(n, dtype=int)
    min_abs = np.abs(vth)
    crossings = np.zeros(n, dtype=int)

    active = s < s_end - 1e-15
    while np.any(active):
        h = np.where(active, np.minimum(ds, s_end - s), 0.0)
        nt, nth, nvt, nvth = _rk4(_rhs_vec, metric, chart, t, th, vt, vth, h)
        flagged = active & ~((T_GUARD <= nt) & (nt < 1.0))
        ok = active & ~flagged
        for i in np.flatnonzero(flagged):
            (chart[i], t[i], th[i], vt[i], vth[i], s[i]), _ = _event(
                metric, int(chart[i]), t[i], th[i], vt[i], vth[i], h[i], nt[i], s[i]
            )
            crossings[i] += 1
        t[ok], th[ok], vt[ok], vth[ok] = nt[ok], nth[ok], nvt[ok], nvth[ok]
        s[ok] += h[ok]

        flips += (active & (np.sign(vth) != sign0)).astype(int)
        np.minimum(min_abs, np.abs(vth), out=min_abs)

        active = s < s_end - 1e-15

    finals = [
        GeodesicState(int(chart[i]), float(t[i]), float(th[i]), float(vt[i]), float(vth[i]), float(s[i]))
        for i in range(n)
    ]
    return EnsembleResult(
        final_states=finals,
        sign_flips=flips,
        min_abs_vtheta=min_abs,
        crossings=crossings,
        center_passages=np.zeros(n, dtype=int),
    )


# ----------------------------------------------------------------------------
# exact piecewise-radial tracer


@dataclass(frozen=True)
class Leg:
    index: int
    chart: int
    kind: str  # "radius" | "diameter"
    entry: float | None  # boundary angle where the leg starts (None: center start)
    exit: float  # boundary angle where the leg ends
    length: int  # 1 for the radius leg, 2 for a diameter


@dataclass(frozen=True)
class TraceCrossing:
    index: int
    theta1: float  # chart-1 boundary angle
    theta2: float  # its image on the chart-2 boundary


@dataclass(frozen=True)
class TracePassage:
    chart: int
    leg_index: int
    direction: float  # angle of motion at the center (exit ray)

    @property
    def line(self) -> float:
        return self.direction % math.pi


@dataclass
class SectionTrace:
    """Exact itinerary of a section started radially at a chart-1 center."""

    start: float
    legs: list[Leg]
    crossings: list[TraceCrossing]
    center_passages: list[TracePassage]
    orbit: list[float]  # start, T(start), T^2(start), ...
    max_legs: int
    k_max: int
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "max_legs": self.max_legs,
            "k_max": self.k_max,
            "tol": self.tol,
            "legs": [asdict(leg) for leg in self.legs],
            "crossings": [asdict(c) for c in self.crossings],
            "center_passages": [{**asdict(p), "line": p.line} for p in self.center_passages],
            "orbit": list(self.orbit),
        }


def trace_section(
    f: CircleDiffeo,
    theta0: float,
    max_legs: int = 102,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> SectionTrace:
    """Walk the exact itinerary of the section leaving the chart-1 center
    toward boundary angle theta0.

    Legs are the radius out of the start center followed by alternating full
    diameters; the recorded orbit is exactly theta0, T(theta0), ... with T
    the round-trip transition map, extended to k_max iterations even when
    the leg budget stops earlier (so closure beyond the traced legs is still
    detectable and reported as a horizon problem).
    """
    if max_legs < 2:
        raise ValueError("max_legs must be >= 2")
    if not abs(theta0) < ANGLE_BOUND:
        raise ValueError(f"theta0 must satisfy |theta0| < {ANGLE_BOUND:.0f}, got {theta0!r}")
    theta0 = normalize(theta0)
    T = TransitionMap(f)
    legs: list[Leg] = [Leg(0, 1, "radius", None, theta0, 1)]
    crossings: list[TraceCrossing] = []
    passages: list[TracePassage] = []
    orbit = [theta0]
    x = theta0
    closed = False
    while len(legs) < max_legs and not closed:
        # outward at chart-1 boundary angle x: cross and run the chart-2 diameter
        y = f(x)
        crossings.append(TraceCrossing(len(crossings), x, y))
        exit2 = antipode(y)
        legs.append(Leg(len(legs), 2, "diameter", y, exit2, 2))
        passages.append(TracePassage(2, legs[-1].index, exit2))
        if len(legs) >= max_legs:
            break
        # outward at chart-2 boundary angle exit2: cross back and run chart 1
        w = f.inverse(exit2)
        crossings.append(TraceCrossing(len(crossings), w, exit2))
        x_next = antipode(w)
        legs.append(Leg(len(legs), 1, "diameter", w, x_next, 2))
        passages.append(TracePassage(1, legs[-1].index, x_next))
        orbit.append(x_next)
        x = x_next
        if circle_distance(x, theta0) < tol:
            closed = True
    if not closed:
        # extend the orbit bookkeeping to the full search horizon
        while len(orbit) <= k_max:
            x = T(x)
            orbit.append(x)
            if circle_distance(x, theta0) < tol:
                break
    return SectionTrace(
        start=theta0,
        legs=legs,
        crossings=crossings,
        center_passages=passages,
        orbit=orbit,
        max_legs=max_legs,
        k_max=k_max,
        tol=tol,
    )


@dataclass(frozen=True)
class InjectivityWitness:
    chart: int
    leg_a: int
    leg_b: int
    line_a: float
    line_b: float
    separation: float


@dataclass(frozen=True)
class SectionVerdict:
    closed: bool
    period: Period
    length: float  # 4k for closed sections, inf otherwise
    injective: bool
    witness: InjectivityWitness | None


def section_verdict(trace: SectionTrace, tol: float | None = None) -> SectionVerdict:
    """Closure, length and injectivity of a traced section.

    A closed period-k section consists of k diameters in each disk, and the
    radial coordinate is arclength (g_tt = 1), so its length is exactly 4k.
    Injectivity fails exactly when some center is passed along two distinct
    lines; re-traversal of the same line (period-1 closure) does not count.
    """
    if tol is None:
        tol = trace.tol
    theta0 = trace.orbit[0]
    k = None
    for m in range(1, len(trace.orbit)):
        if circle_distance(trace.orbit[m], theta0) < tol:
            k = m
            break
    traced_iterations = sum(1 for leg in trace.legs if leg.chart == 1 and leg.kind == "diameter")
    if k is not None and traced_iterations < k:
        raise HorizonTooShort(
            f"period {k} detected but only {len(trace.legs)} legs traced; "
            f"need max_legs >= {2 * k + 1}"
        )
    closed = k is not None
    period = Period.finite(k) if closed else Period.not_found(len(trace.orbit) - 1)
    length = float(4 * k) if closed else math.inf

    witness = None
    for chart in (1, 2):
        group = [p for p in trace.center_passages if p.chart == chart]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                sep = line_distance(group[i].direction, group[j].direction)
                if sep >= tol:
                    cand = InjectivityWitness(
                        chart=chart,
                        leg_a=group[i].leg_index,
                        leg_b=group[j].leg_index,
                        line_a=group[i].line,
                        line_b=group[j].line,
                        separation=sep,
                    )
                    if witness is None or cand.leg_b < witness.leg_b:
                        witness = cand
                    break
            if witness is not None:
                break
    return SectionVerdict(
        closed=closed,
        period=period,
        length=length,
        injective=witness is None,
        witness=witness,
    )


@dataclass(frozen=True)
class SectionComparison:
    theta_a: float
    theta_b: float
    period_a: int
    period_b: int
    length_a: float
    length_b: float
    non_isometric: bool


def compare_sections(
    f: CircleDiffeo,
    theta_a: float,
    theta_b: float,
    max_legs: int = 200,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> SectionComparison:
    """Compare two closed sections by period and length.

    Distinct periods certify non-isometric sections: closed geodesics of
    lengths 4k_a and 4k_b are isometric only when the lengths agree.  Raises
    NotClosed when either trace fails to close within its horizon.
    """
    verdicts = []
    for theta in (theta_a, theta_b):
        trace = trace_section(f, theta, max_legs=max_legs, k_max=k_max, tol=tol)
        v = section_verdict(trace, tol)
        if not v.closed:
            raise NotClosed(f"section at theta={theta!r} did not close within {k_max} returns")
        verdicts.append(v)
    va, vb = verdicts
    return SectionComparison(
        theta_a=normalize(theta_a),
        theta_b=normalize(theta_b),
        period_a=va.period.k,
        period_b=vb.period.k,
        length_a=va.length,
        length_b=vb.length,
        non_isometric=va.period.k != vb.period.k,
    )
