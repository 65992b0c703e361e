"""Tests for the exact tracer and the numerical geodesic integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sectionlab import (
    TWO_PI,
    CenterSingularity,
    GeodesicState,
    GluedMetric,
    HorizonTooShort,
    IdentityDiffeo,
    NotClosed,
    Period,
    RotationDiffeo,
    TransitionMap,
    circle_distance,
    compare_sections,
    integrate,
    integrate_ensemble,
    line_distance,
    section_verdict,
    semicircle_bump,
    speed_error,
    trace_section,
    unit_speed_state,
)

from sectionlab.geodesics import ANGLE_BOUND
from oracles import flat_polar_geodesic
from test_circle import all_families

RNG = np.random.default_rng(4242)


def default_metric():
    return GluedMetric(semicircle_bump(0.3))


# --- integrator: Euclidean zone ------------------------------------------------


def test_radial_straight_line_in_flat_zone():
    m = default_metric()
    traj = integrate(m, GeodesicState(1, 0.1, 1.0, 1.0, 0.0), ds=1e-3, s_max=0.1)
    final = traj.final
    assert final.t == pytest.approx(0.2, abs=1e-12)
    assert final.theta == 1.0
    assert final.vtheta == 0.0


def test_flat_zone_matches_straight_line_oracle():
    m = default_metric()
    t0, theta0, chi = 0.1, 2.0, math.radians(80.0)
    init = unit_speed_state(m, 1, t0, theta0, chi)
    traj = integrate(m, init, ds=1e-3, s_max=0.2)
    worst = 0.0
    for st in traj.states:
        t_ref, th_ref, vt_ref, vth_ref = flat_polar_geodesic(
            t0, theta0, init.vt, init.vtheta, st.s
        )
        assert st.t < 0.25  # stays inside the exactly Euclidean zone
        worst = max(
            worst,
            abs(st.t - t_ref),
            circle_distance(st.theta, th_ref),
            abs(st.vt - vt_ref),
            abs(st.vtheta - vth_ref),
        )
    assert worst < 1e-8


def test_initial_state_must_be_unit_speed():
    m = default_metric()
    with pytest.raises(ValueError):
        integrate(m, GeodesicState(1, 0.5, 0.0, 1.0, 0.5), s_max=0.01)


# --- integrator: crossings and center passages ----------------------------------


def test_radial_center_to_center_crossing():
    # radial launch from the chart-1 center arrives at the chart-2 center at
    # s = 2 with the angle mapped through the rim identification
    f = semicircle_bump(0.3)
    m = GluedMetric(f)
    theta_star = 4.0
    traj = integrate(m, GeodesicState(1, 0.0, theta_star, 1.0, 0.0), ds=1e-3, s_max=2.5)
    assert len(traj.crossings) == 1
    cross = traj.crossings[0]
    assert cross.s == pytest.approx(1.0, abs=1e-9)
    assert circle_distance(cross.theta2, f(theta_star)) < 1e-6
    assert len(traj.center_passages) == 1
    pas = traj.center_passages[0]
    assert pas.chart == 2
    assert pas.s == pytest.approx(2.0, abs=1e-9)
    assert circle_distance(pas.theta_in, f(theta_star)) < 1e-6


def test_radial_crossing_angles_match_exact_tracer():
    f = semicircle_bump(0.3)
    m = GluedMetric(f)
    theta0 = 5.1
    traj = integrate(m, GeodesicState(1, 0.0, theta0, 1.0, 0.0), ds=1e-3, s_max=8.0)
    trace = trace_section(f, theta0, max_legs=12)
    assert len(traj.crossings) >= 3
    for num_c, exact_c in zip(traj.crossings, trace.crossings):
        assert circle_distance(num_c.theta1, exact_c.theta1) < 1e-6
        assert circle_distance(num_c.theta2, exact_c.theta2) < 1e-6


def test_radial_theta_constant_between_events():
    m = default_metric()
    traj = integrate(m, GeodesicState(1, 0.5, 2.3, 1.0, 0.0), ds=1e-3, s_max=6.0)
    assert len(traj.crossings) >= 3
    events = sorted([c.s for c in traj.crossings] + [p.s for p in traj.center_passages])
    seg_theta = traj.states[0].theta
    idx = 0
    for st in traj.states[1:]:
        while idx < len(events) and events[idx] <= st.s:
            seg_theta = st.theta
            idx += 1
        assert circle_distance(st.theta, seg_theta) < 1e-8


def test_near_radial_is_snapped():
    m = default_metric()
    st = GeodesicState(1, 0.5, 1.0, 1.0, 1e-12)
    traj = integrate(m, st, ds=1e-3, s_max=0.01)
    assert traj.states[0].vtheta == 0.0


def test_unit_speed_drift_long_run():
    m = default_metric()
    init = unit_speed_state(m, 1, 0.5, 1.0, 1.1)
    traj = integrate(m, init, ds=1e-3, s_max=20.0)
    drift = max(speed_error(m, st) for st in traj.states)
    assert drift < 1e-6
    assert len(traj.crossings) > 3


def test_nonradial_center_approach_raises():
    m = default_metric()
    phi = m.warp(1, 0.5, 0.0)
    vth = 2e-9  # above RADIAL_TOL, so no snap; the dive is under-resolved
    vt = -math.sqrt(1.0 - (phi * vth) ** 2)
    dive = GeodesicState(1, 0.5, 0.0, vt, vth)
    with pytest.raises(CenterSingularity):
        integrate(m, dive, ds=1e-3, s_max=1.0)
    with pytest.raises(CenterSingularity):
        integrate_ensemble(m, [unit_speed_state(m, 2, 0.5, 1.0, 1.1), dive], ds=1e-3, s_max=1.0)


def test_crossing_preserves_unit_speed_and_vtheta_sign():
    m = default_metric()
    init = unit_speed_state(m, 1, 0.9, 2.0, 0.7)
    traj = integrate(m, init, ds=1e-3, s_max=3.0)
    assert len(traj.crossings) >= 1
    sign0 = math.copysign(1.0, init.vtheta)
    for st in traj.states:
        assert speed_error(m, st) < 1e-7
        assert math.copysign(1.0, st.vtheta) == sign0


def test_ensemble_agrees_with_scalar():
    m = default_metric()
    inits = [
        unit_speed_state(m, 1, 0.5, 1.0, 1.1),
        unit_speed_state(m, 2, 0.7, 4.0, -0.9),
        unit_speed_state(m, 1, 0.9, 2.0, 0.7),
    ]
    res = integrate_ensemble(m, inits, ds=1e-3, s_max=5.0)
    for i, (init, fin) in enumerate(zip(inits, res.final_states)):
        traj = integrate(m, init, ds=1e-3, s_max=5.0)
        assert res.crossings[i] == len(traj.crossings)
        assert res.center_passages[i] == len(traj.center_passages)
        ref = traj.final
        assert fin.chart == ref.chart
        assert abs(fin.t - ref.t) < 1e-9
        assert circle_distance(fin.theta % TWO_PI, ref.theta % TWO_PI) < 1e-9
        assert abs(fin.vt - ref.vt) < 1e-9
        assert abs(fin.vtheta - ref.vtheta) < 1e-9
    assert res.sign_flips.sum() == 0
    assert res.crossings.min() >= 1


@pytest.mark.parametrize("vtheta", [0.0, 1e-12])
def test_ensemble_rejects_radial_member(vtheta):
    m = default_metric()
    members = [unit_speed_state(m, 1, 0.5, 1.0, 1.1), GeodesicState(1, 0.5, 2.0, 1.0, vtheta)]
    with pytest.raises(ValueError, match="member 1 is radial"):
        integrate_ensemble(m, members, s_max=0.01)


def _first_crossing_oracle(m, init):
    """First rim crossing (s, theta) of a non-radial state by scipy's DOP853."""

    def rhs(_s, y):
        t, th, vt, vth = y
        phi, phi_t, phi_th = m.warp_with_partials(init.chart, t, th)
        return [vt, vth, phi * phi_t * vth**2, -2.0 * phi_t / phi * vt * vth - phi_th / phi * vth**2]

    def rim(_s, y):
        return y[0] - 1.0

    rim.terminal = True
    rim.direction = 1.0
    y0 = [init.t, init.theta, init.vt, init.vtheta]
    sol = solve_ivp(rhs, (0.0, 10.0), y0, method="DOP853", rtol=1e-12, atol=1e-12, events=rim)
    (s_hit,) = sol.t_events[0]
    return s_hit, sol.y_events[0][0][1]


@pytest.mark.parametrize(
    "chart, t, theta, direction",
    [(1, 0.5, 1.0, 1.1), (2, 0.7, 4.0, -0.9), (1, 0.9, 2.0, 0.7), (2, 0.3, 5.5, 0.4)],
)
def test_nonradial_crossing_matches_solve_ivp(chart, t, theta, direction):
    m = default_metric()
    init = unit_speed_state(m, chart, t, theta, direction)
    s_ref, theta_ref = _first_crossing_oracle(m, init)
    traj = integrate(m, init, ds=1e-3, s_max=s_ref + 0.01)
    cross = traj.crossings[0]
    assert cross.chart_from == chart
    assert abs(cross.s - s_ref) < 1e-9
    assert circle_distance(cross.theta1 if chart == 1 else cross.theta2, theta_ref) < 1e-9


def test_step_past_the_plateau_rejected():
    # t1 = 0.99 and ds = 0.05: an outward non-radial step from t = 0.97 jumps
    # over the whole plateau, so its crossing has no closed form
    m = GluedMetric(semicircle_bump(0.3), t1=0.99)
    init = unit_speed_state(m, 1, 0.97, 2.0, 0.3)
    with pytest.raises(ValueError, match="t1=0.99"):
        integrate(m, init, ds=0.05, s_max=0.2)
    with pytest.raises(ValueError, match="t1=0.99"):
        integrate_ensemble(m, [init], ds=0.05, s_max=0.2)
    traj = integrate(m, GeodesicState(1, 0.97, 2.0, 1.0, 0.0), ds=0.05, s_max=0.2)
    assert traj.crossings[0].s == (1.0 - 0.97) / 1.0


@pytest.mark.parametrize(
    "t, theta, direction", [(1.5, 0.0, 0.0), (1.5, 4.0, 0.7), (1.0, 4.0, math.pi / 2)]
)
def test_start_at_or_beyond_rim_rejected(t, theta, direction):
    m = default_metric()
    init = unit_speed_state(m, 1, t, theta, direction)
    with pytest.raises(ValueError, match="0 <= t < 1"):
        integrate(m, init, s_max=1.0)
    if init.vtheta != 0.0:
        with pytest.raises(ValueError, match="0 <= t < 1"):
            integrate_ensemble(m, [init], s_max=1.0)


def test_angle_bound():
    m = default_metric()
    nonradial = unit_speed_state(m, 1, 0.2, 4.0, 1.1)  # flat zone: speed independent of theta
    cases = ((ANGLE_BOUND, False), (-ANGLE_BOUND, False), (ANGLE_BOUND - 1.0, True), (-3.0, True))
    for theta, ok in cases:
        calls = (
            lambda: trace_section(m.f, theta, max_legs=4),
            lambda: integrate(m, GeodesicState(1, 0.5, theta, 1.0, 0.0), s_max=0.01),
            lambda: integrate_ensemble(m, [replace(nonradial, theta=theta)], s_max=0.01),
        )
        for call in calls:
            if ok:
                call()
            else:
                with pytest.raises(ValueError, match="theta"):
                    call()
    assert ANGLE_BOUND == 2**20


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_non_finite_angles_rejected(f):
    m = GluedMetric(f)
    with pytest.raises(ValueError):
        trace_section(f, math.nan)
    for chart, t in ((1, 0.1), (1, 0.5), (2, 0.9)):
        nan_state = GeodesicState(chart, t, math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(m, nan_state, s_max=0.01)
        with pytest.raises(ValueError):
            integrate_ensemble(m, [nan_state], s_max=0.01)
    with pytest.raises(ValueError):
        GluedMetric(f, psi2=math.nan)
    with pytest.raises(ValueError):
        GluedMetric(f, psi1_scale=math.nan)


@pytest.mark.parametrize("span", [{"ds": math.nan}, {"ds": 0.0}, {"s_max": math.inf}, {"s_max": math.nan}])
def test_bad_step_or_span_rejected(span):
    m = default_metric()
    init = GeodesicState(1, 0.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(m, init, **span)
    with pytest.raises(ValueError):
        integrate_ensemble(m, [init], **span)


@pytest.mark.parametrize("chart", [0, 3, -1])
def test_bad_chart_rejected(chart):
    m = default_metric()
    # flat zone and plateau: the warp itself never reads the chart at t <= t0
    for t in (0.1, 0.9):
        for call in (
            lambda: m.warp(chart, t, 4.0),
            lambda: m.warp(chart, np.array([t]), np.array([4.0])),
            lambda: m.christoffel(chart, t, 4.0),
            lambda: integrate(m, GeodesicState(chart, t, 4.0, 1.0, 0.0), s_max=0.01),
            lambda: integrate_ensemble(m, [GeodesicState(chart, t, 4.0, 1.0, 0.0)], s_max=0.01),
        ):
            with pytest.raises(ValueError, match="chart must be 1 or 2"):
                call()


# --- exact tracer ----------------------------------------------------------------


def test_trace_identity_round_trip():
    trace = trace_section(IdentityDiffeo(), 0.0, max_legs=10)
    assert [leg.kind for leg in trace.legs] == ["radius", "diameter", "diameter"]
    assert [leg.chart for leg in trace.legs] == [1, 2, 1]
    assert trace.orbit == [0.0, 0.0]
    assert trace.crossings[0].theta1 == 0.0 and trace.crossings[0].theta2 == 0.0
    v = section_verdict(trace)
    assert v.closed and v.period == Period.finite(1)
    assert v.length == 4.0
    assert v.injective and v.witness is None


def test_trace_rotation_closes_with_shifted_crossing():
    alpha = 1.0
    theta0 = 2.0
    trace = trace_section(RotationDiffeo(alpha), theta0, max_legs=10)
    v = section_verdict(trace)
    assert v.closed and v.period.k == 1 and v.length == 4.0
    c = trace.crossings[0]
    assert c.theta1 == pytest.approx(theta0, abs=1e-12)
    assert circle_distance(c.theta2, theta0 + alpha) < 1e-12


def test_trace_orbit_matches_transition_iterates():
    f = semicircle_bump(0.3)
    T = TransitionMap(f)
    trace = trace_section(f, 1.5 * math.pi, max_legs=30)
    x = 1.5 * math.pi
    for entry in trace.orbit[1:]:
        x = T(x)
        assert circle_distance(entry, x) < 1e-12


def test_trace_legs_alternate_charts():
    f = semicircle_bump(0.3)
    trace = trace_section(f, 4.2, max_legs=21)
    charts = [leg.chart for leg in trace.legs]
    assert charts[0] == 1
    for a, b in zip(charts[1:], charts[2:]):
        assert a != b
    assert all(leg.length == 2 for leg in trace.legs[1:])
    assert trace.legs[0].length == 1


def test_trace_center_passage_counts_102_legs():
    # each round trip contributes one passage through each center
    f = semicircle_bump(0.3)
    trace = trace_section(f, 1.5 * math.pi, max_legs=102)
    assert len(trace.legs) == 102
    n2 = sum(1 for p in trace.center_passages if p.chart == 2)
    n1 = sum(1 for p in trace.center_passages if p.chart == 1)
    assert n2 == 51 and n1 == 50


def test_verdict_none_start_non_injective_with_witness():
    f = semicircle_bump(0.3)
    trace = trace_section(f, 1.5 * math.pi, max_legs=102)
    v = section_verdict(trace)
    assert not v.closed
    assert v.period == Period.not_found(64)
    assert v.length == math.inf
    assert not v.injective
    w = v.witness
    assert w is not None and w.separation >= trace.tol
    assert w.chart in (1, 2) and w.leg_a < w.leg_b


def test_verdict_lines_pairwise_distinct_for_none_start():
    f = semicircle_bump(0.3)
    trace = trace_section(f, 1.5 * math.pi, max_legs=102)
    for chart in (1, 2):
        lines = [p.direction for p in trace.center_passages if p.chart == chart]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                assert line_distance(lines[i], lines[j]) > 1e-9


def test_verdict_horizon_too_short():
    f = semicircle_bump(0.3)
    trace = trace_section(f, 0.0, max_legs=2)
    with pytest.raises(HorizonTooShort):
        section_verdict(trace)


def test_trace_rejects_tiny_leg_budget():
    with pytest.raises(ValueError):
        trace_section(IdentityDiffeo(), 0.0, max_legs=1)


def test_numeric_closed_loop_length():
    # the period-1 section at theta = 0 closes with length 4; the numerical
    # center-passage times land on the exact multiples
    m = default_metric()
    traj = integrate(m, GeodesicState(1, 0.0, 0.0, 1.0, 0.0), ds=1e-3, s_max=4.5)
    chart1_passages = [p for p in traj.center_passages if p.chart == 1]
    assert len(chart1_passages) == 1
    assert abs(chart1_passages[0].s - 4.0) < 1e-5
    assert circle_distance(chart1_passages[0].direction, 0.0) < 1e-6


# --- comparisons -------------------------------------------------------------------


def test_compare_sections_identity_pair_equal():
    cmp = compare_sections(IdentityDiffeo(), 0.3, 2.6)
    assert cmp.period_a == cmp.period_b == 1
    assert cmp.length_a == cmp.length_b == 4.0
    assert not cmp.non_isometric


def test_compare_sections_rotation_equal():
    cmp = compare_sections(RotationDiffeo(math.pi / 3), 0.0, 1.0)
    assert not cmp.non_isometric
    assert cmp.length_a == 4.0


def test_compare_sections_bump_period_one_points():
    cmp = compare_sections(semicircle_bump(0.3), 0.0, math.pi)
    assert cmp.period_a == cmp.period_b == 1
    assert not cmp.non_isometric


def test_compare_sections_not_closed_raises():
    with pytest.raises(NotClosed):
        compare_sections(semicircle_bump(0.3), 0.0, 1.5 * math.pi)
