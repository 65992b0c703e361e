"""Tests for the exact tracer and the numerical geodesic integrator."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sectionlab import (
    TWO_PI,
    GeodesicState,
    GluedMetric,
    IdentityDiffeo,
    NotClosed,
    Period,
    RotationDiffeo,
    SplineDiffeo,
    TransitionMap,
    antipode,
    circle_distance,
    compare_sections,
    geodesics,
    integrate,
    integrate_ensemble,
    line_distance,
    loads_config,
    normalize,
    period_of,
    section_verdict,
    semicircle_bump,
    speed_error,
    trace_section,
    unit_speed_state,
)

from sectionlab.circle import periodic_spline
from sectionlab.geodesics import (
    ANGLE_BOUND,
    DS_MIN,
    GRAZING,
    TANGENT,
    _bad_step,
    _dop853,
    _exact_move,
    _gauss_legendre,
    _transit,
)
from sectionlab.verify import _sample_nonradial_states, drift_bound
from oracles import flat_polar_geodesic, revolution_transit, witness_oracle
from strategies import drawn_maps, edge_starts, spline_tables
from test_circle import all_families
from test_cli import PSI2_CFG

RNG = np.random.default_rng(4242)


def default_metric():
    return GluedMetric(semicircle_bump(0.3))


def psi2_table_metric():
    psi2 = periodic_spline(np.arange(6.0), [1.0, 1.15, 1.1, 0.95, 0.85, 0.9])
    return GluedMetric(semicircle_bump(0.3), psi2=psi2)


def tampered_metric():
    return GluedMetric(semicircle_bump(0.3), psi1_scale=1.01)


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


def test_numpy_scalars_run_as_python_floats():
    # the start hands the walk an int and Python floats, so a span, ds or
    # state of numpy scalars writes no np.float64(...) into the records and
    # runs the float step at Python-float speed
    m = default_metric()
    init = unit_speed_state(m, 2, 0.7, 4.0, -0.9)
    text = integrate(m, init, s_max=np.float64(1.0)).to_records_text()
    assert "np.float64(" not in text
    numpy_init = GeodesicState(np.int64(2), *map(np.float64, (init.t, init.theta, init.vt, init.vtheta)))
    traj = integrate(m, numpy_init, ds=np.float64(1e-3), s_max=np.float64(1.0))
    assert traj.to_records_text() == text
    assert all(type(x) is float for st in traj.states for x in (st.t, st.theta, st.vt, st.vtheta, st.s))
    assert all(type(st.chart) is int for st in traj.states)


# --- integrator: the DOP853 stepper -----------------------------------------


def test_dop853_step_agrees_with_the_exponential_to_ninth_order(monkeypatch):
    # on y' = lambda y one step multiplies every component by the stability
    # polynomial R(z) of z = lambda h, which matches e^z through z^8: halving z
    # divides R(z) - e^z by about 2^9
    y0 = (1.0, -2.0, 0.5, 3.0)
    for z0 in (0.4, -0.4):
        gaps = []
        for z in (z0, z0 / 2):
            monkeypatch.setattr(geodesics, "_rhs", lambda _w, _c, *y, z=z: tuple(z * x for x in y))
            step = _dop853(None, 1, *y0, 1.0)
            assert all(type(x) is float for x in step)  # floats stay Python floats
            ratio = step[0] / y0[0]
            for got, y in zip(step[1:4], y0[1:]):
                assert abs(got - ratio * y) <= 4.0 * np.finfo(float).eps * abs(ratio * y)
            gaps.append(abs(ratio - math.exp(z)))
        assert 8.5 < math.log2(gaps[0] / gaps[1]) < 9.5


def test_dop853_local_error_orders(monkeypatch):
    # a nonlinear system with an entire solution, so the error is in its
    # asymptotic range above round-off (y' = y^2 has its pole at distance 1,
    # where the h^10 term of the error still outweighs the h^9 one):
    # a' = b, b' = -a, c' = a b, d' = c a from (1, 0, 0, 0).  The eighth-order
    # step errs by O(h^9) and the combined estimate scales as h^8
    monkeypatch.setattr(geodesics, "_rhs", lambda _w, _c, a, b, c, d: (b, -a, a * b, c * a))

    def exact(h):
        sin, cos = math.sin(h), math.cos(h)
        return cos, -sin, (cos * cos - 1.0) / 2.0, -sin / 2.0 + (sin - sin**3 / 3.0) / 2.0

    errors, estimates = [], []
    for h in (0.4, 0.2):
        *state, estimate = _dop853(None, 1, 1.0, 0.0, 0.0, 0.0, h)
        errors.append(max(abs(x - y) for x, y in zip(state, exact(h))))
        estimates.append(estimate)
    assert errors[1] > 1e3 * np.finfo(float).eps  # far above round-off
    assert 8.5 < math.log2(errors[0] / errors[1]) < 9.5
    assert 7.5 < math.log2(estimates[0] / estimates[1]) < 8.5


def spline_map_metric():
    knots = np.linspace(0.0, TWO_PI, 24, endpoint=False)
    return GluedMetric(SplineDiffeo(knots, knots + 0.3 * np.sin(knots) + 0.1 * np.sin(2.0 * knots + 1.0)))


@pytest.mark.parametrize(
    "make_metric",
    [default_metric, spline_map_metric, lambda: loads_config(PSI2_CFG).build_metric()],
    ids=["default", "spline_map", "psi2_cfg"],
)
def test_float_step_agrees_with_the_array_step(make_metric):
    # the float step is straight-line code and the array step sums its
    # stacked stages with np.dot, so they round apart: on 200 annulus states
    # of both charts, with trial steps up to half of h_max, the states agree
    # to 1e-14 of their largest component and the error estimates to 1e-15
    m = make_metric()
    rng = np.random.default_rng(25)
    n = 200
    _, h_max, _ = geodesics._annulus_control(m, 1e-3)
    charts = rng.integers(1, 3, n)
    states = [
        unit_speed_state(m, int(chart), t, theta, direction)
        for chart, t, theta, direction in zip(
            charts,
            rng.uniform(m.t0, m.t1, n).tolist(),
            rng.uniform(0.0, TWO_PI, n).tolist(),
            rng.uniform(-math.pi, math.pi, n).tolist(),
        )
    ]
    steps = rng.uniform(1e-3, h_max / 2.0, n)
    columns = np.array([(st.t, st.theta, st.vt, st.vtheta) for st in states]).T
    *arrays, estimates = _dop853(m.warp_with_partials_vec, charts, *columns, steps)
    for i, (st, h) in enumerate(zip(states, steps.tolist())):
        *state, estimate = _dop853(m.warp_with_partials, st.chart, st.t, st.theta, st.vt, st.vtheta, h)
        reference = [x[i] for x in arrays]
        scale = max(map(abs, reference))
        assert max(abs(x - y) for x, y in zip(state, reference)) <= 1e-14 * scale
        assert abs(estimate - estimates[i]) <= 1e-15


def test_adaptive_annulus_steps_are_few():
    # fixed RK4 steps of ds = 1e-3 recorded 11609 states on this run,
    # Dormand-Prince 5(4) steps 2055, DOP853 steps 714, DOP853 steps with
    # exact chart-2 transits 367, and with PI control, ANNULUS_TOL = 1.5e-12
    # and chart-1 transits 273
    m = default_metric()
    traj = integrate(m, unit_speed_state(m, 1, 0.5, 1.0, 1.1), ds=1e-3, s_max=20.0)
    assert traj.final.s == 20.0 and len(traj.crossings) == 12
    assert len(traj.states) < 300


def test_ensemble_takes_few_lockstep_rounds():
    # every lockstep round makes one _dop853 call on arrays; the 100 seed-0
    # verify states took 1444 DOP853 rounds, 834 with exact chart-2
    # transits, 506 with PI control, ANNULUS_TOL = 1.5e-12, chart-1 transits
    # and the scalar finish of the last LOCKSTEP_MIN members, 463 once each
    # member's walk took its exact moves between its trial steps, so a move
    # costs no round, and take 383 with LOCKSTEP_MIN = 28, not 16
    m = default_metric()
    inits = _sample_nonradial_states(m, 100, np.random.default_rng(0))
    rounds = 0

    def counted(warp, chart, *args):
        nonlocal rounds
        rounds += isinstance(chart, np.ndarray)
        return _dop853(warp, chart, *args)

    with mock.patch.object(geodesics, "_dop853", counted):
        res = integrate_ensemble(m, inits, ds=1e-3, s_max=20.0)
    assert res.sign_flips.sum() == 0
    assert rounds < 400


def test_small_ensemble_is_the_scalar_driver():
    # at most LOCKSTEP_MIN members run on integrate's walk from the start,
    # so each member's final state, crossings and sign flips are
    # integrate's, bit for bit
    m = default_metric()
    inits = _sample_nonradial_states(m, 8, np.random.default_rng(5))
    assert len(inits) <= geodesics.LOCKSTEP_MIN
    res = integrate_ensemble(m, inits, ds=1e-3, s_max=20.0)
    for i, init in enumerate(inits):
        traj = integrate(m, init, ds=1e-3, s_max=20.0)
        signs = np.sign([st.vtheta for st in traj.states])
        assert res.final_states[i] == traj.final
        assert res.crossings[i] == len(traj.crossings)
        assert res.sign_flips[i] == np.count_nonzero(signs[1:] != signs[:-1]) == 0
        assert res.min_abs_vtheta[i] == min(abs(st.vtheta) for st in traj.states)


def test_radial_run_is_exact_segments():
    # radial lines are straight: outward to the rim in one plateau segment,
    # inward to t1, one chord through the center to t0 on the far side, and
    # outward again to the end of the run
    m = default_metric()
    traj = integrate(m, GeodesicState(1, 0.5, 2.0, 1.0, 0.0), ds=1e-3, s_max=2.0)
    expected = [(1, 0.5, 0.0), (2, 1.0, 0.5), (2, m.t1, 0.75), (2, m.t0, 1.75), (2, 0.5, 2.0)]
    assert [(st.chart, st.t, st.s) for st in traj.states] == expected
    (passage,) = traj.center_passages
    assert passage.s == 1.5 and traj.final.theta == passage.direction
    # a 20-unit radial run from the center records 3 states per diameter
    traj = integrate(m, GeodesicState(1, 0.0, 0.5, 1.0, 0.0), ds=1e-3, s_max=20.0)
    assert len(traj.states) == 32 and len(traj.center_passages) == 10


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


def _assert_chord_matches_plane(start, end):
    """`end` is `start` carried along a straight line of the plane, to 1e-12."""
    t, theta, vt, vtheta = flat_polar_geodesic(
        start.t, start.theta, start.vt, start.vtheta, end.s - start.s
    )
    assert end.chart == start.chart
    assert abs(end.t - t) < 1e-12
    assert circle_distance(end.theta, theta) < 1e-12
    assert abs(end.vt - vt) < 1e-12
    assert abs(end.vtheta - vtheta) < 1e-12


def test_nonradial_dive_is_one_chord():
    # vtheta = 2e-9 lies above RADIAL_TOL, so the dive stays non-radial: it
    # enters the flat disk, passes 1e-9 from the center in one chord and
    # leaves at exactly t0 on the far side
    m = default_metric()
    phi = m.warp(1, 0.5, 0.0)
    vth = 2e-9
    dive = GeodesicState(1, 0.5, 0.0, -math.sqrt(1.0 - (phi * vth) ** 2), vth)
    traj = integrate(m, dive, ds=1e-3, s_max=1.0)
    k = next(i for i, st in enumerate(traj.states) if st.t < m.t0)
    entry, exit_ = traj.states[k], traj.states[k + 1]
    assert exit_.t == m.t0 and exit_.vt > 0.0
    _assert_chord_matches_plane(entry, exit_)
    assert circle_distance(exit_.theta, math.pi) < 1e-6
    assert not traj.center_passages
    assert all(st.t >= m.t0 for st in traj.states[k + 1 :])
    res = integrate_ensemble(m, [unit_speed_state(m, 2, 0.5, 1.0, 1.1), dive], ds=1e-3, s_max=1.0)
    fin, ref = res.final_states[1], traj.final
    assert fin.chart == ref.chart and res.crossings[1] == len(traj.crossings)
    assert abs(fin.t - ref.t) < 1e-9 and circle_distance(fin.theta, ref.theta) < 1e-9
    assert res.sign_flips.sum() == 0


def test_chord_cut_off_by_span():
    m = default_metric()
    init = unit_speed_state(m, 1, 0.1, 2.0, math.radians(80.0))
    traj = integrate(m, init, ds=1e-3, s_max=0.05)
    assert len(traj.states) == 2 and traj.final.s == 0.05
    assert traj.final.t < m.t0
    _assert_chord_matches_plane(traj.states[0], traj.final)
    # angular momentum t^2 vtheta is kept exactly up to rounding
    assert traj.final.t**2 * traj.final.vtheta == pytest.approx(0.1**2 * init.vtheta, rel=1e-14)


def test_radial_chord_through_the_center():
    m = default_metric()
    init = GeodesicState(1, 0.2, 1.0, -1.0, 0.0)
    traj = integrate(m, init, ds=1e-3, s_max=1.0)
    (passage,) = traj.center_passages
    assert passage.s == 0.2 and passage.chart == 1
    assert passage.theta_in == 1.0 and passage.direction == antipode(1.0)
    exit_ = traj.states[1]
    assert exit_.t == m.t0 and exit_.theta == antipode(1.0)
    assert exit_.vt == 1.0 and exit_.vtheta == 0.0
    assert exit_.s == pytest.approx(0.45, abs=1e-15)
    _assert_chord_matches_plane(init, exit_)


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
    # more than LOCKSTEP_MIN members, so the lockstep rounds on the array
    # kernel run before the scalar kernel takes over
    m = default_metric()
    inits = [
        unit_speed_state(m, 1, 0.5, 1.0, 1.1),
        unit_speed_state(m, 2, 0.7, 4.0, -0.9),
        unit_speed_state(m, 1, 0.9, 2.0, 0.7),
        unit_speed_state(m, 2, 0.1, 3.0, 2.5),  # starts inside the flat disk, moving inward
    ] + _sample_nonradial_states(m, 48, np.random.default_rng(0))
    assert len(inits) > geodesics.LOCKSTEP_MIN
    res = integrate_ensemble(m, inits, ds=1e-3, s_max=5.0)
    for i, (init, fin) in enumerate(zip(inits, res.final_states)):
        traj = integrate(m, init, ds=1e-3, s_max=5.0)
        # a state inside the flat disk is followed by its chord's end, never an annulus step
        for prev, st in zip(traj.states, traj.states[1:]):
            assert prev.t >= m.t0 or st.t == m.t0 or st is traj.final
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


def test_empty_ensemble():
    res = integrate_ensemble(default_metric(), [])
    assert res.final_states == []
    for monitor, dtype in (
        (res.sign_flips, int),
        (res.min_abs_vtheta, float),
        (res.crossings, int),
        (res.center_passages, int),
    ):
        assert monitor.shape == (0,) and monitor.dtype == dtype


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


_CROSSING_STARTS = [(1, 0.5, 1.0, 1.1), (2, 0.7, 4.0, -0.9), (1, 0.9, 2.0, 0.7), (2, 0.3, 5.5, 0.4)]
_CROSSING_METRICS = {
    "": default_metric,
    "psi2_table-": psi2_table_metric,
    "psi1_scale-": tampered_metric,
}


@pytest.mark.parametrize(
    "make_metric, chart, t, theta, direction",
    [
        pytest.param(make, *start, id=prefix + "-".join(map(str, start)))
        for prefix, make in _CROSSING_METRICS.items()
        for start in _CROSSING_STARTS
    ],
)
def test_nonradial_crossing_matches_solve_ivp(make_metric, chart, t, theta, direction):
    # the plateau segment to the rim against DOP853 on the geodesic equation,
    # for a constant and a tabulated psi2 and for a seam-breaking psi1 scale
    m = make_metric()
    init = unit_speed_state(m, chart, t, theta, direction)
    s_ref, theta_ref = _first_crossing_oracle(m, init)
    traj = integrate(m, init, ds=1e-3, s_max=s_ref + 0.01)
    cross = traj.crossings[0]
    assert cross.chart_from == chart
    assert abs(cross.s - s_ref) < 1e-9
    assert circle_distance(cross.theta1 if chart == 1 else cross.theta2, theta_ref) < 1e-9


def _speed_squared(m, st):
    psi = m.psi1 if st.chart == 1 else m.psi2
    return st.vt * st.vt + (psi(st.theta) * st.vtheta) ** 2


@pytest.mark.parametrize(
    "make_metric", [default_metric, psi2_table_metric], ids=["psi2_const", "psi2_table"]
)
def test_plateau_visit_is_one_segment_each_way(make_metric):
    # from exactly t1 outward: one straight segment to the rim, the seam, and
    # one back to exactly t1 on the other chart; then annulus steps
    m = make_metric()
    init = unit_speed_state(m, 1, m.t1, 2.0, 0.7)
    traj = integrate(m, init, ds=1e-3, s_max=0.7)
    start, rim, back = traj.states[:3]
    (cross,) = traj.crossings
    assert rim.chart == 2 and rim.t == 1.0 and rim.s == cross.s == (1.0 - m.t1) / init.vt
    assert rim.vt == -init.vt and rim.theta == cross.theta2
    assert back.chart == 2 and back.t == m.t1 and back.vt == rim.vt
    assert back.s == pytest.approx(2.0 * cross.s, rel=1e-15)
    # vt^2 + (psi vtheta)^2 across each segment and the seam, to a few ulps
    for a, b in ((start, rim), (rim, back)):
        assert abs(_speed_squared(m, b) - _speed_squared(m, a)) <= 4.0 * np.finfo(float).eps
    assert back.vtheta > 0.0 and all(st.t < m.t1 for st in traj.states[3:])
    # no annulus step starts on the plateau: a plateau state is followed by the rim or t1
    for prev, st in zip(traj.states, traj.states[1:]):
        if prev.t > m.t1 or (prev.t == m.t1 and prev.vt >= 0.0):
            assert st.t in (1.0, m.t1) or st is traj.final
    res = integrate_ensemble(m, [init], ds=1e-3, s_max=0.7)
    fin, ref = res.final_states[0], traj.final
    assert res.crossings[0] == 1 and fin.chart == ref.chart == 2
    assert abs(fin.t - ref.t) < 1e-12 and circle_distance(fin.theta, ref.theta) < 1e-12


def test_plateau_radial_state_keeps_theta():
    m = psi2_table_metric()
    traj = integrate(m, GeodesicState(2, 0.8, 4.25, 1.0, 0.0), ds=1e-3, s_max=0.5)
    _, rim, back = traj.states[:3]
    assert rim.chart == 1 and rim.theta == m.f.inverse(4.25) and rim.vtheta == 0.0
    assert back.t == m.t1 and back.theta == rim.theta and back.s == pytest.approx(0.45, abs=1e-15)


def test_step_past_the_plateau_rejected():
    # t1 = 0.99 and ds = 0.05: an outward non-radial step from t = 0.97 could
    # jump over the whole plateau, so its crossing would have no closed form
    m = GluedMetric(semicircle_bump(0.3), t1=0.99)
    init = unit_speed_state(m, 1, 0.97, 2.0, 0.3)
    with pytest.raises(ValueError, match="t1=0.99"):
        integrate(m, init, ds=0.05, s_max=0.2)
    with pytest.raises(ValueError, match="t1=0.99"):
        integrate_ensemble(m, [init], ds=0.05, s_max=0.2)
    traj = integrate(m, GeodesicState(1, 0.97, 2.0, 1.0, 0.0), ds=0.05, s_max=0.2)
    assert traj.crossings[0].s == (1.0 - 0.97) / 1.0
    # t0 = 0.02 and ds = 0.05: a step could jump over the whole flat disk
    m = GluedMetric(semicircle_bump(0.3), t0=0.02)
    init = unit_speed_state(m, 1, 0.5, 2.0, 2.0)
    with pytest.raises(ValueError, match="t0=0.02"):
        integrate(m, init, ds=0.05, s_max=0.2)
    with pytest.raises(ValueError, match="t0=0.02"):
        integrate_ensemble(m, [init], ds=0.05, s_max=0.2)
    # radial runs accept any ds: a step that would enter the disk is a chord
    m = default_metric()
    traj = integrate(m, GeodesicState(1, 0.9, 2.0, -1.0, 0.0), ds=0.5, s_max=2.5)
    assert [p.s for p in traj.center_passages] == [0.9]
    assert traj.crossings[0].s == pytest.approx(1.9, abs=1e-14)
    assert all(st.t >= m.t0 for st in traj.states[1:])


def test_center_state_must_be_radial():
    # at t = 0 phi vanishes, so any vtheta passes the unit-speed check
    m = default_metric()
    with pytest.raises(ValueError, match="t=0"):
        integrate(m, GeodesicState(1, 0.0, 1.0, 1.0, 5.0))
    members = [unit_speed_state(m, 1, 0.5, 1.0, 1.1), GeodesicState(2, 0.0, 1.0, 1.0, 5.0)]
    with pytest.raises(ValueError, match="t=0"):
        integrate_ensemble(m, members)
    for direction in (0.0, 1.1, math.pi):
        with pytest.raises(ValueError, match="t=0"):
            unit_speed_state(m, 1, 0.0, 2.0, direction)
    traj = integrate(m, GeodesicState(1, 0.0, 1.0, 1.0, 1e-10), s_max=0.1)
    assert traj.states[0].vtheta == 0.0


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
    cases = (
        (ANGLE_BOUND, False),
        (-ANGLE_BOUND, False),
        (1e16, False),
        (ANGLE_BOUND - 1.0, True),
        (-3.0, True),
    )
    for x, ok in cases:
        calls = (
            ("theta", lambda: trace_section(m.f, x, max_legs=4)),
            ("theta", lambda: integrate(m, GeodesicState(1, 0.5, x, 1.0, 0.0), s_max=0.01)),
            ("theta", lambda: integrate_ensemble(m, [nonradial._replace(theta=x)], s_max=0.01)),
            # from s = 1e16 a step of 1e-3 vanishes in s + step, and the run never ends
            (r"\|s\|", lambda: integrate(m, nonradial._replace(s=x), s_max=0.01)),
            (r"\|s\|", lambda: integrate_ensemble(m, [nonradial._replace(s=x)], s_max=0.01)),
        )
        for name, call in calls:
            if ok:
                call()
            else:
                with pytest.raises(ValueError, match=name):
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
    with pytest.raises(ValueError, match="psi1_scale"):
        GluedMetric(f, psi1_scale=math.inf)


@pytest.mark.parametrize(
    "span",
    [{"ds": math.nan}, {"ds": 0.0}, {"s_max": math.inf}, {"s_max": math.nan}, {"ds": 1e-100}],
)
def test_bad_step_or_span_rejected(span):
    m = default_metric()
    init = GeodesicState(1, 0.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=next(iter(span))):
        integrate(m, init, **span)
    with pytest.raises(ValueError, match=next(iter(span))):
        integrate_ensemble(m, [init], **span)


def test_non_finite_step_raises():
    # psi1 near the float limit overflows the plateau warp; the step that
    # turns the radius into NaN must stop both drivers
    m = GluedMetric(semicircle_bump(0.3), psi1_scale=1e308)
    sampled = _sample_nonradial_states(m, 10, np.random.default_rng(0))
    states = [sampled[i] for i in (1, 4, 5, 9)]
    for init in states:
        with pytest.raises(FloatingPointError, match="non-finite radius nan"):
            integrate(m, init, s_max=20.0)
    with pytest.raises(FloatingPointError, match="non-finite radius nan"):
        integrate_ensemble(m, states, s_max=20.0)


@pytest.mark.parametrize(
    "nt, err, message",
    [
        (math.inf, 1e-12, "reached the non-finite radius inf"),
        (np.float64(-math.inf), 1e-12, "reached the non-finite radius -inf"),
        (math.nan, 1e-12, "reached the non-finite radius nan"),
        (1.5, 1e-12, "jumped the plateau to radius 1.5"),
        (-0.1, 1e-12, "reached the negative radius -0.1"),
        (0.5, math.nan, "non-finite error estimate nan"),
    ],
    ids=["inf", "-inf", "nan", "past_rim", "negative", "nan_estimate"],
)
def test_bad_step_names_the_fault(nt, err, message):
    # finiteness first: an overflowed radius is not a jump over the plateau
    exc = _bad_step(1, 0.6, 2.0, nt, err)
    assert isinstance(exc, FloatingPointError)
    assert message in str(exc) and "t=0.6 on chart 1 at s=2.0" in str(exc)


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


# --- invariants: Clairaut's integral and the flat zones ----------------------------

# a clearly non-radial start: chart, radius, angle and direction (unit_speed_state)
nonradial_starts = st.tuples(
    st.integers(1, 2),
    st.floats(0.05, 0.95),
    st.floats(0.0, TWO_PI),
    st.one_of(st.floats(0.1, math.pi - 0.1), st.floats(-math.pi + 0.1, -0.1)),
)
rotation_maps = st.floats(0.0, TWO_PI).map(lambda angle: lambda: RotationDiffeo(angle))


def _clairaut_drift(m, traj):
    """Worst change of L = phi^2 vtheta within a chart-2 visit of traj, or
    along the whole run on a rotation gluing, whose seam keeps L as well."""
    if isinstance(m.f, RotationDiffeo):
        runs = [traj.states]
    else:
        by_chart = itertools.groupby(traj.states, key=lambda state: state.chart)
        runs = [list(visit) for chart, visit in by_chart if chart == 2]
    worst = 0.0
    for run in runs:
        ls = [m.warp(x.chart, x.t, x.theta) ** 2 * x.vtheta for x in run]
        worst = max(worst, *(abs(x - ls[0]) for x in ls))
    return worst


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.one_of(rotation_maps, drawn_maps), st.floats(0.5, 1.5), nonradial_starts)
def test_clairaut_constant_kept_on_a_constant_psi2(build, c, start):
    # with a constant psi2 chart 2 is a surface of revolution, so L is a
    # first integral there (do Carmo, Differential Geometry of Curves and
    # Surfaces, 4-4); the annulus steps keep it to their accuracy
    try:
        m = GluedMetric(build(), psi2=c)
    except ValueError:  # MonotonicityViolation included
        return
    for ds in (1e-3, 5e-3):
        traj = integrate(m, unit_speed_state(m, *start), ds=ds, s_max=4.0)
        assert _clairaut_drift(m, traj) <= drift_bound(ds, 4.0)


class StepBudgetExceeded(Exception):
    pass


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(st.floats(0.0, 1.0), nonradial_starts)
@example(0.0, (1, 0.5, 1.0, 1.1))
def test_every_legal_ds_runs_to_the_end(fraction, start):
    # ds log-uniform over [DS_MIN, min(t0, 1 - t1)); below DS_MIN the step
    # tolerance underflows and the annulus steps stall at h -> 0 forever, so
    # a budget of _dop853 calls (the worst of 40 runs at DS_MIN ~ 1.10e-4
    # took 140) turns a future stall into a failure
    m = default_metric()
    limit = min(m.t0, 1.0 - m.t1)
    ds = min(DS_MIN * (limit / DS_MIN) ** fraction, math.nextafter(limit, 0.0))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 20_000:
            raise StepBudgetExceeded(f"more than 20000 annulus steps at ds={ds!r}")
        return _dop853(*args)

    with mock.patch.object(geodesics, "_dop853", counted):
        traj = integrate(m, unit_speed_state(m, *start), ds=ds, s_max=0.5)
    assert traj.states[-1].s == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "m",
    [GluedMetric(semicircle_bump(0.3), psi2=0.6), GluedMetric(RotationDiffeo(1.1), psi2=1.2)],
    ids=["chart2_visits", "rotation_whole_run"],
)
def test_clairaut_oracle_fails_under_a_wrong_christoffel_term(monkeypatch, m):
    # the negative control of all_or_none_check, here in the scalar driver;
    # psi2 = 0.6 < t1 keeps chart 2 a surface of revolution whose visits
    # are stepped, as the transit needs psi2 >= t1
    def skewed_rhs(warp, chart, t, th, vt, vth):
        phi, phi_t, phi_th = warp(chart, t, th)
        dvt = phi * phi_t * vth * vth
        dvth = -1.01 * (2.0 * phi_t / phi) * vt * vth - (phi_th / phi) * vth * vth
        return vt, vth, dvt, dvth

    monkeypatch.setattr(geodesics, "_rhs", skewed_rhs)
    states = _sample_nonradial_states(m, 6, np.random.default_rng(3))
    worst = max(_clairaut_drift(m, integrate(m, init, s_max=4.0)) for init in states)
    assert worst > 1e3 * drift_bound(1e-3, 4.0)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(
    drawn_maps,
    spline_tables(),
    st.floats(0.02, 0.24),
    st.floats(0.0, TWO_PI),
    st.floats(-math.pi, math.pi).filter(lambda chi: abs(math.sin(chi)) > 1e-3),
)
def test_drawn_psi2_tables_glue_and_keep_the_flat_zone_invariants(build, table, t, theta, chi):
    # a short run from the chart-1 flat disk: each chord keeps t^2 vtheta and
    # each plateau segment keeps vsigma = psi vtheta, across the seam too
    knots, values = table
    try:
        m = GluedMetric(build(), psi2=periodic_spline(knots, 1.0 + 0.4 * values))
    except ValueError:  # a non-monotone map or a psi2 table that dips to 0
        return
    assert m.gluing_residual() < 1e-14
    psi = {1: m.psi1, 2: m.psi2}
    traj = integrate(m, unit_speed_state(m, 1, t, theta, chi), s_max=1.5)
    chords = plateaus = 0
    for a, b in zip(traj.states, traj.states[1:]):
        if a.t < m.t0:
            chords += 1
            assert b.t**2 * b.vtheta == pytest.approx(a.t**2 * a.vtheta, rel=1e-14)
        elif a.t > m.t1 or (a.t == m.t1 and a.vt >= 0.0):
            plateaus += 1
            vsigma = psi[a.chart](a.theta) * a.vtheta
            assert psi[b.chart](b.theta) * b.vtheta == pytest.approx(vsigma, rel=1e-12)
    assert chords >= 1 and plateaus >= 1


# --- the move rule --------------------------------------------------------------

# (psi2, chart, radius, motion, the move _exact_move takes; None: a DOP853 step)
MOVE_RULE = [
    (1.0, 1, "t0", "in", "chord"),
    (1.0, 1, "t0", "out", "transit"),
    (1.0, 1, "t0", "along", None),
    (1.0, 1, "t1", "in", "transit"),
    (1.0, 1, "t1", "out", "plateau"),
    (1.0, 1, "t1", "along", "plateau"),
    (1.0, 2, "t0", "in", "chord"),
    (1.0, 2, "t0", "out", "transit"),
    (1.0, 2, "t0", "along", None),
    (1.0, 2, "t1", "in", "transit"),
    (1.0, 2, "t1", "out", "plateau"),
    (1.0, 2, "t1", "along", "plateau"),
    (1.0, 2, "mid", "in", None),
    (1.0, 2, "mid", "out", None),
    (0.6, 1, "t0", "out", None),
    (0.6, 1, "t1", "in", None),
    (0.6, 2, "t0", "in", "chord"),
    (0.6, 2, "t0", "out", None),
    (0.6, 2, "t1", "in", None),
    (0.6, 2, "t1", "out", "plateau"),
    # radial states move exactly everywhere: outward on the plateau
    # segment, inward on the chord
    (1.0, 1, "t0", "radial in", "chord"),
    (1.0, 1, "t0", "radial out", "plateau"),
    (1.0, 1, "t1", "radial in", "chord"),
    (1.0, 1, "t1", "radial out", "plateau"),
    (1.0, 2, "t0", "radial in", "chord"),
    (1.0, 2, "t0", "radial out", "plateau"),
    (1.0, 2, "t1", "radial in", "chord"),
    (1.0, 2, "t1", "radial out", "plateau"),
    (1.0, 2, "mid", "radial in", "chord"),
    (1.0, 2, "mid", "radial out", "plateau"),
    (0.6, 2, "t0", "radial out", "plateau"),
    (0.6, 2, "t1", "radial in", "chord"),
]


def _move_taken(psi2, chart, radius, motion, theta):
    """The moves _exact_move makes for a state of the default map with this
    psi2, on the chart at the radius (t0, t1 or mid-annulus) and angle, in
    the motion (in, out, along the circle, or radial in or out); also
    whether it returned None."""
    m = GluedMetric(semicircle_bump(0.3), psi2=psi2)
    t = {"t0": m.t0, "t1": m.t1, "mid": 0.5 * (m.t0 + m.t1)}[radius]
    if motion.startswith("radial"):
        state = (chart, t, theta, 1.0 if motion.endswith("out") else -1.0, 0.0, 0.0)
    else:
        vt = {"in": -0.8, "out": 0.8, "along": 0.0}[motion]
        state = (chart, t, theta, vt, math.sqrt(1.0 - vt * vt) / m.warp(chart, t, theta), 0.0)
    with (
        mock.patch.object(geodesics, "_chord", wraps=geodesics._chord) as chord,
        mock.patch.object(geodesics, "_plateau", wraps=geodesics._plateau) as plateau,
    ):
        move = _exact_move(m, *state, 100.0)
    taken = [name for name, mocked in (("chord", chord), ("plateau", plateau)) if mocked.called]
    if move is not None and move[2]:
        taken.append("transit")
    return taken, move is None


@pytest.mark.parametrize("psi2, chart, radius, motion, expected", MOVE_RULE)
def test_move_rule_at_the_ties(psi2, chart, radius, motion, expected):
    # which move a state at exactly t0 or t1 takes, in each direction, on
    # both charts, with psi2 >= t1 (transits on chart 2, and on chart 1 at
    # theta = 1.0, in the bump's identity arc [0, pi]) and below t1
    taken, declined = _move_taken(psi2, chart, radius, motion, 1.0)
    assert taken == ([] if expected is None else [expected])
    assert declined == (expected is None)


@pytest.mark.parametrize("radius, motion", [("t0", "out"), ("t1", "in")])
def test_move_rule_in_the_support(radius, motion):
    # the chart-1 entries that transit at theta = 1.0 take steps at 4.0,
    # inside the bump's support (pi, 2 pi)
    assert _move_taken(1.0, 1, radius, motion, 4.0) == ([], True)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    st.one_of(rotation_maps, drawn_maps),
    st.floats(0.3, 1.5),
    st.sampled_from([(0.25, 0.75), (0.1, 0.9)]),
    edge_starts(),
)
def test_nonradial_exact_moves_start_in_a_flat_zone(build, c, zones, start):
    # the premise of _exact_move's early None for a non-radial state with
    # t0 < t < t1; a radial state would break it, as it moves exactly from
    # mid-annulus
    try:
        m = GluedMetric(build(), *zones, psi2=c)
    except ValueError:  # MonotonicityViolation included
        return
    chart, t, theta, direction = start(m)
    state = unit_speed_state(m, chart, t, theta, direction)
    assert state.vtheta != 0.0
    if _exact_move(m, chart, t, theta, state.vt, state.vtheta, 0.0, 10.0) is not None:
        assert t <= m.t0 or t >= m.t1


# --- the chart-2 transit --------------------------------------------------------


def _quad_transit(m, chart, t, th, vt, vth, s):
    """(arclength, angle change) of an annulus visit on a surface of
    revolution, by the oracle: chart 2, or chart 1 on an identity arc,
    whose plateau value is psi_1 = psi1_scale psi_2 there."""
    c = m.psi1(th) if chart == 1 else m.psi2_const
    return revolution_transit(m.t0, m.t1, c, m.warp(chart, t, th) ** 2 * vth)


def _transit_states(m, chart=2, theta=1.0):
    """Entry states at the angle theta, the sign of L alternating: through
    from t0 and from t1, |L|/t0 up to 0.99985, and turning ones from t1, |L|
    between t0 and 0.99 of the plateau value."""
    t0, t1 = m.t0, m.t1
    c = m.psi1(theta) if chart == 1 else m.psi2_const
    sign = 1.0
    for kind, ratios in (
        ("t0", (0.05, 0.7, 0.99, 0.999, 0.99985)),
        ("through", (0.5, 0.999, 0.99985)),
        ("turn", (1.001, 1.5, 0.9 * c / t0, 0.99 * c / t0)),
    ):
        for ratio in ratios:
            a, sign = ratio * t0, -sign
            phi, vt = (t0, 1.0) if kind == "t0" else (c, -1.0)
            yield (chart, t0 if kind == "t0" else t1, theta, vt * math.sqrt(1.0 - (a / phi) ** 2),
                   sign * a / phi**2, 3.0)


@pytest.mark.parametrize(
    "m",
    [default_metric(), GluedMetric(RotationDiffeo(1.1), t0=0.1, t1=0.9, psi2=0.9)],
    ids=["default", "zones_0.1_0.9_psi2_eq_t1"],
)
def test_transit_matches_quad(m):
    # through transits, turning points and |L|/t0 up to 0.99985 against the
    # decimal quad_vec oracle, and each exit at unit speed with L kept
    for state in _transit_states(m):
        chart, t_out, th_out, vt_out, vth_out, s_out = _transit(m, *state, 100.0)
        length, dth = _quad_transit(m, *state)
        # the worst, 6.5e-13, is at |L| = 0.99 psi2 on psi2 = t1, where phi_2
        # flattens towards t1
        assert abs(s_out - state[5] - length) < 1e-12
        assert abs(th_out - state[2] - dth) < 1e-12
        phi_out = m.warp(2, t_out, 0.0)
        assert chart == 2 and t_out in (m.t0, m.t1) and (vt_out > 0.0) == (t_out == m.t1)
        assert vt_out**2 + (phi_out * vth_out) ** 2 == pytest.approx(1.0, abs=4e-16)
        L = m.warp(2, state[1], 0.0) ** 2 * state[4]
        assert phi_out**2 * vth_out == pytest.approx(L, rel=1e-15)
        # at the speed 1.01, as after a seam that is not an isometry, the
        # same path takes 1 / 1.01 of the time and keeps the speed
        fast = _transit(m, *state[:3], 1.01 * state[3], 1.01 * state[4], state[5], 100.0)
        assert fast[1] == t_out and fast[2] == pytest.approx(th_out, abs=1e-14)
        assert 1.01 * (fast[5] - state[5]) == pytest.approx(s_out - state[5], rel=1e-14)
        assert fast[3:5] == pytest.approx((1.01 * vt_out, 1.01 * vth_out), rel=1e-14)


@pytest.mark.parametrize("scale", [1.0, 1.01], ids=["exact_seam", "tampered_seam"])
def test_chart1_transit_matches_quad_on_the_identity_arc(scale):
    # on the bump's identity arc [0, pi] chart 1 is the surface of revolution
    # of the plateau value psi1_scale psi2: each visit whose swept angles
    # stay in the arc (by the oracle) is one move on chart 1 that matches
    # the oracle at that value; each other visit declines
    m = GluedMetric(semicircle_bump(0.3), psi2=0.9, psi1_scale=scale)
    assert m.psi1(1.2) == scale * 0.9
    taken = 0
    for state in _transit_states(m, chart=1, theta=1.2):
        length, dth = _quad_transit(m, *state)
        moved = _transit(m, *state, 100.0)
        if not 1e-9 < state[2] + dth < math.pi - 1e-9:
            assert moved is None
            continue
        taken += 1
        chart, t_out, th_out, vt_out, vth_out, s_out = moved
        assert chart == 1 and t_out in (m.t0, m.t1) and (vt_out > 0.0) == (t_out == m.t1)
        assert abs(s_out - state[5] - length) < 1e-12
        assert abs(th_out - state[2] - dth) < 1e-12
        L = m.warp(1, state[1], state[2]) ** 2 * state[4]
        assert m.warp(1, t_out, th_out) ** 2 * vth_out == pytest.approx(L, rel=1e-15)
    assert taken >= 8


def test_chart1_transit_declines_a_sweep_that_leaves_the_arc():
    # the negative control: a visit that enters the arc [0, pi] at t1 just
    # below pi with L > 0 sweeps into the support; the transit declines
    # after its quadrature, and the visit keeps its DOP853 steps
    m = default_metric()
    (start, length), = m.identity_arcs
    state = (1, m.t1, math.pi - 0.01, -0.8, 0.6 / m.psi1(math.pi - 0.01), 0.0)
    assert (state[2] - start) % TWO_PI <= length
    assert state[2] + _quad_transit(m, *state)[1] > math.pi
    assert _transit(m, *state, 10.0) is None
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _dop853(*args)

    with mock.patch.object(geodesics, "_dop853", counted):
        traj = integrate(m, GeodesicState(*state), s_max=0.2)
    assert calls > 0 and traj.states[1].t not in (m.t0, m.t1) and traj.states[1].chart == 1
    # the same entry a little earlier, whose sweep stays in the arc, is one move
    assert _transit(m, *state[:2], 1.0, *state[3:], 10.0)[:2] == (1, m.t1)


def test_chart1_transits_stay_on_chart_1():
    # only the rim changes the chart: on the default metric, whose chart-1
    # visits to the identity arc transit, every chart change of a run is a
    # rim crossing at t = 1, and the crossing counts are the same as with
    # chart-1 transits withheld
    m = default_metric()
    inits = _sample_nonradial_states(m, 8, np.random.default_rng(5))
    transits = 0
    for init in inits:
        traj = integrate(m, init, s_max=20.0)
        for a, b in zip(traj.states, traj.states[1:]):
            if a.chart != b.chart:
                assert b.t == 1.0
            transits += a.chart == b.chart == 1 and a.t in (m.t0, m.t1) and b.t in (m.t0, m.t1)
        with mock.patch.object(m, "identity_arcs", ()):
            assert len(integrate(m, init, s_max=20.0).crossings) == len(traj.crossings)
    assert transits >= 5


def test_transit_oracle_fails_without_the_jacobian(monkeypatch):
    # the negative control: weights without the 2 x of t = lo + (t1 - lo) x^2
    m = default_metric()
    rules = tuple((x2, w / (2.0 * np.sqrt(x2))) for x2, w in geodesics._transit_rules())
    monkeypatch.setattr(geodesics, "_transit_rules", lambda: rules)
    worst = 0.0
    for state in _transit_states(m):
        length, _ = _quad_transit(m, *state)
        worst = max(worst, abs(_transit(m, *state, 100.0)[5] - state[5] - length))
    assert worst > 1e-2


def test_transit_rules_are_the_128_point_rule_bit_for_bit():
    # built on first use and cached: the same arrays as a fresh rule's
    x, w = _gauss_legendre(128)
    through, turn = geodesics._transit_rules()
    want = (((1.0 + x) / 2.0) ** 2, w * (1.0 + x) / 2.0, x[64:] ** 2, 4.0 * w[64:] * x[64:])
    for got, ref in zip((*through, *turn), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert geodesics._transit_rules() is geodesics._transit_rules()


def test_importing_geodesics_builds_no_quadrature():
    code = (
        "from sectionlab import config, geodesics\n"
        "config.load_config(None).build_metric()\n"
        "assert geodesics._transit_rules.cache_info().currsize == 0\n"
    )
    src = str(Path(geodesics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_gauss_legendre_nodes_match_numpy():
    x, w = _gauss_legendre(128)
    nodes, weights = np.polynomial.legendre.leggauss(128)
    assert np.max(np.abs(x - nodes)) < 1e-15
    assert np.max(np.abs(w - weights)) < 1e-14


def test_transit_falls_back_to_steps():
    # the transit declines, and the visit keeps its DOP853 steps, for a
    # grazing |L| in [GRAZING t0, t0], a nearly tangent |L| >= TANGENT psi2
    # at t1, a run that ends inside the visit, a state that does not enter
    # at t0 or t1, chart 1 off the map's identity arcs, a psi2 below t1 and
    # a tabulated psi2
    m = default_metric()
    t0, t1 = m.t0, m.t1
    graze = GRAZING * t0 * (1.0 + 1e-5)
    tangent = TANGENT * (1.0 + 1e-4)
    declined = [
        (m, (2, t0, 1.0, math.sqrt(1.0 - (graze / t0) ** 2), graze / t0**2, 0.0), 10.0),
        (m, (2, t1, 1.0, -math.sqrt(1.0 - graze**2), graze, 0.0), 10.0),
        (m, (2, t1, 1.0, -math.sqrt(1.0 - tangent**2), tangent, 0.0), 10.0),
        (m, (2, t0, 1.0, 0.8, 0.6 / t0, 0.0), 0.1),
        (m, (2, 0.5, 1.0, 0.8, 0.6 / m.warp(2, 0.5, 0.0), 0.0), 10.0),
        (m, (1, t1, 4.0, -0.8, 0.6 / m.psi1(4.0), 0.0), 10.0),
        (GluedMetric(semicircle_bump(0.3), psi2=0.6), (2, t1, 1.0, -0.8, 0.6 / 0.6, 0.0), 10.0),
        (psi2_table_metric(), (2, t1, 1.0, -0.8, 0.6 / psi2_table_metric().psi2(1.0), 0.0), 10.0),
    ]
    for metric, state, s_end in declined:
        assert _transit(metric, *state, s_end) is None, state
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _dop853(*args)

        with mock.patch.object(geodesics, "_dop853", counted):
            traj = integrate(metric, GeodesicState(*state), s_max=min(s_end, 0.2))
        assert calls > 0 and traj.states[1].t not in (t0, t1)
    # the same entry as the run-end case, with room, is one move to t1
    assert _transit(m, 2, t0, 1.0, 0.8, 0.6 / t0, 0.0, 10.0)[1] == t1


def test_chart2_visits_are_one_state_each():
    # on the default metric each chart-2 annulus visit but the last, which
    # the end of the run cuts, is one recorded state at t0 or t1 that keeps
    # L = phi^2 vtheta to rounding
    m = default_metric()
    traj = integrate(m, unit_speed_state(m, 1, 0.5, 1.0, 1.1), s_max=20.0)
    visits = 0
    for a, b in zip(traj.states, traj.states[1:-1]):
        if a.chart == 2 and (a.t == m.t0 and a.vt > 0.0 or a.t == m.t1 and a.vt < 0.0):
            visits += 1
            assert b.chart == 2 and b.t in (m.t0, m.t1) and b.s > a.s
            la, lb = (m.warp(2, x.t, 0.0) ** 2 * x.vtheta for x in (a, b))
            assert lb == pytest.approx(la, rel=1e-15)
    assert visits >= 5


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
    assert len(trace.orbit) == 51
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


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(drawn_maps, st.floats(0.0, TWO_PI), st.integers(3, 102))
def test_witness_is_the_earliest_pair(build, theta0, max_legs):
    # the witness is the pair of passages through one center, on lines at
    # least tol apart, with the smallest leg_b and then the smallest leg_a
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    trace = trace_section(f, theta0, max_legs=max_legs)
    v = section_verdict(trace)
    expected = witness_oracle(trace.center_passages, trace.tol)
    assert v.injective == (expected is None)
    if expected is not None:
        w = v.witness
        assert (w.chart, w.leg_a, w.leg_b) == expected
        assert w.separation >= trace.tol


def test_witness_pairs_the_earliest_partner():
    # the third chart-2 passage is 1e-8 off both earlier ones, which lie
    # within tol of each other: the witness pairs it with the first
    passages = [
        geodesics.TracePassage(2, leg, direction)
        for leg, direction in ((1, 1.0), (3, 1.0 + 5e-10), (5, 1.0 + 1e-8), (7, 1.0 + 2e-8))
    ]
    trace = replace(trace_section(IdentityDiffeo(), 1.0, max_legs=3), center_passages=passages)
    w = section_verdict(trace).witness
    assert (w.chart, w.leg_a, w.leg_b) == witness_oracle(passages, trace.tol) == (2, 1, 5)


def test_verdict_lines_pairwise_distinct_for_none_start():
    f = semicircle_bump(0.3)
    trace = trace_section(f, 1.5 * math.pi, max_legs=102)
    for chart in (1, 2):
        lines = [p.direction for p in trace.center_passages if p.chart == chart]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                assert line_distance(lines[i], lines[j]) > 1e-9


def test_verdict_horizon_too_short():
    # two legs trace no return, so no verdict could be read: the tracer refuses them
    for f in (IdentityDiffeo(), semicircle_bump(0.3)):
        with pytest.raises(ValueError, match="max_legs"):
            trace_section(f, 0.0, max_legs=2)


def test_trace_rejects_tiny_leg_budget():
    for f in (IdentityDiffeo(), semicircle_bump(0.3)):
        with pytest.raises(ValueError, match="max_legs"):
            trace_section(f, 0.0, max_legs=1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-9}, "tol"),
        ({"k_max": 0}, "k_max"),
        ({"k_max": -3}, "k_max"),
        ({"max_legs": math.nan}, "max_legs"),
        ({"max_legs": 10.0}, "max_legs"),
        ({"max_legs": 3.5}, "max_legs"),
        ({"max_legs": True}, "max_legs"),
    ],
    ids=["tol_nan", "tol_zero", "tol_negative", "k_max_zero", "k_max_negative",
         "max_legs_nan", "max_legs_float", "max_legs_fraction", "max_legs_bool"],
)
def test_trace_rejects_a_bad_horizon(kwargs, match):
    # a NaN tol closed nothing and read as injective; k_max = -3 labelled the
    # verdict Period(searched=-3); max_legs = nan traced no return
    f = semicircle_bump(0.3)
    with pytest.raises(ValueError, match=match):
        trace_section(f, 4.0, **kwargs)
    with pytest.raises(ValueError, match=match):
        compare_sections(f, 0.5, 1.0, **kwargs)


def test_trace_accepts_numpy_integer_leg_budgets():
    f = semicircle_bump(0.3)
    a, b = trace_section(f, 4.0, max_legs=np.int64(7)), trace_section(f, 4.0, max_legs=7)
    assert (a.legs, a.crossings, a.center_passages, a.orbit) == (b.legs, b.crossings, b.center_passages, b.orbit)


def test_trace_stores_a_numpy_leg_budget_as_a_python_int():
    trace = trace_section(semicircle_bump(0.3), 4.0, max_legs=np.int64(5))
    assert type(trace.max_legs) is int and trace.max_legs == 5
    assert json.loads(json.dumps(trace.to_json_dict()))["max_legs"] == 5


def test_tracer_records_are_the_named_tuples():
    # built by tuple.__new__, they are the constructors' records: same
    # types, fields, reprs and equality
    trace = trace_section(semicircle_bump(0.3), 4.0, max_legs=9)
    for records, cls in (
        (trace.legs, geodesics.Leg),
        (trace.crossings, geodesics.TraceCrossing),
        (trace.center_passages, geodesics.TracePassage),
    ):
        built = [cls(*r) for r in records]
        assert len(records) >= 4 and all(type(r) is cls for r in records)
        assert [repr(r) for r in records] == [repr(r) for r in built] and records == built
        assert [r._asdict() for r in records] == [r._asdict() for r in built]
    assert [p.line for p in trace.center_passages] == [p.direction % math.pi for p in trace.center_passages]


def _trace_reference(f, theta0, max_legs, tol):
    """The itinerary by its definition, on f, f.inverse and antipode:
    (legs, crossings, passages, orbit) as plain tuples."""
    theta0 = normalize(theta0)
    legs, crossings, passages, orbit = [(0, 1, "radius", None, theta0, 1)], [], [], [theta0]
    x = theta0
    while len(legs) < max_legs:
        y = f(x)
        crossings.append((len(crossings), x, y))
        legs.append((len(legs), 2, "diameter", y, antipode(y), 2))
        passages.append((2, len(legs) - 1, antipode(y)))
        if len(legs) >= max_legs:
            break
        w = f.inverse(antipode(y))
        crossings.append((len(crossings), w, antipode(y)))
        x = antipode(w)
        legs.append((len(legs), 1, "diameter", w, x, 2))
        passages.append((1, len(legs) - 1, x))
        orbit.append(x)
        if circle_distance(x, theta0) < tol:
            break
    return legs, crossings, passages, orbit


def _trace_tuples(trace):
    return (
        [(g.index, g.chart, g.kind, g.entry, g.exit, g.length) for g in trace.legs],
        [(c.index, c.theta1, c.theta2) for c in trace.crossings],
        [(p.chart, p.leg_index, p.direction) for p in trace.center_passages],
        trace.orbit,
    )


def _bit_repr(value):
    """repr with every float written as its type and hex form, so -0.0
    differs from 0.0 and a numpy float from a Python float."""
    if isinstance(value, float):
        return f"{type(value).__name__}:{float.hex(value)}"
    if isinstance(value, (list, tuple)):
        return [_bit_repr(v) for v in value]
    return repr(value)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(drawn_maps, st.floats(-40.0, 40.0), st.integers(3, 60))
def test_trace_is_the_reference_walk_bit_for_bit(build, theta0, max_legs):
    # the tracer skips the re-normalization of f(x) and antipode on angles
    # that are already normalized; every angle it records keeps its bits
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    trace = trace_section(f, theta0, max_legs=max_legs)
    want = _trace_reference(f, theta0, max_legs, trace.tol)
    assert _bit_repr(_trace_tuples(trace)) == _bit_repr(want)


def test_trace_reads_an_antipode_of_two_pi_as_zero():
    # antipode rounds the float below pi up to exactly 2 pi; f reads that as
    # 0, and for this rotation f.lift(2 pi) normalized is another float.  The
    # first return lies one ulp from the start, so a tol below that walks on
    f = RotationDiffeo(0.2188232194149646)
    theta0 = math.nextafter(TWO_PI, 0.0)
    assert normalize(f.lift(TWO_PI)) != f(TWO_PI)
    trace = trace_section(f, theta0, max_legs=7, tol=1e-300)
    assert trace.orbit[1] == TWO_PI and trace.legs[3].entry == f(TWO_PI)
    assert _bit_repr(_trace_tuples(trace)) == _bit_repr(_trace_reference(f, theta0, 7, trace.tol))


@pytest.mark.parametrize(
    "record",
    [
        geodesics.Leg(3, 1, "diameter", 0.5, 0.5 + math.pi, 2),
        geodesics.TraceCrossing(2, 0.5, 0.75),
        geodesics.TracePassage(2, 3, 4.0),
        GeodesicState(1, 0.5, 2.0, 1.0, 0.0),
        geodesics.RimCrossing(1.5, 1, 0.5, 0.75),
        geodesics.CenterEvent(2.0, 2, 1.0, 1.0 + math.pi),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_are_immutable_hashable_and_keep_their_repr(record):
    name = type(record).__name__
    fields = record._fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    assert hash(record) == hash(type(record)(*record))
    assert len({record, type(record)(*record)}) == 1
    body = ", ".join(f"{k}={getattr(record, k)!r}" for k in fields)
    assert repr(record) == f"{name}({body})"


def test_trace_json_dict_is_the_per_field_dicts():
    trace = trace_section(semicircle_bump(0.3), 4.0, max_legs=9)
    doc = trace.to_json_dict()
    assert doc["legs"] == [
        {"index": g.index, "chart": g.chart, "kind": g.kind, "entry": g.entry, "exit": g.exit, "length": g.length}
        for g in trace.legs
    ]
    assert doc["crossings"] == [
        {"index": c.index, "theta1": c.theta1, "theta2": c.theta2} for c in trace.crossings
    ]
    assert doc["center_passages"] == [
        {"chart": p.chart, "leg_index": p.leg_index, "direction": p.direction, "line": p.direction % math.pi}
        for p in trace.center_passages
    ]
    assert all(type(d) is dict for key in ("legs", "crossings", "center_passages") for d in doc[key])


def test_trace_orbit_stops_at_traced_returns():
    # no iteration past the last leg: four legs hold one return
    trace = trace_section(semicircle_bump(0.3), 1.5 * math.pi, max_legs=4)
    assert len(trace.orbit) == 2
    v = section_verdict(trace)
    assert not v.closed and v.period == Period.not_found(64)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(drawn_maps)
def test_first_return_verdict_matches_brute_force_on_drawn_maps(build):
    # the verdict reads one traced return; period_of iterates T up to 64 times
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    T = TransitionMap(f)
    for theta in np.linspace(0.0, TWO_PI, 5, endpoint=False):
        v = section_verdict(trace_section(f, theta, max_legs=8))
        assert v.closed == period_of(T, theta, k_max=64).is_finite, f"at {theta!r}"
        if not v.closed:
            assert v.period == Period.not_found(64)


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
