"""Tests for the glued two-disk metric: warp, components, symbols, seam."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectionlab import (
    TWO_PI,
    BumpDiffeo,
    DegenerateAtCenter,
    GluedMetric,
    IdentityDiffeo,
    RotationDiffeo,
    SplineDiffeo,
    semicircle_bump,
)
from sectionlab.circle import periodic_spline
from sectionlab.metric import _step01, _step01_vec

from oracles import make_sinusoid_spline_data
from strategies import drawn_maps, spline_tables

RNG = np.random.default_rng(99)


def default_metric():
    return GluedMetric(semicircle_bump(0.3))


# --- smooth step ---------------------------------------------------------------


def test_smooth_step_plateaus():
    # value and derivative of the step in u = (t - t0) / (t1 - t0)
    for u in (-0.3, 0.0):
        assert _step01(u) == (0.0, 0.0)
    for u in (1.0, 1.3):
        assert _step01(u) == (1.0, 0.0)
    assert 0.0 < _step01(0.5)[0] < 1.0
    assert _step01(0.5)[0] == pytest.approx(0.5, abs=1e-12)
    s, ds = _step01_vec(np.array([-0.3, 0.0, 1.0, 1.3]))
    assert s.tolist() == [0.0, 0.0, 1.0, 1.0] and ds.tolist() == [0.0] * 4


def test_smooth_step_monotone():
    us = np.linspace(-0.5, 1.5, 2001)
    s, ds = _step01_vec(us)
    assert np.all(np.diff(s) >= 0) and np.all(ds >= 0)
    assert np.allclose(s, [_step01(u)[0] for u in us], rtol=0, atol=1e-15)


# --- warp zones ----------------------------------------------------------------


def test_warp_euclidean_zone_bit_exact():
    m = default_metric()
    for t in np.linspace(0.0, 0.25, 101):
        for theta in (0.0, 1.0, 4.5):
            assert m.warp(1, float(t), theta) == float(t)
            assert m.warp(2, float(t), theta) == float(t)


def test_warp_plateau_chart2_constant_one():
    m = default_metric()
    assert m.warp(2, (1.0 + 0.75) / 2.0, 1.234) == 1.0


def test_warp_plateau_chart1_equals_rim_jacobian():
    f = semicircle_bump(0.3)
    m = GluedMetric(f)
    t = (1.0 + 0.75) / 2.0
    assert m.warp(1, t, 1.5 * math.pi) == f.lift_derivative(1.5 * math.pi)
    theta = 4.0  # generic point inside the bump arc
    assert m.warp(1, t, theta) == f.lift_derivative(theta)


def test_warp_radially_constant_on_plateau():
    m = default_metric()
    for theta in RNG.uniform(0, TWO_PI, 20):
        vals = [m.warp(1, float(t), float(theta)) for t in np.linspace(0.75, 1.0, 9)]
        assert max(vals) - min(vals) == 0.0


def test_warp_positive_above_t0():
    m = default_metric()
    ts = np.linspace(0.25, 1.0, 200)
    thetas = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    lo = min(m.t0, np.min(m.psi1(thetas)), np.min(m.psi2(thetas)))
    for t in ts:
        phi = m.warp(1, np.full_like(thetas, float(t)), thetas)
        assert np.min(phi) >= lo * (1.0 - 1e-15)


def test_warp_rejects_negative_radius():
    m = default_metric()
    for t in (-0.1, math.nan):
        with pytest.raises(ValueError):
            m.warp(1, t, 0.0)
        with pytest.raises(ValueError):
            m.warp(1, np.array([0.5, t]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            m.christoffel(1, t, 0.0)


def test_invalid_zone_bounds_rejected():
    with pytest.raises(ValueError):
        GluedMetric(IdentityDiffeo(), t0=0.5, t1=0.4)
    with pytest.raises(ValueError):
        GluedMetric(IdentityDiffeo(), t0=0.0, t1=0.5)


def test_psi2_must_be_positive():
    with pytest.raises(ValueError):
        GluedMetric(IdentityDiffeo(), psi2=-1.0)


def test_constant_psi2_matches_constant_table():
    # a constant psi2 skips the profile calls; a flat table runs the general path
    f = semicircle_bump(0.3)
    spline = periodic_spline(np.linspace(0.0, 5.0, 6), np.full(6, 1.3))
    const = GluedMetric(f, psi2=1.3)
    table = GluedMetric(f, psi2=spline)
    thetas = np.linspace(0.0, TWO_PI, 97)
    for chart in (1, 2):
        for t in (0.1, 0.5, 0.9):  # flat disk, blend annulus, plateau
            ts = np.full_like(thetas, t)
            for a, b in zip(
                const.warp_with_partials_vec(chart, ts, thetas),
                table.warp_with_partials_vec(chart, ts, thetas),
            ):
                assert np.array_equal(a, b)
            for theta in thetas:
                assert const.warp_with_partials(chart, t, theta) == table.warp_with_partials(
                    chart, t, theta
                )


# --- components ------------------------------------------------------------------


def test_components_euclidean_zone():
    m = default_metric()
    phi, phi_t, phi_theta = m.warp_with_partials(1, 0.125, 2.0)
    assert (phi, phi_t, phi_theta) == (0.125, 1.0, 0.0)
    assert phi * phi == 0.125**2


def test_components_plateau_chart2():
    m = default_metric()
    phi, phi_t, _ = m.warp_with_partials(2, 0.875, 2.0)
    assert phi * phi == 1.0
    assert phi_t == 0.0


def test_components_degenerate_at_center():
    m = default_metric()
    with pytest.raises(DegenerateAtCenter):
        m.christoffel(2, 0.0, 1.0)


def test_components_partials_match_finite_differences():
    m = default_metric()
    h = 1e-6
    for _ in range(300):
        chart = int(RNG.integers(1, 3))
        t = float(RNG.uniform(0.30, 0.70))
        theta = float(RNG.uniform(0.0, TWO_PI))
        _, phi_t, phi_theta = m.warp_with_partials(chart, t, theta)
        fd_t = (m.warp(chart, t + h, theta) - m.warp(chart, t - h, theta)) / (2 * h)
        fd_th = (m.warp(chart, t, theta + h) - m.warp(chart, t, theta - h)) / (2 * h)
        assert phi_t == pytest.approx(fd_t, abs=1e-6)
        assert phi_theta == pytest.approx(fd_th, abs=1e-6)


# --- the bound scalar kernel ----------------------------------------------------


def bits(values):
    """The IEEE bit patterns of some floats, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def composed_warp(m, chart, t, theta):
    """The scalar warp as `_step01` and `_psi_pair` compose it."""
    s, ds = _step01((t - m.t0) / (m.t1 - m.t0))
    ds /= m.t1 - m.t0
    if s == 0.0:
        return t, 1.0, 0.0
    psi, psi_p = m._psi_pair(chart, theta)
    return (1.0 - s) * t + s * psi, (1.0 - s) + ds * (psi - t), s * psi_p


KERNEL_MAPS = {
    "bump": lambda: semicircle_bump(0.3),
    "bump_negative": lambda: BumpDiffeo(-0.2, 0.5, 2.0),
    "rotation": lambda: RotationDiffeo(1.1),
    "identity": IdentityDiffeo,
    "spline": lambda: SplineDiffeo(*make_sinusoid_spline_data()),
}
KERNEL_PSI2 = {
    "one": lambda: None,
    "constant": lambda: 1.3,
    "table": lambda: periodic_spline([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.15, 1.1, 0.95, 0.85, 0.9]),
}


@pytest.mark.parametrize("zones", [(0.25, 0.75), (0.1, 0.9)], ids=["default_zones", "zones_0.1_0.9"])
@pytest.mark.parametrize("scale", [1.0, 1.01])
@pytest.mark.parametrize("psi2", KERNEL_PSI2)
@pytest.mark.parametrize("kind", KERNEL_MAPS)
def test_bound_warp_kernel_is_the_composed_warp_bit_for_bit(kind, psi2, scale, zones):
    # every map kind with each psi_2 kind, and a zone width that is not a
    # power of two: the Euclidean zone, t0 and t1 exactly and one ulp off
    # them, the underflow edge of the step, the plateau, and t in (1, 2] as
    # pullbacks across the rim take it
    t0, t1 = zones
    m = GluedMetric(KERNEL_MAPS[kind](), t0, t1, psi2=KERNEL_PSI2[psi2](), psi1_scale=scale)
    edges = [0.0, 0.5 * t0, t0, t1, 1.0, 1.5, 2.0, t0 + 1e-3 * (t1 - t0), t0 + 2e-3 * (t1 - t0)]
    edges += [float(np.nextafter(x, y)) for x in (t0, t1) for y in (0.0, 1.0)]
    ts = [*edges, *RNG.uniform(t0, t1, 300).tolist(), *RNG.uniform(1.0, 2.0, 50).tolist()]
    thetas = [*RNG.uniform(-10.0, 16.0, len(ts) - 4).tolist(), 0.0, math.pi, TWO_PI, 4.0]
    for chart in (1, 2):
        got = [m.warp_with_partials(chart, t, th) for t, th in zip(ts, thetas)]
        assert bits(got) == bits([composed_warp(m, chart, t, th) for t, th in zip(ts, thetas)])
    with pytest.raises(ValueError, match="chart must be 1 or 2"):
        m.warp_with_partials(3, 0.5, 1.0)


# --- Christoffel symbols -----------------------------------------------------------


def test_christoffel_euclidean_zone():
    m = default_metric()
    g_t, g_mix, g_th = m.christoffel(1, 0.1, 2.0)
    assert g_t == pytest.approx(-0.1, abs=1e-15)
    assert g_mix == pytest.approx(10.0, abs=1e-12)
    assert g_th == 0.0


def test_christoffel_plateau_product_metric():
    # constant plateau profile: all three symbols vanish there
    m = GluedMetric(IdentityDiffeo())
    assert m.christoffel(1, 0.9, 1.0) == (0.0, 0.0, 0.0)
    assert m.christoffel(2, 0.8, 4.0) == (-0.0, 0.0, 0.0) or m.christoffel(2, 0.8, 4.0) == (
        0.0,
        0.0,
        0.0,
    )


def test_christoffel_matches_finite_difference_oracle():
    m = default_metric()
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        chart = int(RNG.integers(1, 3))
        t = float(RNG.uniform(0.30, 0.70))
        theta = float(RNG.uniform(0.0, TWO_PI))
        phi = m.warp(chart, t, theta)
        fd_t = (m.warp(chart, t + h, theta) - m.warp(chart, t - h, theta)) / (2 * h)
        fd_th = (m.warp(chart, t, theta + h) - m.warp(chart, t, theta - h)) / (2 * h)
        got = m.christoffel(chart, t, theta)
        want = (-phi * fd_t, fd_t / phi, fd_th / phi)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    assert worst < 1e-5


# --- seam compatibility -------------------------------------------------------------


def test_gluing_residual_identity():
    assert GluedMetric(IdentityDiffeo()).gluing_residual() == 0.0


def test_gluing_residual_rotation():
    assert GluedMetric(RotationDiffeo(1.1)).gluing_residual() == 0.0


def test_gluing_residual_bump_default_convention():
    assert default_metric().gluing_residual() < 1e-14


def test_gluing_residual_detects_tampering():
    m = GluedMetric(semicircle_bump(0.3), psi1_scale=1.01)
    assert m.gluing_residual() > 1e-3


def test_gluing_residual_with_tabulated_psi2():
    thetas = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    vals = 1.0 + 0.2 * np.cos(thetas)
    m = GluedMetric(semicircle_bump(0.2), psi2=periodic_spline(thetas, vals))
    assert m.gluing_residual() < 1e-13


def _seam_defect_on_64_radii(m):
    """The seam defect as a brute-force maximum over 64 plateau radii of
    [t1, 1], the chart-2 side at the collar coordinate 2 - t."""
    thetas = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    fprime, images = m.f.lift_derivative(thetas), m.f(thetas)
    worst = 0.0
    for t in np.linspace(m.t1, 1.0, 64):
        lhs = m.warp(1, np.full_like(thetas, t), thetas)
        rhs = m.warp(2, np.full_like(thetas, 2.0 - t), images) * fprime
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


psi2_profiles = st.one_of(
    st.floats(0.5, 1.5),
    spline_tables().map(lambda table: periodic_spline(table[0], 1.0 + 0.4 * table[1])),
)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(drawn_maps, psi2_profiles, st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
def test_gluing_residual_on_the_rim_is_the_plateau_maximum(build, psi2, scale):
    # the warp is radially constant on the plateau of both charts, so the
    # rim ring alone gives the maximum over every plateau radius, bit for bit
    try:
        m = GluedMetric(build(), psi2=psi2, psi1_scale=scale)
    except ValueError:  # a non-monotone map or a psi2 table that dips to 0
        return
    assert m.gluing_residual() == _seam_defect_on_64_radii(m)


def test_cross_rim_radial_flatness():
    # both sides are radially constant at the seam, so one-sided radial
    # differences of the pulled-back warp vanish identically
    m = default_metric()
    h = 1e-3
    for theta in RNG.uniform(0, TWO_PI, 50):
        fp = m.f.lift_derivative(float(theta))
        img = m.f(float(theta))
        inner = m.warp(1, 1.0 - h, float(theta))
        at = m.warp(1, 1.0, float(theta))
        outer = m.warp(2, 1.0 - h, img) * fp  # chart-2 side, pulled back
        assert abs(at - inner) < 1e-6 * h
        assert abs(outer - at) < 1e-6 * h
