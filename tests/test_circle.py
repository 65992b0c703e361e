"""Tests for angles and the circle diffeomorphism families."""

import math

import numpy as np
import pytest

from sectionlab import (
    TWO_PI,
    BumpDiffeo,
    IdentityDiffeo,
    MonotonicityViolation,
    RotationDiffeo,
    SplineDiffeo,
    antipode,
    circle_distance,
    normalize,
    semicircle_bump,
)

from oracles import bump_lift, central_diff, make_sinusoid_spline_data, spline_lift_oracle

RNG = np.random.default_rng(20240817)


def all_families():
    knots, values = make_sinusoid_spline_data()
    return [
        IdentityDiffeo(),
        RotationDiffeo(0.5 * math.pi),
        semicircle_bump(0.3),
        SplineDiffeo(knots, values),
    ]


# --- angles -----------------------------------------------------------------


def test_normalize_idempotent():
    xs = RNG.uniform(-20.0, 20.0, 1000)
    once = normalize(xs)
    assert np.all((0.0 <= once) & (once < TWO_PI))
    assert np.array_equal(normalize(once), once)


def test_normalize_tiny_negative_edge():
    assert normalize(-1e-18) < TWO_PI
    assert normalize(TWO_PI) == 0.0


def test_circle_distance_range_and_symmetry():
    a = RNG.uniform(-10, 10, 500)
    b = RNG.uniform(-10, 10, 500)
    d = circle_distance(a, b)
    assert np.all((0.0 <= d) & (d <= math.pi + 1e-15))
    assert np.allclose(d, circle_distance(b, a))


def test_antipode_involution():
    xs = RNG.uniform(0.0, TWO_PI, 10_000)
    # exact from the upper semicircle (subtraction branch), one ulp elsewhere
    upper = xs[xs >= math.pi]
    assert np.array_equal(antipode(antipode(upper)), upper)
    assert float(np.max(circle_distance(antipode(antipode(xs)), xs))) < 5e-16
    assert antipode(0.0) == math.pi
    assert antipode(math.pi) == 0.0
    assert math.isclose(antipode(math.pi / 3), 4 * math.pi / 3, rel_tol=0, abs_tol=1e-15)


# --- evaluation -------------------------------------------------------------


def test_identity_eval():
    f = IdentityDiffeo()
    assert f(1.0) == 1.0


def test_rotation_eval_wraps():
    f = RotationDiffeo(0.5 * math.pi)
    assert abs(f(1.5 * math.pi) - 0.0) < 1e-15


def test_bump_eval_at_support_midpoint():
    # the peak-normalized profile is exactly 1 at the midpoint
    f = semicircle_bump(0.3)
    assert f(1.5 * math.pi) == pytest.approx(1.5 * math.pi + 0.3, abs=1e-15)
    oracle = bump_lift(1.5 * math.pi, 0.3)
    assert f(1.5 * math.pi) == pytest.approx(oracle, abs=1e-15)


def test_bump_identity_on_closed_semicircle():
    f = semicircle_bump(0.3)
    for theta in np.linspace(0.0, math.pi, 97):
        assert f(float(theta)) == float(theta)
    assert f(1.5 * math.pi) != 1.5 * math.pi


def test_bump_zero_amplitude_is_identity():
    f = semicircle_bump(0.0)
    xs = RNG.uniform(0, TWO_PI, 200)
    assert np.array_equal(f(xs), xs)


def test_eval_matches_oracle_lift_everywhere():
    f = semicircle_bump(0.3)
    for theta in RNG.uniform(0, TWO_PI, 300):
        assert f(float(theta)) == pytest.approx(
            normalize(bump_lift(float(theta), 0.3)), abs=1e-14
        )


# --- inverse ----------------------------------------------------------------


def test_inverse_identity_and_rotation_exact():
    assert IdentityDiffeo().inverse(2.0) == 2.0
    f = RotationDiffeo(1.0)
    ys = RNG.uniform(0, TWO_PI, 100)
    for y in ys:
        assert circle_distance(f.inverse(float(y)), normalize(float(y) - 1.0)) == 0.0


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_inverse_round_trip_10k(f):
    ys = RNG.uniform(0.0, TWO_PI, 10_000)
    back = f(f.inverse(ys))
    assert float(np.max(circle_distance(back, ys))) < 1e-12


def test_inverse_scalar_matches_vector_path():
    f = semicircle_bump(0.3)
    ys = RNG.uniform(0.0, TWO_PI, 64)
    vec = f.inverse(ys)
    for y, xv in zip(ys, vec):
        assert abs(f.inverse(float(y)) - xv) < 1e-13


def test_bump_inverse_round_trip_at_midpoint():
    f = semicircle_bump(0.3)
    y = f(1.5 * math.pi)
    assert circle_distance(f.inverse(y), 1.5 * math.pi) < 1e-12


# --- derivative -------------------------------------------------------------


def test_derivative_trivial_families():
    assert IdentityDiffeo().derivative(0.3) == 1.0
    assert RotationDiffeo(2.0).derivative(5.1) == 1.0


def test_bump_derivative_at_midpoint_is_one():
    # the profile peak is flat, so F' = 1 + a * 0 there
    f = semicircle_bump(0.3)
    assert f.derivative(1.5 * math.pi) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_derivative_matches_finite_differences(f):
    thetas = RNG.uniform(0.0, TWO_PI, 1000)
    worst = 0.0
    for theta in thetas:
        fd = central_diff(f.lift, float(theta), h=1e-6)
        worst = max(worst, abs(fd - f.derivative(float(theta))))
    assert worst < 1e-6


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_second_derivative_matches_finite_differences(f):
    thetas = RNG.uniform(0.0, TWO_PI, 200)
    worst = 0.0
    for theta in thetas:
        fd = central_diff(f.lift_derivative, float(theta), h=1e-6)
        worst = max(worst, abs(fd - f.second_derivative(float(theta))))
    assert worst < 1e-5


def test_derivative_pair_consistent():
    f = semicircle_bump(0.3)
    xs = RNG.uniform(0.0, TWO_PI, 500)
    d1, d2 = f.derivative_pair(xs)
    assert np.allclose(d1, f.derivative(xs), rtol=0, atol=1e-14)
    assert np.allclose(d2, f.second_derivative(xs), rtol=0, atol=1e-14)


# --- lift invariants --------------------------------------------------------


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_degree_one(f):
    xs = RNG.uniform(-5.0, 5.0, 100)
    assert np.max(np.abs(f.lift(xs + TWO_PI) - f.lift(xs) - TWO_PI)) < 1e-12
    assert abs(f.lift(TWO_PI) - f.lift(0.0) - TWO_PI) < 1e-12


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_lift_strictly_increasing_on_grid(f):
    xs = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
    vals = f.lift(xs)
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_orientation_preserved(f):
    # lifted images preserve order for theta2 - theta1 < 2*pi
    pairs = RNG.uniform(0.0, TWO_PI, (200, 2))
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-12:
            continue
        assert f.lift(lo) < f.lift(hi)


def test_monotonicity_margin_stored():
    f = semicircle_bump(0.3)
    # profile slope peaks at about 4.2356/width, so margin = 1 - 0.3 * that
    assert f.monotonicity_margin == pytest.approx(0.5955, abs=2e-3)


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inverse_rejects_non_finite_target(f, bad):
    with pytest.raises(ValueError):
        f.inverse(bad)
    with pytest.raises(ValueError):
        f.inverse(np.array([0.0, bad]))


def test_non_finite_parameters_rejected():
    class NanSlope(IdentityDiffeo):
        def lift_derivative(self, x):
            return np.full_like(x, math.nan)

    with pytest.raises(MonotonicityViolation):
        NanSlope()._check_invariants()
    knots, values = make_sinusoid_spline_data()
    values = np.array(values)
    values[1] = math.nan
    for build in (
        lambda: RotationDiffeo(math.nan),
        lambda: BumpDiffeo(math.nan),
        lambda: SplineDiffeo(knots, values),
    ):
        with pytest.raises(ValueError):
            build()


def test_monotonicity_violation_raises():
    with pytest.raises(MonotonicityViolation):
        semicircle_bump(0.8)
    with pytest.raises(MonotonicityViolation):
        BumpDiffeo(0.5, 0.0, 1.0)  # narrow arc: slope bound scales with width


def test_spline_monotonicity_violation():
    knots = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    values = knots.copy()
    values[3] += 2.0  # forces a decreasing stretch
    with pytest.raises(MonotonicityViolation):
        SplineDiffeo(knots, values)


def test_bump_bad_support_rejected():
    with pytest.raises(ValueError):
        BumpDiffeo(0.1, 3.0, 2.0)
    with pytest.raises(ValueError):
        BumpDiffeo(0.1, -0.5, 1.0)


def test_spline_tracks_its_data():
    knots, values = make_sinusoid_spline_data()
    f = SplineDiffeo(knots, values)
    oracle = spline_lift_oracle(knots, values)
    for x in RNG.uniform(0, TWO_PI, 200):
        assert f.lift(float(x)) == pytest.approx(oracle(float(x)), abs=1e-12)
    # interpolation: exact at the knots
    for k, v in zip(knots, values):
        assert f.lift(float(k)) == pytest.approx(float(v), abs=1e-12)
