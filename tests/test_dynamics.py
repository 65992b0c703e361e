"""Tests for the transition map, periods, and whole-circle scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from sectionlab import (
    TWO_PI,
    IdentityDiffeo,
    Period,
    RotationDiffeo,
    SplineDiffeo,
    TransitionMap,
    circle_distance,
    classify_scan,
    has_period_one,
    normalize,
    period_of,
    section_verdict,
    semicircle_bump,
    trace_section,
)

from oracles import (
    bump_lift,
    make_sinusoid_spline_data,
    period_oracle,
    spline_lift_oracle,
    transition_oracle,
)
from strategies import drawn_maps

RNG = np.random.default_rng(7)


def canonical_bump():
    return semicircle_bump(0.3)


# --- transition map ----------------------------------------------------------


def test_transition_identity_is_identity():
    T = TransitionMap(IdentityDiffeo())
    assert T(1.2) == pytest.approx(1.2, abs=1e-15)


def test_transition_rotation_is_identity():
    # the rotation cancels against its inverse around the two antipodes
    for alpha, theta in RNG.uniform(0, TWO_PI, (100, 2)):
        T = TransitionMap(RotationDiffeo(float(alpha)))
        assert circle_distance(T(float(theta)), float(theta)) < 1e-12


def test_transition_matches_composition_oracle():
    T = TransitionMap(canonical_bump())
    lift = lambda x: bump_lift(x, 0.3)
    for theta in RNG.uniform(0, TWO_PI, 200):
        assert circle_distance(T(float(theta)), transition_oracle(lift, float(theta))) < 1e-11


def test_transition_frozen_value():
    # brentq composition oracle value, frozen during development
    T = TransitionMap(canonical_bump())
    assert T(0.75 * math.pi) == pytest.approx(2.227686854207274, abs=1e-12)


def test_transition_monotone_on_grid():
    T = TransitionMap(canonical_bump())
    grid = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    vals = [T(float(g)) for g in grid]
    # displacements stay far below pi, so the lift is theta plus the signed gap
    lifted = [
        g + (((v - g + math.pi) % TWO_PI) - math.pi) for g, v in zip(grid, vals)
    ]
    assert all(b > a for a, b in zip(lifted, lifted[1:]))


def test_transition_fixed_points_always_exist():
    # some antipodal pair maps to an antipodal pair for every family member
    for amp in (0.1, 0.3, 0.6):
        T = TransitionMap(semicircle_bump(amp))
        grid = np.linspace(0.0, TWO_PI, 1440, endpoint=False)
        best = min(circle_distance(T(float(g)), float(g)) for g in grid)
        assert best < 1e-9


# --- period_of ---------------------------------------------------------------


def test_period_identity():
    T = TransitionMap(IdentityDiffeo())
    for theta in RNG.uniform(0, TWO_PI, 16):
        assert period_of(T, float(theta), k_max=8) == Period.finite(1)


def test_period_semicircle_endpoints():
    T = TransitionMap(canonical_bump())
    assert period_of(T, 0.0, k_max=64) == Period.finite(1)
    assert period_of(T, math.pi, k_max=64) == Period.finite(1)


def test_period_bump_interior_has_none():
    T = TransitionMap(canonical_bump())
    p = period_of(T, 1.5 * math.pi, k_max=64)
    assert p == Period.not_found(64)
    assert not p.is_finite
    assert str(p) == "none(<=64)"


def test_period_orbit_matches_oracle_iterates():
    T = TransitionMap(canonical_bump())
    lift = lambda x: bump_lift(x, 0.3)
    x_pkg, x_orc = 1.5 * math.pi, 1.5 * math.pi
    for _ in range(20):
        x_pkg = T(x_pkg)
        x_orc = transition_oracle(lift, x_orc)
        assert circle_distance(x_pkg, x_orc) < 1e-10


def test_period_minimality_on_synthetic_rotation():
    # period_of accepts any circle self-map; a 2/5 turn has least period 5
    step = lambda x: normalize(x + 2.0 * TWO_PI / 5.0)
    p = period_of(step, 0.3, k_max=16)
    assert p == Period.finite(5)
    x = 0.3
    for j in range(1, 5):
        x = step(x)
        assert circle_distance(x, 0.3) >= 1e-9


def test_period_of_scalar_only_callable():
    # math.fmod takes floats only; period_of must never hand T a 1-d array
    step = lambda x: math.fmod(x + 2.0 * TWO_PI / 5.0, TWO_PI)
    assert period_of(step, 0.3, k_max=16) == Period.finite(5)
    assert period_of(step, 0.3, k_max=4) == Period.not_found(4)


def test_period_orbit_invariance():
    step = lambda x: normalize(x + 2.0 * TWO_PI / 5.0)
    assert period_of(step, 0.3, k_max=16) == period_of(step, step(0.3), k_max=16)
    T = TransitionMap(canonical_bump())
    assert period_of(T, 0.0, k_max=8) == period_of(T, T(0.0), k_max=8)


def test_period_of_validates_arguments():
    T = TransitionMap(IdentityDiffeo())
    with pytest.raises(ValueError):
        period_of(T, 0.0, k_max=0)
    with pytest.raises(ValueError):
        period_of(T, 0.0, tol=0.0)


# --- has_period_one ----------------------------------------------------------


def test_has_period_one_identity_everywhere():
    f = IdentityDiffeo()
    for theta in RNG.uniform(0, TWO_PI, 32):
        assert has_period_one(f, float(theta))


def test_has_period_one_bump_endpoints_and_interior():
    f = canonical_bump()
    assert has_period_one(f, 0.0)
    assert has_period_one(f, math.pi)
    # antipode of pi/2 sits mid-bump where the deviation is maximal
    assert not has_period_one(f, 0.5 * math.pi)


def test_period_one_criterion_consistent_with_period_of():
    f = canonical_bump()
    T = TransitionMap(f)
    for i in range(360):
        theta = TWO_PI * i / 360
        lhs = period_of(T, theta, k_max=1) == Period.finite(1)
        assert lhs == has_period_one(f, theta), f"disagreement at sample {i}"


# --- odd equivariance --------------------------------------------------------


def test_odd_equivariant_spline_gives_identity_transition():
    knots, values = make_sinusoid_spline_data(amplitude=0.2, harmonic=2)
    f = SplineDiffeo(knots, values)
    T = TransitionMap(f)
    worst = max(
        circle_distance(T(float(g)), float(g))
        for g in np.linspace(0.0, TWO_PI, 720, endpoint=False)
    )
    assert worst < 1e-9


# --- classify_scan -----------------------------------------------------------


def test_scan_identity_all_period_one():
    report = classify_scan(TransitionMap(IdentityDiffeo()), n_samples=360, k_max=8)
    assert report.histogram == {1: 360}
    assert report.fragile_count == 0
    assert not report.boundaries


def test_scan_rotation_all_period_one():
    report = classify_scan(TransitionMap(RotationDiffeo(math.pi / 3)), n_samples=360, k_max=8)
    assert report.histogram == {1: 360}


def test_scan_bump_histogram_frozen():
    # frozen against the brentq iteration oracle during development
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=360, k_max=64)
    assert report.histogram == {1: 34, None: 326}
    by_index = {i: s for i, s in enumerate(report.samples)}
    assert by_index[0].period == Period.finite(1)
    assert by_index[180].period == Period.finite(1)
    assert by_index[270].period == Period.not_found(64)
    assert report.fragile_count == 0


def test_scan_bump_every_sample_matches_oracle():
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=360, k_max=64)
    lift = lambda x: bump_lift(x, 0.3)
    for i, sample in enumerate(report.samples):
        expect = period_oracle(lift, TWO_PI * i / 360, k_max=64, tol=1e-9)
        assert sample.period.k == expect, f"sample {i}"


def test_scan_spline_every_sample_matches_oracle():
    # odd harmonics: 0 and pi are fixed, every other sample drifts off
    knots = np.linspace(0.0, TWO_PI, 24, endpoint=False)
    values = knots + 0.15 * np.sin(knots) + 0.1 * np.sin(3 * knots)
    report = classify_scan(TransitionMap(SplineDiffeo(knots, values)), n_samples=72, k_max=16)
    assert report.histogram == {1: 2, None: 70}
    lift = spline_lift_oracle(knots, values)
    for i, sample in enumerate(report.samples):
        expect = period_oracle(lift, TWO_PI * i / 72, k_max=16, tol=1e-9)
        assert sample.period.k == expect, f"sample {i}"


def test_scan_reports_class_boundaries():
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=360, k_max=64)
    assert len(report.boundaries) >= 2
    step = TWO_PI / 360
    for b in report.boundaries:
        assert 0.0 < b.theta_hi - b.theta_lo < step


def test_scan_histogram_counts_sum():
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=97, k_max=16)
    assert sum(report.histogram.values()) == 97


def test_scan_flags_near_threshold_samples():
    # at tol = 1e-8 the first-step displacement of a few samples lands inside
    # [tol, 10*tol): they stay unclosed but are marked fragile
    report = classify_scan(
        TransitionMap(canonical_bump()), n_samples=360, k_max=64, tol=1e-8
    )
    flagged = [i for i, s in enumerate(report.samples) if s.fragile]
    assert flagged == [9, 10, 170, 171, 189, 190, 350, 351]
    assert all(report.samples[i].period.k is None for i in flagged)


def test_scan_csv_shape():
    report = classify_scan(TransitionMap(IdentityDiffeo()), n_samples=10, k_max=4)
    text = report.to_csv_text(header_lines=["a = 1"])
    lines = text.strip().splitlines()
    assert lines[0] == "# a = 1"
    assert lines[1] == "theta_radians,period_k,fragile_flag"
    assert len(lines) == 12
    assert lines[2] == "0.0,1,0"


def test_scan_csv_none_period_empty_field():
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=8, k_max=4)
    rows = [r.split(",") for r in report.to_csv_text().strip().splitlines()[1:]]
    has_empty = any(r[1] == "" for r in rows)
    assert has_empty


def test_scan_summary_text():
    report = classify_scan(TransitionMap(canonical_bump()), n_samples=360, k_max=64)
    text = report.summary_text()
    assert "period 1" in text and "none(<=64)" in text and "fragile" in text


# --- one step decides ----------------------------------------------------------


class CountingTransition(TransitionMap):
    """Transition map that records the type of every argument."""

    def __init__(self, f):
        super().__init__(f)
        self.types = []

    def __call__(self, theta):
        self.types.append(type(theta))
        return super().__call__(theta)


def test_scan_one_call_per_step_and_bracket_round():
    # one float call per sample, then one per bisection step: 12 steps for
    # each of the 4 class changes
    T = CountingTransition(canonical_bump())
    report = classify_scan(T)
    assert len(report.boundaries) == 4
    assert T.types == [float] * (360 + 12 * 4)
    # without a class change no bisection step runs
    T = CountingTransition(RotationDiffeo(1.0))
    assert classify_scan(T).boundaries == []
    assert T.types == [float] * 360


def test_scan_requires_transition_map():
    # the one-step rule rests on the transition-map lemma, not on any circle map
    with pytest.raises(TypeError):
        classify_scan(lambda x: x + 0.4 * math.pi, n_samples=8)


def test_scan_validates_horizon():
    T = TransitionMap(canonical_bump())
    with pytest.raises(ValueError):
        classify_scan(T, k_max=0)
    with pytest.raises(ValueError):
        classify_scan(T, tol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_samples": 2.5},
        {"n_samples": True},
        {"n_samples": 0},
        {"k_max": 2.5},
        {"k_max": False},
        {"k_max": np.int64(0)},
    ],
    ids=["n_samples=2.5", "n_samples=True", "n_samples=0", "k_max=2.5", "k_max=False", "k_max=int64(0)"],
)
def test_scan_budgets_must_be_integers(kwargs):
    # 2.5 samples would be 3 spaced 2 pi / 2.5 apart, True one sample, and
    # k_max = 2.5 a report that reads none(<=2); each is refused by name
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        classify_scan(TransitionMap(canonical_bump()), **kwargs)


def test_scan_takes_numpy_integer_budgets():
    T = TransitionMap(canonical_bump())
    report = classify_scan(T, n_samples=np.int64(36), k_max=np.int32(8))
    expect = classify_scan(T, n_samples=36, k_max=8)
    assert report.summary_text() == expect.summary_text()
    assert report.to_csv_text() == expect.to_csv_text()


def test_period_of_budget_must_be_an_integer():
    T = TransitionMap(canonical_bump())
    for k_max in (2.5, True, 0):
        with pytest.raises(ValueError, match="k_max must be an integer >= 1"):
            period_of(T, 1.0, k_max=k_max)
    assert period_of(T, 0.0, k_max=np.int64(2)) == Period.finite(1)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_tol_must_be_positive_and_finite(tol):
    # an infinite tol would close every sample: 360 of 360 would read period 1
    f = canonical_bump()
    T = TransitionMap(f)
    for call in (
        lambda: classify_scan(T, tol=tol),
        lambda: period_of(T, 1.0, tol=tol),
        lambda: has_period_one(f, 1.0, tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_has_period_one_needs_a_finite_angle(theta):
    # a NaN angle used to read as False: not of period 1
    with pytest.raises(ValueError, match="theta must be a finite angle"):
        has_period_one(canonical_bump(), theta)


def assert_scan_is_the_tracer(f, n_samples):
    """Each sample's label is the closure verdict of its exact section, and
    T(theta) is the section's first return, bit for bit."""
    T = TransitionMap(f)
    for sample in classify_scan(T, n_samples=n_samples).samples:
        trace = trace_section(f, sample.theta, max_legs=4)
        assert sample.period.is_finite == section_verdict(trace).closed, f"sample at {sample.theta!r}"
        assert T(sample.theta) == trace.orbit[1], f"sample at {sample.theta!r}"


def test_scan_labels_are_the_tracer_verdicts():
    assert_scan_is_the_tracer(canonical_bump(), 360)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(drawn_maps)
def test_scan_labels_are_the_tracer_verdicts_on_drawn_maps(build):
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    assert_scan_is_the_tracer(f, 72)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(drawn_maps)
def test_scan_matches_brute_force_on_drawn_maps(build):
    # the lemma: every transition map fixes an antipodal pair, so no start has
    # period 2 or more and the first step decides what 64 steps would
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    T = TransitionMap(f)
    report = classify_scan(T, n_samples=12, k_max=64)
    for sample in report.samples:
        brute = period_of(T, sample.theta, k_max=64)
        assert brute.k in (1, None), f"period {brute.k} at {sample.theta!r}"
        assert sample.period == brute, f"sample at {sample.theta!r}"
