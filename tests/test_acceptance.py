"""Acceptance suite: the laboratory's headline demonstrations.

Each test prints one PASS/FAIL line (run with -s to see them all).  Every
tolerance is pinned here, not deferred.

Note on test 4: it demands two closed sections of different lengths, i.e. a
start angle of exact least period k >= 2 under the round-trip transition map
T.  For any orientation-preserving circle map f the function
F(x + pi) - F(x) - pi is continuous and flips sign under a half turn, so it
has a zero: some antipodal pair maps to an antipodal pair, T has a fixed
point, its rotation number is 0, and every periodic point has period 1.
The test searches a spread of map families for a certified k >= 2 start,
finds none, and fails; that failure is the faithful outcome, not a bug in
the search.  Non-isometric behavior is still demonstrated: closed sections
(length 4) coexist with non-closed ones (unbounded, test 5).
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from sectionlab import (
    TWO_PI,
    BumpDiffeo,
    CircleDiffeo,
    GeodesicState,
    GluedMetric,
    IdentityDiffeo,
    Period,
    RotationDiffeo,
    SplineDiffeo,
    TransitionMap,
    circle_distance,
    classify_scan,
    compare_sections,
    integrate,
    line_distance,
    rational_closure,
    section_verdict,
    semicircle_bump,
    trace_section,
    unit_speed_state,
)
from sectionlab.cli import main as cli_main
from sectionlab.verify import all_or_none_check

from oracles import (
    bump_lift,
    flat_polar_geodesic,
    make_sinusoid_spline_data,
    period_oracle,
)

N_SAMPLES = 360
K_MAX = 64
TOL = 1e-9


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  acceptance {n}: {description}")
        raise
    print(f"PASS  acceptance {n}: {description}")


def test_acceptance_01_trivial_dynamics():
    with criterion(1, "identity and rotation scans report period 1 everywhere"):
        for f in (IdentityDiffeo(), RotationDiffeo(math.pi / 3)):
            report = classify_scan(
                TransitionMap(f), n_samples=N_SAMPLES, k_max=K_MAX, tol=TOL
            )
            assert report.histogram == {1: N_SAMPLES}, f.kind


class _SecondHarmonicLift(CircleDiffeo):
    """Exact lift x + 0.2*sin(2x); commutes with the antipode by construction."""

    kind = "sinusoid"

    def __init__(self):
        self._check_invariants()

    def lift(self, x):
        return x + 0.2 * np.sin(2.0 * x)

    def lift_derivative(self, x):
        return 1.0 + 0.4 * np.cos(2.0 * x)


def test_acceptance_02_odd_equivariance():
    with criterion(2, "antipode-equivariant map forces the identity transition"):
        grid = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        for f in (_SecondHarmonicLift(), SplineDiffeo(*make_sinusoid_spline_data(0.2, 2))):
            T = TransitionMap(f)
            worst = max(circle_distance(T(float(g)), float(g)) for g in grid)
            assert worst < 1e-9, f"{f.kind}: max displacement {worst:.3e}"


def test_acceptance_03_nonconstant_period():
    with criterion(3, "semicircle bump scan: period 1 coexists with another class"):
        f = semicircle_bump(0.3)
        report = classify_scan(TransitionMap(f), n_samples=N_SAMPLES, k_max=K_MAX, tol=TOL)
        hist = report.histogram
        assert 1 in hist
        others = [k for k in hist if k != 1]
        assert others, "expected a class besides period 1"
        assert all(k is None or k >= 2 for k in others)
        by_index = {i: s for i, s in enumerate(report.samples)}
        assert by_index[0].period == Period.finite(1)  # theta = 0
        assert by_index[N_SAMPLES // 2].period == Period.finite(1)  # theta = pi
        lift = lambda x: bump_lift(x, 0.3)
        for i, sample in enumerate(report.samples):
            expect = period_oracle(lift, TWO_PI * i / N_SAMPLES, k_max=K_MAX, tol=TOL)
            assert sample.period.k == expect, f"sample {i} disagrees with oracle"


def test_acceptance_04_nonisometric_closed_pair():
    with criterion(4, "closed sections of lengths 4 and 4k (k >= 2) coexist"):
        # length law for the sections that do close: exact 4, numeric within 1e-5
        f = semicircle_bump(0.3)
        cmp_known = compare_sections(f, 0.0, math.pi, k_max=K_MAX, tol=TOL)
        assert cmp_known.length_a == 4.0 and cmp_known.length_b == 4.0
        m = GluedMetric(f)
        traj = integrate(m, GeodesicState(1, 0.0, 0.0, 1.0, 0.0), ds=1e-3, s_max=4.5)
        closing = [p for p in traj.center_passages if p.chart == 1]
        assert closing and abs(closing[0].s - 4.0) < 1e-5

        # search map families for an oracle-certified start of period >= 2
        candidates: list = [
            semicircle_bump(0.1),
            semicircle_bump(0.3),
            semicircle_bump(0.6),
            semicircle_bump(0.7),
            BumpDiffeo(0.45, 2.0, 5.5),
            BumpDiffeo(0.25, 0.5, 3.5),
        ]
        knots = np.linspace(0.0, TWO_PI, 24, endpoint=False)
        candidates.append(SplineDiffeo(knots, knots + 0.15 * np.sin(knots) + 0.1 * np.sin(3 * knots)))
        certified = []
        fixed_point_gaps = []
        for f_cand in candidates:
            T = TransitionMap(f_cand)
            report = classify_scan(T, n_samples=N_SAMPLES, k_max=K_MAX, tol=TOL)
            grid = np.linspace(0.0, TWO_PI, 720, endpoint=False)
            fixed_point_gaps.append(
                min(circle_distance(T(float(g)), float(g)) for g in grid)
            )
            for i, sample in enumerate(report.samples):
                if sample.period.k is not None and sample.period.k >= 2:
                    certified.append((f_cand, TWO_PI * i / N_SAMPLES, sample.period.k))
        assert certified, (
            "no start of least period >= 2 exists in any scanned family: every "
            "orientation-preserving rim map carries some antipodal pair to an "
            "antipodal pair (transition fixed-point gaps: "
            + ", ".join(f"{g:.1e}" for g in fixed_point_gaps)
            + "), so the transition map has rotation number 0 and admits only "
            "period-1 or non-closing starts; two closed sections of different "
            "lengths cannot be produced"
        )
        f_star, theta_star, k_star = certified[0]
        cmp = compare_sections(f_star, 0.0, theta_star, max_legs=2 * K_MAX + 2, k_max=K_MAX)
        assert cmp.length_a == 4.0 and cmp.length_b == 4.0 * k_star and cmp.non_isometric


def test_acceptance_05_noninjective_section():
    with criterion(5, "non-closing section revisits both centers along distinct lines"):
        f = semicircle_bump(0.3)
        theta0 = 1.5 * math.pi
        assert period_oracle(lambda x: bump_lift(x, 0.3), theta0, K_MAX, TOL) is None
        trace = trace_section(f, theta0, max_legs=102, k_max=K_MAX, tol=TOL)
        assert len(trace.legs) == 102
        for chart in (1, 2):
            passages = [p for p in trace.center_passages if p.chart == chart]
            assert len(passages) >= 25
            dirs = [p.direction for p in passages]
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    assert line_distance(dirs[i], dirs[j]) > TOL
        verdict = section_verdict(trace)
        assert not verdict.closed and not verdict.injective
        assert verdict.witness is not None
        assert verdict.witness.separation >= TOL


def test_acceptance_06_foliation_axiom():
    with criterion(6, "vtheta sign constant on 100 non-radial runs"):
        metric = GluedMetric(semicircle_bump(0.3))
        res = all_or_none_check(metric, n_geodesics=100, s_max=20.0, ds=1e-3, seed=0)
        assert res.passed, res.detail
        assert res.residual == 0.0


def test_acceptance_07_metric_correctness():
    with criterion(7, "seam defect < 1e-14; symbols match differences; phi = t near 0"):
        rng = np.random.default_rng(12345)
        metric = GluedMetric(semicircle_bump(0.3))
        assert metric.gluing_residual() < 1e-14
        h = 1e-5
        worst = 0.0
        for _ in range(1000):
            chart = int(rng.integers(1, 3))
            t = float(rng.uniform(0.30, 0.70))
            theta = float(rng.uniform(0.0, TWO_PI))
            phi = metric.warp(chart, t, theta)
            fd_t = (metric.warp(chart, t + h, theta) - metric.warp(chart, t - h, theta)) / (2 * h)
            fd_th = (metric.warp(chart, t, theta + h) - metric.warp(chart, t, theta - h)) / (
                2 * h
            )
            got = metric.christoffel(chart, t, theta)
            want = (-phi * fd_t, fd_t / phi, fd_th / phi)
            worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
        assert worst < 1e-5, f"worst symbol defect {worst:.3e}"
        for t in np.linspace(0.0, 0.25, 101):
            for theta in np.linspace(0.0, TWO_PI, 72, endpoint=False):
                assert metric.warp(1, float(t), float(theta)) == float(t)
                assert metric.warp(2, float(t), float(theta)) == float(t)


def test_acceptance_08_integrator_validation():
    with criterion(8, "flat-zone runs match plane lines; crossings match the tracer"):
        f = semicircle_bump(0.3)
        metric = GluedMetric(f)
        t0, theta0, chi = 0.1, 2.0, math.radians(80.0)
        init = unit_speed_state(metric, 1, t0, theta0, chi)
        traj = integrate(metric, init, ds=1e-3, s_max=0.2)
        worst = 0.0
        for st in traj.states:
            t_ref, th_ref, _, _ = flat_polar_geodesic(t0, theta0, init.vt, init.vtheta, st.s)
            worst = max(worst, abs(st.t - t_ref), circle_distance(st.theta, th_ref))
        assert worst < 1e-8, f"flat-zone deviation {worst:.3e}"
        theta_start = 5.1
        traj = integrate(metric, GeodesicState(1, 0.0, theta_start, 1.0, 0.0), ds=1e-3, s_max=8.0)
        trace = trace_section(f, theta_start, max_legs=12)
        assert len(traj.crossings) >= 3
        for num_c, exact_c in zip(traj.crossings, trace.crossings):
            assert circle_distance(num_c.theta1, exact_c.theta1) < 1e-6
            assert circle_distance(num_c.theta2, exact_c.theta2) < 1e-6


def test_acceptance_09_common_period_arithmetic(capsys):
    with criterion(9, "common-period arithmetic is exact"):
        assert rational_closure(2, 3) == Fraction(6)  # L = 12*pi
        assert rational_closure(1, 1) == Fraction(1)  # L = 2*pi
        assert rational_closure(Fraction(1, 2), Fraction(1, 3)) == Fraction(1)
        assert rational_closure(1, 1, irrational_ratio=True) is None
        assert cli_main(["common-period", "2", "1", "3", "1"]) == 0
        assert capsys.readouterr().out.strip() == "L / (2*pi) = 6"
        assert cli_main(["common-period", "--irrational"]) == 0
        assert capsys.readouterr().out.strip() == "never closes"


def test_acceptance_10_inverse_accuracy():
    with criterion(10, "10^4 inverse round trips below 1e-12 for every family"):
        rng = np.random.default_rng(777)
        knots, values = make_sinusoid_spline_data()
        families = [
            IdentityDiffeo(),
            RotationDiffeo(1.234),
            semicircle_bump(0.3),
            SplineDiffeo(knots, values),
        ]
        for f in families:
            ys = rng.uniform(0.0, TWO_PI, 10_000)
            back = f(f.inverse(ys))
            worst = float(np.max(circle_distance(back, ys)))
            assert worst < 1e-12, f"{f.kind}: {worst:.3e}"
