"""Tests for the verification checks and the common-period arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sectionlab import (
    GluedMetric,
    IdentityDiffeo,
    NonPositiveRadius,
    VerificationReport,
    all_or_none_check,
    geodesics,
    integrate,
    rational_closure,
    run_all_checks,
    semicircle_bump,
)
from sectionlab.verify import (
    DRIFT_BOUND,
    CheckResult,
    _sample_nonradial_states,
    drift_bound,
    gluing_check,
)

from oracles import lcm_brute

RNG = np.random.default_rng(5)


def default_metric():
    return GluedMetric(semicircle_bump(0.3))


def _drift(res):
    """The worst final speed_error that all_or_none_check reports in its detail."""
    return float(res.detail.split("worst speed drift=")[1].split()[0])


# --- individual checks ---------------------------------------------------------


def test_all_or_none_small_run_passes():
    res = all_or_none_check(default_metric(), n_geodesics=12, s_max=4.0, seed=3)
    assert res.passed
    assert res.residual == 0.0
    assert res.params["seed"] == 3
    assert 0.0 < _drift(res) <= DRIFT_BOUND


def test_all_or_none_passes_at_a_coarser_legal_step():
    # ds sets the annulus tolerance, which grows as ds^4: at ds = 5e-3 a
    # correct run exceeds the bound of the default step, so the bound has to
    # scale with the run
    assert drift_bound(1e-3, 4.0) == drift_bound(5e-4, 20.0) == DRIFT_BOUND
    assert drift_bound(2e-3, 40.0) == 64 * DRIFT_BOUND
    res = all_or_none_check(default_metric(), n_geodesics=12, s_max=4.0, ds=5e-3, seed=3)
    assert res.passed
    assert DRIFT_BOUND < _drift(res) <= drift_bound(5e-3, 4.0)


def test_all_or_none_passes_at_the_largest_legal_steps():
    # annulus steps are at most half the narrower flat zone whatever ds, so
    # every ds that Config.validate accepts runs to the end (fixed steps of
    # 0.2 jumped the plateau on these 100 runs)
    res = all_or_none_check(default_metric(), n_geodesics=100, s_max=4.0, ds=0.2, seed=3)
    assert res.passed, res.detail
    assert "integration aborted" not in res.detail


def test_all_or_none_flat_disk():
    res = all_or_none_check(GluedMetric(IdentityDiffeo()), n_geodesics=8, s_max=3.0, seed=1)
    assert res.passed


@pytest.mark.parametrize("ds", [1e-3, 5e-3])
def test_all_or_none_fails_on_drift_under_a_wrong_christoffel_term(monkeypatch, ds):
    # negative control: Gamma^theta_t-theta scaled by 1.01.  vtheta' stays
    # homogeneous in vtheta, so no sign flips; only the drift bound can fail
    def skewed_rhs(warp, chart, t, th, vt, vth):
        phi, phi_t, phi_th = warp(chart, t, th)
        dvt = phi * phi_t * vth * vth
        dvth = -1.01 * (2.0 * phi_t / phi) * vt * vth - (phi_th / phi) * vth * vth
        return vt, vth, dvt, dvth

    monkeypatch.setattr(geodesics, "_rhs", skewed_rhs)
    res = all_or_none_check(default_metric(), n_geodesics=12, s_max=4.0, ds=ds, seed=3)
    assert not res.passed
    assert res.residual == 0.0
    assert _drift(res) > 1e3 * drift_bound(ds, 4.0)


def test_all_or_none_counts_the_sign_changes_of_a_forced_vtheta(monkeypatch):
    # negative control of the flip half: a forcing term dvtheta/ds -= 0.5 is
    # not homogeneous in vtheta, so vtheta can change sign; the residual is
    # the number of sign changes, as counted along integrate's records
    rhs = geodesics._rhs

    def forced_rhs(warp, chart, t, th, vt, vth):
        dt, dth, dvt, dvth = rhs(warp, chart, t, th, vt, vth)
        return dt, dth, dvt, dvth - 0.5

    monkeypatch.setattr(geodesics, "_rhs", forced_rhs)
    m = default_metric()
    res = all_or_none_check(m, n_geodesics=4, s_max=4.0, seed=3)
    changes = 0
    for init in _sample_nonradial_states(m, 4, np.random.default_rng(3)):
        signs = np.sign([st.vtheta for st in integrate(m, init, s_max=4.0).states])
        changes += int(np.count_nonzero(signs[1:] != signs[:-1]))
    assert not res.passed
    assert changes > 0
    assert res.residual == changes


def test_all_or_none_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n_geodesics"):
        all_or_none_check(default_metric(), n_geodesics=0)
    with pytest.raises(ValueError, match="ds"):
        all_or_none_check(default_metric(), n_geodesics=2, ds=0.0)


@pytest.mark.parametrize("n", [2.5, True, np.int64(0)], ids=["2.5", "True", "int64(0)"])
def test_all_or_none_budget_must_be_an_integer(n):
    # 2.5 integrated 3 geodesics and recorded 2.5
    with pytest.raises(ValueError, match="n_geodesics must be an integer >= 1"):
        all_or_none_check(default_metric(), n_geodesics=n)


def test_all_or_none_reports_an_aborted_run():
    # psi1 near the float limit overflows the plateau warp (see
    # test_non_finite_step_raises): a solver failure is a FAIL row, not a crash
    m = GluedMetric(semicircle_bump(0.3), psi1_scale=1e308)
    res = all_or_none_check(m, n_geodesics=10, s_max=20.0, seed=0)
    assert not res.passed
    assert res.residual == math.inf
    assert "integration aborted" in res.detail


def test_gluing_check_pass_and_tampered_fail():
    assert gluing_check(default_metric()).passed
    tampered = GluedMetric(semicircle_bump(0.3), psi1_scale=1.01)
    res = gluing_check(tampered)
    assert not res.passed
    assert res.residual > 1e-3


def test_run_all_checks_report():
    report = run_all_checks(default_metric(), seed=0, n_geodesics=6, s_max=3.0)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "gluing_compatibility",
        "all_or_none",
    ]
    text = report.summary_text()
    assert "PASS" in text and "FAIL" not in text
    csv_text = report.to_csv_text(["x = 1"])
    assert csv_text.splitlines()[1] == "check,passed,residual"


def test_report_rejects_duplicate_names():
    report = VerificationReport()
    entry = CheckResult("x", True, 0.0, {})
    report.add(entry)
    with pytest.raises(ValueError):
        report.add(entry)


# --- rational closure ------------------------------------------------------------


def test_rational_closure_trivial():
    assert rational_closure(1, 1) == Fraction(1)


def test_rational_closure_integers():
    assert rational_closure(2, 3) == Fraction(6)
    assert rational_closure(2, 3) == lcm_brute(2, 3)


def test_rational_closure_fractions():
    assert rational_closure(Fraction(1, 2), Fraction(1, 3)) == Fraction(1)
    assert rational_closure((1, 2), (1, 3)) == Fraction(1)
    assert rational_closure(Fraction(3, 4), Fraction(5, 6)) == Fraction(15, 2)


def test_rational_closure_symmetric():
    for _ in range(50):
        p1, q1, p2, q2 = (int(x) for x in RNG.integers(1, 40, 4))
        r, s = Fraction(p1, q1), Fraction(p2, q2)
        assert rational_closure(r, s) == rational_closure(s, r)


def test_rational_closure_scaling():
    for _ in range(50):
        p1, q1, p2, q2, pc, qc = (int(x) for x in RNG.integers(1, 30, 6))
        r, s, c = Fraction(p1, q1), Fraction(p2, q2), Fraction(pc, qc)
        assert rational_closure(c * r, c * s) == c * rational_closure(r, s)


def test_rational_closure_divides_products():
    # the returned value is a common multiple, and the least one
    for _ in range(50):
        p1, q1, p2, q2 = (int(x) for x in RNG.integers(1, 25, 4))
        r, s = Fraction(p1, q1), Fraction(p2, q2)
        ell = rational_closure(r, s)
        assert (ell / r).denominator == 1
        assert (ell / s).denominator == 1
        for div in (2, 3, 5):
            smaller = ell / div
            assert (smaller / r).denominator != 1 or (smaller / s).denominator != 1


def test_rational_closure_irrational_flag():
    assert rational_closure(1, 1, irrational_ratio=True) is None


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)], ids=["inf", "-inf", "nan", "float64(inf)"]
)
def test_rational_closure_rejects_non_finite_radii(bad):
    # an infinite radius raised OverflowError from Fraction
    for r, s in ((bad, 1), (1, bad)):
        with pytest.raises(ValueError, match="radii must be finite"):
            rational_closure(r, s)


def test_rational_closure_rejects_nonpositive():
    with pytest.raises(NonPositiveRadius):
        rational_closure(0, 1)
    with pytest.raises(NonPositiveRadius):
        rational_closure(2, Fraction(-1, 3))
