"""Tests for angles and the circle diffeomorphism families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sectionlab.circle import (
    INVERSE_TOL,
    CircleDiffeo,
    _bump01,
    _bump01_d1d2,
    _bump01_d1d2_vec,
    _bump01_vec,
    periodic_spline,
)
from sectionlab.geodesics import ANGLE_BOUND
from sectionlab.metric import _PlateauLift

from oracles import bump_lift, central_diff, invert_lift, make_sinusoid_spline_data, spline_lift_oracle
from strategies import drawn_maps, spline_tables

RNG = np.random.default_rng(20240817)


def bits(values):
    """The IEEE bit patterns of some floats, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def bump_u(f, x):
    """The bump's profile argument at x: its angle, wrapped once, on the unit arc."""
    return (x % TWO_PI - f.support_lo) / (f.support_hi - f.support_lo)


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
    xs = RNG.uniform(0.0, TWO_PI, 10_000).tolist()
    # exact from the upper semicircle (subtraction branch), one ulp elsewhere
    assert all(antipode(antipode(x)) == x for x in xs if x >= math.pi)
    assert max(circle_distance(antipode(antipode(x)), x) for x in xs) < 5e-16
    assert antipode(0.0) == math.pi
    assert antipode(math.pi) == 0.0
    assert math.isclose(antipode(math.pi / 3), 4 * math.pi / 3, rel_tol=0, abs_tol=1e-15)


def test_antipode_of_the_float_below_pi_is_two_pi():
    # the one output outside [0, 2 pi) that antipode's docstring states: n + pi
    # rounds up to exactly 2 pi, where normalize(n + pi) is 0.0
    n = math.nextafter(math.pi, 0.0)
    assert antipode(n) == TWO_PI and normalize(n + math.pi) == 0.0
    # a numpy float is a float: the same branch, the same bits
    assert antipode(np.float64(n)) == TWO_PI
    below = [math.nextafter(n, 0.0), *RNG.uniform(0.0, n, 1000).tolist(), 0.0]
    assert all(0.0 <= antipode(x) < TWO_PI for x in below)


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
    # the identity is the zero rotation, with its own name
    ident = IdentityDiffeo()
    assert isinstance(ident, RotationDiffeo) and ident.angle == 0.0
    assert ident.kind == "identity" and repr(ident) == "IdentityDiffeo()"
    ys = np.linspace(-TWO_PI, 2.0 * TWO_PI, 1001)
    assert np.array_equal(ident.inverse(ys), normalize(ys))


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_inverse_round_trip_10k(f):
    ys = RNG.uniform(0.0, TWO_PI, 10_000)
    back = f(f.inverse(ys))
    assert float(np.max(circle_distance(back, ys))) < 1e-12


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_inverse_of_empty_array_is_empty(f):
    out = f.inverse(np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_inverse_scalar_matches_vector_path():
    f = semicircle_bump(0.3)
    ys = RNG.uniform(0.0, TWO_PI, 64)
    vec = f.inverse(ys)
    for y, xv in zip(ys, vec):
        assert f.inverse(float(y)) == xv


def test_bump_inverse_round_trip_at_midpoint():
    f = semicircle_bump(0.3)
    y = f(1.5 * math.pi)
    assert circle_distance(f.inverse(y), 1.5 * math.pi) < 1e-12


def assert_inverse_paths_agree(f, ys):
    """The array inverse keeps the shape of ys, is the float inverse per
    element, bit for bit, and round-trips within INVERSE_TOL."""
    vec = f.inverse(ys)
    assert vec.shape == ys.shape
    assert bits(vec.ravel()) == bits([f.inverse(y) for y in ys.ravel().tolist()])
    assert float(np.max(circle_distance(f(vec), ys), initial=0.0)) <= INVERSE_TOL


@pytest.mark.parametrize("amplitude", [0.7, 0.74])
def test_inverse_on_steep_maps(amplitude):
    # min F' is 0.056 at 0.7 and 0.002 at 0.74: plain Newton two-cycles here
    # unless a step that does not halve the previous one falls back to bisection
    f = semicircle_bump(amplitude)
    assert_inverse_paths_agree(f, np.linspace(0.0, TWO_PI, 20_000, endpoint=False))


_TARGETS = np.linspace(0.0, TWO_PI, 256, endpoint=False)


def _scan_targets(f, n=360):
    """The targets of f^{-1} in an n-sample scan: antipode(f(theta)) per sample."""
    return [antipode(f(i * (TWO_PI / n))) for i in range(n)]


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(drawn_maps)
def test_inverse_property_drawn_maps(build):
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    assert_inverse_paths_agree(f, _TARGETS)
    # the targets of f^{-1} in a 360-sample scan, as a 2-d array
    assert_inverse_paths_agree(f, np.array(_scan_targets(f)).reshape(20, 18))


class CountingBump(BumpDiffeo):
    """Bump map that counts its lift evaluations, alone or paired with F'."""

    lift_calls = 0

    def lift(self, x):
        self.lift_calls += 1
        return super().lift(x)

    def lift_pair(self, x):
        self.lift_calls += 1
        return super().lift_pair(x)


@pytest.mark.parametrize("amplitude", [0.3, 0.7])
def test_inverse_lift_budget(amplitude):
    # bisecting the 4*pi bracket to 1e-10 alone would take 37 lift calls
    f = CountingBump(amplitude)
    targets = _scan_targets(f)
    f.lift_calls = 0
    for y in targets:
        f.inverse(y)
    assert f.lift_calls / len(targets) <= 8.0


def test_inverse_exits_at_an_exact_root():
    # a target on the identity arc is its own root: one (F, F') evaluation,
    # no polish and no residual
    f = CountingBump(0.3)
    for y in [0.0, 1.0, math.pi, math.nextafter(math.pi, 0.0)]:
        f.lift_calls = 0
        assert f.inverse(y) == y and f.lift_calls == 1


def _inverse_reference(f, y):
    """The safeguarded Newton rule as it stood before `lift_pair`: lift and
    then lift_derivative at each iterate, one polish, one residual."""
    target = normalize(y)
    lo, hi, x = target - TWO_PI, target + TWO_PI, target
    step = hi - lo
    for _ in range(200):
        r = f.lift(x) - target
        if r < 0.0:
            lo = x
        else:
            hi = x
        d = f.lift_derivative(x)
        nxt = x - r / d
        if not lo <= nxt <= hi or abs(2.0 * r) > abs(step * d):
            nxt = 0.5 * (lo + hi)
        step = nxt - x
        x = nxt
        if abs(step) <= 1e-10:
            break
    else:
        raise AssertionError(f"no convergence for {y!r}")
    x -= (f.lift(x) - target) / f.lift_derivative(x)
    assert abs(f.lift(x) - target) <= INVERSE_TOL
    return normalize(x)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(drawn_maps, st.lists(st.floats(-40.0, 40.0), max_size=20), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_inverse_is_the_reference_newton_loop_bit_for_bit(build, targets, on_arcs):
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    ys = [*targets, *_TARGETS.tolist(), 0.0, -0.0, TWO_PI, math.pi]
    # targets on the identity arcs (a bump's closed complement of its support,
    # its ends and their neighbouring floats), where the first iterate is a root
    for start, length in f.identity_arcs():
        ys += [start + s * length for s in on_arcs] + _ulps(start, 2) + _ulps(start + length, 2)
    assert bits([f.inverse(y) for y in ys]) == bits([_inverse_reference(f, y) for y in ys])


# --- derivative -------------------------------------------------------------


def test_derivative_trivial_families():
    assert IdentityDiffeo().lift_derivative(0.3) == 1.0
    assert RotationDiffeo(2.0).lift_derivative(5.1) == 1.0


def test_bump_derivative_at_midpoint_is_one():
    # the profile peak is flat, so F' = 1 + a * 0 there
    f = semicircle_bump(0.3)
    assert f.lift_derivative(1.5 * math.pi) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_derivative_matches_finite_differences(f):
    thetas = RNG.uniform(0.0, TWO_PI, 1000)
    worst = 0.0
    for theta in thetas:
        fd = central_diff(f.lift, float(theta), h=1e-6)
        worst = max(worst, abs(fd - f.lift_derivative(float(theta))))
    assert worst < 1e-6


@pytest.mark.parametrize("f", all_families(), ids=lambda f: f.kind)
def test_second_derivative_matches_finite_differences(f):
    thetas = RNG.uniform(0.0, TWO_PI, 200)
    worst = 0.0
    for theta in thetas:
        fd = central_diff(f.lift_derivative, float(theta), h=1e-6)
        worst = max(worst, abs(fd - f.derivative_pair(float(theta))[1]))
    assert worst < 1e-5


def test_derivative_pair_consistent():
    xs = RNG.uniform(0.0, TWO_PI, 500)
    for f in all_families():
        d1, d2 = f.derivative_pair(xs)
        assert d1.shape == d2.shape == xs.shape
        # F' is the same expression as `lift_derivative`: bit-identical, scalar and array
        assert np.array_equal(d1, f.lift_derivative(xs)), f.kind
        pairs = [f.derivative_pair(float(x)) for x in xs]
        assert [p[0] for p in pairs] == [f.lift_derivative(float(x)) for x in xs], f.kind
        assert np.allclose([p[1] for p in pairs], d2, rtol=1e-13, atol=1e-14), f.kind


def test_spline_derivative_pair_wraps_once():
    # F' of derivative_pair is lift_derivative's bit for bit off [0, 2 pi)
    # too, with a first knot that is not 0: both wrap once, the spline's way
    knots = np.linspace(0.3, 6.0, 9)
    f = SplineDiffeo(knots, knots + 0.1 * np.sin(knots))
    xs = RNG.uniform(-20.0, 20.0, 20000)
    assert np.array_equal(f.derivative_pair(xs)[0], f.lift_derivative(xs))
    scalars = [float(x) for x in xs[:2000]]
    assert [f.derivative_pair(x)[0] for x in scalars] == [f.lift_derivative(x) for x in scalars]


@pytest.mark.parametrize(
    "f",
    [semicircle_bump(0.3), BumpDiffeo(-0.2, 0.5, 2.0), BumpDiffeo(0.4, 0.0, TWO_PI)],
    ids=["default", "negative_arc_0.5_2", "whole_circle_support"],
)
def test_bump_derivative_pair_is_the_profile_kernel_bit_for_bit(f):
    # the inlined scalar branch against bump_u and _bump01_d1d2 composed, on and
    # off the arc (where a negative amplitude makes F'' -0.0), off [0, 2 pi)
    # and at its ends
    xs = [*RNG.uniform(-20.0, 20.0, 4000).tolist(), 0.0, -0.0, TWO_PI, math.pi, 0.5, 2.0]
    a, w = f.amplitude, f.support_hi - f.support_lo
    want = []
    for x in xs:
        d1, d2 = _bump01_d1d2(bump_u(f, x))
        want.append((1.0 + (a / w) * d1, (a / w**2) * d2))
    assert bits([f.derivative_pair(x) for x in xs]) == bits(want)


def _ulps(x, n=1):
    """x and the n floats on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _probe_points(n=3000):
    """Random angles on [-20, 20] and out to |x| = ANGLE_BOUND, with +-0,
    +-2 pi, pi, the least subnormals and the floats around ANGLE_BOUND."""
    return [
        *RNG.uniform(-20.0, 20.0, n).tolist(),
        *RNG.uniform(-ANGLE_BOUND, ANGLE_BOUND, n // 3).tolist(),
        *_ulps(ANGLE_BOUND), *_ulps(-ANGLE_BOUND),
        0.0, -0.0, TWO_PI, -TWO_PI, math.pi, 5e-324, -5e-324,
    ]


def _bump_probe_points(f, n=3000):
    """`_probe_points` plus two ulps either side of the bump's support edges,
    of its underflow margins q = 1e-3 and of 2 pi-shifted edges."""
    lo, hi = f.support_lo, f.support_hi
    margin = 0.5 * (1.0 - math.sqrt(1.0 - 4e-3)) * (hi - lo)  # q = 1e-3 this far inside the arc
    edges = [lo, hi, lo + margin, hi - margin, lo - TWO_PI, hi + TWO_PI, lo + 6.0 * TWO_PI]
    return _probe_points(n) + [y for e in edges for y in _ulps(e, 2)]


BUMPS = [
    semicircle_bump(0.3),
    semicircle_bump(-0.3),
    BumpDiffeo(-0.2, 0.5, 2.0),
    BumpDiffeo(0.4, 0.0, TWO_PI),
    BumpDiffeo(-0.4, 0.0, TWO_PI),
]
BUMP_IDS = ["default", "negative", "negative_arc_0.5_2", "whole_circle_support", "negative_whole_circle"]


@pytest.mark.parametrize("f", BUMPS, ids=BUMP_IDS)
def test_bump_lift_float_branch_is_the_profile_kernel_bit_for_bit(f):
    # the inlined float branches of lift and lift_derivative against
    # bump_u with _bump01 and _bump01_d1d2's F' composed: on and off the arc, two
    # ulps either side of its edges and of the underflow margin q = 1e-3, at
    # +-0 (a negative amplitude keeps -0.0 off the arc), and out to
    # |x| = ANGLE_BOUND
    xs = _bump_probe_points(f)
    a, k1 = f.amplitude, f.amplitude / (f.support_hi - f.support_lo)
    lifts = [f.lift(x) for x in xs]
    slopes = [f.lift_derivative(x) for x in xs]
    assert all(type(v) is float for v in lifts + slopes)
    assert bits(lifts) == bits([x + a * _bump01(bump_u(f, x)) for x in xs])
    assert bits(slopes) == bits([1.0 + k1 * _bump01_d1d2(bump_u(f, x))[0] for x in xs])
    # a numpy float takes the float branch and keeps the bits
    assert bits([f.lift(np.float64(x)) for x in xs]) == bits(lifts)
    assert bits([f.lift_derivative(np.float64(x)) for x in xs]) == bits(slopes)
    # the array branch: the same bits where the underflow floor zeroes the
    # profile, and within 1e-13 elsewhere (np.exp and math.exp may differ in
    # the last bit)
    arr = np.array(xs)
    floor = np.array([bump_u(f, x) * (1.0 - bump_u(f, x)) < 1e-3 for x in xs])
    for got, want in ((f.lift(arr), lifts), (f.lift_derivative(arr), slopes)):
        want = np.array(want)
        assert bits(got[floor]) == bits(want[floor])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def assert_lift_pair_is_lift_and_derivative(f, xs):
    """lift_pair(x) is (lift(x), lift_derivative(x)) bit for bit, signs of
    zero included, for Python and numpy floats."""
    want = [(f.lift(x), f.lift_derivative(x)) for x in xs]
    assert bits([f.lift_pair(x) for x in xs]) == bits(want)
    assert bits([f.lift_pair(np.float64(x)) for x in xs[::50]]) == bits(want[::50])


@pytest.mark.parametrize("f", BUMPS, ids=BUMP_IDS)
def test_bump_lift_pair_is_lift_and_derivative_bit_for_bit(f):
    assert_lift_pair_is_lift_and_derivative(f, _bump_probe_points(f))


def test_lift_pair_of_splines_and_the_plateau_lift_bit_for_bit():
    # the base class's pair, on the spline map and the psi_2 plateau lift
    knots, values = make_sinusoid_spline_data()
    psi2 = periodic_spline(knots, 1.0 + 0.2 * np.cos(2.0 * knots))
    for f in [SplineDiffeo(knots, values), _PlateauLift(psi2)]:
        assert_lift_pair_is_lift_and_derivative(f, _probe_points(1000))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(drawn_maps)
def test_lift_pair_of_drawn_maps_bit_for_bit(build):
    try:
        f = build()
    except ValueError:  # MonotonicityViolation included
        return
    xs = _bump_probe_points(f, 300) if isinstance(f, BumpDiffeo) else _probe_points(300)
    assert_lift_pair_is_lift_and_derivative(f, xs)


class HarmonicLift(CircleDiffeo):
    """The exact lift x + a sin 2x, defined by `lift` and `derivative_pair` alone."""

    kind = "harmonic"

    def __init__(self, amplitude=0.2):
        self.amplitude = amplitude
        self._check_invariants()

    def lift(self, x):
        return x + self.amplitude * np.sin(2.0 * x)

    def derivative_pair(self, theta):
        return 1.0 + 2.0 * self.amplitude * np.cos(2.0 * theta), -4.0 * self.amplitude * np.sin(2.0 * theta)


def test_a_map_needs_only_lift_and_derivative_pair():
    # the base class derives F' alone, the float pair, evaluation, the
    # construction checks and the inverse from the two evaluators
    f = HarmonicLift()
    assert f.monotonicity_margin == pytest.approx(0.6, abs=1e-9)
    with pytest.raises(MonotonicityViolation):
        HarmonicLift(0.6)  # F' = 1 + 1.2 cos 2x reaches -0.2
    xs = _probe_points(1000)
    arr = np.array(xs)
    assert bits(f.lift_derivative(arr)) == bits(f.derivative_pair(arr)[0])
    assert bits([f.lift_derivative(x) for x in xs]) == bits([f.derivative_pair(x)[0] for x in xs])
    assert_lift_pair_is_lift_and_derivative(f, xs)
    lift = lambda x: x + 0.2 * math.sin(2.0 * x)
    for y in RNG.uniform(-20.0, 20.0, 300).tolist():
        assert f(y) == pytest.approx(normalize(lift(normalize(y))), abs=1e-14)
        x = f.inverse(y)
        assert 0.0 <= x < TWO_PI
        assert circle_distance(x, invert_lift(lift, y)) < 1e-12


def test_a_lift_of_another_degree_is_refused():
    # the negative control of the degree-one check: 1.01 x is increasing,
    # so only equivariance F(x + 2 pi) = F(x) + 2 pi can refuse it
    class Stretched(IdentityDiffeo):
        def lift(self, x):
            return 1.01 * x

    with pytest.raises(ValueError, match="not degree one"):
        Stretched()._check_invariants()
    IdentityDiffeo()._check_invariants()


def test_plateau_lift_derivative_pair_is_psi2_over_its_mean():
    knots, _ = make_sinusoid_spline_data()
    psi2 = periodic_spline(knots, 1.0 + 0.2 * np.cos(2.0 * knots))
    p = _PlateauLift(psi2)
    xs = _probe_points(1000)
    assert bits([p.derivative_pair(x) for x in xs]) == bits([(psi2(x) / p.mean, psi2(x, 1) / p.mean) for x in xs])
    arr = np.array(xs)
    assert bits(p.lift_derivative(arr)) == bits(psi2(arr) / p.mean)


@pytest.mark.parametrize(
    "f",
    [semicircle_bump(0.3), BumpDiffeo(-0.2, 0.5, 2.0), BumpDiffeo(0.4, 0.0, TWO_PI)],
    ids=["default", "arc_0.5_2", "whole_circle_support"],
)
def test_bump_identity_arc_is_the_closed_complement_of_its_support(f):
    # F' is exactly 1.0 and F'' exactly 0.0 on the arc, its two ends
    # included, and not inside the support
    (start, length), = f.identity_arcs()
    assert 0.0 <= start < TWO_PI and length == pytest.approx(TWO_PI - (f.support_hi - f.support_lo))
    inside = start + np.linspace(0.0, length, 1001)
    for x in [start, start + length, *inside, *(inside - 3 * TWO_PI)]:
        assert f.derivative_pair(float(x)) == (1.0, 0.0), x
    d1, d2 = f.derivative_pair(inside)
    assert np.all(d1 == 1.0) and np.all(d2 == 0.0)
    quarter = f.support_lo + 0.25 * (f.support_hi - f.support_lo)
    assert f.derivative_pair(quarter)[0] != 1.0
    assert (quarter - start) % TWO_PI > length


def test_identity_arcs_of_rotations_and_splines():
    # a rotation, the identity included, is its own identity arc: the whole
    # circle; a spline reports none
    xs = RNG.uniform(-20.0, 20.0, 200)
    for f in (IdentityDiffeo(), RotationDiffeo(1.1)):
        assert f.identity_arcs() == ((0.0, math.inf),)
        assert all(f.derivative_pair(float(x)) == (1.0, 0.0) for x in xs)
    knots, values = make_sinusoid_spline_data()
    assert SplineDiffeo(knots, values).identity_arcs() == ()


def test_bump_kernels_vanish_off_the_open_unit_interval():
    # off (0, 1) q = u(1 - u) <= 0, so the q floor alone zeroes every kernel
    edges = [-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf]
    for u in edges:
        for value in (_bump01(u), *_bump01_d1d2(u)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, u
    grid = np.concatenate([edges, np.linspace(-0.5, 1.5, 4001)])
    with np.errstate(invalid="ignore"):  # inf - inf in the discarded F'' branch at u = +-inf
        arrays = [_bump01_vec(grid), *_bump01_d1d2_vec(grid)]
    scalars = [
        [_bump01(u) for u in grid],
        [_bump01_d1d2(u)[0] for u in grid],
        [_bump01_d1d2(u)[1] for u in grid],
    ]
    zero = grid * (1.0 - grid) < 1e-3  # where the floor applies
    for scalar, array in zip(scalars, arrays):
        scalar = np.array(scalar)
        # bit for bit where the floor zeroes both; inside, math.exp and
        # np.exp may differ in the last bit
        assert np.array_equal(scalar[zero].view(np.int64), array[zero].view(np.int64))
        assert np.allclose(scalar, array, rtol=1e-13, atol=0.0)


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
    with pytest.raises(MonotonicityViolation):
        # 1.5x the slope limit on an arc that fits between two of the 4096
        # whole-circle check angles: F' reaches -0.50 inside it
        BumpDiffeo(0.000708, 1.0, 1.002)


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


def test_bump_support_too_narrow_for_its_second_derivative_rejected():
    # width**2 underflows to 0 below about 1.6e-162, where F'' would divide by it
    with pytest.raises(ValueError, match=r"support \(0\.0, 1e-200\) is too narrow"):
        BumpDiffeo(0.0, 0.0, 1e-200)
    BumpDiffeo(0.0, 0.0, 1e-150).derivative_pair(5e-151)


def test_spline_tracks_its_data():
    knots, values = make_sinusoid_spline_data()
    f = SplineDiffeo(knots, values)
    oracle = spline_lift_oracle(knots, values)
    for x in RNG.uniform(0, TWO_PI, 200):
        assert f.lift(float(x)) == pytest.approx(oracle(float(x)), abs=1e-12)
    # interpolation: exact at the knots
    for k, v in zip(knots, values):
        assert f.lift(float(k)) == pytest.approx(float(v), abs=1e-12)


# --- periodic spline --------------------------------------------------------

# 1, 2 and 3 knots: the smallest cyclic systems, each with its own wrap terms
FEW_KNOTS = [([0.4], [0.7]), ([0.0, 2.5], [1.0, -0.5]), ([1.0, 3.0, 6.0], [0.2, 1.5, -1.0])]
_SPLINE_GRID = np.linspace(-TWO_PI, 2.0 * TWO_PI, 3001)


def spline_scales(spline, knots):
    """max(1, max |S^(nu)|) for nu = 0, 1, 2, and a bound on |S'''| (piecewise constant)."""
    pts = np.concatenate([_SPLINE_GRID, knots])
    scales = [max(1.0, float(np.max(np.abs(spline(pts, nu))))) for nu in range(3)]
    return scales + [2.0 * scales[2] / np.min(np.diff(np.append(knots, knots[0] + TWO_PI)))]


def check_periodic_spline(knots, values):
    from scipy.interpolate import CubicSpline

    knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
    spline = periodic_spline(knots, values)
    ref = CubicSpline(
        np.append(knots, knots[0] + TWO_PI), np.append(values, values[0]), bc_type="periodic"
    )
    scales = spline_scales(spline, knots)
    wrapped = knots[0] + np.mod(_SPLINE_GRID - knots[0], TWO_PI)
    # relative to the derivative's size: on knots 1e-2 apart |S''| reaches 1e5,
    # and scipy's own solve is off by about 1e-15 of that
    for nu, tol in enumerate([1e-13, 1e-13, 1e-11]):
        gap = np.max(np.abs(spline(_SPLINE_GRID, nu) - ref(wrapped, nu)))
        assert gap <= tol * scales[nu], (nu, gap)
    assert np.max(np.abs(spline(knots) - values)) <= 1e-15
    # one-sided values at every knot (knots[0] from below is the wrap knot);
    # the arguments differ by 2 ulps, and wrapping x + 2*pi moves them by as much
    below, above = np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)
    for nu in range(3):
        tol = 1e-12 * scales[nu] + 4.0 * np.spacing(TWO_PI) * scales[nu + 1]
        assert np.max(np.abs(spline(below, nu) - spline(above, nu))) <= tol, nu
        assert np.max(np.abs(spline(_SPLINE_GRID + TWO_PI, nu) - spline(_SPLINE_GRID, nu))) <= tol


@pytest.mark.parametrize("knots, values", FEW_KNOTS, ids=["1", "2", "3"])
def test_periodic_spline_few_knots(knots, values):
    check_periodic_spline(knots, values)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(spline_tables())
def test_periodic_spline_matches_scipy(table):
    check_periodic_spline(*table)


def check_spline_antiderivative(knots, values):
    from scipy.interpolate import CubicSpline

    knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
    spline = periodic_spline(knots, values)
    ref = CubicSpline(
        np.append(knots, knots[0] + TWO_PI), np.append(values, values[0]), bc_type="periodic"
    ).antiderivative()
    scale = max(1.0, float(np.max(np.abs(spline(_SPLINE_GRID)))))
    # on the base period, where scipy's antiderivative is defined
    base = knots[0] + np.linspace(0.0, TWO_PI, 1001)
    assert np.max(np.abs(spline(base, -1) - ref(base))) <= 1e-13 * scale
    assert spline(knots[0], -1) == 0.0
    # one period integral per 2*pi turn, on the whole line
    period = float(ref(knots[0] + TWO_PI))
    gap = spline(_SPLINE_GRID + TWO_PI, -1) - spline(_SPLINE_GRID, -1) - period
    assert np.max(np.abs(gap)) <= 1e-12 * scale
    # its derivative is the spline: central differences of step 1e-5
    h = 1e-5
    slope = (spline(_SPLINE_GRID + h, -1) - spline(_SPLINE_GRID - h, -1)) / (2.0 * h)
    tol = 1e-6 * scale + h * h * spline_scales(spline, knots)[2]
    assert np.max(np.abs(slope - spline(_SPLINE_GRID))) <= tol


@pytest.mark.parametrize("knots, values", FEW_KNOTS, ids=["1", "2", "3"])
def test_periodic_spline_antiderivative_few_knots(knots, values):
    check_spline_antiderivative(knots, values)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(spline_tables())
def test_periodic_spline_antiderivative_matches_scipy(table):
    check_spline_antiderivative(*table)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(spline_tables())
def test_periodic_spline_float_branch_is_the_array_branch_bit_for_bit(table):
    spline = periodic_spline(*table)
    knots = table[0]
    xs = np.concatenate([np.linspace(-40.0, 40.0, 401), knots, knots + TWO_PI, knots - 3.0 * TWO_PI])
    xs = np.concatenate([xs, np.nextafter(xs, np.inf), [0.0, -0.0, TWO_PI, -1e-18]])
    for nu in range(-1, 3):
        floats = [spline(x, nu) for x in xs.tolist()]
        assert all(type(v) is float for v in floats)
        assert bits(floats) == bits(spline(xs, nu)), nu


def test_periodic_spline_return_types():
    spline = periodic_spline([0.0, 2.0, 4.0], [1.0, 0.5, 2.0])
    for nu in range(-1, 3):
        assert type(spline(1.0, nu)) is float
        assert type(spline(np.float64(7.5), nu)) is float
        grid = np.linspace(-3.0, 9.0, 12).reshape(3, 4)
        assert spline(grid, nu).shape == (3, 4)
        assert np.array_equal(spline(grid, nu).ravel(), spline(grid.ravel(), nu))


@pytest.mark.parametrize("knots", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [-0.1, 1.0], [1.0, TWO_PI]])
def test_periodic_spline_rejects_bad_knots(knots):
    with pytest.raises(ValueError, match=r"^knots must be strictly increasing within \[0, 2\*pi\)$"):
        periodic_spline(knots, np.zeros(len(knots)))
