"""Correctness checks of the benchmark, independent of the package.

Period checks go through an oracle written from the definitions: the lift is
spelled out from the bump formula (or a periodic cubic spline through the
configured deviations), every inverse is a scipy brentq solve, and the
transition map is the four-map composition.  No code is shared with
sectionlab or its test suite, so a legitimate change of algorithm inside the
package (lockstep scans, exact transport, merged integrators) keeps passing
while a wrong answer does not.

Every check returns a list of problem strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-9
# a closure distance within this factor of the tolerance (either side) is
# too close to call, so the oracle does not overrule the package there
AMBIGUITY_FACTOR = 10.0
CROSSING_DEVIATION_BOUND = 1e-9
# RK4 at ds = 1e-3 drifts ~1e-11 over s = 20; an adaptive or exact
# integrator may legitimately drift more, but never to 1e-6
SPEED_ERROR_BOUND = 1e-6


# ----------------------------------------------------------------------------
# period oracle


def _norm(x: float) -> float:
    r = x % TWO_PI
    return 0.0 if r >= TWO_PI else r


def _cdist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def bump_lift(amplitude: float, lo: float, hi: float):
    """x + a * exp(4 - 1/(u(1-u))) on the arc (lo, hi), identity elsewhere."""

    def lift(x: float) -> float:
        u = (_norm(x) - lo) / (hi - lo)
        if u <= 0.0 or u >= 1.0:
            return x
        return x + amplitude * math.exp(4.0 - 1.0 / (u * (1.0 - u)))

    return lift


def spline_lift(knots, values):
    """x plus the periodic cubic spline through the deviations values - knots."""
    knots = np.asarray(knots, dtype=float)
    dev = np.asarray(values, dtype=float) - knots
    spl = CubicSpline(np.append(knots, knots[0] + TWO_PI), np.append(dev, dev[0]), bc_type="periodic")
    x0 = float(knots[0])

    def lift(x: float) -> float:
        return x + float(spl(x0 + (x - x0) % TWO_PI))

    return lift


def lift_for(diffeo: dict):
    """Oracle lift for a [diffeo] section given as a dict of parsed values."""
    kind = diffeo.get("kind", "bump")
    if kind == "bump":
        return bump_lift(
            float(diffeo.get("amplitude", 0.3)),
            float(diffeo.get("support_lo", math.pi)),
            float(diffeo.get("support_hi", TWO_PI)),
        )
    if kind == "spline":
        return spline_lift(diffeo["spline_knots"], diffeo["spline_values"])
    raise ValueError(f"no oracle for diffeo kind {kind!r}")


def transition(lift, theta: float) -> float:
    """antipode(f^-1(antipode(f(theta)))), each inverse by brentq on the lift."""
    y = _norm(_norm(lift(_norm(theta))) + math.pi)
    x = brentq(lambda s: lift(s) - y, y - TWO_PI, y + TWO_PI, xtol=1e-15, rtol=8.9e-16)
    return _norm(_norm(x) + math.pi)


def oracle_period(lift, theta: float, k_max: int = 64, tol: float = CLOSURE_TOL):
    """(least k <= k_max with T^k(theta) within tol of theta, or None; ambiguous).

    `ambiguous` is True when some iterate up to the answer came within
    AMBIGUITY_FACTOR of the tolerance on either side, where rounding in a
    different but correct implementation could flip the class.
    """
    x = theta
    ambiguous = False
    for k in range(1, k_max + 1):
        x = transition(lift, x)
        d = _cdist(x, theta)
        if tol / AMBIGUITY_FACTOR <= d < tol * AMBIGUITY_FACTOR:
            ambiguous = True
        if d < tol:
            return k, ambiguous
    return None, ambiguous


def check_period(lift, theta: float, reported, k_max: int = 64, tol: float = CLOSURE_TOL) -> list[str]:
    """The reported period (int or None) must match the oracle's, unless ambiguous."""
    k, ambiguous = oracle_period(lift, theta, k_max, tol)
    if k != reported and not ambiguous:
        return [f"theta={theta!r}: reported period {reported}, oracle {k}"]
    return []


# ----------------------------------------------------------------------------
# output files


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dir_digests(directory: Path) -> dict:
    """sha256 of every file a job wrote, by file name."""
    return {p.name: sha256_file(p) for p in sorted(Path(directory).iterdir()) if p.is_file()}


def combined_digest(file_digests: dict) -> str:
    return sha256_text(json.dumps(file_digests, sort_keys=True))


def _data_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


def check_periods_csv(path: Path, n_samples: int, lift, picks, k_max: int = 64, tol: float = CLOSURE_TOL) -> list[str]:
    """periods.csv has one row per sample at i*2pi/n; picked rows match the oracle."""
    rows = _data_rows(Path(path).read_text(encoding="utf-8"))
    if not rows or rows[0] != ["theta_radians", "period_k", "fragile_flag"]:
        return [f"{path.name}: missing header"]
    rows = rows[1:]
    if len(rows) != n_samples:
        return [f"{path.name}: {len(rows)} rows, expected {n_samples}"]
    problems = []
    step = TWO_PI / n_samples
    for i, row in enumerate(rows):
        if abs(float(row[0]) - i * step) > 1e-12:
            problems.append(f"{path.name}: row {i} theta {row[0]} is not sample {i}")
            break
    for i in picks:
        theta, period = float(rows[i][0]), rows[i][1]
        problems += check_period(lift, theta, int(period) if period else None, k_max, tol)
    return problems


def check_verdict(closed: bool, period, length, injective: bool, witness) -> list[str]:
    """A closed section has length 4k; a non-closed one carries an injectivity witness."""
    if closed:
        if period is None or period < 1 or length != 4 * period:
            return [f"closed section with period {period} has length {length}, expected 4k"]
        return []
    if injective or witness is None:
        return ["non-closed section without an injectivity witness"]
    return []


def check_trace_json(path: Path) -> list[str]:
    """trace.json of `trace --numeric`: a valid verdict and a close numeric cross-check."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    v = doc["verdict"]
    length = math.inf if v["length"] is None else v["length"]
    problems = check_verdict(v["closed"], v["period"], length, v["injective"], v["witness"])
    dev = doc.get("numeric_crossing_deviation")
    if dev is None or not dev <= CROSSING_DEVIATION_BOUND:
        problems.append(f"numeric_crossing_deviation {dev} above {CROSSING_DEVIATION_BOUND}")
    return problems


def check_speed(speed_error: float) -> list[str]:
    if not speed_error < SPEED_ERROR_BOUND:
        return [f"final speed_error {speed_error:.3e} not below {SPEED_ERROR_BOUND}"]
    return []


def trajectory_final(path: Path) -> tuple[int, float, float, float, float, float]:
    """Last record (chart, s, t, theta, vt, vtheta) of a trajectory.csv."""
    rows = _data_rows(Path(path).read_text(encoding="utf-8"))
    if len(rows) < 2 or rows[0] != ["s", "chart", "t", "theta", "vt", "vtheta"]:
        raise ValueError(f"{path.name}: malformed trajectory records")
    s, chart, t, theta, vt, vth = rows[-1]
    return int(chart), float(s), float(t), float(theta), float(vt), float(vth)


def check_verify_csv(path: Path) -> list[str]:
    rows = _data_rows(Path(path).read_text(encoding="utf-8"))
    if not rows or rows[0] != ["check", "passed", "residual"] or len(rows) < 2:
        return [f"{path.name}: malformed"]
    return [f"verify check {r[0]} failed (residual {r[2]})" for r in rows[1:] if r[1] != "1"]


def check_metric_grid(path: Path, n_t: int, n_theta: int) -> list[str]:
    rows = _data_rows(Path(path).read_text(encoding="utf-8"))
    if not rows or rows[0] != ["chart", "t", "theta", "phi", "phi_t", "phi_theta"]:
        return [f"{path.name}: missing header"]
    rows = rows[1:]
    if len(rows) != 2 * n_t * n_theta:
        return [f"{path.name}: {len(rows)} rows, expected {2 * n_t * n_theta}"]
    bad = [r for r in rows if not float(r[3]) >= 0.0]
    return [f"{path.name}: {len(bad)} rows with negative or NaN phi"] if bad else []
