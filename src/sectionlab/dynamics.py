"""Boundary-angle dynamics of the glued surface.

Each full round trip of a piecewise-radial section advances its outgoing
boundary angle by the transition map

    T = antipode o f^{-1} o antipode o f,

so closure of a section is exactly periodicity of its start angle under T.
This module computes T, the period of a point (least k with T^k returning to
the start within tolerance), and whole-circle period scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import CircleDiffeo, antipode, circle_distance
from .table import csv_text

DEFAULT_K_MAX = 64
DEFAULT_TOL = 1e-9
# near-threshold closure distances within this factor of tol are flagged
FRAGILE_FACTOR = 10.0
# bisection rounds per class-boundary bracket (width step / 2**12)
_BISECT_ROUNDS = 12


class TransitionMap:
    """The circle map advanced once per round trip through both disks.

    Orientation preserving with a monotone degree-one lift, since it is a
    composition of four such maps.  Immutable and safe for concurrent use.
    """

    def __init__(self, f: CircleDiffeo):
        self.f = f

    def __call__(self, theta):
        return antipode(self.f.inverse(antipode(self.f(theta))))

    def __repr__(self):
        return f"TransitionMap({self.f!r})"


@dataclass(frozen=True)
class Period:
    """Tagged period value: finite(k), or none within the searched horizon.

    `none` is a statement about the horizon that was searched, never a claim
    of true aperiodicity.
    """

    k: int | None
    searched: int

    @classmethod
    def finite(cls, k: int) -> "Period":
        return cls(k=int(k), searched=int(k))

    @classmethod
    def not_found(cls, searched: int) -> "Period":
        return cls(k=None, searched=int(searched))

    @property
    def is_finite(self) -> bool:
        return self.k is not None

    def __str__(self):
        return str(self.k) if self.k is not None else f"none(<={self.searched})"


def period_of(T, theta: float, k_max: int = DEFAULT_K_MAX, tol: float = DEFAULT_TOL) -> Period:
    """Least k <= k_max with circle_distance(T^k(theta), theta) < tol.

    T may be any circle self-map callable; it is handed the start angle as a
    0-d array, then its own outputs.  Iterates are the raw images under
    T (each solved to inverse tolerance); no re-normalization of accumulated
    error is applied, so the reported k is minimal for the map as computed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    period, _ = _classify(T, np.asarray(theta, dtype=float), k_max, tol)
    return _period(period, k_max)


def has_period_one(f: CircleDiffeo, theta: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether f carries the line through theta to a line, within tol.

    Equivalent to the point having period 1: the antipode of the image agrees
    with the image of the antipode.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return circle_distance(f(antipode(theta)), antipode(f(theta))) < tol


@dataclass(frozen=True)
class SampleResult:
    theta: float
    period: Period
    fragile: bool


@dataclass(frozen=True)
class ClassBoundary:
    """Best-effort bracket around a change of period class between samples."""

    theta_lo: float
    theta_hi: float
    label_lo: str
    label_hi: str


@dataclass
class PeriodReport:
    """Result of a whole-circle period scan."""

    samples: list[SampleResult]
    n_samples: int
    k_max: int
    tol: float
    boundaries: list[ClassBoundary] = field(default_factory=list)

    @property
    def histogram(self) -> dict:
        hist: dict = {}
        for s in self.samples:
            hist[s.period.k] = hist.get(s.period.k, 0) + 1
        return hist

    @property
    def fragile_count(self) -> int:
        return sum(1 for s in self.samples if s.fragile)

    def to_csv_text(self, header_lines=()) -> str:
        rows = (
            f"{s.theta!r},{'' if s.period.k is None else s.period.k},{int(s.fragile)}"
            for s in self.samples
        )
        return csv_text(header_lines, ("theta_radians", "period_k", "fragile_flag"), rows)

    def summary_text(self) -> str:
        lines = [
            f"period histogram (n={self.n_samples}, k_max={self.k_max}, tol={self.tol:g})"
        ]
        hist = self.histogram
        for key in sorted((k for k in hist if k is not None)):
            lines.append(f"  period {key:<3d}: {hist[key]}")
        if None in hist:
            lines.append(f"  none(<={self.k_max}): {hist[None]}")
        lines.append(f"  fragile samples: {self.fragile_count}")
        for b in self.boundaries:
            lines.append(
                f"  class change in ({b.theta_lo:.9f}, {b.theta_hi:.9f}): "
                f"{b.label_lo} -> {b.label_hi}"
            )
        return "\n".join(lines)


def _classify(T, thetas, k_max: int, tol: float):
    """(period, fragile) arrays for a 0-d or 1-d array of start angles.

    All samples are iterated together; period 0 means none within k_max.
    Iteration stops as soon as every sample has closed.
    """
    period = np.zeros(np.shape(thetas), dtype=int)
    fragile = np.zeros(np.shape(thetas), dtype=bool)
    is_open = np.ones(np.shape(thetas), dtype=bool)
    x = thetas
    for k in range(1, k_max + 1):
        x = T(x)
        d = circle_distance(x, thetas)
        closes = is_open & (d < tol)
        fragile |= is_open & ~closes & (d < FRAGILE_FACTOR * tol)
        period[closes] = k
        is_open &= ~closes
        if not is_open.any():
            break
    return period, fragile


def _period(k: int, k_max: int) -> Period:
    return Period.finite(int(k)) if k else Period.not_found(k_max)


def classify_scan(
    T,
    n_samples: int = 360,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> PeriodReport:
    """Classify n_samples equispaced angles (always including 0) by period.

    A sample is flagged fragile when some iterate before its detected period
    came within a factor of ten of the closure tolerance, i.e. the class
    could flip under a small retuning of tol.  T must accept arrays: all
    samples are iterated together, one T call per step.

    Boundary brackets between adjacent samples of different classes are
    located by bisection as a best-effort diagnostic only.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    step = 2.0 * math.pi / n_samples
    thetas = np.arange(n_samples) * step
    period, fragile = _classify(T, thetas, k_max, tol)
    samples = [
        SampleResult(float(theta), _period(k, k_max), bool(flag))
        for theta, k, flag in zip(thetas, period, fragile)
    ]
    report = PeriodReport(samples=samples, n_samples=n_samples, k_max=k_max, tol=tol)
    if n_samples >= 2:
        report.boundaries = _locate_boundaries(T, samples, step, k_max, tol)
    return report


def _locate_boundaries(T, samples, step, k_max, tol):
    """Bisect every class change between neighbours, all brackets per T call."""
    n = len(samples)
    pairs = [(a, samples[(i + 1) % n]) for i, a in enumerate(samples)]
    pairs = [(a, b) for a, b in pairs if a.period.k != b.period.k]
    if not pairs:
        return []
    lo = np.array([a.theta for a, _ in pairs])
    hi = lo + step
    k_lo = np.array([a.period.k or 0 for a, _ in pairs])
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        same = _classify(T, mid, k_max, tol)[0] == k_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return [
        ClassBoundary(float(x_lo), float(x_hi), str(a.period), str(b.period))
        for x_lo, x_hi, (a, b) in zip(lo, hi, pairs)
    ]
