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

from .circle import CircleDiffeo, ConvergenceFailure, antipode, circle_distance
from .table import csv_text

DEFAULT_K_MAX = 64
DEFAULT_TOL = 1e-9
# near-threshold closure distances within this factor of tol are flagged
FRAGILE_FACTOR = 10.0


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

    T may be any circle self-map callable.  Iterates are the raw images under
    T (each solved to inverse tolerance); no re-normalization of accumulated
    error is applied, so the reported k is minimal for the map as computed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _classify_one(T, theta, k_max, tol).period


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


def _classify_one(T, theta: float, k_max: int, tol: float) -> SampleResult:
    x = theta
    fragile = False
    for k in range(1, k_max + 1):
        x = T(x)
        d = circle_distance(x, theta)
        if d < tol:
            return SampleResult(theta, Period.finite(k), fragile)
        if d < FRAGILE_FACTOR * tol:
            fragile = True
    return SampleResult(theta, Period.not_found(k_max), fragile)


def classify_scan(
    T,
    n_samples: int = 360,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
    locate_boundaries: bool = True,
) -> PeriodReport:
    """Classify n_samples equispaced angles (always including 0) by period.

    A sample is flagged fragile when some iterate before its detected period
    came within a factor of ten of the closure tolerance, i.e. the class
    could flip under a small retuning of tol.  Samples are independent and
    could be fanned out to workers; they are processed in index order here.

    Boundary brackets between adjacent samples of different classes are
    located by bisection as a best-effort diagnostic only.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    step = 2.0 * math.pi / n_samples
    samples = []
    for i in range(n_samples):
        try:
            samples.append(_classify_one(T, i * step, k_max, tol))
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"scan aborted at sample {i} (theta={i * step!r}): {exc}"
            ) from exc
    report = PeriodReport(samples=samples, n_samples=n_samples, k_max=k_max, tol=tol)
    if locate_boundaries and n_samples >= 2:
        report.boundaries = _locate_boundaries(T, samples, step, k_max, tol)
    return report


def _locate_boundaries(T, samples, step, k_max, tol, n_bisect: int = 12):
    out = []
    n = len(samples)
    for i in range(n):
        a = samples[i]
        b = samples[(i + 1) % n]
        if a.period.k == b.period.k:
            continue
        lo, hi = a.theta, a.theta + step
        k_lo = a.period.k
        for _ in range(n_bisect):
            mid = 0.5 * (lo + hi)
            k_mid = _classify_one(T, mid, k_max, tol).period.k
            if k_mid == k_lo:
                lo = mid
            else:
                hi = mid
        out.append(
            ClassBoundary(
                theta_lo=lo,
                theta_hi=hi,
                label_lo=str(a.period),
                label_hi=str(b.period),
            )
        )
    return out
