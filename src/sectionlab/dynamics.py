"""Boundary-angle dynamics of the glued surface.

Each full round trip of a piecewise-radial section advances its outgoing
boundary angle by the transition map

    T = antipode o f^{-1} o antipode o f,

so closure of a section is exactly periodicity of its start angle under T.
This module computes T, the period of a point (least k with T^k returning to
the start within tolerance), and whole-circle period scans, which one step of
T decides (see `Period`).
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
    of true aperiodicity.  For a transition map it holds for every horizon:
    F(x + pi) - F(x) - pi changes sign under a half turn, so T fixes some
    antipodal pair and its rotation number is 0.  Every point T does not fix
    then has a lift orbit that moves monotonically toward a fixed point less
    than pi away, so |T~^k(theta) - theta| only grows with k and the only
    finite period is 1.
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

    T may be any circle self-map callable on floats; it is handed the start
    angle, then its own outputs.  Iterates are the raw images under T (each
    solved to inverse tolerance); no re-normalization of accumulated error is
    applied, so the reported k is minimal for the map as computed.  For a
    transition map the answer is 1 or none (see `Period`), which
    `classify_scan` reads off one step; this loop is the definition.
    """
    _check_horizon(k_max, tol)
    x = theta = float(theta)
    for k in range(1, k_max + 1):
        x = T(x)
        if circle_distance(x, theta) < tol:
            return Period.finite(k)
    return Period.not_found(k_max)


def _check_horizon(k_max: int, tol: float) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")


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


def _displacement(T, thetas):
    """circle_distance(T(theta), theta) for an array of angles, one T call."""
    return circle_distance(T(thetas), thetas)


def classify_scan(
    T: TransitionMap,
    n_samples: int = 360,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> PeriodReport:
    """Classify n_samples equispaced angles (always including 0) by period.

    One step of T decides, by the lemma in `Period`: a sample has period 1
    when circle_distance(T(theta), theta) < tol, and none otherwise, since
    its displacement only grows under iteration.  For the same reason the
    first displacement is the closest any iterate comes back, so a sample
    that does not close is flagged fragile when it lies within a factor of
    ten of tol, i.e. its class could flip under a small retuning of tol.
    The lemma holds for transition maps only, so any other T raises
    TypeError; all samples go through one array call of T.

    Boundary brackets between adjacent samples of different classes are
    located by bisection, one array T call per round on all brackets, as a
    best-effort diagnostic only.
    """
    if not isinstance(T, TransitionMap):
        raise TypeError(f"classify_scan needs a TransitionMap, got {type(T).__name__}")
    _check_horizon(k_max, tol)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    step = 2.0 * math.pi / n_samples
    thetas = np.arange(n_samples) * step
    d = _displacement(T, thetas)
    closes = d < tol
    fragile = ~closes & (d < FRAGILE_FACTOR * tol)
    periods = (Period.not_found(k_max), Period.finite(1))
    samples = [
        SampleResult(theta, periods[c], flag)
        for theta, c, flag in zip(thetas.tolist(), closes.tolist(), fragile.tolist())
    ]
    labels = [str(p) for p in periods]
    boundaries = [
        ClassBoundary(lo, hi, labels[c], labels[not c])
        for lo, hi, c in _locate_boundaries(T, thetas, closes, step, tol)
    ]
    return PeriodReport(samples, n_samples, k_max, tol, boundaries)


def _locate_boundaries(T, thetas, closes, step, tol):
    """Brackets (lo, hi, closes at lo) around every change of class.

    A bracket starts at each sample whose `closes` differs from the next
    sample's, the last sample's next being the first, and is bisected
    _BISECT_ROUNDS times, all brackets in one array T call per round.
    """
    i = np.flatnonzero(closes != np.roll(closes, -1))
    if i.size == 0:
        return []
    lo, closes_lo = thetas[i], closes[i]
    hi = lo + step
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        same = (_displacement(T, mid) < tol) == closes_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return list(zip(lo.tolist(), hi.tolist(), closes_lo.tolist()))
