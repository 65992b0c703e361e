"""sectionlab: a numerical laboratory for the two-disk glued surface.

Two unit disks, each foliated by concentric circles, are glued along their
boundaries by a circle diffeomorphism f and equipped with a warped metric
that is Euclidean near the centers and radially constant near the seam.
Sections (curves through the centers meeting every circle orthogonally) are
piecewise radial, and whether one closes is governed by the period of its
start angle under the round-trip transition map on the gluing circle.
"""

from .circle import (
    TWO_PI,
    BumpDiffeo,
    CircleDiffeo,
    ConvergenceFailure,
    IdentityDiffeo,
    MonotonicityViolation,
    RotationDiffeo,
    SplineDiffeo,
    antipode,
    circle_distance,
    line_distance,
    normalize,
    semicircle_bump,
)
from .config import Config, ConfigError, load_config, loads_config
from .dynamics import (
    Period,
    PeriodReport,
    TransitionMap,
    classify_scan,
    has_period_one,
    period_of,
)
from .geodesics import (
    GeodesicState,
    NotClosed,
    SectionTrace,
    SectionVerdict,
    Trajectory,
    compare_sections,
    integrate,
    integrate_ensemble,
    section_verdict,
    speed_error,
    trace_section,
    unit_speed_state,
)
from .metric import DegenerateAtCenter, GluedMetric
from .verify import (
    CheckResult,
    NonPositiveRadius,
    VerificationReport,
    all_or_none_check,
    rational_closure,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "BumpDiffeo",
    "CircleDiffeo",
    "ConvergenceFailure",
    "IdentityDiffeo",
    "MonotonicityViolation",
    "RotationDiffeo",
    "SplineDiffeo",
    "antipode",
    "circle_distance",
    "line_distance",
    "normalize",
    "semicircle_bump",
    "Config",
    "ConfigError",
    "load_config",
    "loads_config",
    "Period",
    "PeriodReport",
    "TransitionMap",
    "classify_scan",
    "has_period_one",
    "period_of",
    "GeodesicState",
    "NotClosed",
    "SectionTrace",
    "SectionVerdict",
    "Trajectory",
    "compare_sections",
    "integrate",
    "integrate_ensemble",
    "section_verdict",
    "speed_error",
    "trace_section",
    "unit_speed_state",
    "DegenerateAtCenter",
    "GluedMetric",
    "CheckResult",
    "NonPositiveRadius",
    "VerificationReport",
    "all_or_none_check",
    "rational_closure",
    "run_all_checks",
]
