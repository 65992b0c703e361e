"""Section tracing: exact piecewise-radial itineraries and numerical geodesics.

A section through a disk center is piecewise radial: a radius leg out of the
starting center, then alternating full diameters of the two disks, with the
rim identification applied at every boundary crossing.  The exact tracer
walks this itinerary in closed form; the numerical integrator solves the
geodesic equation of the glued metric

    t'' = phi * phi_t * vtheta^2
    theta'' = -(2 phi_t / phi) vt vtheta - (phi_theta / phi) vtheta^2

with adaptive DOP853 steps (eighth order) that start only on the blend
annulus [t0, t1), and in closed form in the two flat zones.  Inside the flat
disk t < t0 the metric is the Euclidean plane (phi = t), so a geodesic there
is a straight chord, taken in one step; a radial chord through the center
records the passage.  On the plateau [t1, 1] the metric is dt^2 + dsigma^2 in the
coordinate sigma = int psi dtheta (`GluedMetric.plateau_angle`), so a
geodesic there is a straight line in (t, sigma), taken in one step to the
rim, to t1 or to the end of the run; at the rim it crosses the seam.
With a constant psi_2 chart 2 is a surface of revolution, and so is chart 1
on the arcs where the rim map is a rotation (`GluedMetric.identity_arcs`);
there L = phi^2 vtheta is kept (Clairaut), so for a plateau value >= t1 an
annulus visit that enters at exactly t0 or t1, and on chart 1 stays in its
arc, is a quadrature, taken in one move to t0 or t1 on its own chart
(`_transit`).  Radial lines are straight in every metric of the family, so
a radial state never takes a numerical step.  Annulus steps are at most
half the narrower flat zone long, so none jumps a flat zone, and their
size follows Gustafsson's PI controller.  One generator, `_walk`, takes a
state's exact moves, runs its controller and yields the DOP853 trial steps
it needs; `integrate` answers one walk's trials on the scalar warp kernel,
and `integrate_ensemble` answers the pending trials of many walks in one
call on the array kernel per round, on the scalar kernel once at most
LOCKSTEP_MIN walks remain.

The records built per state, per event and per leg (GeodesicState,
RimCrossing, CenterEvent, Leg, TraceCrossing and TracePassage) are
NamedTuples: immutable and hashable, with a dataclass's
Name(field=value, ...) repr, built in half a frozen dataclass's time; the
tracer builds its own by mapping tuple.__new__ over their fields, without
the generated constructor's Python frame.  The containers (Trajectory,
SectionTrace and the verdicts) are dataclasses.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import TWO_PI, CircleDiffeo, antipode, circle_distance, line_distance, normalize
from .dynamics import DEFAULT_K_MAX, DEFAULT_TOL, Period, _check_count, _check_horizon
from .metric import GluedMetric, check_chart
from .table import csv_text

DEFAULT_DS = 1e-3
DEFAULT_S_MAX = 20.0
# |vtheta| below RADIAL_TOL counts as radial
RADIAL_TOL = 1e-9
# a start needs |theta| and |s| below ANGLE_BOUND: one ulp there (2.3e-10) stays
# below the 1e-9 closure tolerance, and any longer step still advances s
ANGLE_BOUND = 2.0**20


class NotClosed(ValueError):
    """A comparison was requested for a section that did not close."""


class GeodesicState(NamedTuple):
    chart: int
    t: float
    theta: float
    vt: float
    vtheta: float
    s: float = 0.0


class RimCrossing(NamedTuple):
    s: float
    chart_from: int
    theta1: float  # chart-1 boundary angle
    theta2: float  # chart-2 boundary angle, the image under the rim map


class CenterEvent(NamedTuple):
    s: float
    chart: int
    theta_in: float  # boundary angle of the incoming ray
    direction: float  # angle of motion after the passage (antipode of theta_in)


@dataclass
class Trajectory:
    """Integration output: recorded states plus located events."""

    states: list[GeodesicState]
    crossings: list[RimCrossing] = field(default_factory=list)
    center_passages: list[CenterEvent] = field(default_factory=list)

    @property
    def final(self) -> GeodesicState:
        return self.states[-1]

    def to_records_text(self, header_lines=()) -> str:
        """Line-delimited records: s, chart, t, theta, vt, vtheta."""
        rows = (
            f"{st.s!r},{st.chart},{st.t!r},{st.theta!r},{st.vt!r},{st.vtheta!r}"
            for st in self.states
        )
        return csv_text(header_lines, ("s", "chart", "t", "theta", "vt", "vtheta"), rows)


def unit_speed_state(
    metric: GluedMetric, chart: int, t: float, theta: float, direction: float
) -> GeodesicState:
    """State of unit speed whose velocity makes angle `direction` with the
    radial direction in the orthonormal frame (so vt = cos, phi*vtheta = sin);
    at the center t = 0 there is no such frame, and ValueError is raised."""
    phi = metric.warp(chart, t, theta)
    if phi == 0.0:
        raise ValueError(f"no direction frame at the center t={t!r}; start radially there")
    return GeodesicState(chart, t, theta, math.cos(direction), math.sin(direction) / phi)


def speed_error(metric: GluedMetric, st: GeodesicState) -> float:
    phi = metric.warp(st.chart, st.t, st.theta)
    return abs(st.vt * st.vt + (phi * st.vtheta) ** 2 - 1.0)


# ----------------------------------------------------------------------------
# the stepping core shared by both integrators


def _rhs(warp, chart, t, th, vt, vth):
    phi, phi_t, phi_th = warp(chart, t, th)
    dvt = phi * phi_t * vth * vth
    dvth = -(2.0 * phi_t / phi) * vt * vth - (phi_th / phi) * vth * vth
    return vt, vth, dvt, dvth


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5, and their dop853
# code; Prince & Dormand 1981), under dop853.f's names: the nonzero a_ij of
# stages 2..12, the eighth-order weights b_i, the weights er_i of the
# fifth-order error estimate, and the third-order weights bhh1, bhh2, bhh3,
# which weigh stages 1, 9 and 12
A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1
BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-1
# the same tableau as arrays, for the stacked stage sums of `_dop853_array`:
# the rows a_ij of stages 2..12, b, er, and b - bhh
_A = tuple(
    np.array(row)
    for row in (
        (A21,),
        (A31, A32),
        (A41, 0.0, A43),
        (A51, 0.0, A53, A54),
        (A61, 0.0, 0.0, A64, A65),
        (A71, 0.0, 0.0, A74, A75, A76),
        (A81, 0.0, 0.0, A84, A85, A86, A87),
        (A91, 0.0, 0.0, A94, A95, A96, A97, A98),
        (A101, 0.0, 0.0, A104, A105, A106, A107, A108, A109),
        (A111, 0.0, 0.0, A114, A115, A116, A117, A118, A119, A1110),
        (A121, 0.0, 0.0, A124, A125, A126, A127, A128, A129, A1210, A1211),
    )
)
_B = np.array((B1, 0.0, 0.0, 0.0, 0.0, B6, B7, B8, B9, B10, B11, B12))
_E5 = np.array((ER1, 0.0, 0.0, 0.0, 0.0, ER6, ER7, ER8, ER9, ER10, ER11, ER12))
_E3 = _B - np.array((BHH1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, BHH2, 0.0, 0.0, BHH3))

# an annulus step is accepted when its error estimate is at most
# ANNULUS_TOL * (ds / DEFAULT_DS)**4.  At ds = DEFAULT_DS this is the largest
# tolerance tried (1.2e-12, 1.5e-12, 2e-12, 3e-12 and 4e-12) that keeps three
# accuracy gates: the worst all-or-none drift over 42 seeds stays below
# 5e-10, half of verify.DRIFT_BOUND (3.4e-10); the drift of the
# spline-and-psi2 config of tests/test_cli.py is no worse than under the
# earlier error-per-step controller at 1.2e-12 (4.8e-9 and 1.0e-8 at seeds 0
# and 3, against 1.24e-8 and 1.88e-8; 3e-12 drifts 1.31e-8 at seed 0); and
# the median final error of the spline configs' integrate runs in
# tools/compare_outputs.py is no worse than under that controller (at
# 2e-12 the psi2 config's rose from 3.7e-9 to 5.1e-9)
ANNULUS_TOL = 1.5e-12
# the least legal ds: there the step tolerance is one rounding (2**-52) of an
# O(1) state; below it the tolerance underflows and the steps stall at h -> 0
DS_MIN = DEFAULT_DS * (2.0**-52 / ANNULUS_TOL) ** 0.25


def _dop853(warp, chart, t, th, vt, vth, h):
    """One DOP853 step of `_rhs` on the scalar warp kernel, for Python floats.

    Twelve stages, none shared with the next step: the error estimate needs
    only k1 ... k12.  Returns the eighth-order state (t, theta, vt, vtheta)
    after h and the combined error estimate of DOP853,
    |e5|^2 / sqrt(4 (|e5|^2 + 0.01 |e3|^2)) with e5 and e3 the fifth- and
    third-order error vectors over the four components; it scales as h^8.
    The step is straight-line code, as in dop853.f: one expression per
    stage component over the named coefficients, its zero entries left
    out, so floats stay Python floats and no numpy call is made; e3 is the
    eighth-order increment minus the bhh terms.  ktI, kthI, kvtI and kvthI
    are the components of k_I, the right-hand side at stage I.  The squares
    are products, as a float ** 2 that overflows raises OverflowError where
    a product turns into inf, which `integrate` and `integrate_ensemble`
    name (`_bad_step`).
    """
    kt1, kth1, kvt1, kvth1 = _rhs(warp, chart, t, th, vt, vth)
    kt2, kth2, kvt2, kvth2 = _rhs(
        warp,
        chart,
        t + h * (A21 * kt1),
        th + h * (A21 * kth1),
        vt + h * (A21 * kvt1),
        vth + h * (A21 * kvth1),
    )
    kt3, kth3, kvt3, kvth3 = _rhs(
        warp,
        chart,
        t + h * (A31 * kt1 + A32 * kt2),
        th + h * (A31 * kth1 + A32 * kth2),
        vt + h * (A31 * kvt1 + A32 * kvt2),
        vth + h * (A31 * kvth1 + A32 * kvth2),
    )
    kt4, kth4, kvt4, kvth4 = _rhs(
        warp,
        chart,
        t + h * (A41 * kt1 + A43 * kt3),
        th + h * (A41 * kth1 + A43 * kth3),
        vt + h * (A41 * kvt1 + A43 * kvt3),
        vth + h * (A41 * kvth1 + A43 * kvth3),
    )
    kt5, kth5, kvt5, kvth5 = _rhs(
        warp,
        chart,
        t + h * (A51 * kt1 + A53 * kt3 + A54 * kt4),
        th + h * (A51 * kth1 + A53 * kth3 + A54 * kth4),
        vt + h * (A51 * kvt1 + A53 * kvt3 + A54 * kvt4),
        vth + h * (A51 * kvth1 + A53 * kvth3 + A54 * kvth4),
    )
    kt6, kth6, kvt6, kvth6 = _rhs(
        warp,
        chart,
        t + h * (A61 * kt1 + A64 * kt4 + A65 * kt5),
        th + h * (A61 * kth1 + A64 * kth4 + A65 * kth5),
        vt + h * (A61 * kvt1 + A64 * kvt4 + A65 * kvt5),
        vth + h * (A61 * kvth1 + A64 * kvth4 + A65 * kvth5),
    )
    kt7, kth7, kvt7, kvth7 = _rhs(
        warp,
        chart,
        t + h * (A71 * kt1 + A74 * kt4 + A75 * kt5 + A76 * kt6),
        th + h * (A71 * kth1 + A74 * kth4 + A75 * kth5 + A76 * kth6),
        vt + h * (A71 * kvt1 + A74 * kvt4 + A75 * kvt5 + A76 * kvt6),
        vth + h * (A71 * kvth1 + A74 * kvth4 + A75 * kvth5 + A76 * kvth6),
    )
    kt8, kth8, kvt8, kvth8 = _rhs(
        warp,
        chart,
        t + h * (A81 * kt1 + A84 * kt4 + A85 * kt5 + A86 * kt6 + A87 * kt7),
        th + h * (A81 * kth1 + A84 * kth4 + A85 * kth5 + A86 * kth6 + A87 * kth7),
        vt + h * (A81 * kvt1 + A84 * kvt4 + A85 * kvt5 + A86 * kvt6 + A87 * kvt7),
        vth + h * (A81 * kvth1 + A84 * kvth4 + A85 * kvth5 + A86 * kvth6 + A87 * kvth7),
    )
    kt9, kth9, kvt9, kvth9 = _rhs(
        warp,
        chart,
        t + h * (A91 * kt1 + A94 * kt4 + A95 * kt5 + A96 * kt6 + A97 * kt7 + A98 * kt8),
        th + h * (A91 * kth1 + A94 * kth4 + A95 * kth5 + A96 * kth6 + A97 * kth7 + A98 * kth8),
        vt + h * (A91 * kvt1 + A94 * kvt4 + A95 * kvt5 + A96 * kvt6 + A97 * kvt7 + A98 * kvt8),
        vth + h * (A91 * kvth1 + A94 * kvth4 + A95 * kvth5 + A96 * kvth6 + A97 * kvth7 + A98 * kvth8),
    )
    kt10, kth10, kvt10, kvth10 = _rhs(
        warp,
        chart,
        t + h * (A101 * kt1 + A104 * kt4 + A105 * kt5 + A106 * kt6 + A107 * kt7 + A108 * kt8 + A109 * kt9),
        th + h * (
            A101 * kth1 + A104 * kth4 + A105 * kth5 + A106 * kth6 + A107 * kth7 + A108 * kth8 + A109 * kth9
        ),
        vt + h * (
            A101 * kvt1 + A104 * kvt4 + A105 * kvt5 + A106 * kvt6 + A107 * kvt7 + A108 * kvt8 + A109 * kvt9
        ),
        vth + h * (
            A101 * kvth1 + A104 * kvth4 + A105 * kvth5 + A106 * kvth6 + A107 * kvth7 + A108 * kvth8
            + A109 * kvth9
        ),
    )
    kt11, kth11, kvt11, kvth11 = _rhs(
        warp,
        chart,
        t + h * (
            A111 * kt1 + A114 * kt4 + A115 * kt5 + A116 * kt6 + A117 * kt7 + A118 * kt8 + A119 * kt9
            + A1110 * kt10
        ),
        th + h * (
            A111 * kth1 + A114 * kth4 + A115 * kth5 + A116 * kth6 + A117 * kth7 + A118 * kth8 + A119 * kth9
            + A1110 * kth10
        ),
        vt + h * (
            A111 * kvt1 + A114 * kvt4 + A115 * kvt5 + A116 * kvt6 + A117 * kvt7 + A118 * kvt8 + A119 * kvt9
            + A1110 * kvt10
        ),
        vth + h * (
            A111 * kvth1 + A114 * kvth4 + A115 * kvth5 + A116 * kvth6 + A117 * kvth7 + A118 * kvth8
            + A119 * kvth9 + A1110 * kvth10
        ),
    )
    kt12, kth12, kvt12, kvth12 = _rhs(
        warp,
        chart,
        t + h * (
            A121 * kt1 + A124 * kt4 + A125 * kt5 + A126 * kt6 + A127 * kt7 + A128 * kt8 + A129 * kt9
            + A1210 * kt10 + A1211 * kt11
        ),
        th + h * (
            A121 * kth1 + A124 * kth4 + A125 * kth5 + A126 * kth6 + A127 * kth7 + A128 * kth8 + A129 * kth9
            + A1210 * kth10 + A1211 * kth11
        ),
        vt + h * (
            A121 * kvt1 + A124 * kvt4 + A125 * kvt5 + A126 * kvt6 + A127 * kvt7 + A128 * kvt8 + A129 * kvt9
            + A1210 * kvt10 + A1211 * kvt11
        ),
        vth + h * (
            A121 * kvth1 + A124 * kvth4 + A125 * kvth5 + A126 * kvth6 + A127 * kvth7 + A128 * kvth8
            + A129 * kvth9 + A1210 * kvth10 + A1211 * kvth11
        ),
    )
    bt = B1 * kt1 + B6 * kt6 + B7 * kt7 + B8 * kt8 + B9 * kt9 + B10 * kt10 + B11 * kt11 + B12 * kt12
    bth = B1 * kth1 + B6 * kth6 + B7 * kth7 + B8 * kth8 + B9 * kth9 + B10 * kth10 + B11 * kth11 + B12 * kth12
    bvt = B1 * kvt1 + B6 * kvt6 + B7 * kvt7 + B8 * kvt8 + B9 * kvt9 + B10 * kvt10 + B11 * kvt11 + B12 * kvt12
    bvth = (
        B1 * kvth1 + B6 * kvth6 + B7 * kvth7 + B8 * kvth8 + B9 * kvth9 + B10 * kvth10 + B11 * kvth11
        + B12 * kvth12
    )
    e5t = h * (
        ER1 * kt1 + ER6 * kt6 + ER7 * kt7 + ER8 * kt8 + ER9 * kt9 + ER10 * kt10 + ER11 * kt11 + ER12 * kt12
    )
    e5th = h * (
        ER1 * kth1 + ER6 * kth6 + ER7 * kth7 + ER8 * kth8 + ER9 * kth9 + ER10 * kth10 + ER11 * kth11
        + ER12 * kth12
    )
    e5vt = h * (
        ER1 * kvt1 + ER6 * kvt6 + ER7 * kvt7 + ER8 * kvt8 + ER9 * kvt9 + ER10 * kvt10 + ER11 * kvt11
        + ER12 * kvt12
    )
    e5vth = h * (
        ER1 * kvth1 + ER6 * kvth6 + ER7 * kvth7 + ER8 * kvth8 + ER9 * kvth9 + ER10 * kvth10 + ER11 * kvth11
        + ER12 * kvth12
    )
    e3t = h * (bt - BHH1 * kt1 - BHH2 * kt9 - BHH3 * kt12)
    e3th = h * (bth - BHH1 * kth1 - BHH2 * kth9 - BHH3 * kth12)
    e3vt = h * (bvt - BHH1 * kvt1 - BHH2 * kvt9 - BHH3 * kvt12)
    e3vth = h * (bvth - BHH1 * kvth1 - BHH2 * kvth9 - BHH3 * kvth12)
    e5sq = e5t * e5t + e5th * e5th + e5vt * e5vt + e5vth * e5vth
    e3sq = e3t * e3t + e3th * e3th + e3vt * e3vt + e3vth * e3vth
    # + 1e-300: a step with both estimates exactly zero errs by zero
    err = e5sq / ((4.0 * (e5sq + 0.01 * e3sq)) ** 0.5 + 1e-300)
    return t + h * bt, th + h * bth, vt + h * bvt, vth + h * bvth, err


# an overflow in the stages or the stage sums turns into inf or nan quietly,
# as in Python float arithmetic, and the drivers name the step (`_bad_step`)
@np.errstate(over="ignore", invalid="ignore")
def _dop853_array(warp, chart, t, th, vt, vth, h):
    """`_dop853` on arrays of n states, for the ensemble's lockstep rounds.
    The stages are stacked, (12, 4, n), and each stage sum is one
    contraction over them (np.dot on the (12, 4n) view, as tensordot costs
    5x its time)."""
    ks = np.empty((12, 4, t.size))
    flat = ks.reshape(12, -1)
    y = np.array((t, th, vt, vth))

    def advance(base, weights):
        return base + h * np.dot(weights, flat[: len(weights)]).reshape(4, -1)

    ks[0] = _rhs(warp, chart, *y)
    for i, row in enumerate(_A, 1):
        ks[i] = _rhs(warp, chart, *advance(y, row))
    e5 = advance(0.0, _E5)
    e3 = advance(0.0, _E3)
    e5sq = e5[0] ** 2 + e5[1] ** 2 + e5[2] ** 2 + e5[3] ** 2
    e3sq = e3[0] ** 2 + e3[1] ** 2 + e3[2] ** 2 + e3[3] ** 2
    return (*advance(y, _B), e5sq / ((4.0 * (e5sq + 0.01 * e3sq)) ** 0.5 + 1e-300))


def _start(metric, init: GeodesicState, ds: float, s_max: float):
    """Checked start of a run: (chart, t, theta, vt, vtheta, s, s_end), an
    int and Python floats whatever numpy scalars init and s_max hold.

    The accuracy parameter ds must be at least DS_MIN (about 1.10e-4, where
    the step tolerance of `_annulus_control` is one rounding), the span
    positive and finite, and the state on chart 1 or 2, inside the disk
    (0 <= t < 1), with |theta| < ANGLE_BOUND, |s| < ANGLE_BOUND and unit
    speed to 1e-9.  A state with |vtheta| < RADIAL_TOL is snapped to
    exactly radial.  Any other state must lie off the center and needs
    ds < min(t0, 1 - t1).  ds sets the accuracy of the annulus steps, not
    their length, which the PI controller of `_walk` chooses.
    """
    if not ds >= DS_MIN:
        raise ValueError(f"ds must be at least DS_MIN = {DS_MIN:.3g}, got {ds!r}")
    if not 0.0 < s_max < math.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max!r}")
    check_chart(init.chart)
    if not 0.0 <= init.t < 1.0:
        raise ValueError(f"initial radius must satisfy 0 <= t < 1, got {init.t!r}")
    if not (abs(init.theta) < ANGLE_BOUND and abs(init.s) < ANGLE_BOUND):
        raise ValueError(f"initial state needs |theta| and |s| < {ANGLE_BOUND:.0f}, got {init}")
    err = speed_error(metric, init)
    if not err <= 1e-9:
        raise ValueError(f"initial state violates unit speed by {err:.3e}")
    vt, vth = float(init.vt), float(init.vtheta)
    limit = min(metric.t0, 1.0 - metric.t1)
    if abs(vth) < RADIAL_TOL:
        vth = 0.0
        vt = math.copysign(1.0, vt) if vt != 0.0 else 1.0
    elif init.t == 0.0:
        raise ValueError(f"a state at the center t=0 must be radial, got vtheta={vth!r}")
    elif not ds < limit:
        raise ValueError(
            f"a non-radial run needs ds < min(t0, 1 - t1) = {limit!r}; "
            f"got ds={float(ds)!r} with t0={metric.t0!r}, t1={metric.t1!r}"
        )
    s = float(init.s)
    return int(init.chart), float(init.t), float(init.theta), vt, vth, s, s + float(s_max)


def _annulus_control(metric, ds):
    """(tol, h_max, h) of the annulus steps for the accuracy parameter ds,
    as Python floats.

    A step is accepted when its error estimate is at most
    tol = ANNULUS_TOL * (ds / DEFAULT_DS)**4.  Steps are at most h_max, half
    the narrower flat zone, so none jumps the inner disk or reaches the rim.
    A run's first trial step is h = min(ds, h_max).
    """
    ds, h_max = float(ds), min(metric.t0, 1.0 - metric.t1) / 2.0
    return ANNULUS_TOL * (ds / DEFAULT_DS) ** 4, h_max, min(ds, h_max)


def _chord(t0, chart, t, th, vt, vth, s, s_end):
    """Carry a state along its straight chord of the flat disk t < t0.

    In the frame whose x axis is the ray theta the state sits at (t, 0) and
    moves with velocity (vt, t*vtheta) until it reaches the radius t0, set
    exactly, or s_end.  theta gains atan2(y, x) and t^2 vtheta is kept.  A
    radial chord through the center returns its CenterEvent at s + t/|vt|
    (antipode, vt flipped).  Radial lines are straight in every metric of
    the family, so a radial chord may also start outside the disk, inward.
    """
    vy = t * vth
    a = vt * vt + vy * vy
    b = t * vt
    c = t0 * t0 - t * t
    root = math.sqrt(b * b + a * c)
    # the larger root of a h^2 + 2 b h - c = 0, free of cancellation
    h_exit = c / (b + root) if b > 0.0 else (root - b) / a
    h = min(h_exit, s_end - s)
    x, y = t + h * vt, h * vy
    r = t0 if h == h_exit else math.hypot(x, y)
    if vth != 0.0:
        return (chart, r, th + math.atan2(y, x), (b + h * a) / r, t * vy / (r * r), s + h), None
    if x > 0.0:
        return (chart, r, th, vt, 0.0, s + h), None
    passage = CenterEvent(s + t / -vt, chart, normalize(th), antipode(th))
    return (chart, r, passage.direction, -vt, 0.0, s + h), passage


def _seam(f, chart, th, vt, vth, s):
    """Cross the rim at arclength s onto the other chart.

    The angle maps through the rim identification, vt flips (the chart radii
    point in opposite directions across the seam, collar coordinate
    u = 2 - t), and vtheta follows dtheta2 = F'(theta1) dtheta1, which keeps
    the speed under the compatibility rule.
    """
    if chart == 1:
        th1 = normalize(th)
        th2 = f(th1)
        return (2, 1.0, th2, -vt, vth * f.lift_derivative(th1), s), RimCrossing(s, 1, th1, th2)
    th2 = normalize(th)
    th1 = f.inverse(th2)
    return (1, 1.0, th1, -vt, vth / f.lift_derivative(th1), s), RimCrossing(s, 2, th1, th2)


def _bad_step(chart, t, s, nt, err):
    """The FloatingPointError for an annulus step from t at arclength s that
    ended at the radius nt outside [0, 1), or whose error estimate err is
    not a finite number.  Annulus steps are non-radial and at most half the
    narrower flat zone long, so only a runaway step gets there: past the
    rim, to a negative or non-finite radius, or through an overflow."""
    where = f"step from t={float(t)!r} on chart {chart} at s={float(s)!r}"
    if not math.isfinite(nt):
        return FloatingPointError(f"{where} reached the non-finite radius {float(nt)!r}")
    if nt >= 1.0:
        return FloatingPointError(f"non-radial {where} jumped the plateau to radius {float(nt)!r}")
    if nt < 0.0:
        return FloatingPointError(f"{where} reached the negative radius {float(nt)!r}")
    return FloatingPointError(f"{where} has the non-finite error estimate {float(err)!r}")


def _plateau(metric, chart, t, th, vt, vth, s, s_end):
    """Carry a plateau state (t > t1, or t == t1 moving outward) along its straight line.

    A radial state moving outward from the annulus takes the same segment:
    radial lines are straight in every metric of the family.  In
    sigma = int psi dtheta the plateau metric is dt^2 + dsigma^2, so vt and
    vsigma = psi * vtheta are constant.  The state stops at the rim
    after (1 - t) / vt and crosses the seam (`_seam`), at exactly t1 after
    (t - t1) / -vt, or at s_end, whichever comes first.  theta moves to
    sigma^-1(sigma(theta) + vsigma h) and vtheta to vsigma / psi there; a
    radial state keeps theta bit for bit.
    """
    if vt > 0.0:
        h_exit = (1.0 - t) / vt
    elif vt < 0.0:
        h_exit = (t - metric.t1) / -vt
    else:
        h_exit = math.inf
    h = min(h_exit, s_end - s)
    if vth != 0.0:
        psi = metric.psi1 if chart == 1 else metric.psi2
        vsigma = psi(th) * vth
        th = metric.plateau_angle(chart, th, vsigma * h)
        vth = vsigma / psi(th)
    if h < h_exit:
        return (chart, t + h * vt, th, vt, vth, s + h), None
    if vt < 0.0:
        return (chart, metric.t1, th, vt, vth, s + h), None
    return _seam(metric.f, chart, th, vt, vth, s + h)


def _gauss_legendre(n):
    """Nodes, ascending, and weights 2 / ((1 - x^2) P_n'(x)^2) of the n-point
    Gauss-Legendre rule on [-1, 1], by Newton's method on the recurrence for
    P_n (a LAPACK eigensolver would grow the process by about 2 MB)."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2.0 * j - 1.0) * x * p1 - (j - 1.0) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _transit_rules():
    """The transit quadratures (through, turn) in x after
    t = lo + (t1 - lo) x^2, as (x^2, weight times the Jacobian 2 x), both
    from the 128-point rule, built on first use: for a visit through the
    annulus its image on [0, 1]; for a visit that turns, whose integrand is
    even in x, its 64 positive nodes, with the weights doubled for the way
    back."""
    x, w = _gauss_legendre(128)
    return (((1.0 + x) / 2.0) ** 2, w * (1.0 + x) / 2.0), (x[64:] ** 2, 4.0 * w[64:] * x[64:])


# visits that graze the flat disk or enter nearly tangent to t1, where phi_2
# is flat to all orders, keep their steps: against 40-digit references the
# through rule errs by 2e-15 up to |L| = 0.9999 t0 and 2e-11 at 0.99999, the
# turning rule at psi_2 = t1 by 4e-14 up to 0.99 psi_2 and 3e-12 at 0.999
GRAZING = 1.0 - 1e-4
TANGENT = 1.0 - 1e-3


def _turning_point(metric, chart, th, a):
    """The radius t* in (t0, t1) where phi(t*, th) = a on a chart that is a
    surface of revolution at th, for t0 < a below its plateau value:
    Newton's method on phi and phi_t from `warp_with_partials`, bisecting
    the bracket [t0, t1] whenever it leaves it."""
    lo, hi = metric.t0, metric.t1
    t = 0.5 * (lo + hi)
    for _ in range(100):
        p, p_t, _ = metric.warp_with_partials(chart, t, th)
        if p == a:
            return t
        lo, hi = (lo, t) if p > a else (t, hi)
        nxt = t - (p - a) / p_t if p_t > 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) < 1e-15:
            return nxt
        t = nxt
    return t


def _transit(metric, chart, t, th, vt, vth, s, s_end):
    """Carry an annulus visit on a surface of revolution in one move, or return None.

    With a constant psi_2 = c, chart 2 is a surface of revolution with the
    plateau value c, and so is chart 1 on an identity arc of f
    (`GluedMetric.identity_arcs`, where F' = 1 and F'' = 0 exactly), with
    the plateau value psi1_scale c.  For a plateau value c >= t1, phi
    increases on [t0, t1], so L = phi^2 vtheta / v (v the speed) is kept
    (Clairaut): a visit entering at exactly t0 (outward) or t1 (inward)
    takes dsigma = dt / sqrt(1 - L^2/phi^2) and dtheta = L dsigma / phi^2,
    sigma = v s, through the annulus or to the one turning point
    phi(t*) = |L| and back, by a Gauss-Legendre rule after
    t = lo + (t1 - lo) x^2 (lo = t* or t0), which removes the square root at
    t*.  It leaves at exactly t0 or t1, on its own chart, with
    vt = +-v sqrt(1 - L^2/phi^2) and vtheta = v L / phi^2.  On chart 1 the
    entry angle must lie in an identity arc, checked before the quadrature,
    and the swept angles in the same arc, checked after it: theta is
    monotone along the visit, so its two ends decide.  None, for the steps
    to take the visit: any other state, |L| in [GRAZING t0, t0],
    |L| >= TANGENT c, an end after s_end, or a chart-1 sweep that leaves
    its arc.
    """
    t0, t1, c = metric.t0, metric.t1, metric.psi2_const
    if c is None or not (t == t0 and vt > 0.0 or t == t1 and vt < 0.0):
        return None
    if chart == 1:
        c = metric.psi1_scale * c
        arc = next(((a, n) for a, n in metric.identity_arcs if (th - a) % TWO_PI <= n), None)
        if arc is None:
            return None
    if c < t1:
        return None
    phi = t0 if t == t0 else c
    # the speed: 1 up to the drift, unless a seam that is not an isometry broke it
    v = math.hypot(vt, phi * vth)
    L = phi * phi * vth / v
    a = abs(L)
    if GRAZING * t0 <= a <= t0 or a >= TANGENT * c:
        return None
    turns = t == t1 and a > t0
    lo = _turning_point(metric, chart, th, a) if turns else t0
    through, turn = _transit_rules()
    x2, w = turn if turns else through
    w = w * (t1 - lo)
    p = metric.revolution_warp(lo + (t1 - lo) * x2, c)
    root = np.sqrt((p - a) * (p + a))
    length = float(np.dot(w, p / root)) / v
    if not s + length <= s_end:
        return None
    dth = L * float(np.dot(w, 1.0 / (p * root)))
    if chart == 1 and not (min(th, th + dth) - arc[0]) % TWO_PI + abs(dth) <= arc[1]:
        return None
    th += dth
    if t == t1 and not turns:
        return chart, t0, th, -v * math.sqrt((t0 - a) * (t0 + a)) / t0, v * L / (t0 * t0), s + length
    return chart, t1, th, v * math.sqrt((c - a) * (c + a)) / c, v * L / (c * c), s + length


def _exact_move(metric, chart, t, th, vt, vth, s, s_end):
    """The move rule of `_walk`: one exact move of a state, or None.

    In this order: a plateau state (t > t1, or t == t1 moving outward), or a
    radial one moving outward from the annulus, takes its straight segment
    (`_plateau`); a state inside the flat disk (t < t0), at exactly t0
    moving inward, or any other radial state takes its straight chord
    (`_chord`); any other state takes its transit (`_transit`) where one
    applies.  Returns (state, event, transit): the new state, the move's
    RimCrossing or CenterEvent or None, and whether the move was a transit.
    None means the state takes a DOP853 step.  A non-radial state moves
    exactly only from t <= t0 or t >= t1, so one strictly inside the annulus
    gets None at once.
    """
    t0, t1 = metric.t0, metric.t1
    if t0 < t < t1 and vth != 0.0:
        return None
    if t > t1 or (t == t1 and vt >= 0.0) or (vth == 0.0 and vt > 0.0 and t >= t0):
        return (*_plateau(metric, chart, t, th, vt, vth, s, s_end), False)
    if t < t0 or (t == t0 and vt < 0.0) or vth == 0.0:
        return (*_chord(t0, chart, t, th, vt, vth, s, s_end), False)
    moved = _transit(metric, chart, t, th, vt, vth, s, s_end)
    return None if moved is None else (moved, None, True)


def _walk(metric, state, s_end, tol, h_max, h, record=None):
    """Walk a state to s_end: a generator of the DOP853 trial steps it needs.

    state is (chart, t, theta, vt, vtheta, s).  Each state takes the exact
    move of `_exact_move` (chord, plateau segment or transit) where one
    applies, and otherwise a DOP853 step of at most h: the walk yields the
    trial (chart, t, theta, vt, vtheta, step) and is sent `_dop853`'s
    result for it, (t, theta, vt, vtheta, err), from either warp kernel.  A
    trial is accepted when err is at most tol, and otherwise retried with
    the smaller h.  After each trial Gustafsson's PI controller sets the
    next h (r the error ratio err/tol of the trial, r_prev the last accepted
    one, floored at 1e-4; no growth right after a rejection), at most h_max;
    after a transit h grows by the factor 5, as after a step of zero error
    estimate.  A result that ends outside [0, 1) or with an error estimate
    that is not a number raises FloatingPointError (`_bad_step`).  After
    each exact move and accepted step, record(state, event) is called if
    given, event being the move's RimCrossing or CenterEvent or None.
    Returns the final state and the walk's monitors over every state: the
    number of sign changes of vtheta (of its sign bit), its least |vtheta|,
    and the number of rim crossings.
    """
    chart, t, th, vt, vth, s = state
    r_prev, rejected = 1e-4, False
    sign, flips, least, crossings = math.copysign(1.0, vth), 0, abs(vth), 0
    while s < s_end - 1e-15:
        move = _exact_move(metric, chart, t, th, vt, vth, s, s_end)
        if move is not None:
            (chart, t, th, vt, vth, s), event, transit = move
            crossings += isinstance(event, RimCrossing)
            if transit:
                h = min(h_max, 5.0 * h)
        else:
            step = min(h, s_end - s)
            nt, nth, nvt, nvth, err = yield chart, t, th, vt, vth, step
            if not (0.0 <= nt < 1.0 and err < math.inf):
                raise _bad_step(chart, t, s, nt, err)
            # the PI controller, beta = 0.04: h * clamp(0.9 r^-(1/8 - 0.75 beta)
            # r_prev^beta, 0.2, 5), no growth right after a rejection; + 1e-300:
            # a zero error estimate grows h by the full factor 5
            r = (err + 1e-300) / tol
            h = min(h_max, step * max(0.2, min(1.0 if rejected else 5.0, 0.9 * r**-0.095 * r_prev**0.04)))
            rejected = not err <= tol
            if rejected:
                continue
            r_prev = max(r, 1e-4)
            t, th, vt, vth, s, event = nt, nth, nvt, nvth, s + step, None
        now = math.copysign(1.0, vth)
        flips += now != sign
        sign, least = now, min(least, abs(vth))
        if record is not None:
            record((chart, t, th, vt, vth, s), event)
    return (chart, t, th, vt, vth, s), flips, least, crossings


def integrate(
    metric: GluedMetric,
    init: GeodesicState,
    ds: float = DEFAULT_DS,
    s_max: float = DEFAULT_S_MAX,
) -> Trajectory:
    """Integrate a unit-speed geodesic with chart-transition events.

    The start rule is `_start`'s: a unit-speed state inside its disk, snapped
    to radial when |vtheta| < RADIAL_TOL, and ds < min(t0, 1 - t1) unless
    radial.  The run is one `_walk` from h = min(ds, h_max): exact moves
    (chord, plateau segment or transit, `_exact_move`) and otherwise DOP853
    steps, each trial step answered at once on the scalar warp kernel.  ds
    sets the accuracy of the steps, not their length: a step is accepted
    when its error estimate is at most ANNULUS_TOL * (ds / DEFAULT_DS)**4,
    and Gustafsson's PI controller sets h, at most half the narrower flat
    zone (`_annulus_control`).  A rejected step is retried at once with the
    smaller h.  Steps are not cut at t0 or t1: the metric is smooth across
    both, so a step that ends in a flat zone hands its state to the next
    exact move.  A step that ends outside [0, 1) or with an error estimate
    that is not a number raises FloatingPointError (`_bad_step`).  Each
    exact move and accepted step appends one state, so a plateau visit
    records its rim crossing and its return to t1.
    """
    chart, t, th, vt, vth, s, s_end = _start(metric, init, ds, s_max)
    tol, h_max, h = _annulus_control(metric, ds)
    traj = Trajectory(states=[GeodesicState(chart, t, th, vt, vth, s)])

    def record(state, event):
        traj.states.append(GeodesicState(*state))
        if isinstance(event, RimCrossing):
            traj.crossings.append(event)
        elif event is not None:
            traj.center_passages.append(event)

    walk = _walk(metric, (chart, t, th, vt, vth, s), s_end, tol, h_max, h, record)
    warp, reply = metric.warp_with_partials, None
    with contextlib.suppress(StopIteration):
        while True:
            reply = _dop853(warp, *walk.send(reply))
    return traj


@dataclass
class EnsembleResult:
    """Final states and per-member monitors of a non-radial ensemble run."""

    final_states: list[GeodesicState]
    sign_flips: np.ndarray  # per-trajectory count of vtheta sign changes
    min_abs_vtheta: np.ndarray  # over the whole trajectory
    crossings: np.ndarray  # rim crossings per trajectory
    # always zero, since non-radial geodesics never pass a center; kept because
    # perfbench/tracer.py sums it per call, as it does Trajectory.center_passages
    center_passages: np.ndarray


# a lockstep round costs about as much as LOCKSTEP_MIN scalar trial steps
# (see the README), so once at most LOCKSTEP_MIN walks wait for a trial step,
# the ensemble answers each of them on the scalar kernel
LOCKSTEP_MIN = 28


def integrate_ensemble(
    metric: GluedMetric,
    inits: list[GeodesicState],
    ds: float = DEFAULT_DS,
    s_max: float = DEFAULT_S_MAX,
) -> EnsembleResult:
    """Integrate many independent non-radial geodesics in lockstep.

    One `_walk` per member, so each has `integrate`'s start rule, move rule,
    DOP853 step and PI controller, with its own step size and controller
    state.  In each round every walk that waits for a trial step gets its
    result, all of them from one `_dop853_array` call on the array warp
    kernel; a walk takes its exact moves between its trials, so a transit
    costs it no round, and a rejected trial is retried with the smaller
    step in the next round.  Members desynchronize in s.  Once at most LOCKSTEP_MIN
    walks wait, their trials take the scalar kernel, so an ensemble of at
    most LOCKSTEP_MIN members gives each member the result of `integrate`
    bit for bit.  Members that are radial after the start rule raise
    ValueError; integrate those with `integrate`.  A trial step that ends
    outside [0, 1) or with an error estimate that is not a number raises
    FloatingPointError (`_bad_step`).  Full paths are not stored; each walk
    returns its member's final state and monitors.
    """
    starts = [_start(metric, st, ds, s_max) for st in inits]
    for i, start in enumerate(starts):
        if start[4] == 0.0:
            raise ValueError(f"ensemble member {i} is radial; integrate it with integrate()")
    tol, h_max, h = _annulus_control(metric, ds)
    walks = [_walk(metric, start[:6], start[6], tol, h_max, h) for start in starts]
    results = [None] * len(walks)

    def answer(replies):
        """Send each walk its reply; the next trial of each walk that goes on."""
        trials = {}
        for i, reply in replies:
            try:
                trials[i] = walks[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
        return trials

    trials = answer((i, None) for i in range(len(walks)))
    while trials:
        if len(trials) > LOCKSTEP_MIN:
            n = len(trials)
            chart, *rest = np.fromiter(itertools.chain.from_iterable(trials.values()), float, 6 * n).reshape(n, 6).T
            replies = zip(*(x.tolist() for x in _dop853_array(metric.warp_with_partials_vec, chart, *rest)))
        else:
            replies = (_dop853(metric.warp_with_partials, *trial) for trial in trials.values())
        trials = answer(zip(trials, replies))
    return EnsembleResult(
        final_states=[GeodesicState(*state) for state, *_ in results],
        sign_flips=np.array([flips for _, flips, _, _ in results], dtype=int),
        min_abs_vtheta=np.array([least for _, _, least, _ in results], dtype=float),
        crossings=np.array([crossings for *_, crossings in results], dtype=int),
        center_passages=np.zeros(len(results), dtype=int),
    )


# ----------------------------------------------------------------------------
# exact piecewise-radial tracer


class Leg(NamedTuple):
    index: int
    chart: int
    kind: str  # "radius" | "diameter"
    entry: float | None  # boundary angle where the leg starts (None: center start)
    exit: float  # boundary angle where the leg ends
    length: int  # 1 for the radius leg, 2 for a diameter


class TraceCrossing(NamedTuple):
    index: int
    theta1: float  # chart-1 boundary angle
    theta2: float  # its image on the chart-2 boundary


class TracePassage(NamedTuple):
    chart: int
    leg_index: int
    direction: float  # angle of motion at the center (exit ray)

    @property
    def line(self) -> float:
        return self.direction % math.pi


@dataclass
class SectionTrace:
    """Exact itinerary of a section started radially at a chart-1 center."""

    start: float
    legs: list[Leg]
    crossings: list[TraceCrossing]
    center_passages: list[TracePassage]
    orbit: list[float]  # start, then the traced returns T(start), T^2(start), ...
    max_legs: int
    k_max: int
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "max_legs": self.max_legs,
            "k_max": self.k_max,
            "tol": self.tol,
            "legs": [leg._asdict() for leg in self.legs],
            "crossings": [c._asdict() for c in self.crossings],
            "center_passages": [{**p._asdict(), "line": p.line} for p in self.center_passages],
            "orbit": list(self.orbit),
        }


def trace_section(
    f: CircleDiffeo,
    theta0: float,
    max_legs: int = 102,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> SectionTrace:
    """Walk the exact itinerary of the section leaving the chart-1 center
    toward boundary angle theta0.

    Legs are the radius out of the start center followed by alternating full
    diameters; the walk stops after max_legs legs or at the first return
    within tol of theta0.  The recorded orbit is theta0 followed by the
    traced returns T(theta0), T^2(theta0), ... with T the round-trip
    transition map.  Three legs trace the first return, and that one
    decides closure: T fixes an antipodal pair, so a start T does not fix
    never comes back (see `Period`).  A fourth leg passes the chart-2 center
    a second time (legs 1 and 3); with three, each center is passed once,
    so a start that does not close would have no pair of passages to
    witness that it is not injective.  k_max only labels the horizon of a
    non-closing verdict.  max_legs must be an integer >= 4, and k_max and
    tol pass `period_of`'s check (an integer k_max >= 1, a positive finite
    tol); otherwise ValueError.

    Every angle of the walk is already normalized, so a leg takes
    normalize(f.lift(x)) for f(x) and writes `normalize`, `antipode` and
    the closure test's `circle_distance` out; the bits are those of f(x)
    and antipode, since normalizing twice gives the bits of normalizing
    once.  The one angle outside [0, 2 pi) is 2 pi itself, which antipode
    returns for the float just below pi, and f reads it as 0.  The walk
    collects each record's fields as a plain tuple and types them all in
    one map of tuple.__new__ at the end, without a Python frame per record:
    the same types, fields and reprs as the constructors'.  max_legs and
    k_max are stored as Python ints.
    """
    _check_count("max_legs", max_legs, 4)
    _check_horizon(k_max, tol)
    if not abs(theta0) < ANGLE_BOUND:
        raise ValueError(f"theta0 must satisfy |theta0| < {ANGLE_BOUND:.0f}, got {theta0!r}")
    lift, inverse, pi = f.lift, f.inverse, math.pi
    theta0 = normalize(theta0)
    # the records' fields as plain tuples, typed in one pass at the end
    legs = [(0, 1, "radius", None, theta0, 1)]
    crossings, passages, orbit = [], [], [theta0]
    x, n = theta0, 1  # n legs so far; leg n crosses the rim as crossing n - 1
    while n < max_legs:
        # outward at chart-1 boundary angle x: cross and run the chart-2 diameter
        y = lift(x if x < TWO_PI else 0.0) % TWO_PI
        if y >= TWO_PI:
            y = 0.0
        exit2 = y - pi if y >= pi else y + pi
        crossings.append((n - 1, x, y))
        legs.append((n, 2, "diameter", y, exit2, 2))
        passages.append((2, n, exit2))
        n += 1
        if n >= max_legs:
            break
        # outward at chart-2 boundary angle exit2: cross back and run chart 1
        w = inverse(exit2)
        x = w - pi if w >= pi else w + pi
        crossings.append((n - 1, w, exit2))
        legs.append((n, 1, "diameter", w, x, 2))
        passages.append((1, n, x))
        n += 1
        orbit.append(x)
        d = abs(x - theta0) % TWO_PI
        if d < tol or TWO_PI - d < tol:
            break
    return SectionTrace(
        start=theta0,
        legs=list(map(tuple.__new__, itertools.repeat(Leg), legs)),
        crossings=list(map(tuple.__new__, itertools.repeat(TraceCrossing), crossings)),
        center_passages=list(map(tuple.__new__, itertools.repeat(TracePassage), passages)),
        orbit=orbit,
        max_legs=int(max_legs),
        k_max=int(k_max),
        tol=tol,
    )


@dataclass(frozen=True)
class InjectivityWitness:
    chart: int
    leg_a: int
    leg_b: int
    line_a: float
    line_b: float
    separation: float


@dataclass(frozen=True)
class SectionVerdict:
    closed: bool
    period: Period
    length: float  # 4k for closed sections, inf otherwise
    injective: bool
    witness: InjectivityWitness | None


def section_verdict(trace: SectionTrace) -> SectionVerdict:
    """Closure, length and injectivity of a traced section.

    Closure is read off the last traced return: `trace_section` stops at
    the first return within trace.tol of the start, so the section closes
    exactly when orbit[-1] does, with period k = len(orbit) - 1.  A trace
    that does not close gets `Period.not_found(trace.k_max)`, which its
    first return already proves for every horizon (see `trace_section`).
    A closed period-k section consists of k diameters in each disk, and the
    radial coordinate is arclength (g_tt = 1), so its length is exactly 4k.
    Injectivity fails exactly when some center is passed along two distinct
    lines; re-traversal of the same line (period-1 closure) does not count.
    The witness is found in one pass over the passages, which come in leg
    order: the first passage at least tol off the line of an earlier
    passage through its center, paired with the earliest such passage.
    """
    tol = trace.tol
    k = len(trace.orbit) - 1
    closed = k >= 1 and circle_distance(trace.orbit[-1], trace.orbit[0]) < tol
    period = Period.finite(k) if closed else Period.not_found(trace.k_max)
    length = float(4 * k) if closed else math.inf

    passages = trace.center_passages
    pairs = ((a, b) for j, b in enumerate(passages) for a in passages[:j] if a.chart == b.chart)
    witness = next(
        (
            InjectivityWitness(a.chart, a.leg_index, b.leg_index, a.line, b.line, sep)
            for a, b in pairs
            if (sep := line_distance(a.direction, b.direction)) >= tol
        ),
        None,
    )
    return SectionVerdict(
        closed=closed,
        period=period,
        length=length,
        injective=witness is None,
        witness=witness,
    )


@dataclass(frozen=True)
class SectionComparison:
    theta_a: float
    theta_b: float
    period_a: int
    period_b: int
    length_a: float
    length_b: float
    non_isometric: bool


def compare_sections(
    f: CircleDiffeo,
    theta_a: float,
    theta_b: float,
    max_legs: int = 200,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> SectionComparison:
    """Compare two closed sections by period and length.

    Distinct periods certify non-isometric sections: closed geodesics of
    lengths 4k_a and 4k_b are isometric only when the lengths agree.  Raises
    NotClosed when either trace fails to close within its horizon.
    """
    verdicts = []
    for theta in (theta_a, theta_b):
        trace = trace_section(f, theta, max_legs=max_legs, k_max=k_max, tol=tol)
        v = section_verdict(trace)
        if not v.closed:
            raise NotClosed(f"section at theta={theta!r} did not close within {k_max} returns")
        verdicts.append(v)
    va, vb = verdicts
    return SectionComparison(
        theta_a=normalize(theta_a),
        theta_b=normalize(theta_b),
        period_a=va.period.k,
        period_b=vb.period.k,
        length_a=va.length,
        length_b=vb.length,
        non_isometric=va.period.k != vb.period.k,
    )
