"""Hypothesis strategies shared by the property tests.

Each strategy draws a map's parameters and returns a builder, so a test can
decide what a rejected draw (a documented ValueError) means for it.
"""

import math

import numpy as np
from hypothesis import strategies as st

from sectionlab import TWO_PI, BumpDiffeo, SplineDiffeo

BUMP_SLOPE = 4.2357  # max |beta'| of the peak-normalized profile on a unit arc


@st.composite
def bump_maps(draw):
    lo = draw(st.floats(0.0, TWO_PI))
    hi = draw(st.floats(lo, TWO_PI))
    # either sign, up to a little past the monotonicity limit of the arc
    fraction = draw(st.floats(-1.05, 1.05))
    return lambda: BumpDiffeo(fraction * (hi - lo) / BUMP_SLOPE, lo, hi)


@st.composite
def harmonic_splines(draw):
    n_knots = draw(st.integers(4, 32))
    knots = np.linspace(0.0, TWO_PI, n_knots, endpoint=False)
    values = knots.copy()
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 4))
        amplitude = draw(st.floats(-0.4, 0.4))
        phase = draw(st.floats(0.0, TWO_PI))
        values += amplitude * np.sin(m * knots + phase)
    return lambda: SplineDiffeo(knots, values)


drawn_maps = st.one_of(bump_maps(), harmonic_splines())


@st.composite
def spline_tables(draw):
    """1-32 knots in [0, 2*pi) at least 1e-2 apart (the wrap gap included), values in [-1, 1]."""
    n_knots = draw(st.integers(1, 32))
    gaps = draw(
        st.lists(st.floats(1e-2, TWO_PI / n_knots), min_size=n_knots - 1, max_size=n_knots - 1)
    )
    knots = draw(st.floats(0.0, 0.1)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_knots, max_size=n_knots))
    return knots, np.array(values)


@st.composite
def edge_starts(draw):
    """A builder of a non-radial start (chart, t, theta, direction) for
    `unit_speed_state` on a given metric: t is its t0 or its t1, exactly,
    moved into the annulus or moved into the flat zone, by 0.09 * 2^-x for
    x in [0, 50], so from 0.09 (inside the disk for t0, 1 - t1 >= 0.1) down
    to the rounding of t; the direction is at least 1e-6 off the radial
    line."""
    chart = draw(st.integers(1, 2))
    edge = draw(st.sampled_from(("t0", "t1")))
    # 1: into the annulus, -1: into the flat zone
    side = draw(st.sampled_from((0.0, 1.0, -1.0))) * (1.0 if edge == "t0" else -1.0)
    offset = side * 0.09 * 2.0 ** -draw(st.floats(0.0, 50.0))
    theta = draw(st.floats(0.0, TWO_PI))
    direction = draw(st.floats(1e-6, math.pi - 1e-6)) * draw(st.sampled_from((1.0, -1.0)))
    return lambda m: (chart, getattr(m, edge) + offset, theta, direction)
