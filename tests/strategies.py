"""Hypothesis strategies shared by the property tests.

Each strategy draws a map's parameters and returns a builder, so a test can
decide what a rejected draw (a documented ValueError) means for it.
"""

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
