"""Generated-input invariants of the tail fits.

hill_alpha(values, scale) depends on the values only through the ratios
values / scale. Scaling both by a power of two changes no ratio, so the fit
gives the same bits. fit_alpha has no such invariance: its cutoff shift of
one half is fixed in the units of the data.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.tail import hill_alpha  # noqa: E402


@given(
    values=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=200),
    scale_share=st.floats(1e-3, 1.0),
    k=st.integers(-60, 60),
)
def test_hill_alpha_exactly_invariant_under_power_of_two_scale(values, scale_share, k):
    values = np.array(values)
    scale = float(values.min()) * scale_share  # at most the smallest value; equal gives inf
    factor = 2.0**k
    got = hill_alpha(values * factor, scale * factor)
    want = hill_alpha(values, scale)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
