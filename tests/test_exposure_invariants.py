"""Generated-input invariants of the exposure profile.

On every drawn synthetic table, the flow shares I sum to 1, D and C lie in
[floor, 1], and compute_exposure gives the same bytes when the flows and the
row use are scaled by a power of two, which scales every sum exactly.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.exposure import ExposureProfile, compute_exposure  # noqa: E402
from hallsand.ingest import synth_substrate  # noqa: E402


@given(
    n=st.integers(2, 40),
    density=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    mean_leakage=st.floats(0.01, 0.99),
    d_floor=st.floats(0.01, 0.99),
    c_floor=st.floats(0.01, 0.99),
    B=st.floats(0.0, 10.0),
    k=st.integers(-30, 30),
)
def test_exposure_invariants_and_power_of_two_scale(n, density, seed, mean_leakage, d_floor, c_floor, B, k):
    table = synth_substrate(n, density, seed, mean_leakage=mean_leakage)
    prof = compute_exposure(table, B=B, d_floor=d_floor, c_floor=c_floor)
    assert abs(prof.I.sum() - 1.0) <= 1e-12
    assert ((d_floor <= prof.D) & (prof.D <= 1.0)).all()
    assert ((c_floor <= prof.C) & (prof.C <= 1.0)).all()

    scale = 2.0**k
    scaled = replace(table, Z=table.Z * scale, row_use_total=table.row_use_total * scale)
    again = compute_exposure(scaled, B=B, d_floor=d_floor, c_floor=c_floor)
    for f in fields(ExposureProfile):
        got, want = getattr(again, f.name), getattr(prof, f.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
