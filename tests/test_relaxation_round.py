"""Generated-input test of one relaxation round against scipy's public products.

The engine gathers the toppled rows J of A and pushes their excess through
scipy's private kernels. One round must give, bit for bit, what both public
products give: A.T @ E over all rows and A[J].T @ E[J] over the toppled ones.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy import sparse  # noqa: E402

from hallsand.dynamics import Params, _relax_block  # noqa: E402

THETA = 1.0
# exact zeros and values on and next to theta, beside uniform draws
SPECIAL = np.array([0.0, THETA, np.nextafter(THETA, 0.0), np.nextafter(THETA, 2.0)])


def values(rng, size):
    drawn = rng.uniform(0.0, 3.0, size)
    pick = rng.integers(0, 2 * SPECIAL.size, size)
    return np.where(pick < SPECIAL.size, SPECIAL[pick % SPECIAL.size], drawn)


@st.composite
def rounds(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # stored entries, the diagonal included, each of which may hold a zero
    rows, cols = np.nonzero(rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    A = sparse.csr_matrix((values(rng, rows.size), (rows, cols)), shape=(n, n))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    # set after construction, which would cast int64 indices down to int32
    A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
    params = Params(
        theta=THETA,
        theta_reset=draw(st.sampled_from([0.0, 0.25, np.nextafter(THETA, 0.0)])),
        redistribution_fraction=draw(st.floats(0.0, 1.0)),
    )
    return A, values(rng, (n, k)), params


@settings(max_examples=200)
@given(rounds())
def test_one_round_gives_the_bytes_of_the_public_products(case):
    A, S, p = case
    over = S >= p.theta
    J = np.flatnonzero(over.any(axis=1))
    excess = p.redistribution_fraction * np.where(over, S - p.theta_reset, 0.0)
    reset = np.where(over, p.theta_reset, S)
    want_all = reset + A.T @ excess
    want_toppled = reset + A[J].T @ excess[J]
    got = S.copy()
    toppled = np.zeros(S.shape, dtype=bool)
    events, n_rounds, _ = _relax_block(got, A, p, 1, toppled)
    assert got.tobytes() == want_all.tobytes() == want_toppled.tobytes()
    assert events.tolist() == over.sum(axis=0).tolist()
    assert n_rounds.tolist() == over.any(axis=0).astype(int).tolist()
    assert (toppled == over).all()
