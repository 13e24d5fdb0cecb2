"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from scipy import sparse

from hallsand import dynamics
from hallsand.ingest import IOTable, NodeId

try:
    from hypothesis import settings
except ImportError:  # the generated-input tests skip themselves
    pass
else:
    # the same examples on every run, and no example database left behind
    settings.register_profile("hallsand", derandomize=True, database=None, deadline=None)
    settings.load_profile("hallsand")


# Values of the relaxation cost rule's threshold that put every round on one
# product: over the toppled rows only, A[J].T, or over all of A through A.T.
FORCE_SLICED, FORCE_FULL = -1, math.inf


def relaxation_products(threshold):
    """Run the engine with the given relaxation threshold, inside a with block.

    A context manager, not a fixture: hypothesis tests call it in their body.
    """
    return mock.patch.object(dynamics, "_SLICE_MIN_SKIPPED", threshold)


def table_from_dense(dense, year=2014, row_use=None):
    """Wrap a dense flow matrix as an IOTable for direct unit testing.

    row_use defaults to the row sums, which makes every leakage share 1.
    """
    Z = np.asarray(dense, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("dense flow matrix must be square")
    n = Z.shape[0]
    if row_use is None:
        row_use = Z.sum(axis=1)
    nodes = tuple(NodeId(country=_label(i), sector="ALL", index=i) for i in range(n))
    return IOTable(
        year=year,
        n=n,
        Z=sparse.csr_matrix(Z),
        row_use_total=np.asarray(row_use, dtype=float),
        nodes=nodes,
    )


def _label(i):
    letters = []
    v = i
    for _ in range(3):
        letters.append(chr(ord("A") + v % 26))
        v //= 26
    return "".join(reversed(letters))


def powerlaw_samples(rng, alpha, x_min, size):
    """Discrete power-law draws by inverting the continuous approximation.

    Floor of the shifted continuous quantile; exact enough for estimator
    recovery tests at the tested (alpha, x_min) pairs.
    """
    u = rng.random(size)
    cont = (x_min - 0.5) * (1.0 - u) ** (-1.0 / (alpha - 1.0))
    return np.floor(cont + 0.5).astype(np.int64)
