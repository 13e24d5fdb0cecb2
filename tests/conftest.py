"""Shared helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
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


@contextmanager
def settled_stress():
    """Record the engine's stress after every relaxation, inside a with block.

    Yields a list that gets a copy of the n x k stress block after each
    _relax_block call, that is once per period of a run_batch. After a
    one-column run, the last entry's column 0 is the final stress.
    """
    blocks = []
    relax_block = dynamics._relax_block

    def spy(S, *args):
        result = relax_block(S, *args)
        blocks.append(S.copy())
        return result

    with mock.patch.object(dynamics, "_relax_block", spy):
        yield blocks


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
