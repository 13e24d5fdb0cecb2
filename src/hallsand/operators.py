"""Propagation operators over a flow table and their spectral radii."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .exposure import _row_blocks
from .ingest import IOTable, TableError


class OperatorKind(Enum):
    ROW_SHARE = "share"
    LEAKAGE_ADJUSTED = "leak"
    MAX_ROW = "max"


# power iteration stops when its eigenpair residual is at most
# _TOL * max(1, estimate), and gives up after _MAX_ITER products
_TOL = 1e-10
_MAX_ITER = 100_000


class SpectralConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, max_iter: int, last_estimates: tuple[float, float]):
        self.max_iter = max_iter
        self.last_estimates = last_estimates
        super().__init__(
            f"power iteration did not converge in {max_iter} iterations; "
            f"last estimates {last_estimates[0]:.12g}, {last_estimates[1]:.12g} "
            "(near-degenerate spectrum?)"
        )


@dataclass(frozen=True)
class PropagationOperator:
    """A non-negative n x n propagation matrix with its cached spectral radius."""

    matrix: sparse.csr_matrix
    spectral_radius: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def leakage_profile(table: IOTable) -> np.ndarray:
    """Per-node leak shares l_i = outflows_i / row_use_i: intermediate
    outflows over gross row use, clamped to [0, 1].

    Nodes with no outflows get l_i = 0. A node with positive outflows but
    zero recorded row use is a contract violation and raises TableError.
    """
    outflows = table.outflow_totals()
    row_use = table.row_use_total
    bad = (outflows > 0) & (row_use <= 0)
    if bad.any():
        node = table.nodes[int(np.flatnonzero(bad)[0])]
        raise TableError(f"node {node.label}: positive outflows with zero row use")
    values = np.zeros(table.n)
    pos = outflows > 0
    values[pos] = np.clip(outflows[pos] / row_use[pos], 0.0, 1.0)
    return values


def _cyclic_components(matrix: sparse.csr_matrix) -> list[np.ndarray]:
    """Nodes of each strongly connected component whose edges close a cycle.

    A component closes one when it has two or more nodes, or one node with
    a self-loop. Zero-weight edges carry nothing and are dropped first. A
    strongly connected matrix, the usual case for a flow table, is decided
    without scipy.sparse.csgraph, whose import loads scipy.linalg.
    """
    struct = matrix
    if not matrix.data.all():
        struct = matrix.copy()
        struct.eliminate_zeros()
    if struct.nnz == 0:
        return []
    if _reaches_all(struct.T) and _reaches_all(struct):
        return [np.arange(struct.shape[0])]
    from scipy.sparse import csgraph

    n_comp, labels = csgraph.connected_components(struct, directed=True, connection="strong")
    loops = np.bincount(labels, weights=struct.diagonal() != 0, minlength=n_comp)
    cyclic = (np.bincount(labels, minlength=n_comp) > 1) | (loops > 0)
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(cyclic)]


def _reaches_all(edges) -> bool:
    """Whether a breadth-first search from node 0 reaches every node.

    Each step is one product: (edges @ x)[i] is positive when row i has an
    entry in a column that x marks, the entries being finite and positive.
    An inf, nan or negative entry can only make a row look unreached, so
    such a matrix is at worst called not strongly connected. Through A.T
    the search follows A's edges forward, through A backward.
    """
    n = edges.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    while count < n:
        reached |= (edges @ reached) > 0
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return False
        count = grown
    return True


def spectral_radius(matrix) -> float:
    """Dominant eigenvalue magnitude of a non-negative matrix by power iteration.

    Each cyclic strongly connected component is iterated on its own, or the
    matrix whole when it is strongly connected, and the largest radius is
    returned. A matrix whose edges close no cycle has radius exactly 0, and
    is not iterated.

    Raises ValueError for a non-square matrix or a non-finite or negative
    entry, and SpectralConvergenceError (carrying the last two estimates) if
    the iteration budget runs out.
    """
    mat = matrix.tocsr() if sparse.issparse(matrix) else sparse.csr_matrix(matrix, dtype=np.float64)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    # the checks reduce the entries, and make no array of one value per entry
    lo, hi = (mat.data.min(), mat.data.max()) if mat.data.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("matrix must be finite")
    if lo < 0:
        raise ValueError("matrix must be non-negative")
    # Each component's dominant root is simple. On the whole matrix, two
    # components that share the largest root form a Jordan block, where
    # power iteration closes in like 1/k and never meets _TOL; and the
    # eigenvalue 0 of nodes on no cycle sits at the shift, which a root far
    # below it cannot be told from.
    n = mat.shape[0]
    parts = (mat if nodes.size == n else mat[nodes][:, nodes] for nodes in _cyclic_components(mat))
    return max(map(_power_iteration, parts), default=0.0)


def _power_iteration(mat) -> float:
    """The dominant root of a strongly connected non-negative matrix.

    Starts from the all-ones vector and iterates on the shifted matrix
    A + 0.5*max_row_sum*I, which leaves the dominant root recoverable exactly
    and keeps cyclic structures from oscillating. A stalled scalar estimate
    only gates the convergence test; the deciding test is the eigenpair
    residual ||(A + shift)v - est*v||_inf <= _TOL * max(1, est), which a
    transient dip in the estimate sequence cannot fake.
    """
    n = mat.shape[0]
    shift = 0.5 * float(np.asarray(mat.sum(axis=1)).max())
    v = np.full(n, 1.0 / n)
    eps = float(np.finfo(np.float64).eps)
    prev = None
    for _ in range(_MAX_ITER):
        w = mat @ v + shift * v
        est = float(w.sum())
        if prev is not None and abs(est - prev) < max(_TOL, 8.0 * eps * abs(est)):
            # The scalar sequence can dip spuriously when a rotating
            # subdominant component crosses alignment; the vector residual
            # cannot, so it is the deciding test.
            resid = float(np.abs(w - est * v).max())
            if resid <= _TOL * max(1.0, abs(est)):
                return max(est - shift, 0.0)
        v = w / est
        prev = est
    raise SpectralConvergenceError(_MAX_ITER, (float(prev), float(est)))


def build_operator(table: IOTable, kind: OperatorKind) -> PropagationOperator:
    """Build one of the three propagation operators from a flow table.

    row-share normalizes each row by its own total (zero rows stay zero);
    leakage-adjusted scales each row-share row by the node's leak share;
    max-row divides the whole matrix by the largest row total. The spectral
    radius is computed once and cached on the operator. The table is left
    as it was.
    """
    return _build_into(table, kind, np.empty(table.Z.nnz))


def _build_into(table: IOTable, kind: OperatorKind, values: np.ndarray) -> PropagationOperator:
    """The operator, its values written into values: a fresh array, or
    table.Z.data itself, which leaves table.Z the operator's matrix.

    Each row is scaled on Z's own sorted structure, a block of rows at a
    time: the entries of Z * c, or of diags(scale) @ Z, which stores no
    product that is exactly 0. A fresh matrix shares Z's index arrays unless
    a 0 has to be dropped from them.
    """
    Z = table.Z
    totals = table.outflow_totals()  # the divisor of each row
    if kind is OperatorKind.MAX_ROW:
        weight, totals = 1.0, np.full(table.n, totals.max())
    elif kind is OperatorKind.ROW_SHARE:
        weight = 1.0
    elif kind is OperatorKind.LEAKAGE_ADJUSTED:
        weight = leakage_profile(table)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    # a row v with total t becomes v * (w / t), or (v / t) * w where w / t
    # overflows, as it does for a subnormal t; such a row is first copied
    # through a scale of 1
    with np.errstate(over="ignore"):
        scale = np.divide(weight, totals, out=np.zeros(table.n), where=totals > 0)
    tiny = np.isinf(scale)
    scale[tiny] = 1.0
    for a, b in _row_blocks(Z.indptr):
        lo, hi = Z.indptr[a], Z.indptr[b]
        np.multiply(np.repeat(scale[a:b], np.diff(Z.indptr[a : b + 1])), Z.data[lo:hi], out=values[lo:hi])
    weights = np.broadcast_to(weight, table.n)
    for i in np.flatnonzero(tiny):
        row = slice(Z.indptr[i], Z.indptr[i + 1])
        values[row] = values[row] / totals[i] * weights[i]
    drop = kind is not OperatorKind.MAX_ROW and not values.all()
    if values is Z.data:
        matrix = Z
    elif drop:
        matrix = sparse.csr_matrix((values, Z.indices.copy(), Z.indptr.copy()), shape=Z.shape)
    else:
        matrix = sparse.csr_matrix((values, Z.indices, Z.indptr), shape=Z.shape)
    if drop:
        matrix.eliminate_zeros()
    return PropagationOperator(matrix=matrix, spectral_radius=spectral_radius(matrix))
