"""Propagation operators over a flow table and their spectral radii."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .ingest import IOTable, TableError


class OperatorKind(Enum):
    ROW_SHARE = "row-share"
    LEAKAGE_ADJUSTED = "leakage-adjusted"
    MAX_ROW = "max-row"

    @classmethod
    def from_string(cls, name: str) -> "OperatorKind":
        key = name.strip().lower()
        aliases = {
            "share": cls.ROW_SHARE,
            "row-share": cls.ROW_SHARE,
            "row_share": cls.ROW_SHARE,
            "leak": cls.LEAKAGE_ADJUSTED,
            "leakage-adjusted": cls.LEAKAGE_ADJUSTED,
            "leakage_adjusted": cls.LEAKAGE_ADJUSTED,
            "max": cls.MAX_ROW,
            "max-row": cls.MAX_ROW,
            "max_row": cls.MAX_ROW,
        }
        if key not in aliases:
            raise ValueError(f"unknown operator kind {name!r}")
        return aliases[key]


class SpectralConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, max_iter: int, last_estimates: tuple[float, float]):
        self.max_iter = max_iter
        self.last_estimates = last_estimates
        super().__init__(
            f"power iteration did not converge in {max_iter} iterations; "
            f"last estimates {last_estimates[0]:.12g}, {last_estimates[1]:.12g} "
            "(near-degenerate spectrum? raise max_iter)"
        )


@dataclass(frozen=True)
class PropagationOperator:
    """A non-negative n x n propagation matrix with its cached spectral radius."""

    kind: OperatorKind
    matrix: sparse.csr_matrix
    spectral_radius: float
    year: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LeakageProfile:
    """Per-node leak shares: intermediate outflows over gross row use."""

    values: np.ndarray
    mean_leakage: float


def leakage_profile(table: IOTable) -> LeakageProfile:
    """Leak shares l_i = outflows_i / row_use_i, clamped to [0, 1].

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
    return LeakageProfile(values=values, mean_leakage=float(values.mean()))


def _cyclic_components(matrix: sparse.csr_matrix) -> list[np.ndarray]:
    """Nodes of each strongly connected component whose edges close a cycle.

    A component closes one when it has two or more nodes, or one node with
    a self-loop. Zero-weight edges carry nothing and are dropped first. A
    strongly connected matrix, the usual case for a flow table, is decided
    without scipy.sparse.csgraph, whose import loads scipy.linalg.
    """
    struct = matrix
    if (matrix.data == 0).any():
        struct = matrix.copy()
        struct.eliminate_zeros()
    if struct.nnz == 0:
        return []
    # every stored entry is an edge, inf and nan as well
    edges = sparse.csr_matrix(
        (np.ones(struct.nnz, dtype=bool), struct.indices, struct.indptr), shape=struct.shape
    )
    if _reaches_all(edges.T) and _reaches_all(edges):
        return [np.arange(struct.shape[0])]
    from scipy.sparse import csgraph

    n_comp, labels = csgraph.connected_components(struct, directed=True, connection="strong")
    loops = np.bincount(labels, weights=struct.diagonal() != 0, minlength=n_comp)
    cyclic = (np.bincount(labels, minlength=n_comp) > 1) | (loops > 0)
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(cyclic)]


def _reaches_all(edges) -> bool:
    """Whether a breadth-first search from node 0 reaches every node.

    Each step is one boolean product: (edges @ x)[i] is set when row i has
    an entry in a column that x marks. Through A.T the search follows A's
    edges forward, through A backward.
    """
    n = edges.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    while count < n:
        reached |= edges @ reached
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return False
        count = grown
    return True


def spectral_radius(matrix, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Dominant eigenvalue magnitude of a non-negative matrix by power iteration.

    Starts from the all-ones vector and iterates on the shifted matrix
    A + 0.5*max_row_sum*I, which leaves the dominant root recoverable exactly
    and keeps cyclic structures from oscillating. A stalled scalar estimate
    only gates the convergence test; the deciding test is the eigenpair
    residual ||(A + shift)v - est*v||_inf <= tol * max(1, est), which a
    transient dip in the estimate sequence cannot fake. A nonzero matrix
    whose edge structure has no cycle has radius exactly 0 and
    short-circuits, avoiding the slow defective-eigenvalue tail. A matrix
    with cycles in two or more strongly connected components gets the
    largest radius among those components, each iterated on its own.

    Raises SpectralConvergenceError (carrying the last two estimates) if the
    budget runs out.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 2:
        raise ValueError(f"max_iter must be at least 2, got {max_iter}")
    if sparse.issparse(matrix):
        mat = matrix.tocsr()
        data_min = mat.data.min() if mat.nnz else 0.0
    else:
        mat = np.asarray(matrix, dtype=np.float64)
        data_min = mat.min() if mat.size else 0.0
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if data_min < 0:
        raise ValueError("matrix must be non-negative")

    n = mat.shape[0]
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    max_row = float(row_sums.max()) if n else 0.0
    if max_row == 0.0:
        return 0.0
    sp = mat if sparse.issparse(mat) else sparse.csr_matrix(mat)
    components = _cyclic_components(sp)
    if not components:
        return 0.0
    if len(components) > 1:
        # Each component's dominant root is simple. On the whole matrix, two
        # components that share the largest root form a Jordan block, where
        # power iteration closes in like 1/k and never meets tol.
        return max(spectral_radius(sp[nodes][:, nodes], tol, max_iter) for nodes in components)
    return _power_iteration(mat, max_row, tol, max_iter)


def _power_iteration(mat, max_row: float, tol: float, max_iter: int) -> float:
    n = mat.shape[0]
    shift = 0.5 * max_row
    v = np.full(n, 1.0 / n)
    eps = float(np.finfo(np.float64).eps)
    prev = None
    for _ in range(max_iter):
        w = mat @ v + shift * v
        est = float(w.sum())
        if prev is not None and abs(est - prev) < max(tol, 8.0 * eps * abs(est)):
            # The scalar sequence can dip spuriously when a rotating
            # subdominant component crosses alignment; the vector residual
            # cannot, so it is the deciding test.
            resid = float(np.abs(w - est * v).max())
            if resid <= tol * max(1.0, abs(est)):
                return max(est - shift, 0.0)
        v = w / est
        prev = est
    raise SpectralConvergenceError(max_iter, (float(prev), float(est)))


def build_operator(table: IOTable, kind: OperatorKind) -> PropagationOperator:
    """Build one of the three propagation operators from a flow table.

    row-share normalizes each row by its own total (zero rows stay zero);
    leakage-adjusted scales each row-share row by the node's leak share;
    max-row divides the whole matrix by the largest row total. The spectral
    radius is computed once and cached on the operator.
    """
    Z = table.Z
    row_totals = table.outflow_totals()
    if kind is OperatorKind.MAX_ROW:
        max_row = row_totals.max()
        data = Z.data * (1.0 / max_row if max_row > 0 else 0.0)
    elif kind in (OperatorKind.ROW_SHARE, OperatorKind.LEAKAGE_ADJUSTED):
        weight = 1.0 if kind is OperatorKind.ROW_SHARE else leakage_profile(table).values
        scale = np.divide(weight, row_totals, out=np.zeros(table.n), where=row_totals > 0)
        data = Z.data * np.repeat(scale, np.diff(Z.indptr))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    # each row scaled on Z's own sorted structure: the entries of Z * c, or of
    # diags(scale) @ Z, which stores no product that is exactly 0
    matrix = sparse.csr_matrix((data, Z.indices.copy(), Z.indptr.copy()), shape=Z.shape)
    if kind is not OperatorKind.MAX_ROW:
        matrix.eliminate_zeros()
    rho = spectral_radius(matrix)
    return PropagationOperator(kind=kind, matrix=matrix, spectral_radius=rho, year=table.year)
