"""Node exposure: flow shares, concentration indices, and stress loadings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ingest import IOTable, TableError

DEFAULT_FIELD = 1.0
DEFAULT_FLOOR = 0.05
DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class ExposureProfile:
    """Per-node exposure arrays for one table.

    I sums to 1 across nodes. D (diversification) and C (inflow capacity)
    live in [floor, 1]. R = 1/(D*C + epsilon) is structural resistance.
    H and H_rel are the stress loading and its share at the field
    intensity B that compute_exposure was given.
    """

    I: np.ndarray
    HHI_out: np.ndarray
    HHI_in: np.ndarray
    D: np.ndarray
    C: np.ndarray
    R: np.ndarray
    H: np.ndarray
    H_rel: np.ndarray

    @property
    def n(self) -> int:
        return self.I.shape[0]


# Z's squares are summed a block of whole rows at a time, of about this many
# entries: a block's temporaries stay in cache, and none is the size of Z
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(indptr: np.ndarray):
    """Row ranges [a, b) of a CSR matrix that split it into blocks of whole
    rows: _BLOCK_ENTRIES entries or fewer each, or one row that holds more."""
    n, a = indptr.size - 1, 0
    while a < n:
        b = int(np.searchsorted(indptr, int(indptr[a]) + _BLOCK_ENTRIES, side="right")) - 1
        b = max(a + 1, b)
        yield a, b
        a = b


def _square_sums(Z: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The sums of Z's squared flows along each row and each column.

    These are bit for bit Z.multiply(Z).sum(axis=1) and .sum(axis=0), made
    without that Z-sized product. Z.multiply(Z) stores no 0 (zero flows,
    underflows), and scipy reduces each row with np.add.reduceat, which sums
    more than 8 terms in 8 interleaved partial sums: a stored 0 would move the
    later terms and the bits, so a row's zeros are dropped before it is
    reduced. A column is summed in stored order from 0.0, as scipy's product
    with a row of ones does, and there a 0 changes nothing. A flow above
    1e154 squares to inf, in a row and column that _hhi scales.
    """
    rows, cols = np.zeros(Z.shape[0]), np.zeros(Z.shape[1])
    for a, b in _row_blocks(Z.indptr):
        lo, hi = Z.indptr[a], Z.indptr[b]
        flows = Z.data[lo:hi]
        with np.errstate(over="ignore"):
            squares = flows * flows
        np.add.at(cols, Z.indices[lo:hi], squares)
        starts = Z.indptr[a : b + 1] - lo
        kept = squares != 0
        if not kept.all():
            starts = np.concatenate(([0], np.cumsum(kept)))[starts]
            squares = squares[kept]
        filled = np.flatnonzero(np.diff(starts))
        if filled.size:
            rows[a + filled] = np.add.reduceat(squares, starts[filled])
    return rows, cols


def _hhi(Z: sparse.csr_matrix, totals: np.ndarray, sq: np.ndarray, axis: int) -> np.ndarray:
    """The Herfindahl index of each row (axis=1) or column (axis=0) of Z.

    totals and sq are the sums of Z's flows and of their squares along axis.
    The index is sq / t**2 where t*t is a normal float, sum((v/t)**2) where
    it under- or overflows, and 0 where t is 0.
    """
    with np.errstate(over="ignore"):
        square = totals * totals
    plain = (totals > 0) & (square >= np.finfo(np.float64).tiny) & (square < np.inf)
    hhi = np.divide(sq, square, out=np.zeros(totals.size), where=plain)
    scaled = (totals > 0) & ~plain
    if scaled.any():
        sums = np.zeros(totals.size)
        for a, b in _row_blocks(Z.indptr):
            lo, hi = Z.indptr[a], Z.indptr[b]
            lines = Z.indices[lo:hi] if axis == 0 else np.repeat(np.arange(a, b), np.diff(Z.indptr[a : b + 1]))
            keep = scaled[lines]
            shares = Z.data[lo:hi][keep] / totals[lines[keep]]
            np.add.at(sums, lines[keep], shares * shares)
        hhi[scaled] = sums[scaled]
    return hhi


def compute_exposure(
    table: IOTable,
    B: float = DEFAULT_FIELD,
    d_floor: float = DEFAULT_FLOOR,
    c_floor: float = DEFAULT_FLOOR,
    epsilon: float = DEFAULT_EPSILON,
) -> ExposureProfile:
    """The exposure profile of a table at field intensity B.

    I = (outflows + inflows) / (2 * total flow) sums to one; an all-zero
    table has no shares and raises TableError. D, the outflow
    diversification, is D_raw = (1 - HHI_out) / HHI_out min-max scaled onto
    [d_floor, 1] over the nodes with outflows; the others sit at the floor,
    outside the scaling, and if all D_raw are equal every node gets the
    floor. C = max(c_floor, 1 - HHI_in) is the inflow absorption capacity,
    at the floor for a node without inflows. The stress loading is
    H = B * I / (D * C + epsilon), and H_rel its share, all zeros when every
    loading is zero (B = 0). Z is summed along each axis, and squared, once
    for all of them, and no array the size of Z is made.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    total = table.total_flow()
    if total <= 0:
        raise TableError("all-zero table: flow shares undefined")
    for floor in (d_floor, c_floor):
        if not 0.0 < floor < 1.0:
            raise ValueError(f"floor must be in (0, 1), got {floor}")
    if not 0.0 <= B < np.inf:
        raise ValueError(f"field intensity B must be finite and non-negative, got {B}")
    Z, n = table.Z, table.n
    outflows, inflows = table.outflow_totals(), table.inflow_totals()
    with np.errstate(over="ignore", invalid="ignore"):
        I = (outflows + inflows) / (2.0 * total)
    # past half the float range 2 * total, or a node's two totals, overflow
    # and the share comes out 0, inf or nan; there each total is halved first
    over = ~np.isfinite(I) | (2.0 * total == np.inf)
    if over.any():
        I[over] = (0.5 * outflows[over] + 0.5 * inflows[over]) / total
    out_sq, in_sq = _square_sums(Z)
    HHI_out, HHI_in = _hhi(Z, outflows, out_sq, axis=1), _hhi(Z, inflows, in_sq, axis=0)
    has_out, has_in = outflows > 0, inflows > 0
    D = np.full(n, d_floor)
    raw = (1.0 - HHI_out[has_out]) / HHI_out[has_out]  # a positive total leaves a node with outflows
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        D[has_out] = d_floor + (1.0 - d_floor) * (raw - lo) / (hi - lo)
    C = np.full(n, c_floor)
    C[has_in] = np.maximum(c_floor, 1.0 - HHI_in[has_in])
    denom = D * C + epsilon
    R = 1.0 / denom
    H = B * I / denom
    total_H = H.sum()
    H_rel = H / total_H if total_H > 0 else np.zeros(n)
    return ExposureProfile(I=I, HHI_out=HHI_out, HHI_in=HHI_in, D=D, C=C, R=R, H=H, H_rel=H_rel)
