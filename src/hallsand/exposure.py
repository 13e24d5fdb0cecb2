"""Node exposure: flow shares, concentration indices, and stress loadings."""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    H and H_rel are the stress loading and its share at field intensity B.
    """

    I: np.ndarray
    HHI_out: np.ndarray
    HHI_in: np.ndarray
    D: np.ndarray
    C: np.ndarray
    R: np.ndarray
    H: np.ndarray
    H_rel: np.ndarray
    B: float
    epsilon: float
    d_floor: float
    c_floor: float

    @property
    def n(self) -> int:
        return self.I.shape[0]


@dataclass(frozen=True)
class ExposureRank:
    index: int
    I: float
    R: float
    H_rel: float


def _squares(Z: sparse.csr_matrix) -> sparse.csr_matrix:
    """Z's squared flows on Z's own structure, less the squares that are 0.

    These are the entries of Z.multiply(Z), which stores no 0 (zero flows,
    underflows). scipy sums a row of more than 8 terms in 8 interleaved
    partial sums, so a stored 0 would move the later terms and the bits.
    A flow above 1e154 squares to inf, in a row and column that _hhi scales.
    """
    with np.errstate(over="ignore"):
        data = Z.data * Z.data
    if data.all():
        return sparse.csr_matrix((data, Z.indices, Z.indptr), shape=Z.shape)
    squares = sparse.csr_matrix((data, Z.indices.copy(), Z.indptr.copy()), shape=Z.shape)
    squares.eliminate_zeros()
    return squares


def _hhi(Z: sparse.csr_matrix, totals: np.ndarray, squares, axis: int) -> np.ndarray:
    """The Herfindahl index of each row (axis=1) or column (axis=0) of Z.

    totals are Z's sums along axis and squares is _squares(Z). The index is
    sum(v**2) / t**2 where t*t is a normal float, sum((v/t)**2) where it
    under- or overflows, and 0 where t is 0.
    """
    sq = np.asarray(squares.sum(axis=axis)).ravel()
    with np.errstate(over="ignore"):
        square = totals * totals
    plain = (totals > 0) & (square >= np.finfo(np.float64).tiny) & (square < np.inf)
    hhi = np.divide(sq, square, out=np.zeros(totals.size), where=plain)
    scaled = (totals > 0) & ~plain
    if scaled.any():
        lines = np.repeat(np.arange(Z.shape[0]), np.diff(Z.indptr)) if axis == 1 else Z.indices
        keep = scaled[lines]
        shares = Z.data[keep] / totals[lines[keep]]
        hhi[scaled] = np.bincount(lines[keep], shares * shares, minlength=totals.size)[scaled]
    return hhi


def hall_stress(B: float, profile: ExposureProfile) -> tuple[np.ndarray, np.ndarray]:
    """Stress loading H = B * I / (D * C + epsilon) and its share H_rel.

    H_rel is all zeros when the loadings themselves are all zero (B = 0).
    """
    if not 0.0 <= B < np.inf:
        raise ValueError(f"field intensity B must be finite and non-negative, got {B}")
    H = B * profile.I / (profile.D * profile.C + profile.epsilon)
    total = H.sum()
    H_rel = H / total if total > 0 else np.zeros_like(H)
    return H, H_rel


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
    at the floor for a node without inflows. Z is summed along each axis,
    and squared, once for all of them.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    total = table.total_flow()
    if total <= 0:
        raise TableError("all-zero table: flow shares undefined")
    for floor in (d_floor, c_floor):
        if not 0.0 < floor < 1.0:
            raise ValueError(f"floor must be in (0, 1), got {floor}")
    Z, n = table.Z, table.n
    outflows, inflows = table.outflow_totals(), table.inflow_totals()
    I = (outflows + inflows) / (2.0 * total)
    squares = _squares(Z)
    HHI_out, HHI_in = _hhi(Z, outflows, squares, axis=1), _hhi(Z, inflows, squares, axis=0)
    has_out, has_in = outflows > 0, inflows > 0
    D = np.full(n, d_floor)
    raw = (1.0 - HHI_out[has_out]) / HHI_out[has_out]  # a positive total leaves a node with outflows
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        D[has_out] = d_floor + (1.0 - d_floor) * (raw - lo) / (hi - lo)
    C = np.full(n, c_floor)
    C[has_in] = np.maximum(c_floor, 1.0 - HHI_in[has_in])
    R = 1.0 / (D * C + epsilon)
    draft = ExposureProfile(
        I=I, HHI_out=HHI_out, HHI_in=HHI_in, D=D, C=C, R=R,
        H=np.zeros(n), H_rel=np.zeros(n),
        B=B, epsilon=epsilon, d_floor=d_floor, c_floor=c_floor,
    )
    H, H_rel = hall_stress(B, draft)
    return replace(draft, H=H, H_rel=H_rel)


def rank_exposure(profile: ExposureProfile, k: int) -> list[ExposureRank]:
    """Top-k nodes by H_rel, descending; ties broken by node index."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    order = np.argsort(-profile.H_rel, kind="stable")
    return [
        ExposureRank(int(i), float(profile.I[i]), float(profile.R[i]), float(profile.H_rel[i]))
        for i in order[:k]
    ]
