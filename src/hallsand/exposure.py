"""Node exposure: flow shares, concentration indices, and stress loadings."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


def flow_share(table: IOTable) -> np.ndarray:
    """Symmetric flow involvement I_i = (outflows_i + inflows_i) / (2 * total).

    Normalized so the shares sum to one. An all-zero table has no shares and
    raises TableError.
    """
    total = table.total_flow()
    if total <= 0:
        raise TableError("all-zero table: flow shares undefined")
    return (table.outflow_totals() + table.inflow_totals()) / (2.0 * total)


def _squared_share_sums(table: IOTable, axis: int) -> tuple[np.ndarray, np.ndarray]:
    # axis=1 -> row HHI (destinations); axis=0 -> column HHI (sources)
    totals = np.asarray(table.Z.sum(axis=axis)).ravel()
    sq = np.asarray(table.Z.multiply(table.Z).sum(axis=axis)).ravel()
    hhi = np.zeros(table.n)
    pos = totals > 0
    hhi[pos] = sq[pos] / (totals[pos] * totals[pos])
    return hhi, pos


def redundancy(table: IOTable, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Outflow diversification D in [floor, 1] from destination concentration.

    D_raw = (1 - HHI_out) / HHI_out, then min-max scaled onto [floor, 1]
    over the nodes that have outflows. Nodes without outflows sit at the
    floor and are excluded from the scaling statistics; if all remaining
    D_raw are equal the map degenerates and everyone gets the floor.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must be in (0, 1), got {floor}")
    hhi, pos = _squared_share_sums(table, axis=1)
    D = np.full(table.n, floor)
    if not pos.any():
        return D
    raw = (1.0 - hhi[pos]) / hhi[pos]
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        D[pos] = floor + (1.0 - floor) * (raw - lo) / (hi - lo)
    return D


def capacity(table: IOTable, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Inflow absorption capacity C = max(floor, 1 - HHI_in).

    Nodes without inflows sit at the floor.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must be in (0, 1), got {floor}")
    hhi, pos = _squared_share_sums(table, axis=0)
    C = np.full(table.n, floor)
    C[pos] = np.maximum(floor, 1.0 - hhi[pos])
    return C


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
    """Assemble the full exposure profile for a table at field intensity B."""
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    I = flow_share(table)
    HHI_out, _ = _squared_share_sums(table, axis=1)
    HHI_in, _ = _squared_share_sums(table, axis=0)
    D = redundancy(table, floor=d_floor)
    C = capacity(table, floor=c_floor)
    R = 1.0 / (D * C + epsilon)
    draft = ExposureProfile(
        I=I, HHI_out=HHI_out, HHI_in=HHI_in, D=D, C=C, R=R,
        H=np.zeros(table.n), H_rel=np.zeros(table.n),
        B=B, epsilon=epsilon, d_floor=d_floor, c_floor=c_floor,
    )
    H, H_rel = hall_stress(B, draft)
    return replace(draft, H=H, H_rel=H_rel)


def with_field(profile: ExposureProfile, B: float) -> ExposureProfile:
    """Same profile re-evaluated at a different field intensity."""
    H, H_rel = hall_stress(B, profile)
    return replace(profile, B=B, H=H, H_rel=H_rel)


def rank_exposure(profile: ExposureProfile, k: int) -> list[ExposureRank]:
    """Top-k nodes by H_rel, descending; ties broken by node index."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    order = np.argsort(-profile.H_rel, kind="stable")
    return [
        ExposureRank(
            index=int(i),
            I=float(profile.I[i]),
            R=float(profile.R[i]),
            H_rel=float(profile.H_rel[i]),
        )
        for i in order[: min(k, profile.n)]
    ]
