"""Threshold-cascade stress dynamics over a propagation operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .exposure import ExposureProfile
from .operators import PropagationOperator

@dataclass
class Params:
    """Dynamics parameters. Defaults are the calibrated baseline.

    theta is the toppling threshold of every node.
    max_relax_rounds of None resolves to 10 * n when a run starts.
    count_unique switches the per-period cascade size from counting
    toppling events to counting distinct toppled nodes.
    """

    delta: float = 0.20
    alpha: float = 0.30
    beta: float = 0.40
    gamma: float = 0.50
    theta: float = 1.00
    epsilon: float = 1e-6
    sigma_x: float = 0.20
    redistribution_fraction: float = 0.5
    theta_reset: float = 0.0
    max_relax_rounds: int | None = None
    count_unique: bool = False

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        # each comparison is False for nan, and the upper bound rejects inf
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if np.ndim(self.theta) != 0:
            raise ValueError(f"theta must be a scalar, got shape {np.shape(self.theta)}")
        for name in ("theta", "epsilon", "sigma_x"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.redistribution_fraction <= 1.0:
            raise ValueError(
                f"redistribution_fraction must be in [0, 1], got {self.redistribution_fraction}"
            )
        if not 0.0 <= self.theta_reset < self.theta:
            raise ValueError(
                f"theta_reset must be in [0, theta), got {self.theta_reset}"
            )
        if self.max_relax_rounds is not None and self.max_relax_rounds < 1:
            raise ValueError(f"max_relax_rounds must be >= 1, got {self.max_relax_rounds}")


@dataclass(frozen=True)
class FieldModel:
    """Aggregate field intensity: B_t = max(0, B_bar + N(0, sigma_B))."""

    B_bar: float
    sigma_B: float

    def __post_init__(self):
        # each comparison is False for nan, and the upper bound rejects inf
        if not 0.0 <= self.B_bar < math.inf:
            raise ValueError(f"B_bar must be finite and non-negative, got {self.B_bar}")
        if not 0.0 <= self.sigma_B < math.inf:
            raise ValueError(f"sigma_B must be finite and non-negative, got {self.sigma_B}")


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    bound: float
    margin: float


class RelaxationBudgetError(RuntimeError):
    """A within-period cascade failed to settle inside the round budget."""

    def __init__(self, rounds: int, still_over: int, column: int, period: int):
        self.rounds = rounds
        self.still_over = still_over
        # the column of the batch and the period in which it happened (see run_batch)
        self.column = column
        self.period = period
        super().__init__(
            f"relaxation exceeded {rounds} rounds with {still_over} node(s) still over threshold"
        )


def contraction_check(params: Params, rho_leak: float) -> ContractionCheck:
    """Stability condition beta < delta / rho for the linearized dynamics.

    A zero radius decouples the feedback entirely: the check passes with an
    infinite bound.
    """
    if rho_leak < 0:
        raise ValueError(f"rho_leak must be non-negative, got {rho_leak}")
    if rho_leak == 0:
        return ContractionCheck(passed=True, bound=float("inf"), margin=float("inf"))
    bound = params.delta / rho_leak
    return ContractionCheck(passed=params.beta < bound, bound=bound, margin=bound - params.beta)


def _validate_run(
    operator: PropagationOperator, exposure: ExposureProfile, params: Params, sigma_D
) -> int:
    """Check the inputs of a run (one sigma_D or several) and resolve its round budget."""
    for value in np.atleast_1d(sigma_D):
        if not 0.0 < value < math.inf:
            raise ValueError(f"sigma_D must be finite and positive, got {value}")
    n = operator.n
    if exposure.n != n:
        raise ValueError(f"operator has {n} nodes but exposure has {exposure.n}")
    params.validate()
    return params.max_relax_rounds if params.max_relax_rounds is not None else 10 * n


def _hall_denominator(exposure: ExposureProfile, sigma_D, epsilon: float) -> np.ndarray:
    """(D / sigma_D) * C + epsilon as an n x k block, one column per value of sigma_D."""
    return (exposure.D[:, None] / sigma_D) * exposure.C[:, None] + epsilon


def _update(
    S: np.ndarray,
    rngs: list[np.random.Generator],
    B_bar,
    sigma_B,
    At: sparse.csc_matrix,
    I: np.ndarray,
    denom: np.ndarray,
    p: Params,
) -> tuple[np.ndarray, np.ndarray]:
    """The stress update of one period, for every column of the n x k block S.

    Column c has field level B_bar[c], field volatility sigma_B[c] (scalars
    serve every column) and loading denominators denom[:, c]. It draws from
    rngs[c]: one field innovation, then n shocks, as one run of n + 1
    standard normals. normal(0, sd) is 0 + sd * z, so these are the values of
    normal(0, sigma_B) followed by normal(0, sigma_x, n). Returns the new
    stress block and each column's realised field.
    """
    n, k = S.shape
    Z = np.empty((k, n + 1))
    for z, rng in zip(Z, rngs):
        rng.standard_normal(out=z)
    B = B_bar + (0.0 + sigma_B * Z[:, 0])
    B_t = np.where(B > 0.0, B, 0.0)  # max(0.0, B), as Python's max picks it
    H = I[:, None] * B_t / denom
    x = np.abs(p.sigma_x * Z[:, 1:]).T
    S_new = (1.0 - p.delta) * S + p.alpha * x + p.beta * (At @ S) + p.gamma * H
    np.maximum(S_new, 0.0, out=S_new)
    return S_new, B_t


def _relax_block(
    S: np.ndarray,
    A: sparse.csr_matrix,
    p: Params,
    max_rounds: int,
    toppled: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """Cascade settlement of every column of the C-contiguous n x k block S, in place.

    Rounds of simultaneous toppling: each over-threshold node resets to
    theta_reset and pushes redistribution_fraction of its excess to its
    out-neighbors through the propagation operator; the rest dissipates. Each
    round gathers the rows J of A that toppled in any column and makes one
    product A[J].T @ excess[J] through scipy's own kernels, csr_row_index and
    csc_matvecs, which add each entry's terms in ascending source order from
    0.0: the rows it skips would add exact +0.0 terms, as A >= 0 and the
    excess is >= 0, so it gives the bits of A.T @ excess. Returns per-column
    toppling events and rounds, and, when the round budget runs out, the
    lowest unsettled column with its count of nodes over threshold (else
    None). Marks each toppled node in the boolean block toppled, when given.
    """
    if not S.flags.c_contiguous or (toppled is not None and not toppled.flags.c_contiguous):
        raise ValueError("relaxation needs C-contiguous stress and toppled blocks")
    n, k = S.shape
    stress = S.reshape(-1)  # views, as the blocks are C-contiguous
    marks = None if toppled is None else toppled.reshape(-1)
    indptr, indices, data = A.indptr, A.indices, A.data
    events = np.zeros(k, dtype=np.int64)
    rounds = np.zeros(k, dtype=np.int64)
    for n_round in range(max_rounds + 1):
        hot = np.flatnonzero(stress >= p.theta)
        if not hot.size:
            return events, rounds, None
        rows, cols = np.divmod(hot, k)
        n_over = np.bincount(cols, minlength=k)
        if n_round == max_rounds:
            c = int(cols.min())
            return events, rounds, (c, int(n_over[c]))
        events += n_over
        rounds[cols] = n_round + 1  # a settled column receives nothing more
        if marks is not None:
            marks[hot] = True
        # hot is in row-major order, so each toppled row's entries are adjacent
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        J = rows[first].astype(indptr.dtype)
        excess = np.zeros((J.size, k))
        excess[np.cumsum(first) - 1, cols] = p.redistribution_fraction * (stress[hot] - p.theta_reset)
        stress[hot] = p.theta_reset
        Jptr = np.zeros(J.size + 1, dtype=indptr.dtype)
        np.cumsum(indptr[J + 1] - indptr[J], out=Jptr[1:])
        Jind, Jdata = np.empty(Jptr[-1], dtype=indices.dtype), np.empty(Jptr[-1], dtype=data.dtype)
        _sparsetools.csr_row_index(J.size, J, indptr, indices, data, Jind, Jdata)
        pushed = np.zeros((n, k))
        _sparsetools.csc_matvecs(n, J.size, k, Jptr, Jind, Jdata, excess.reshape(-1), pushed.reshape(-1))
        S += pushed


def run_batch(
    operator: PropagationOperator,
    exposure: ExposureProfile,
    params: Params,
    columns: list[tuple[FieldModel, float, int]],
    periods: int,
    keep_from: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one replication per (fieldmodel, sigma_D, seed) column, as one n x k stress block.

    Every column starts from zero stress. Column c gives, bit for bit, what
    it gives alone in a one-column call: it draws from its own generator in
    the same order and goes through the same update and relaxation rules,
    while each period and each relaxation round makes one sparse product for
    all the columns. Returns the cascade sizes, realised fields and
    relaxation rounds of periods keep_from onward, one row per column.

    When columns exhaust the round budget, raises the RelaxationBudgetError
    of the lowest-indexed one, as running them one by one in column order
    would; its column and period say which and when. The columns below a
    period's lowest failing one can fail later, so they run again first.
    Does not run the contraction check and does not warn; run_scenarios
    warns once per call.
    """
    sigma_D = np.array([sigma_D for _, sigma_D, _ in columns], dtype=float)
    max_rounds = _validate_run(operator, exposure, params, sigma_D)
    if not 0 <= keep_from <= periods:
        raise ValueError(f"need 0 <= keep_from <= periods, got {keep_from} and {periods}")
    p = params
    n, k = operator.n, len(columns)
    A = operator.matrix
    At = A.T  # scipy's CSC view of A, built once per call
    B_bar = np.array([fieldmodel.B_bar for fieldmodel, _, _ in columns], dtype=float)
    sigma_B = np.array([fieldmodel.sigma_B for fieldmodel, _, _ in columns], dtype=float)
    denom = _hall_denominator(exposure, sigma_D, p.epsilon)
    rngs = [np.random.default_rng(seed) for _, _, seed in columns]
    sizes = np.zeros((k, periods - keep_from), dtype=np.int64)
    fields = np.zeros((k, periods - keep_from))
    rounds = np.zeros((k, periods - keep_from), dtype=np.int64)
    S = np.zeros((n, k))
    for t in range(periods):
        S, B_t = _update(S, rngs, B_bar, sigma_B, At, exposure.I, denom, p)
        toppled = np.zeros(S.shape, dtype=bool) if p.count_unique else None
        events, n_rounds, failed = _relax_block(S, A, p, max_rounds, toppled)
        if failed is not None:
            # a lower column can fail later; each replays its own seeded stream
            c, still_over = failed
            if c:
                run_batch(operator, exposure, params, columns[:c], periods)
            raise RelaxationBudgetError(max_rounds, still_over, c, t)
        if t >= keep_from:
            sizes[:, t - keep_from] = events if toppled is None else np.add.reduce(toppled, axis=0)
            fields[:, t - keep_from] = B_t
            rounds[:, t - keep_from] = n_rounds
    return sizes, fields, rounds


def hall_adjusted_threshold(theta, gamma: float, H):
    """Threshold net of the stress loading: theta - gamma * H.

    Toppling of the loading-free stress against this adjusted threshold is
    algebraically identical to toppling of full stress against theta.
    """
    return theta - gamma * H


def gap_field_sensitivity(gamma: float, I, D, C, epsilon: float):
    """d(gap)/d(field intensity) = -gamma * I / (D*C + epsilon); negative."""
    return -gamma * I / (D * C + epsilon)


def gap_redundancy_sensitivity(gamma: float, B: float, I, D, C, epsilon: float):
    """d(gap)/d(redundancy) = gamma * B * I * C / (D*C + epsilon)^2; positive."""
    denom = D * C + epsilon
    return gamma * B * I * C / (denom * denom)
