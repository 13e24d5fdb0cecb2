"""Threshold-cascade stress dynamics over a propagation operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .exposure import ExposureProfile
from .operators import PropagationOperator

# A relaxation round multiplies only the rows of A that toppled, A[J].T, when
# that skips more than this many nonzero-column products, (nnz(A) - nnz(A[J]))
# * columns. Measured on a 2-CPU Xeon: a sliced round pays 110-240 us whatever
# J holds (scipy's row indexing of A[J], its CSC view, the gathers of the
# toppled rows), and a full product through A's CSC view 0.5-0.75 ns per
# nonzero per column (0.5 at n = 200 with 64-100 columns, 0.7 at n = 2464 with
# 8). So the slice wins past about 300k-400k skipped products, and every round
# on a 200-node table of 3,924 nonzeros with up to 100 columns stays on the
# full product. At n = 2464 (3.03M nonzeros) rounds topple under 3% of the
# rows and skip millions of products; the copy of A[J], about 2.6 ns per kept
# nonzero, is not charged, and outweighs the saving only past 70% of the rows.
_SLICE_MIN_SKIPPED = 400_000


@dataclass
class Params:
    """Dynamics parameters. Defaults are the calibrated baseline.

    theta may be a scalar (uniform thresholds) or a per-node array.
    max_relax_rounds of None resolves to 10 * n when a run starts.
    count_unique switches the per-period cascade size from counting
    toppling events to counting distinct toppled nodes.
    """

    delta: float = 0.20
    alpha: float = 0.30
    beta: float = 0.40
    gamma: float = 0.50
    theta: float | np.ndarray = 1.00
    epsilon: float = 1e-6
    sigma_x: float = 0.20
    redistribution_fraction: float = 0.5
    theta_reset: float = 0.0
    max_relax_rounds: int | None = None
    count_unique: bool = False

    def thresholds(self, n: int) -> np.ndarray:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim == 0:
            return np.full(n, float(theta))
        if theta.shape != (n,):
            raise ValueError(f"theta has shape {theta.shape}, expected scalar or ({n},)")
        return theta.copy()

    def validate(self, n: int | None = None) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        # each comparison is False for nan, and the upper bound rejects inf
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        if not ((theta > 0) & (theta < math.inf)).all():
            raise ValueError("theta must be finite and positive")
        for name in ("epsilon", "sigma_x"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.redistribution_fraction <= 1.0:
            raise ValueError(
                f"redistribution_fraction must be in [0, 1], got {self.redistribution_fraction}"
            )
        if not 0.0 <= self.theta_reset < float(theta.min()):
            raise ValueError(
                f"theta_reset must be in [0, min theta), got {self.theta_reset}"
            )
        if self.max_relax_rounds is not None and self.max_relax_rounds < 1:
            raise ValueError(f"max_relax_rounds must be >= 1, got {self.max_relax_rounds}")
        if n is not None:
            self.thresholds(n)


@dataclass(frozen=True)
class FieldModel:
    """Aggregate field intensity: B_t = max(0, B_bar + N(0, sigma_B)).

    sigma_B defaults to 0.10 * B_bar when not given.
    """

    B_bar: float
    sigma_B: float | None = None

    def __post_init__(self):
        # each comparison is False for nan, and the upper bound rejects inf
        if not 0.0 <= self.B_bar < math.inf:
            raise ValueError(f"B_bar must be finite and non-negative, got {self.B_bar}")
        if self.sigma_B is None:
            object.__setattr__(self, "sigma_B", 0.10 * self.B_bar)
        if not 0.0 <= self.sigma_B < math.inf:
            raise ValueError(f"sigma_B must be finite and non-negative, got {self.sigma_B}")


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    bound: float
    margin: float


class RelaxationBudgetError(RuntimeError):
    """A within-period cascade failed to settle inside the round budget."""

    def __init__(self, rounds: int, still_over: int, column: int = 0, period: int = 0):
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
    params.validate(n)
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


def _toppled_rows(A: sparse.csr_matrix, over: np.ndarray) -> np.ndarray | None:
    """The rows of A that toppled in any column of over, when a product over
    them alone skips more than _SLICE_MIN_SKIPPED terms; else None."""
    k = over.shape[1]
    if A.nnz * k <= _SLICE_MIN_SKIPPED:
        return None
    J = np.flatnonzero(np.logical_or.reduce(over, axis=1))
    kept = int((A.indptr[J + 1] - A.indptr[J]).sum())
    return J if (A.nnz - kept) * k > _SLICE_MIN_SKIPPED else None


def _relax_block(
    S: np.ndarray,
    A: sparse.csr_matrix,
    At: sparse.csc_matrix,
    theta: np.ndarray,
    p: Params,
    max_rounds: int,
    toppled: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Cascade settlement of every column of the n x k block S, in place.

    Rounds of simultaneous toppling: each over-threshold node resets to
    theta_reset and pushes redistribution_fraction of its excess to its
    out-neighbors through the propagation operator; the rest dissipates. A
    column that has settled stays settled, so each round makes one product
    with the columns still over threshold: through At, the CSC view A.T, or
    through A[J].T over the rows J that toppled (see _toppled_rows). The
    rows it skips add exact +0.0 terms, as A >= 0 and the excess is >= 0, and
    both products add each entry's terms in ascending source order from 0.0,
    so the two give the same bits. Returns per-column toppling events
    and rounds, and, when the round budget runs out, the columns still
    unsettled with their counts of nodes over threshold (else None). Marks
    each toppled node in the boolean block toppled, when given.
    """
    k = S.shape[1]
    events = np.zeros(k, dtype=np.int64)
    rounds = np.zeros(k, dtype=np.int64)
    theta = theta[:, None]
    active = np.arange(k)  # the columns of S that block holds
    block = S
    n_round = 0
    while True:
        over = block >= theta
        if not over.any():
            failed = None
            break
        n_over = np.add.reduce(over, axis=0)
        busy = n_over > 0
        if not busy.all():
            if block is not S:
                S[:, active] = block
            rounds[active[~busy]] = n_round
            active, over, n_over = active[busy], over[:, busy], n_over[busy]
            block = S[:, active]
        if n_round >= max_rounds:
            failed = (active, n_over)
            break
        J = _toppled_rows(A, over)
        if J is None:
            product, excess = At, np.where(over, block - p.theta_reset, 0.0)
        else:
            product, excess = A[J].T, np.where(over[J], block[J] - p.theta_reset, 0.0)
        block[over] = p.theta_reset
        block += product @ (p.redistribution_fraction * excess)
        events[active] += n_over
        if toppled is not None:
            toppled[:, active] |= over
        n_round += 1
    if block is not S:
        S[:, active] = block
    if failed is None:
        rounds[active] = n_round
    return events, rounds, failed


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
    would; its column and period say which and when. Does not run the
    contraction check and does not warn; run_scenarios warns once per call.
    """
    sigma_D = np.array([sigma_D for _, sigma_D, _ in columns], dtype=float)
    max_rounds = _validate_run(operator, exposure, params, sigma_D)
    if not 0 <= keep_from <= periods:
        raise ValueError(f"need 0 <= keep_from <= periods, got {keep_from} and {periods}")
    p = params
    n, k = operator.n, len(columns)
    A = operator.matrix
    At = A.T  # scipy's CSC view of A, built once per call
    theta = p.thresholds(n)
    B_bar = np.array([fieldmodel.B_bar for fieldmodel, _, _ in columns], dtype=float)
    sigma_B = np.array([fieldmodel.sigma_B for fieldmodel, _, _ in columns], dtype=float)
    denom = _hall_denominator(exposure, sigma_D, p.epsilon)
    rngs = [np.random.default_rng(seed) for _, _, seed in columns]
    sizes = np.zeros((k, periods - keep_from), dtype=np.int64)
    fields = np.zeros((k, periods - keep_from))
    rounds = np.zeros((k, periods - keep_from), dtype=np.int64)
    S = np.zeros((n, k))
    live = np.arange(k)  # the column each column of S runs
    failure = None
    for t in range(periods):
        S, B_t = _update(S, rngs, B_bar, sigma_B, At, exposure.I, denom, p)
        toppled = np.zeros(S.shape, dtype=bool) if p.count_unique else None
        events, n_rounds, failed = _relax_block(S, A, At, theta, p, max_rounds, toppled)
        if failure is None and t >= keep_from:
            sizes[:, t - keep_from] = events if toppled is None else np.add.reduce(toppled, axis=0)
            fields[:, t - keep_from] = B_t
            rounds[:, t - keep_from] = n_rounds
        if failed is not None:
            # the run now ends in an error, raised for the lowest failing column;
            # only the columns below this failure can still fail lower
            unsettled, n_over = failed
            failure = RelaxationBudgetError(max_rounds, int(n_over[0]), int(live[unsettled[0]]), t)
            keep = live < failure.column
            if not keep.any():
                raise failure
            S, denom, live = S[:, keep], denom[:, keep], live[keep]
            B_bar, sigma_B = B_bar[keep], sigma_B[keep]
            rngs = [rng for rng, kept in zip(rngs, keep) if kept]
    if failure is not None:
        raise failure
    return sizes, fields, rounds


def hall_adjusted_threshold(theta, gamma: float, H):
    """Threshold net of the stress loading: theta - gamma * H.

    Toppling of the loading-free stress against this adjusted threshold is
    algebraically identical to toppling of full stress against theta.
    """
    return theta - gamma * H


def activation_gap(theta, gamma: float, H_prev, s_tilde):
    """Distance to toppling, g = theta - gamma * H_prev - s_tilde.

    Non-positive gap means the node topples this period. H_prev is the
    previous period's loading, matching the update timing.
    """
    return theta - gamma * H_prev - s_tilde


def gap_field_sensitivity(gamma: float, I, D, C, epsilon: float):
    """d(gap)/d(field intensity) = -gamma * I / (D*C + epsilon); negative."""
    return -gamma * I / (D * C + epsilon)


def gap_redundancy_sensitivity(gamma: float, B: float, I, D, C, epsilon: float):
    """d(gap)/d(redundancy) = gamma * B * I * C / (D*C + epsilon)^2; positive."""
    denom = D * C + epsilon
    return gamma * B * I * C / (denom * denom)
