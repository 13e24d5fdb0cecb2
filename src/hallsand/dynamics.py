"""Threshold-cascade stress dynamics over a propagation operator."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .exposure import ExposureProfile
from .operators import PropagationOperator


@dataclass
class Params:
    """Dynamics parameters. Defaults are the calibrated baseline.

    theta may be a scalar (uniform thresholds) or a per-node array.
    max_relax_rounds of None resolves to 10 * n at engine construction.
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
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        if (theta <= 0).any():
            raise ValueError("theta must be positive")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.sigma_x <= 0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x}")
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
        if self.B_bar < 0:
            raise ValueError(f"B_bar must be non-negative, got {self.B_bar}")
        if self.sigma_B is None:
            object.__setattr__(self, "sigma_B", 0.10 * self.B_bar)
        if self.sigma_B < 0:
            raise ValueError(f"sigma_B must be non-negative, got {self.sigma_B}")


@dataclass(frozen=True)
class AvalancheRecord:
    """One period's outcome: cascade size, relaxation rounds, realized field."""

    period: int
    S: int
    relax_rounds: int
    B_realised: float


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    bound: float
    margin: float


class RelaxationBudgetError(RuntimeError):
    """A within-period cascade failed to settle inside the round budget."""

    def __init__(self, rounds: int, still_over: int):
        self.rounds = rounds
        self.still_over = still_over
        super().__init__(
            f"relaxation exceeded {rounds} rounds with {still_over} node(s) still over threshold"
        )


@dataclass
class EngineState:
    """Mutable simulation state bound to one operator/exposure pair."""

    s: np.ndarray
    period: int
    rng: np.random.Generator
    params: Params
    operator: PropagationOperator
    exposure: ExposureProfile
    sigma_D: float
    theta: np.ndarray
    max_rounds: int
    propagation_t: sparse.csr_matrix = field(repr=False, default=None)


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


def init_state(
    operator: PropagationOperator,
    exposure: ExposureProfile,
    params: Params,
    sigma_D: float = 1.0,
    seed: int = 0,
) -> EngineState:
    """Fresh engine state: zero stress, period 0, seeded RNG.

    Warns (does not block) when the contraction check fails for the operator.
    """
    if sigma_D <= 0:
        raise ValueError(f"sigma_D must be positive, got {sigma_D}")
    n = operator.n
    if exposure.n != n:
        raise ValueError(f"operator has {n} nodes but exposure has {exposure.n}")
    params.validate(n)
    check = contraction_check(params, operator.spectral_radius)
    if not check.passed:
        warnings.warn(
            f"contraction check failed: beta={params.beta} >= bound={check.bound:.4g}; "
            "stress feedback may not be stable",
            RuntimeWarning,
            stacklevel=2,
        )
    max_rounds = params.max_relax_rounds if params.max_relax_rounds is not None else 10 * n
    return EngineState(
        s=np.zeros(n),
        period=0,
        rng=np.random.default_rng(seed),
        params=params,
        operator=operator,
        exposure=exposure,
        sigma_D=sigma_D,
        theta=params.thresholds(n),
        max_rounds=max_rounds,
        propagation_t=operator.propagation_t,
    )


def draw_shocks(state: EngineState) -> np.ndarray:
    """Per-node idiosyncratic shocks: |N(0, sigma_x^2)|, one per node."""
    return np.abs(state.rng.normal(0.0, state.params.sigma_x, state.s.shape[0]))


def effective_hall(state: EngineState, B_t: float) -> np.ndarray:
    """Stress loading under redundancy dispersion: B_t * I / ((D/sigma_D) * C + eps).

    With sigma_D = 1 this coincides with the static exposure loading.
    """
    e = state.exposure
    denom = (e.D / state.sigma_D) * e.C + state.params.epsilon
    return B_t * e.I / denom


def relax(state: EngineState) -> tuple[int, set[int], int]:
    """Cascade settlement: simultaneous toppling rounds until all below threshold.

    Each over-threshold node resets to theta_reset and pushes
    redistribution_fraction of its excess to its out-neighbors through the
    propagation operator; the rest dissipates. Returns (toppling events,
    toppled node set, rounds). Raises RelaxationBudgetError when the round
    budget is exhausted with nodes still over threshold.
    """
    p = state.params
    s = state.s
    events = 0
    toppled: set[int] = set()
    rounds = 0
    while True:
        over = s >= state.theta
        n_over = int(np.count_nonzero(over))
        if n_over == 0:
            return events, toppled, rounds
        if rounds >= state.max_rounds:
            raise RelaxationBudgetError(rounds, n_over)
        excess = np.where(over, s - p.theta_reset, 0.0)
        s[over] = p.theta_reset
        send = p.redistribution_fraction * excess
        s += state.propagation_t @ send
        events += n_over
        toppled.update(np.flatnonzero(over).tolist())
        rounds += 1


def step(state: EngineState, fieldmodel: FieldModel) -> AvalancheRecord:
    """Advance one period: field draw, stress update, cascade settlement.

    Draw order per period is fixed (one field innovation, then n shock
    draws), which makes runs bit-reproducible for a given seed.
    """
    p = state.params
    xi = state.rng.normal(0.0, fieldmodel.sigma_B)
    B_t = max(0.0, fieldmodel.B_bar + xi)
    H = effective_hall(state, B_t)
    x = draw_shocks(state)
    prop = state.propagation_t @ state.s
    s_new = (1.0 - p.delta) * state.s + p.alpha * x + p.beta * prop + p.gamma * H
    np.maximum(s_new, 0.0, out=s_new)
    state.s = s_new
    period = state.period
    events, toppled, rounds = relax(state)
    state.period = period + 1
    S = len(toppled) if p.count_unique else events
    return AvalancheRecord(
        period=period,
        S=S,
        relax_rounds=rounds,
        B_realised=B_t,
    )


def run(state: EngineState, fieldmodel: FieldModel, periods: int) -> list[AvalancheRecord]:
    """Run the engine for a number of periods, collecting one record each."""
    if periods < 0:
        raise ValueError(f"periods must be non-negative, got {periods}")
    return [step(state, fieldmodel) for _ in range(periods)]


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
