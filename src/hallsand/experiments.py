"""Monte Carlo scenario runs, phase grids, and regime classification."""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .dynamics import Params, RelaxationBudgetError, _check_column, contraction_check, run_batch
from .exposure import DEFAULT_FLOOR, ExposureProfile, compute_exposure
from .ingest import IOTable
from .operators import OperatorKind, PropagationOperator, _build_into

# Named (B_bar, sigma_D) cells used throughout the scenario analysis.
PRESETS: dict[str, tuple[float, float]] = {
    "stable": (0.45, 0.7),
    "latent": (0.70, 1.4),
    "critical": (1.00, 1.8),
    "avalanche": (1.35, 2.3),
}

# A scenario's field volatility sigma_B, as a share of its level B_bar.
DEFAULT_SIGMA_B_RATIO = 0.10

# The default phase grid's axes, as np.linspace (low, high, steps).
DEFAULT_B_AXIS = (0.25, 2.0, 10)
DEFAULT_SIGMA_D_AXIS = (0.5, 2.5, 9)
# The run protocol: burn-in and kept periods, replications per scenario and per phase-grid cell.
DEFAULT_T_BURN = 50
DEFAULT_T_STAT = 150
DEFAULT_REPLICATIONS = 100
DEFAULT_GRID_REPLICATIONS = 50

# Regime bands on mean cascade size; each boundary belongs to the band above it.
_ABSORPTION_MAX = 0.30
_LATENT_MAX = 1.5
_CRITICAL_MAX = 5.0

_MASK64 = (1 << 64) - 1


class SimulationError(RuntimeError):
    """An engine failure wrapped with its scenario, replication, period and seed."""


class RegimeLabel(str, Enum):
    ABSORPTION = "absorption"
    LATENT_FRAGILITY = "latent_fragility"
    CRITICAL_TRANSITION = "critical_transition"
    AVALANCHE = "avalanche"


@dataclass(frozen=True)
class Substrate:
    """A table's propagation operator and exposure profile, precomputed.

    The table itself is not kept: the operator's matrix is its Z, whose
    values prepare_substrate scales in place.
    """

    operator: PropagationOperator
    exposure: ExposureProfile


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo cell: field level, dispersion and seed; the run protocol is per call."""

    name: str
    B_bar: float
    sigma_D: float
    master_seed: int


@dataclass(frozen=True)
class CellStats:
    """Pooled post-burn cascade statistics for one (B_bar, sigma_D) cell.

    Its convergence diagnostics hold it to the protocol's precision bounds:
    an absorbing cell must have se(mean_S) below 0.02, any other se/mean
    below 5%. Tail probabilities get binomial standard errors.
    """

    B_bar: float
    sigma_D: float
    mean_S: float
    se_mean_S: float
    pr_nonzero: float
    pr_ge: dict[int, float]
    p50: float
    p95: float
    p99: float
    s_max: int
    n_obs: int
    regime: RegimeLabel

    @property
    def se_over_mean(self) -> float | None:
        return self.se_mean_S / self.mean_S if self.mean_S > 0 else None

    @property
    def se_pr_ge(self) -> dict[int, float]:
        return {k: math.sqrt(p * (1.0 - p) / self.n_obs) for k, p in sorted(self.pr_ge.items())}

    @property
    def within_bounds(self) -> bool:
        if self.regime is RegimeLabel.ABSORPTION:
            return self.se_mean_S < 0.02
        ratio = self.se_over_mean
        return ratio is not None and ratio < 0.05


@dataclass(frozen=True)
class ScenarioResult:
    """A scenario's statistics and its post-burn cascade sizes, realised
    fields and relaxation rounds as (replications, T_stat) arrays."""

    name: str
    stats: CellStats
    series: np.ndarray
    B_realised: np.ndarray
    relax_rounds: np.ndarray


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, *indices: int) -> int:
    """Derive a child seed by hashing indices into the master, left to right.

    Deriving in stages gives the same child as deriving in one call
    (child_seed(m, a, b) == child_seed(child_seed(m, a), b)), so grid cells
    and replications can be split independently and in any order.
    """
    state = master & _MASK64
    for ix in indices:
        state = _splitmix64(state ^ _splitmix64((ix + 1) & _MASK64))
    return state


def prepare_substrate(
    table: IOTable,
    kind: OperatorKind = OperatorKind.LEAKAGE_ADJUSTED,
    d_floor: float = DEFAULT_FLOOR,
    c_floor: float = DEFAULT_FLOOR,
) -> Substrate:
    """Build the operator and exposure profile once for reuse across cells.

    Takes the table: the exposure is computed first, and the operator's
    values are then scaled into table.Z's own arrays, so that no second
    copy of the flows is held. Afterwards table.Z holds the operator's
    values, and the table no longer holds its flows; build_operator and
    compute_exposure leave a table as it was. An operator that
    build_operator made from the same table shares Z's index arrays, which
    this may compact where it drops a scaled value of 0.
    """
    exposure = compute_exposure(table, B=1.0, d_floor=d_floor, c_floor=c_floor)
    operator = _build_into(table, kind, table.Z.data)
    return Substrate(operator=operator, exposure=exposure)


def _classify(mean_S: float) -> RegimeLabel:
    """Band a cell by mean cascade size; boundaries belong to the band above."""
    if mean_S < _ABSORPTION_MAX:
        return RegimeLabel.ABSORPTION
    if mean_S < _LATENT_MAX:
        return RegimeLabel.LATENT_FRAGILITY
    if mean_S < _CRITICAL_MAX:
        return RegimeLabel.CRITICAL_TRANSITION
    return RegimeLabel.AVALANCHE


def make_cell_stats(B_bar: float, sigma_D: float, series: np.ndarray) -> CellStats:
    """Pool a (replications, periods) array of cascade sizes into one cell's statistics.

    The standard error of mean_S comes from the spread of per-replication
    means (0 when there is a single replication).
    """
    pooled = series.ravel()
    rep_means = series.mean(axis=1)
    R = series.shape[0]
    se = float(np.std(rep_means, ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    mean_S = float(pooled.mean())
    p50, p95, p99 = (float(q) for q in np.percentile(pooled, [50, 95, 99]))
    return CellStats(
        B_bar=B_bar,
        sigma_D=sigma_D,
        mean_S=mean_S,
        se_mean_S=se,
        pr_nonzero=float(np.mean(pooled > 0)),
        pr_ge={k: float(np.mean(pooled >= k)) for k in (5, 10, 20)},
        p50=p50,
        p95=p95,
        p99=p99,
        s_max=int(pooled.max()),
        n_obs=int(pooled.size),
        regime=_classify(mean_S),
    )


# A batch holds up to this many stress values (columns x nodes): 512 KB per
# n x k array, so a batch's arrays stay in cache.
_PACK_VALUES = 1 << 16


def _plan(specs: list[ScenarioSpec], replications: int, n_workers: int, n: int) -> list[list[tuple[ScenarioSpec, int]]]:
    """Cut the run's (spec, replication) columns into tasks, each run as one batch.

    The columns, in spec and replication order, are cut into contiguous
    tasks whose widths differ by at most one: as few as keep every task
    within _PACK_VALUES stress values, since a batch's cost per column falls
    with its width until its arrays outgrow the cache, and at least one per
    worker. Returns the tasks, in column order.
    """
    columns = [(spec, rep) for spec in specs for rep in range(replications)]
    total = len(columns)
    count = min(total, max(n_workers, -(-total // max(1, _PACK_VALUES // n))))
    return [columns[total * i // count : total * (i + 1) // count] for i in range(count)]


def _run_task(
    substrate: Substrate, params: Params, sigma_b_ratio: float, T_burn: int, T_stat: int, task: list[tuple[ScenarioSpec, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a task's columns as one batch: post-burn S, B_t and rounds, a row per column."""
    columns = [
        (spec.B_bar, sigma_b_ratio * spec.B_bar, spec.sigma_D, child_seed(spec.master_seed, rep))
        for spec, rep in task
    ]
    try:
        return run_batch(substrate.operator, substrate.exposure, params, columns, T_burn + T_stat, keep_from=T_burn)
    except RelaxationBudgetError as err:
        spec, rep = task[err.column]
        raise SimulationError(
            f"scenario {spec.name!r} replication {rep} period {err.period}: {err}"
            f" (seed {columns[err.column][3]})"
        ) from err


# Forked workers inherit the imported modules and the substrate; a started
# one (forkserver, Python 3.14's default on Linux, or spawn) imports numpy and
# scipy again and unpickles the substrate. Where fork is missing, the default.
_POOL_CONTEXT = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)

# (substrate, params, sigma_b_ratio, T_burn, T_stat), set once in each pool worker by _init_worker,
# so that a task carries only its columns.
_worker_context: tuple = ()


def _init_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _worker_task(task: list[tuple[ScenarioSpec, int]]):
    return _run_task(*_worker_context, task)


def run_scenarios(
    specs: list[ScenarioSpec],
    substrate: Substrate,
    params: Params,
    sigma_b_ratio: float = DEFAULT_SIGMA_B_RATIO,
    threads: int | None = 1,
    *,
    T_burn: int,
    T_stat: int,
    replications: int,
) -> Iterator[ScenarioResult]:
    """Run every replication of every spec; yield one result per spec, in spec order.

    The run protocol is per call: every spec runs `replications` replications
    of T_burn burn-in periods, then T_stat periods kept as its series.

    Replication r runs on its own stream seeded child_seed(master_seed, r),
    so results are independent of execution order; the fold over
    replications is by index, making serial and parallel runs identical.
    The run's columns are cut into tasks of even width, each run as one
    batch (see run_batch and _plan); a spec's replications may span tasks.
    threads is the worker count, one per CPU when None.
    With more than one worker, one process pool runs the tasks and receives
    the substrate once per worker through its initializer. Each spec's
    result is yielded as soon as its tasks are done, so a caller can write or
    reduce it before later specs' series are held; a failing task raises
    before any of its specs is yielded. The inputs are validated and the
    contraction check runs once per call, here, when it is made, not in the
    workers; a bad spec is refused by name.
    """
    if T_burn < 0 or T_stat < 1:
        raise ValueError(f"bad protocol: T_burn={T_burn}, T_stat={T_stat}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    params.validate()
    if not 0.0 <= sigma_b_ratio < math.inf:
        raise ValueError(f"sigma_b_ratio must be finite and non-negative, got {sigma_b_ratio}")
    for spec in specs:
        sigma_B = sigma_b_ratio * spec.B_bar  # the field volatility
        if math.isinf(sigma_B) and math.isfinite(spec.B_bar):
            raise ValueError(
                f"scenario {spec.name!r}: sigma_b_ratio={sigma_b_ratio} times B_bar={spec.B_bar} overflows"
            )
        try:
            _check_column(spec.B_bar, sigma_B, spec.sigma_D)
        except ValueError as err:
            raise ValueError(f"scenario {spec.name!r}: {err}") from None
    if not specs:
        return iter(())
    n_workers = threads or os.cpu_count() or 1
    check = contraction_check(params, substrate.operator.spectral_radius)
    if not check.passed:
        warnings.warn(
            f"contraction check failed: beta={params.beta} >= bound={check.bound:.4g}; "
            "stress feedback may not be stable",
            RuntimeWarning,
            stacklevel=2,
        )
    tasks = _plan(specs, replications, n_workers, substrate.operator.n)
    return _results(specs, replications, tasks, n_workers, (substrate, params, sigma_b_ratio, T_burn, T_stat))


def _results(specs, replications, tasks, n_workers, context) -> Iterator[ScenarioResult]:
    n_workers = min(n_workers, len(tasks))
    with ExitStack() as stack:
        if n_workers > 1:
            pool = ProcessPoolExecutor(
                n_workers, mp_context=_POOL_CONTEXT, initializer=_init_worker, initargs=context
            )
            # a caller that stops early (a failed write) does not wait for the queued tasks
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_worker_task, tasks)
        else:
            results = (_run_task(*context, task) for task in tasks)
        # each replication's (S, B_t, rounds) rows, in spec and replication order
        rows = (row for batch in results for row in zip(*batch))
        for spec in specs:
            S, B, rounds = map(np.array, zip(*islice(rows, replications)))
            yield ScenarioResult(spec.name, make_cell_stats(spec.B_bar, spec.sigma_D, S), S, B, rounds)


def preset_scenarios(
    master_seed: int,
    names: list[str] | None = None,
    cells: Iterable[tuple[str, float, float]] = (),
) -> list[ScenarioSpec]:
    """The named preset cells, then the custom (name, B_bar, sigma_D) cells,
    as runnable scenario specs with unique names.

    Each preset derives its master seed from its position in the canonical
    ordering, and custom cell k from position len(PRESETS) + k, so adding or
    dropping presets does not shift the others. The names are checked before
    the cells are read.
    """
    order = list(PRESETS)
    chosen = names if names is not None else order
    for name in chosen:
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of {order}")
    placed = [(name, *PRESETS[name], order.index(name)) for name in chosen]
    placed += [(*cell, len(order) + k) for k, cell in enumerate(cells)]
    specs = []
    for name, B_bar, sigma_D, position in placed:
        if any(spec.name == name for spec in specs):
            raise ValueError(f"duplicate scenario name {name!r}")
        specs.append(ScenarioSpec(name, B_bar, sigma_D, child_seed(master_seed, position)))
    return specs


def grid_scenarios(
    B_values: tuple[float, ...],
    sigmaD_values: tuple[float, ...],
    master_seed: int,
) -> list[ScenarioSpec]:
    """The phase grid's cells as runnable scenario specs, row-major (field
    outer, dispersion inner): cell (i, j), at index c = i * len(sigmaD_values)
    + j, is named cell_i_j and seeded child_seed(master_seed, c)."""
    for name, axis in (("B_values", B_values), ("sigmaD_values", sigmaD_values)):
        if len(axis) == 0:
            raise ValueError(f"{name} must be non-empty")
        if not all(math.isfinite(v) for v in axis):
            raise ValueError(f"{name} must be finite, got {list(axis)}")
        if list(axis) != sorted(set(axis)):
            raise ValueError(f"{name} must be strictly ascending")
    return [
        ScenarioSpec(f"cell_{i}_{j}", B_bar, sigma_D, child_seed(master_seed, i * len(sigmaD_values) + j))
        for i, B_bar in enumerate(B_values)
        for j, sigma_D in enumerate(sigmaD_values)
    ]
